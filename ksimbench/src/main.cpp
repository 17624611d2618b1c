// ksimbench entry point.
//
//   ksimbench --workload doe-paper|dse-service --seed N
//             --seconds S --trace 0|1 [--commit SHA] [--references FILE]
//             [--out-dir DIR] [--write-references]
//
// Prints one line per metric, a provenance line, and as the last line of
// stdout one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced run (and writes its spans to --out-dir).
// --write-references pins the outcomes of one round instead of measuring.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "jit/jit.h"
#include "support/error.h"
#include "support/json.h"

namespace ksimbench {
namespace {

/// Every per-layer metric, in BENCHMARK.json order.  A traced run reports
/// all of them; a layer its workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"isa.kisa_ms", "ms"},
    {"kcc.compile_ms", "ms"},
    {"kasm.assemble_ms", "ms"},
    {"kasm.link_ms", "ms"},
    {"api.session_ctor_ms", "ms"},
    {"analysis.translatability_ms", "ms"},
    {"sim.load_ms", "ms"},
    {"api.report_ms", "ms"},
    {"api.session_run_ms", "ms"},
    {"bench.job_self_ms", "ms"},
    {"sim.decode_avoidance", "ratio"},
    {"sim.lookup_avoidance", "ratio"},
    {"sim.block_chain_avoidance", "ratio"},
    {"sim.blocks_formed", "count"},
    {"jit.blocks_translated", "count"},
    {"jit.dispatches", "count"},
    {"jit.dispatch_share", "ratio"},
    {"jit.side_exits", "count"},
    {"jit.bailouts", "count"},
    {"jit.cache_flushes", "count"},
    {"cycle.model_ns_per_instr", "ns"},
    {"sim.interp_ns_per_instr", "ns"},
    {"cycle.mem_ns_per_access", "ns"},
    {"cycle.mem_accesses", "count"},
    {"cycle.l1_hit_ratio", "ratio"},
    {"cycle.l2_hit_ratio", "ratio"},
    {"cycle.writebacks", "count"},
    {"cycle.port_stalls", "count"},
    {"ksimd.accept_ms", "ms"},
    {"ksimd.queue_wait_ms", "ms"},
    {"ksimd.preemptions", "count"},
    {"ksimd.evicted_ms", "ms"},
    {"ksimd.rejections", "count"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.snapshot_kb", "KiB"},
    {"support.json_us_per_msg", "us"},
    {"bench.traced_mips", "MIPS"},
    {"bench.untraced_mips", "MIPS"},
    {"bench.trace_overhead_pct", "%"},
};

std::vector<Metric> all_layers(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : kPerLayer) out.push_back({name, unit, 0});
  for (const Metric& m : measured) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Metric& x) { return x.name == m.name; });
    ksim::check(it != out.end() && it->unit == m.unit,
                "internal: unlisted per-layer metric " + m.name);
    it->value = m.value;
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ksimbench: %s\nusage: ksimbench --workload doe-paper|dse-service "
               "--seed N --seconds S --trace 0|1 [--commit SHA] "
               "[--references FILE] [--out-dir DIR] [--write-references]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--write-references") {
      o.write_references = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--commit") o.commit = value;
    else if (arg == "--references") o.references = value;
    else if (arg == "--out-dir") o.out_dir = value;
    else usage(("unknown argument " + arg).c_str());
  }
  if (o.workload != "doe-paper" && o.workload != "dse-service") usage("unknown workload");
  if (o.references.empty()) usage("--references is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "unknown";
}

/// Every result records where and how it was measured.  dse-service runs
/// functional jobs on the default engine (and its traced run measures their
/// JIT layers); without the JIT they run a different engine tier, so its
/// numbers are not comparable with JIT hosts.  doe-paper runs a cycle model,
/// which keeps the JIT off on every host; its untraced rounds run on
/// sampler_threads() threads, which also sets how many Sessions its peak RSS
/// holds at once.
void write_provenance(ksim::support::JsonWriter& w, const Options& o) {
  const bool comparable = o.workload != "dse-service" || ksim::jit::host_supported();
  w.begin_object("provenance");
  w.field("cpu_model", cpu_model());
  w.field("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.field("build_type", KSIMBENCH_BUILD_TYPE);
  w.field("compiler", "gcc " __VERSION__);
  w.field("jit_host_supported", ksim::jit::host_supported());
  w.field("commit", o.commit);
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("seconds", o.seconds);
  w.field("trace", o.trace);
  if (o.workload == "doe-paper")
    w.field("sampler_threads", static_cast<uint64_t>(o.trace ? 1 : sampler_threads()));
  w.field("comparable", comparable);
  if (!comparable)
    w.field("comparable_note",
            "no JIT on this host: the urgent functional jobs ran without it");
  w.end();
}

void write_spans(ksim::support::JsonWriter& w, const Result& r) {
  w.begin_array("spans");
  for (size_t t = 0; t < r.tracers.size(); ++t)
    for (const Span& s : r.tracers[t]->spans()) {
      w.begin_object();
      w.field("name", s.name);
      w.field("tracer", static_cast<uint64_t>(t));
      w.field("start_ms", s.start_ms);
      w.field("end_ms", s.end_ms);
      w.field("parent", static_cast<int64_t>(s.parent));
      w.field("job", s.job);
      w.end();
    }
  w.end();
}

int bench_main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  Result r = o.workload == "dse-service" ? run_service(o) : run_doe_paper(o);
  if (o.write_references) {
    std::fprintf(stderr, "ksimbench: pinned %llu outcomes of %s in %s\n",
                 static_cast<unsigned long long>(r.attempted), o.workload.c_str(),
                 o.references.c_str());
    return 0;
  }
  if (o.trace) {
    r.metrics = all_layers(r.metrics);
  } else {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    r.metrics.push_back({"peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024.0});
  }

  ksim::support::JsonWriter doc;
  doc.begin_object();
  doc.field("schema", "ksimbench.result");
  write_provenance(doc, o);
  doc.field("attempted", r.attempted);
  doc.field("failed", r.failed);
  doc.field("latency_samples", static_cast<uint64_t>(r.samples));
  doc.begin_object("metrics");
  for (const Metric& m : r.metrics) {
    doc.begin_object(m.name);
    doc.field("value", m.value);
    doc.field("unit", m.unit);
    doc.end();
  }
  doc.end();
  doc.begin_array("failures");
  for (const std::string& f : r.failures) doc.element(f);
  doc.end();
  if (o.trace) write_spans(doc, r);
  doc.end();
  if (!o.out_dir.empty()) {
    std::filesystem::create_directories(o.out_dir);
    const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << doc.str();
    ksim::check(out.good(), "cannot write " + path);
  }

  for (const std::string& f : r.failures) std::fprintf(stderr, "MISMATCH %s\n", f.c_str());
  ksim::support::JsonWriter prov(ksim::support::JsonStyle::Compact);
  prov.begin_object();
  write_provenance(prov, o);
  prov.end();
  std::printf("%s", prov.str().c_str());
  if (r.samples != 0)
    std::printf("latency samples %zu (%zu beyond p95)\n", r.samples,
                samples_beyond(r.samples, 0.95));
  for (const Metric& m : r.metrics)
    std::printf("%-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string line = "{\"correct\": ";
  line += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    ksim::check(std::isfinite(r.metrics[i].value),
                "internal: metric " + r.metrics[i].name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + r.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

} // namespace
} // namespace ksimbench

int main(int argc, char** argv) {
  try {
    return ksimbench::bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ksimbench: error: %s\n", e.what());
    return 1;
  }
}
