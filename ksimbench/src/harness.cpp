#include "harness.h"

#include <algorithm>
#include <thread>

#include "adl/parser.h"
#include "isa/kisa.h"
#include "isa/kisa_adl.h"
#include "isa/targetgen.h"
#include "kasm/assembler.h"
#include "kasm/linker.h"
#include "kasm/stubs.h"
#include "kcc/compiler.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace ksimbench {

namespace {

/// The workload build pipeline (what api::resolve_input does for a built-in
/// workload), one public call per span so each phase is timed on its own.
ksim::api::ProgramImage build_image(const ImageSpec& spec, Tracer& tracer) {
  const ksim::workloads::Workload& wl = ksim::workloads::by_name(spec.workload);
  const ksim::isa::IsaInfo* isa = ksim::isa::kisa().find_isa(spec.isa);
  ksim::check(isa != nullptr, "unknown ISA " + spec.isa);

  std::string assembly;
  {
    Tracer::Scope s(tracer, "kcc.compile", 0);
    ksim::kcc::CompileOptions copt;
    copt.file_name = wl.name + ".c";
    copt.codegen.default_isa = spec.isa;
    assembly = ksim::kcc::compile_or_throw(wl.source, copt);
  }
  std::vector<ksim::elf::ElfFile> objects;
  {
    Tracer::Scope s(tracer, "kasm.assemble", 0);
    ksim::kasm::AsmOptions aopt;
    aopt.file_name = wl.name + ".c.s";
    objects.push_back(ksim::kasm::assemble_or_throw(
        ksim::kasm::start_stub_assembly(spec.isa)));
    objects.push_back(ksim::kasm::assemble_or_throw(assembly, aopt));
    objects.push_back(ksim::kasm::assemble_or_throw(ksim::kasm::libc_stub_assembly()));
  }
  Tracer::Scope s(tracer, "kasm.link", 0);
  ksim::kasm::LinkOptions lopt;
  lopt.entry_isa = isa->id;
  return {ksim::kasm::link_or_throw(objects, lopt), spec.workload + "@" + spec.isa};
}

} // namespace

void set_up(const std::vector<ImageSpec>& specs, int reps, Tracer& tracer, SetUp& su) {
  for (int rep = 0; rep < reps; ++rep) {
    const bool first = su.seconds.empty();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "isa.kisa", 0);
      if (first) {
        ksim::isa::kisa();
      } else {
        const ksim::isa::IsaSet fresh = ksim::isa::TargetGen::build(
            ksim::adl::parse_adl_or_throw(ksim::isa::kisa_adl_text(), "kisa.adl"));
        ksim::check(fresh.find_isa("RISC") != nullptr, "ISA set lacks RISC");
      }
    }
    std::vector<ksim::api::ProgramImage> images;
    for (const ImageSpec& spec : specs) images.push_back(build_image(spec, tracer));
    su.seconds.push_back(ms_between(t0, Clock::now()) / 1000.0);
    if (first) su.images = std::move(images);
  }
}

void measure_rounds(const Options& o, size_t min_rounds,
                    const std::function<void(uint64_t round, bool trace)>& run_round) {
  size_t plain = 0, traced = 0;
  const Clock::time_point start = Clock::now();
  for (uint64_t round = 1;; ++round) {
    const double elapsed = ms_between(start, Clock::now()) / 1000.0;
    const bool enough = o.trace ? plain >= 2 && traced >= 2 : plain >= min_rounds;
    if ((enough && elapsed >= o.seconds) || elapsed >= kMaxMeasureSeconds) break;
    const bool trace = o.trace && round % 2 == 0;
    run_round(round, trace);
    ++(trace ? traced : plain);
  }
}

size_t sampler_threads() {
  const size_t n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n > 1 ? n - 1 : 1, 1, 3);
}

std::vector<Metric> end_to_end_metrics(const SetUp& su, double mips,
                                       const std::vector<double>& latencies_ms,
                                       double jobs_per_s) {
  return {{"setup_s", "s", std::ranges::min(su.seconds)},
          {"mips", "MIPS", mips},
          {"job_p50_ms", "ms", percentile(latencies_ms, 0.50)},
          {"job_p95_ms", "ms", percentile(latencies_ms, 0.95)},
          {"jobs_per_s", "1/s", jobs_per_s}};
}

std::vector<Metric> set_up_and_overhead_metrics(const SetUp& su,
                                                const std::vector<const Tracer*>& spans,
                                                double traced_mips, double plain_mips) {
  const auto reps = static_cast<double>(su.seconds.size());
  return {
      {"isa.kisa_ms", "ms", span_median_ms(spans, "isa.kisa")},
      {"kcc.compile_ms", "ms", span_total_ms(spans, "kcc.compile") / reps},
      {"kasm.assemble_ms", "ms", span_total_ms(spans, "kasm.assemble") / reps},
      {"kasm.link_ms", "ms", span_total_ms(spans, "kasm.link") / reps},
      {"bench.traced_mips", "MIPS", traced_mips},
      {"bench.untraced_mips", "MIPS", plain_mips},
      {"bench.trace_overhead_pct", "%",
       plain_mips == 0 ? 0 : 100.0 * (1.0 - traced_mips / plain_mips)},
  };
}

Gate::Gate(const Options& options, Result& result)
    : options_(options), result_(result) {
  if (!options.write_references) refs_ = load_references(options.references);
}

void Gate::check(const std::string& key, const Outcome& got) {
  std::lock_guard<std::mutex> lk(m_);
  ++result_.attempted;
  if (options_.write_references) {
    refs_.emplace(key, got);
    return;
  }
  const auto it = refs_.find(key);
  const std::string diff =
      it == refs_.end() ? "no pinned reference" : compare_outcome(it->second, got);
  if (!diff.empty()) record_failure_locked(key + ": " + diff);
}

void Gate::fail(const std::string& key, const std::string& why) {
  std::lock_guard<std::mutex> lk(m_);
  ++result_.attempted;
  record_failure_locked(key + ": " + why);
}

void Gate::record_failure_locked(const std::string& what) {
  ++result_.failed;
  if (result_.failures.size() < 8) result_.failures.push_back(what);
}

void Gate::finish() {
  if (!options_.write_references) return;
  // Keep the other workloads' pins: each workload writes only its own keys.
  References all;
  try {
    all = load_references(options_.references);
  } catch (const ksim::Error&) {
  }
  for (const auto& [key, o] : refs_) all[key] = o;
  save_references(options_.references, all);
}

void TimedModel::on_instruction(const ksim::isa::DecodedInstr& di,
                                const ksim::isa::ExecCtx& ctx) {
  if (capture_ != nullptr)
    for (int s = 0; s < di.num_ops; ++s)
      if (di.ops[s].info->uses_memory_model() && ctx.mem[s].valid)
        capture_->push_back({ctx.mem[s].addr, ctx.mem[s].is_store, s});
  if (++calls_ % kSampleEvery != 0) {
    inner_.on_instruction(di, ctx);
    return;
  }
  const Clock::time_point t0 = Clock::now();
  inner_.on_instruction(di, ctx);
  sampled_ns_ += ms_between(t0, Clock::now()) * 1e6;
  ++sampled_;
}

void MemSums::add(const ksim::cycle::MemoryHierarchy& h) {
  accesses += h.limit().stats().accesses;
  l1_accesses += h.l1().stats().accesses;
  l1_hits += h.l1().stats().hits;
  l2_accesses += h.l2().stats().accesses;
  l2_hits += h.l2().stats().hits;
  writebacks += h.l1().stats().writebacks + h.l2().stats().writebacks;
  port_stalls += h.limit().stats().port_stalls;
}

void MemSums::replay(const ksim::cycle::MemGeometry& g, const std::vector<Access>& stream,
                     uint64_t cycles) {
  if (stream.empty()) return;
  ksim::cycle::MemoryHierarchy h(g.hierarchy_config());
  const double spacing =
      std::max(1.0, static_cast<double>(cycles) / static_cast<double>(stream.size()));
  const Clock::time_point t0 = Clock::now();
  uint64_t start = 0, last = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    start = static_cast<uint64_t>(static_cast<double>(i) * spacing);
    last = h.entry().access(stream[i].addr,
                            stream[i].store ? ksim::cycle::AccessType::Write
                                            : ksim::cycle::AccessType::Read,
                            stream[i].slot, start);
  }
  replay_ns += ms_between(t0, Clock::now()) * 1e6;
  replayed += stream.size();
  ksim::check(last >= start, "replayed access completed before it started");
}

std::vector<Metric> MemSums::metrics(double rounds) const {
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  return {
      {"cycle.mem_ns_per_access", "ns",
       replayed == 0 ? 0 : replay_ns / static_cast<double>(replayed)},
      {"cycle.mem_accesses", "count", static_cast<double>(accesses) / rounds},
      {"cycle.l1_hit_ratio", "ratio", ratio(l1_hits, l1_accesses)},
      {"cycle.l2_hit_ratio", "ratio", ratio(l2_hits, l2_accesses)},
      {"cycle.writebacks", "count", static_cast<double>(writebacks) / rounds},
      {"cycle.port_stalls", "count", static_cast<double>(port_stalls) / rounds},
  };
}

namespace {

std::vector<double> span_values(const std::vector<const Tracer*>& tracers,
                                const std::string& name, bool self) {
  std::vector<double> v;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    if (self)
      for (const Span& s : spans)
        if (s.parent >= 0)
          children[static_cast<size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    for (size_t i = 0; i < spans.size(); ++i)
      if (spans[i].name == name)
        v.push_back(self ? self_time(spans[i].start_ms, spans[i].end_ms, children[i])
                         : spans[i].end_ms - spans[i].start_ms);
  }
  return v;
}

} // namespace

double span_median_ms(const std::vector<const Tracer*>& tracers,
                      const std::string& name, bool self) {
  return median(span_values(tracers, name, self));
}

double span_total_ms(const std::vector<const Tracer*>& tracers,
                     const std::string& name) {
  double total = 0;
  for (double d : span_values(tracers, name, false)) total += d;
  return total;
}

} // namespace ksimbench
