// The doe-paper workload, the paper's measured configuration: a
// single-threaded closed loop of Session jobs (interpreter + DOE + memory
// hierarchy), run by several threads at once so that each job's fastest
// repeat comes from whichever vCPU the host slowed least.  The same job runner, with model=none, measures the Session
// and engine layers of dse-service's urgent functional jobs.
#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/callgraph.h"
#include "analysis/program.h"
#include "analysis/translatability.h"
#include "harness.h"
#include "isa/kisa.h"
#include "support/error.h"
#include "workloads/workloads.h"

namespace ksimbench {

namespace {

using ksim::api::ProgramImage;
using ksim::api::Session;

/// Repeats of every job behind its fastest one, at the least.
constexpr size_t kMinRounds = 10;

struct JobSpec {
  ImageSpec image;
  std::string model;
  std::string key; ///< reference key
};

/// The paper's six workloads on Table II's ISAs under DOE.
std::vector<JobSpec> doe_paper_jobs() {
  std::vector<JobSpec> jobs;
  for (const ksim::workloads::Workload& wl : ksim::workloads::all())
    for (const char* isa : {"RISC", "VLIW2", "VLIW4", "VLIW8"})
      jobs.push_back({{wl.name, isa}, "doe", "doe-paper:" + wl.name + "@" + isa});
  return jobs;
}

ksim::api::RunConfig config_for(const JobSpec& job) {
  ksim::api::RunConfig cfg;
  cfg.workload = job.image.workload;
  cfg.isa = job.image.isa;
  cfg.model = job.model;
  cfg.echo_output = false;
  return cfg;
}

/// Cost of one Clock::now() pair, subtracted from sampled model timings.
double clock_pair_ns() {
  std::vector<double> v;
  for (int i = 0; i < 1001; ++i) {
    const Clock::time_point t0 = Clock::now();
    v.push_back(ms_between(t0, Clock::now()) * 1e6);
  }
  return median(v);
}

/// Per-layer counters summed over the traced rounds.
struct LayerSums {
  ksim::sim::SimStats stats;
  MemSums mem;
  double model_sampled_ns = 0;
  uint64_t model_samples = 0;
  double run_ms = 0; ///< api.session_run time of modeled, uncaptured jobs
  uint64_t run_instructions = 0;
  int rounds = 0;

  void add(const ksim::sim::SimStats& s) {
    stats.instructions += s.instructions;
    stats.decodes += s.decodes;
    stats.cache_lookups += s.cache_lookups;
    stats.pred_hits += s.pred_hits;
    stats.blocks_formed += s.blocks_formed;
    stats.block_dispatches += s.block_dispatches;
    stats.block_chain_hits += s.block_chain_hits;
    stats.jit_blocks_translated += s.jit_blocks_translated;
    stats.jit_dispatches += s.jit_dispatches;
    stats.jit_side_exits += s.jit_side_exits;
    stats.jit_bailouts += s.jit_bailouts;
    stats.jit_cache_flushes += s.jit_cache_flushes;
  }
};

/// What a traced round collects around one job.
struct Probe {
  LayerSums& sums;
  bool capture_accesses; ///< first traced round only: replay costs time
};

struct JobResult {
  double ms = 0;
  uint64_t instructions = 0;
  Outcome outcome;
};

/// One job: Session construction through run, report and destruction — the
/// work a `ksim run` user waits for once the image exists.
JobResult run_job(const JobSpec& spec, const ProgramImage& image, uint64_t id,
                  Tracer& tracer, Probe* probe) {
  const ksim::api::RunConfig cfg = config_for(spec);
  std::vector<Access> accesses;
  JobResult r;
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope job(tracer, "job", id);
    std::unique_ptr<Session> s;
    {
      Tracer::Scope c(tracer, "api.session_ctor", id);
      s = std::make_unique<Session>(cfg, image);
    }
    std::optional<TimedModel> timed;
    if (probe != nullptr && s->model() != nullptr) {
      timed.emplace(*s->model(), probe->capture_accesses ? &accesses : nullptr);
      s->simulator().set_cycle_model(&*timed);
    }
    ksim::sim::StopReason reason;
    const Clock::time_point run0 = Clock::now();
    {
      Tracer::Scope c(tracer, "api.session_run", id);
      reason = s->run();
    }
    const double run_ms = ms_between(run0, Clock::now());
    ksim::api::Report rep;
    {
      Tracer::Scope c(tracer, "api.report", id);
      rep = s->report(reason);
    }
    r.instructions = rep.stats.instructions;
    r.outcome = {rep.stop_reason,
                 rep.exit_code,
                 ok_line(s->simulator().libc().output(), spec.image.workload),
                 rep.output_bytes,
                 rep.stats.instructions,
                 rep.stats.operations,
                 rep.has_cycles ? rep.cycles : 0};
    if (probe != nullptr) {
      probe->sums.add(rep.stats);
      if (const ksim::cycle::MemoryHierarchy* h = s->participants().memory)
        probe->sums.mem.add(*h);
      if (timed && !probe->capture_accesses) { // capturing slows the run
        probe->sums.model_sampled_ns += timed->sampled_ns();
        probe->sums.model_samples += timed->sampled();
        probe->sums.run_ms += run_ms;
        probe->sums.run_instructions += rep.stats.instructions;
      }
    }
    Tracer::Scope c(tracer, "api.session_dtor", id);
    s.reset();
  }
  r.ms = ms_between(t0, Clock::now());

  if (probe != nullptr) {
    // Layer probes outside the timed job: the same public calls Session
    // construction makes, timed one by one.  sim.load covers building the
    // simulator (its RAM) and loading the executable.
    Clock::time_point a = Clock::now();
    ksim::sim::Simulator sim(ksim::isa::kisa(), cfg.sim_options());
    sim.load(image.exe);
    tracer.add("sim.load", id, a, Clock::now());
    if (spec.model == "none") {
      a = Clock::now();
      const ksim::analysis::Program program =
          ksim::analysis::decode_program(image.exe, ksim::isa::kisa());
      const ksim::analysis::FuncAnalyses fa = ksim::analysis::analyze_functions(program);
      const ksim::analysis::TranslatabilityReport tr = ksim::analysis::classify_translatability(
          image.exe, program, fa, sim.state().ram_size());
      tracer.add("analysis.translatability", id, a, Clock::now());
      ksim::check(!tr.functions.empty(), "translatability report is empty");
    }
    probe->sums.mem.replay(cfg.memory, accesses, r.outcome.cycles);
  }
  return r;
}

/// The Session, engine, cycle-model and memory metrics of traced rounds.
std::vector<Metric> layer_metrics(const std::vector<const Tracer*>& spans,
                                  const LayerSums& sums) {
  const auto rounds = static_cast<double>(sums.rounds);
  const ksim::sim::SimStats& st = sums.stats;
  const double clock_ns = clock_pair_ns();
  const double model_ns =
      sums.model_samples == 0
          ? 0
          : std::max(0.0, sums.model_sampled_ns / static_cast<double>(sums.model_samples) -
                              clock_ns);
  const double instr = static_cast<double>(sums.run_instructions);
  const double interp_ns =
      instr == 0 ? 0 : std::max(0.0, sums.run_ms * 1e6 / instr - model_ns);
  std::vector<Metric> m = {
      {"api.session_ctor_ms", "ms", span_median_ms(spans, "api.session_ctor")},
      {"analysis.translatability_ms", "ms",
       span_median_ms(spans, "analysis.translatability")},
      {"sim.load_ms", "ms", span_median_ms(spans, "sim.load")},
      {"api.report_ms", "ms", span_median_ms(spans, "api.report")},
      {"api.session_run_ms", "ms", span_median_ms(spans, "api.session_run")},
      {"bench.job_self_ms", "ms", span_median_ms(spans, "job", true)},
      {"sim.decode_avoidance", "ratio", st.decode_avoidance()},
      {"sim.lookup_avoidance", "ratio", st.lookup_avoidance()},
      {"sim.block_chain_avoidance", "ratio", st.block_chain_avoidance()},
      {"sim.blocks_formed", "count", static_cast<double>(st.blocks_formed) / rounds},
      {"jit.blocks_translated", "count",
       static_cast<double>(st.jit_blocks_translated) / rounds},
      {"jit.dispatches", "count", static_cast<double>(st.jit_dispatches) / rounds},
      {"jit.dispatch_share", "ratio",
       st.block_dispatches == 0 ? 0
                                : static_cast<double>(st.jit_dispatches) /
                                      static_cast<double>(st.block_dispatches)},
      {"jit.side_exits", "count", static_cast<double>(st.jit_side_exits) / rounds},
      {"jit.bailouts", "count", static_cast<double>(st.jit_bailouts) / rounds},
      {"jit.cache_flushes", "count", static_cast<double>(st.jit_cache_flushes) / rounds},
      {"cycle.model_ns_per_instr", "ns", model_ns},
      {"sim.interp_ns_per_instr", "ns", interp_ns},
  };
  for (Metric& x : sums.mem.metrics(rounds)) m.push_back(std::move(x));
  return m;
}

} // namespace

std::vector<Metric> functional_session_layers(const std::vector<ImageSpec>& specs,
                                              const std::vector<ProgramImage>& images,
                                              int rounds, Tracer& tracer) {
  LayerSums sums;
  uint64_t id = 1;
  for (int round = 0; round < rounds; ++round) {
    Probe probe{sums, false};
    for (size_t i = 0; i < specs.size(); ++i)
      run_job({specs[i], "none", ""}, images[i], id++, tracer, &probe);
    ++sums.rounds;
  }
  std::vector<Metric> m = layer_metrics({&tracer}, sums);
  // No cycle model runs here: those metrics belong to the caller.
  std::erase_if(m, [](const Metric& x) {
    return x.name.rfind("cycle.", 0) == 0 || x.name == "sim.interp_ns_per_instr";
  });
  return m;
}

Result run_doe_paper(const Options& o) {
  Result result;
  const Clock::time_point origin = Clock::now();
  const std::vector<JobSpec> jobs = doe_paper_jobs();
  std::vector<ImageSpec> specs;
  for (const JobSpec& j : jobs) specs.push_back(j.image);

  auto setup_tracer = std::make_unique<Tracer>(o.trace, origin);
  SetUp su;
  set_up(specs, kSetUpReps / 2, *setup_tracer, su);
  Gate gate(o, result);

  auto traced = std::make_unique<Tracer>(true, origin);
  LayerSums sums;

  // One thread's share of the rounds: the untraced latencies of each job,
  // and every round's host ns/instruction.
  struct Sampler {
    size_t index = 0;
    Tracer untraced;
    uint64_t next_id = 1;
    std::vector<std::vector<double>> job_ms;
    std::vector<uint64_t> job_instructions;
    std::vector<double> plain_ns, traced_ns;
  };
  // A traced run stays on one thread: its layer sums and spans are not
  // shared between threads.
  const size_t threads = o.trace ? 1 : sampler_threads();
  std::vector<Sampler> samplers;
  for (size_t t = 0; t < threads; ++t)
    samplers.push_back({t, Tracer(false, origin), 1, std::vector<std::vector<double>>(jobs.size()),
                        std::vector<uint64_t>(jobs.size()), {}, {}});

  auto run_round = [&](Sampler& smp, uint64_t round, bool trace) {
    Probe probe{sums, trace && sums.rounds == 0};
    double job_s = 0;
    uint64_t instructions = 0;
    // Each thread's rounds get an order of their own, still set by the seed.
    for (size_t i : round_order(jobs.size(), o.seed, round * threads + smp.index)) {
      const JobResult jr = run_job(jobs[i], su.images[i], smp.next_id++,
                                   trace ? *traced : smp.untraced, trace ? &probe : nullptr);
      gate.check(jobs[i].key, jr.outcome);
      if (round != 0 && !trace) smp.job_ms[i].push_back(jr.ms);
      smp.job_instructions[i] = jr.instructions;
      job_s += jr.ms / 1000.0;
      instructions += jr.instructions;
    }
    if (round != 0)
      (trace ? smp.traced_ns : smp.plain_ns)
          .push_back(job_s * 1e9 / static_cast<double>(instructions));
    if (trace) ++sums.rounds;
  };

  // Round 0 is not measured: page faults, allocator growth and lazy statics
  // are paid once per process, not per job.
  run_round(samplers[0], 0, false);
  if (o.write_references) {
    gate.finish();
    return result;
  }
  std::vector<std::exception_ptr> errors(threads);
  {
    std::vector<std::jthread> pool; // joins every started thread on exit
    for (size_t t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        try {
          measure_rounds(o, kMinRounds, [&](uint64_t round, bool trace) {
            run_round(samplers[t], round, trace);
          });
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  set_up(specs, kSetUpReps - kSetUpReps / 2, *setup_tracer, su);

  if (!o.trace) {
    // Every timing is a job's fastest repeat on any thread (NOTES.md,
    // "Noise").
    std::vector<double> best_ms;
    double best_s = 0, instructions = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      double best = std::numeric_limits<double>::infinity();
      for (const Sampler& smp : samplers) best = std::min(best, std::ranges::min(smp.job_ms[j]));
      best_ms.push_back(best);
      best_s += best / 1000.0;
      instructions += static_cast<double>(samplers[0].job_instructions[j]);
    }
    result.samples = best_ms.size();
    result.metrics = end_to_end_metrics(su, instructions / best_s / 1e6, best_ms,
                                        static_cast<double>(best_ms.size()) / best_s);
    return result;
  }

  const std::vector<const Tracer*> spans{setup_tracer.get(), traced.get()};
  result.metrics = set_up_and_overhead_metrics(su, spans,
                                               1e3 / std::ranges::min(samplers[0].traced_ns),
                                               1e3 / std::ranges::min(samplers[0].plain_ns));
  for (Metric& m : layer_metrics(spans, sums)) result.metrics.push_back(std::move(m));
  result.tracers.push_back(std::move(setup_tracer));
  result.tracers.push_back(std::move(traced));
  return result;
}

} // namespace ksimbench
