// ksimbench — what the workload runners share: options, metrics, set-up and
// the per-job correctness check.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/session.h"
#include "cycle/cycle_model.h"
#include "cycle/mem_hierarchy.h"
#include "bench.h"

namespace ksimbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string references;    ///< references.json path
  std::string out_dir;       ///< results + span files
  bool write_references = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures; ///< the first few mismatches, for stderr
  std::vector<Metric> metrics;       ///< end-to-end, or per-layer when traced
  size_t samples = 0;                ///< latency samples behind the percentiles
  std::vector<std::unique_ptr<Tracer>> tracers; ///< spans written out at exit
};

/// One program a workload simulates: a built-in workload on one ISA.
struct ImageSpec {
  std::string workload;
  std::string isa;
};

/// Set-up repetitions per run: half before the first round, half after the
/// last, so that they see two moments of the host 45 s apart.
constexpr int kSetUpReps = 24;
/// Hard stop for the measured rounds, well inside the 180 s a run may take.
constexpr double kMaxMeasureSeconds = 120;

/// The images of the first set-up and the seconds each set-up took.
struct SetUp {
  std::vector<ksim::api::ProgramImage> images; ///< parallel to the specs
  std::vector<double> seconds;
};
/// Builds the ISA set and every image, `reps` more times, recording the
/// isa.kisa / kcc.compile / kasm.assemble / kasm.link spans in `tracer`.
/// The first repetition of all constructs the process-wide isa::kisa() the
/// Sessions use and keeps its images; later ones construct a fresh copy
/// through the same calls and drop theirs.
void set_up(const std::vector<ImageSpec>& specs, int reps, Tracer& tracer, SetUp& su);

/// Runs measured rounds 1, 2, ... through `run_round(round, trace)` until
/// `--seconds` have passed and enough rounds are done: `min_rounds` of them,
/// or in a traced run two of each kind.  A traced run alternates untraced
/// (odd) and traced (even) rounds, so the tracing overhead is measured under
/// the same host conditions.  Stops at kMaxMeasureSeconds regardless.
void measure_rounds(const Options& o, size_t min_rounds,
                    const std::function<void(uint64_t round, bool trace)>& run_round);

/// Threads that measure doe-paper's untraced rounds at once: nproc - 1,
/// at most 3, at least 1.  The host slows vCPUs unevenly and the slow ones
/// change within seconds (NOTES.md, "Noise"), so a job's fastest repeat over
/// several vCPUs at once is steadier than over one.  One vCPU stays free for
/// the rest of the system.
size_t sampler_threads();

/// The end-to-end metrics except peak_rss_mb, which main() adds.
std::vector<Metric> end_to_end_metrics(const SetUp& su, double mips,
                                       const std::vector<double>& latencies_ms,
                                       double jobs_per_s);

/// The set-up layer metrics and the traced-vs-untraced MIPS overhead.
std::vector<Metric> set_up_and_overhead_metrics(const SetUp& su,
                                                const std::vector<const Tracer*>& spans,
                                                double traced_mips, double plain_mips);

/// Records `got` against the pinned reference `key` (or, in
/// write-references mode, pins it).
/// Thread-safe: the service workload checks from two client threads.
class Gate {
public:
  Gate(const Options& options, Result& result);
  void check(const std::string& key, const Outcome& got);
  /// Counts an operation that produced no outcome at all (e.g. refused).
  void fail(const std::string& key, const std::string& why);
  /// Writes the collected references (write-references mode only).
  void finish();

private:
  void record_failure_locked(const std::string& what);

  const Options& options_;
  std::mutex m_;
  Result& result_;
  References refs_;
};

// -- cycle-model and memory-hierarchy probes ----------------------------------

struct Access {
  uint32_t addr;
  bool store;
  int slot;
};

/// Forwards to a session's cycle model.  Times every kSampleEvery-th call
/// (timing every call would cost more than the model), and optionally
/// captures the memory-access stream the model sees.
class TimedModel final : public ksim::cycle::CycleModel {
public:
  static constexpr uint64_t kSampleEvery = 64;

  TimedModel(ksim::cycle::CycleModel& inner, std::vector<Access>* capture)
      : inner_(inner), capture_(capture) {}

  void on_instruction(const ksim::isa::DecodedInstr& di,
                      const ksim::isa::ExecCtx& ctx) override;
  uint64_t cycles() const override { return inner_.cycles(); }
  uint64_t operations() const override { return inner_.operations(); }
  void reset() override { inner_.reset(); }
  std::string name() const override { return inner_.name(); }

  double sampled_ns() const { return sampled_ns_; }
  uint64_t sampled() const { return sampled_; }

private:
  ksim::cycle::CycleModel& inner_;
  std::vector<Access>* capture_;
  uint64_t calls_ = 0;
  uint64_t sampled_ = 0;
  double sampled_ns_ = 0;
};

/// Memory-hierarchy counters summed over jobs, plus the replay cost.
struct MemSums {
  uint64_t accesses = 0, l1_accesses = 0, l1_hits = 0, l2_accesses = 0,
           l2_hits = 0, writebacks = 0, port_stalls = 0;
  double replay_ns = 0;
  uint64_t replayed = 0;

  void add(const ksim::cycle::MemoryHierarchy& h);
  /// Replays `stream` through a fresh benchmark-owned hierarchy of geometry
  /// `g` and adds the time taken.  The model's issue cycles are not visible
  /// from outside it, so accesses start evenly spaced over the `cycles` the
  /// modeled run took: the same density of port reservations as the run.
  void replay(const ksim::cycle::MemGeometry& g, const std::vector<Access>& stream,
              uint64_t cycles);
  /// The cycle.mem_* metrics, counts divided by `rounds`.
  std::vector<Metric> metrics(double rounds) const;
};

/// Median duration (or self time) of the spans named `name`.
double span_median_ms(const std::vector<const Tracer*>& tracers,
                      const std::string& name, bool self = false);
/// Sum of durations of spans named `name`.
double span_total_ms(const std::vector<const Tracer*>& tracers,
                     const std::string& name);

/// Runs functional (model=none, default engine) Session jobs for `specs`
/// in-process for `rounds` traced rounds and returns their Session and
/// engine metrics (api.*, analysis.*, sim.*, jit.*, bench.job_self_ms).
/// The service workload measures its urgent jobs' layers with this.
std::vector<Metric> functional_session_layers(const std::vector<ImageSpec>& specs,
                                              const std::vector<ksim::api::ProgramImage>& images,
                                              int rounds, Tracer& tracer);

Result run_doe_paper(const Options& options);
Result run_service(const Options& options);

} // namespace ksimbench
