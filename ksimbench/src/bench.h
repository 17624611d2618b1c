// ksimbench — the repository benchmark (see ../NOTES.md).
//
// The benchmark drives ksim only through its public library surface
// (api::Session, the compile pipeline, ksimd::Server/Client), runs every job
// of a workload the same number of times in whole rounds, checks every
// simulated result against references pinned in references.json, and prints
// one JSON result line.  This header holds the pieces the self-tests cover:
// percentiles, the per-round job order, spans with self time, and the
// reference comparison.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ksimbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- statistics ---------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty vector.
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);

/// Number of samples ranked strictly above the nearest-rank p-percentile of
/// n samples.  A reported percentile is only meaningful with at least ten.
size_t samples_beyond(size_t n, double p);

/// Fewest whole rounds of `jobs_per_round` samples that leave at least
/// `beyond` samples above the p-percentile.
size_t min_rounds_for(double p, size_t jobs_per_round, size_t beyond = 10);

// -- round schedule -----------------------------------------------------------

/// The order in which round `round` runs jobs 0..jobs-1: a Fisher-Yates
/// shuffle driven by (seed, round).  Every round is a permutation, so the job
/// set is the same under any seed; the seed changes the order only.
std::vector<size_t> round_order(size_t jobs, uint64_t seed, uint64_t round);

// -- spans --------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0; ///< since the tracer's origin
  double end_ms = 0;
  int parent = -1;     ///< index into the same tracer, -1 for a root
  uint64_t job = 0;    ///< spans of one job share this id (0 = set-up)
};

/// In-memory span recorder for one thread.  A disabled tracer records
/// nothing and costs one branch per call.  Spans nest by call order: open()
/// makes the newest still-open span the parent.
class Tracer {
public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  int open(const std::string& name, uint64_t job);
  void close(int index);
  /// Records an already-measured interval as a child of the open span.
  void add(const std::string& name, uint64_t job, Clock::time_point start,
           Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII open/close.
  class Scope {
  public:
    Scope(Tracer& t, const std::string& name, uint64_t job)
        : t_(t), index_(t.open(name, job)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& t_;
    int index_;
  };

private:
  double since_origin(Clock::time_point t) const { return ms_between(origin_, t); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of a span: its duration minus the part of its interval the
/// children cover (children may overlap each other or stick out).
double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children);

// -- correctness gate ---------------------------------------------------------

/// What one simulated job must reproduce exactly.  `ok_line` is the
/// workload's "<name> OK ..." line for in-process jobs; service jobs only
/// see the report, so they pin `output_bytes` instead.  `cycles` is 0 for
/// runs without a cycle model.
struct Outcome {
  std::string stop_reason;
  int exit_code = 0;
  std::string ok_line;
  uint64_t output_bytes = 0;
  uint64_t instructions = 0;
  uint64_t operations = 0;
  uint64_t cycles = 0;
};

using References = std::map<std::string, Outcome>;

References load_references(const std::string& path);
void save_references(const std::string& path, const References& refs);

/// "" when `got` equals `ref` in every field, else a one-line description of
/// the first difference.
std::string compare_outcome(const Outcome& ref, const Outcome& got);

/// The "<workload> OK ..." line of a program's output ("" if missing).
std::string ok_line(const std::string& output, const std::string& workload);

} // namespace ksimbench
