#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>

#include "bench.h"
#include "support/error.h"
#include "support/json.h"

namespace ksimbench {

// -- statistics ---------------------------------------------------------------

namespace {

/// 0-based nearest-rank index of the p-percentile among n sorted samples.
size_t rank_index(size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n));
  return r < 1 ? 0 : std::min(n, static_cast<size_t>(r)) - 1;
}

} // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t i = rank_index(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

size_t samples_beyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - rank_index(n, p);
}

size_t min_rounds_for(double p, size_t jobs_per_round, size_t beyond) {
  size_t rounds = 1;
  while (samples_beyond(rounds * jobs_per_round, p) < beyond) ++rounds;
  return rounds;
}

// -- round schedule -----------------------------------------------------------

std::vector<size_t> round_order(size_t jobs, uint64_t seed, uint64_t round) {
  std::vector<size_t> order(jobs);
  for (size_t i = 0; i < jobs; ++i) order[i] = i;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + round);
  for (size_t i = jobs; i > 1; --i) {
    // Modulo bias is irrelevant for a handful of jobs; what matters is that
    // the result is the same on every standard library.
    const size_t j = static_cast<size_t>(rng() % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

// -- spans --------------------------------------------------------------------

int Tracer::open(const std::string& name, uint64_t job) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const double now = since_origin(Clock::now());
  spans_.push_back({name, now, now, parent, job});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ms = since_origin(Clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(const std::string& name, uint64_t job, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, since_origin(start), since_origin(end),
                    open_.empty() ? -1 : open_.back(), job});
}

double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0;
  double reach = start; // end of the covered prefix
  for (auto [a, b] : children) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return (end - start) - covered;
}

// -- correctness gate ---------------------------------------------------------

References load_references(const std::string& path) {
  std::ifstream in(path);
  ksim::check(in.good(), "cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const ksim::support::JsonValue doc = ksim::support::parse_json(text.str(), path);
  References refs;
  for (const auto& [key, v] : doc.at("jobs").entries) {
    Outcome o;
    o.stop_reason = v.at("stop_reason").as_string("stop_reason");
    o.exit_code = static_cast<int>(v.at("exit_code").as_int("exit_code"));
    o.ok_line = v.at("ok_line").as_string("ok_line");
    o.output_bytes = static_cast<uint64_t>(v.at("output_bytes").as_int("output_bytes"));
    o.instructions = static_cast<uint64_t>(v.at("instructions").as_int("instructions"));
    o.operations = static_cast<uint64_t>(v.at("operations").as_int("operations"));
    o.cycles = static_cast<uint64_t>(v.at("cycles").as_int("cycles"));
    refs[key] = o;
  }
  return refs;
}

void save_references(const std::string& path, const References& refs) {
  ksim::support::JsonWriter w;
  w.begin_object();
  w.field("schema", "ksimbench.references");
  w.begin_object("jobs");
  for (const auto& [key, o] : refs) {
    w.begin_object(key);
    w.field("stop_reason", o.stop_reason);
    w.field("exit_code", o.exit_code);
    w.field("ok_line", o.ok_line);
    w.field("output_bytes", o.output_bytes);
    w.field("instructions", o.instructions);
    w.field("operations", o.operations);
    w.field("cycles", o.cycles);
    w.end();
  }
  w.end();
  w.end();
  std::ofstream out(path);
  out << w.str();
  ksim::check(out.good(), "cannot write " + path);
}

std::string compare_outcome(const Outcome& ref, const Outcome& got) {
  auto differs = [](const char* what, const auto& want, const auto& have) {
    std::ostringstream s;
    s << what << ": expected " << want << ", got " << have;
    return s.str();
  };
  if (got.stop_reason != ref.stop_reason)
    return differs("stop_reason", ref.stop_reason, got.stop_reason);
  if (got.exit_code != ref.exit_code) return differs("exit_code", ref.exit_code, got.exit_code);
  if (got.ok_line != ref.ok_line) return differs("ok_line", ref.ok_line, got.ok_line);
  if (got.output_bytes != ref.output_bytes)
    return differs("output_bytes", ref.output_bytes, got.output_bytes);
  if (got.instructions != ref.instructions)
    return differs("instructions", ref.instructions, got.instructions);
  if (got.operations != ref.operations)
    return differs("operations", ref.operations, got.operations);
  if (got.cycles != ref.cycles) return differs("cycles", ref.cycles, got.cycles);
  return "";
}

std::string ok_line(const std::string& output, const std::string& workload) {
  const std::string prefix = workload + " OK";
  size_t pos = 0;
  while (pos < output.size()) {
    size_t end = output.find('\n', pos);
    if (end == std::string::npos) end = output.size();
    if (output.compare(pos, prefix.size(), prefix) == 0) return output.substr(pos, end - pos);
    pos = end + 1;
  }
  return "";
}

} // namespace ksimbench
