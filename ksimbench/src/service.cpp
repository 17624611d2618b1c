// The dse-service workload: an in-process ksimd with two workers, driven by
// this process over two connections.  Connection A submits a kdse geometry
// sweep (AIE model, small single-ported L1s, so misses, writebacks and port
// stalls dominate); connection B submits urgent functional jobs in a closed
// loop, which preempt sweep points through in-memory kckpt snapshots.  A
// round is one sweep plus every urgent job once.
#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "api/sweep.h"
#include "ckpt/checkpoint.h"
#include "harness.h"
#include "ksimd/protocol.h"
#include "ksimd/server.h"
#include "support/error.h"
#include "support/json.h"
#include "workloads/workloads.h"

namespace ksimbench {

namespace {

using ksim::ksimd::Client;
using ksim::ksimd::Message;

constexpr size_t kWorkers = 2;
/// Short slices, so an urgent job waits at most a few ms for a victim.
constexpr uint64_t kSliceInstructions = 100'000;
constexpr int kUrgentPriority = 10;
constexpr int kSessionProbeRounds = 5;

const char* const kSweepManifest =
    R"({"workloads": ["aes", "cjpeg"], "isas": ["RISC"], "models": ["aie"],)"
    R"( "memories": [{"l1": {"sets": [4, 8], "ways": [1, 2]}, "ports": 1}]})";

struct UrgentJob {
  ImageSpec image;
  std::string key;
};

std::vector<UrgentJob> urgent_jobs() {
  std::vector<UrgentJob> jobs;
  for (const ksim::workloads::Workload& wl : ksim::workloads::all())
    for (const char* isa : {"RISC", "VLIW2"})
      jobs.push_back({{wl.name, isa}, "dse-service:urgent:" + wl.name + "@" + isa});
  return jobs;
}

ksim::api::RunConfig urgent_config(const UrgentJob& job) {
  ksim::api::RunConfig cfg;
  cfg.workload = job.image.workload;
  cfg.isa = job.image.isa;
  cfg.echo_output = false;
  return cfg;
}

uint64_t uint_at(const ksim::support::JsonValue& v, const char* key) {
  return static_cast<uint64_t>(v.at(key).as_int(key));
}

Outcome outcome_of(const ksim::support::JsonValue& v) {
  Outcome o;
  o.stop_reason = v.at("stop_reason").as_string("stop_reason");
  o.exit_code = static_cast<int>(v.at("exit_code").as_int("exit_code"));
  o.output_bytes = uint_at(v, "output_bytes");
  o.instructions = uint_at(v, "instructions");
  o.operations = uint_at(v, "operations");
  if (v.find("cycles") != nullptr) o.cycles = uint_at(v, "cycles");
  return o;
}

/// Reads protocol messages, timing the parse when `stats` is given.
struct ParseStats {
  double ns = 0;
  uint64_t messages = 0;
};

Message read_message(Client& c, ParseStats* stats) {
  const std::optional<std::string> line = c.read_line();
  ksim::check(line.has_value(), "daemon closed the connection");
  const Clock::time_point t0 = Clock::now();
  Message m = ksim::ksimd::parse_message(*line);
  if (stats != nullptr) {
    stats->ns += ms_between(t0, Clock::now()) * 1e6;
    ++stats->messages;
  }
  return m;
}

/// Polls the scheduler's job table (traced rounds only): when each urgent job
/// was first seen running, and how long sweep points sat evicted.
class Poller {
public:
  explicit Poller(ksim::ksimd::Scheduler& s) : s_(s), thread_([this] { loop(); }) {}
  ~Poller() {
    stop_ = true;
    thread_.join();
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  std::map<uint64_t, Clock::time_point> first_running() {
    std::lock_guard<std::mutex> lk(m_);
    return first_running_;
  }
  std::vector<double> evicted_ms() {
    std::lock_guard<std::mutex> lk(m_);
    return evicted_ms_;
  }

private:
  void loop() {
    while (!stop_) {
      const std::vector<ksim::ksimd::JobInfo> jobs = s_.jobs();
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lk(m_);
        for (const ksim::ksimd::JobInfo& j : jobs) {
          const bool running = j.state == ksim::ksimd::JobState::Running;
          if (running && j.tenant == "urgent") first_running_.emplace(j.id, now);
          if (j.tenant != "sweep") continue;
          if (j.state == ksim::ksimd::JobState::Preempted) {
            evicted_since_.emplace(j.id, now);
          } else if (auto it = evicted_since_.find(j.id); it != evicted_since_.end()) {
            evicted_ms_.push_back(ms_between(it->second, now));
            evicted_since_.erase(it);
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ksim::ksimd::Scheduler& s_;
  std::mutex m_;
  std::map<uint64_t, Clock::time_point> first_running_;
  std::map<uint64_t, Clock::time_point> evicted_since_;
  std::vector<double> evicted_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_; // last: starts after the members it uses
};

/// Owns the daemon thread; stops and joins it on every exit path.
class Daemon {
public:
  Daemon() : server_(options(), {}), thread_([this] { server_.run(); }) {}
  ~Daemon() {
    server_.request_stop(true);
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return server_.port(); }
  ksim::ksimd::Scheduler& scheduler() { return server_.scheduler(); }

private:
  static ksim::ksimd::SchedulerOptions options() {
    ksim::ksimd::SchedulerOptions o;
    o.workers = kWorkers;
    o.slice_instructions = kSliceInstructions;
    return o;
  }

  ksim::ksimd::Server server_;
  std::thread thread_;
};

struct Round {
  double wall_s = 0;
  uint64_t instructions = 0;
  size_t jobs = 0;
  std::vector<double> urgent_ms; ///< latency of each urgent job
};

/// Throughput of the fastest round: every round does the same work, so its
/// wall time is what host interference inflates.
struct Rates {
  double mips = 0;
  double jobs_per_s = 0;
};
Rates fastest_round(const std::vector<Round>& rounds) {
  const Round& r = std::ranges::min(rounds, {}, &Round::wall_s);
  return {static_cast<double>(r.instructions) / r.wall_s / 1e6,
          static_cast<double>(r.jobs) / r.wall_s};
}

struct TraceSums {
  std::vector<double> queue_wait_ms, evicted_ms;
  uint64_t preemptions = 0, rejections = 0;
  ParseStats parse;
  int rounds = 0;
};

} // namespace

Result run_service(const Options& o) {
  Result result;
  const Clock::time_point origin = Clock::now();
  const std::vector<UrgentJob> urgent = urgent_jobs();
  std::vector<ImageSpec> specs;
  for (const UrgentJob& u : urgent) specs.push_back(u.image);

  auto setup_tracer = std::make_unique<Tracer>(o.trace, origin);
  SetUp su;
  set_up(specs, kSetUpReps / 2, *setup_tracer, su);
  Gate gate(o, result);

  Daemon daemon;
  Client sweep_conn("127.0.0.1", daemon.port());
  Client urgent_conn("127.0.0.1", daemon.port());
  auto traced = std::make_unique<Tracer>(true, origin);
  Tracer untraced(false, origin);
  TraceSums sums;
  uint64_t preemptions_seen = 0;

  auto run_round = [&](uint64_t round, bool trace) {
    Round r;
    Tracer& tracer = trace ? *traced : untraced;
    std::optional<Poller> poller;
    if (trace) poller.emplace(daemon.scheduler());
    ParseStats sweep_parse;
    std::promise<void> accepted;
    std::future<void> sweep_accepted = accepted.get_future();
    std::exception_ptr sweep_error;
    std::atomic<bool> sweep_failed{false};
    uint64_t sweep_instructions = 0;
    size_t sweep_points = 0;

    const Clock::time_point t0 = Clock::now();
    std::thread sweep([&] {
      bool signalled = false;
      try {
        ksim::ksimd::SweepSubmitRequest req;
        req.tenant = "sweep";
        req.manifest = kSweepManifest;
        sweep_conn.send_line(ksim::ksimd::encode(req));
        for (;;) {
          const Message m = read_message(sweep_conn, trace ? &sweep_parse : nullptr);
          if (std::holds_alternative<ksim::ksimd::Accepted>(m)) {
            accepted.set_value();
            signalled = true;
          } else if (const auto* rej = std::get_if<ksim::ksimd::Rejected>(&m)) {
            throw ksim::Error("sweep rejected: " + rej->code + ": " + rej->error);
          } else if (const auto* done = std::get_if<ksim::ksimd::SweepDone>(&m)) {
            const ksim::support::JsonValue doc = ksim::support::parse_json(done->report);
            for (const ksim::support::JsonValue& p : doc.at("points").array) {
              const Outcome out = outcome_of(p);
              sweep_instructions += out.instructions;
              ++sweep_points;
              gate.check("dse-service:sweep:" + p.at("workload").as_string("workload") +
                             "@" + p.at("isa").as_string("isa") + ":" +
                             p.at("memory").as_string("memory"),
                         out);
            }
            return;
          }
        }
      } catch (...) {
        sweep_error = std::current_exception();
        sweep_failed = true;
        if (!signalled) accepted.set_value();
      }
    });
    // The sweep thread always ends: the sweep completes, or the connection
    // fails and its read throws.
    struct Joiner {
      std::thread& t;
      ~Joiner() {
        if (t.joinable()) t.join();
      }
    } joiner{sweep};

    // Urgent jobs start once the sweep is in flight, so they find both
    // workers busy and must preempt.
    sweep_accepted.wait();
    for (size_t i : round_order(urgent.size(), o.seed, round)) {
      if (sweep_failed) break;
      ksim::ksimd::SubmitRequest req;
      req.tenant = "urgent";
      req.priority = kUrgentPriority;
      req.config = urgent_config(urgent[i]);
      const Clock::time_point submit = Clock::now();
      Tracer::Scope job(tracer, "ksimd.urgent_job", i + 1);
      urgent_conn.send_line(ksim::ksimd::encode(req));
      uint64_t id = 0;
      for (;;) {
        const Message m = read_message(urgent_conn, trace ? &sums.parse : nullptr);
        if (const auto* acc = std::get_if<ksim::ksimd::Accepted>(&m)) {
          id = acc->id;
          tracer.add("ksimd.accept", i + 1, submit, Clock::now());
        } else if (const auto* rej = std::get_if<ksim::ksimd::Rejected>(&m)) {
          // A refused job is a failed operation; the loop moves on.
          ++sums.rejections;
          gate.fail(urgent[i].key, "rejected: " + rej->code);
          break;
        } else if (const auto* done = std::get_if<ksim::ksimd::Done>(&m)) {
          const double ms = ms_between(submit, Clock::now());
          Outcome out;
          if (done->state == ksim::ksimd::JobState::Done)
            out = outcome_of(ksim::support::parse_json(done->report));
          else
            out.stop_reason = std::string("job ") + ksim::ksimd::to_string(done->state);
          gate.check(urgent[i].key, out);
          r.urgent_ms.push_back(ms);
          r.instructions += out.instructions;
          ++r.jobs;
          if (trace) {
            if (const auto seen = poller->first_running(); seen.count(id) != 0)
              sums.queue_wait_ms.push_back(ms_between(submit, seen.at(id)));
          }
          break;
        }
      }
    }
    sweep.join();
    if (sweep_error) std::rethrow_exception(sweep_error);
    r.wall_s = ms_between(t0, Clock::now()) / 1000.0;
    r.instructions += sweep_instructions;
    r.jobs += sweep_points;
    if (trace) {
      const std::vector<double> ev = poller->evicted_ms();
      sums.evicted_ms.insert(sums.evicted_ms.end(), ev.begin(), ev.end());
      sums.parse.ns += sweep_parse.ns;
      sums.parse.messages += sweep_parse.messages;
      ++sums.rounds;
    }
    uint64_t total = 0;
    for (const ksim::ksimd::JobInfo& j : daemon.scheduler().jobs("sweep"))
      total += j.preemptions;
    if (trace) sums.preemptions += total - preemptions_seen;
    preemptions_seen = total;
    return r;
  };

  // The unmeasured first round builds the daemon's cached images.
  run_round(0, false);
  if (o.write_references) {
    gate.finish();
    return result;
  }

  std::vector<Round> plain, with_trace;
  std::vector<double> latencies_ms;
  measure_rounds(o, min_rounds_for(0.95, urgent.size()),
                 [&](uint64_t round, bool trace) {
                   Round r = run_round(round, trace);
                   if (!trace)
                     latencies_ms.insert(latencies_ms.end(), r.urgent_ms.begin(),
                                         r.urgent_ms.end());
                   (trace ? with_trace : plain).push_back(std::move(r));
                 });
  set_up(specs, kSetUpReps - kSetUpReps / 2, *setup_tracer, su);

  if (!o.trace) {
    // Latency keeps every repeat: how long an urgent job waits for a victim
    // to yield is the scheduler's own behaviour (NOTES.md, "Noise").
    const Rates rates = fastest_round(plain);
    result.samples = latencies_ms.size();
    result.metrics = end_to_end_metrics(su, rates.mips, latencies_ms, rates.jobs_per_s);
    return result;
  }

  // Checkpoint and memory probes: snapshot each sweep point one slice in, as
  // an eviction does, restore it through Session::resume, and run the
  // restored session to the end behind a TimedModel that captures the access
  // stream.  The outcome must still match the pinned reference, and the
  // hierarchy counters cover the whole point, as the daemon ran it.
  std::vector<double> save_ms, restore_ms, snapshot_kb;
  MemSums mem;
  auto image_of = [&](const std::string& label) -> const ksim::api::ProgramImage& {
    for (const ksim::api::ProgramImage& image : su.images)
      if (image.label == label) return image;
    throw ksim::Error("no image " + label);
  };
  const ksim::api::SweepSpec spec =
      ksim::api::SweepSpec::from_manifest(kSweepManifest, "sweep manifest");
  for (const std::string& wl : spec.workloads)
    for (const ksim::cycle::MemGeometry& g : spec.geometries) {
      ksim::api::RunConfig cfg;
      cfg.workload = wl;
      cfg.isa = "RISC";
      cfg.model = "aie";
      cfg.memory = g;
      cfg.echo_output = false;
      cfg.max_instructions = kSliceInstructions;
      const ksim::api::ProgramImage& image = image_of(wl + "@RISC");
      ksim::api::Session s(cfg, image);
      s.run();
      Clock::time_point a = Clock::now();
      const std::vector<uint8_t> bytes =
          ksim::ckpt::encode_checkpoint(cfg.run_record(image.exe, image.label),
                                        s.participants());
      save_ms.push_back(ms_between(a, Clock::now()));
      snapshot_kb.push_back(static_cast<double>(bytes.size()) / 1024.0);
      a = Clock::now();
      ksim::api::ResumeOverrides ro;
      ro.echo_output = false;
      const std::unique_ptr<ksim::api::Session> resumed =
          ksim::api::Session::resume(ksim::ckpt::parse_checkpoint(bytes), ro);
      restore_ms.push_back(ms_between(a, Clock::now()));
      std::vector<Access> stream;
      TimedModel capture(*resumed->model(), &stream);
      resumed->simulator().set_cycle_model(&capture);
      const ksim::api::Report rep = resumed->report(resumed->run());
      mem.add(*resumed->participants().memory);
      mem.replay(g, stream, rep.cycles);
      gate.check("dse-service:sweep:" + wl + "@RISC:" + g.id(),
                 {rep.stop_reason, rep.exit_code, "", rep.output_bytes,
                  rep.stats.instructions, rep.stats.operations, rep.cycles});
    }

  const std::vector<const Tracer*> spans{setup_tracer.get(), traced.get()};
  const auto rounds = static_cast<double>(sums.rounds);
  result.metrics = set_up_and_overhead_metrics(su, spans, fastest_round(with_trace).mips,
                                               fastest_round(plain).mips);
  const std::vector<Metric> service = {
      {"ksimd.accept_ms", "ms", span_median_ms(spans, "ksimd.accept")},
      {"ksimd.queue_wait_ms", "ms", median(sums.queue_wait_ms)},
      {"ksimd.preemptions", "count", static_cast<double>(sums.preemptions) / rounds},
      {"ksimd.evicted_ms", "ms", median(sums.evicted_ms)},
      {"ksimd.rejections", "count", static_cast<double>(sums.rejections) / rounds},
      {"ckpt.save_ms", "ms", median(save_ms)},
      {"ckpt.restore_ms", "ms", median(restore_ms)},
      {"ckpt.snapshot_kb", "KiB", median(snapshot_kb)},
      {"support.json_us_per_msg", "us",
       sums.parse.messages == 0
           ? 0
           : sums.parse.ns / 1000.0 / static_cast<double>(sums.parse.messages)},
  };
  result.metrics.insert(result.metrics.end(), service.begin(), service.end());
  // Each point runs once per round, so per-point sums are per-round counts.
  for (Metric& m : mem.metrics(1)) result.metrics.push_back(std::move(m));
  // The urgent jobs are functional runs on the default engine; their
  // Session and engine layers are timed in-process, one job at a time.
  for (Metric& m : functional_session_layers(specs, su.images, kSessionProbeRounds, *traced))
    result.metrics.push_back(std::move(m));
  result.tracers.push_back(std::move(setup_tracer));
  result.tracers.push_back(std::move(traced));
  return result;
}

} // namespace ksimbench
