// Self-tests of the benchmark's own logic: percentiles and the ten-samples
// rule, the per-round job order, span self time, and the correctness gate
// catching a perturbed reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>

#include "api/session.h"
#include "bench.h"
#include "harness.h"

namespace ksimbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0); // 1..100
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.95), 95.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({7.0}, 0.95), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, SamplesBeyondP95) {
  EXPECT_EQ(samples_beyond(100, 0.95), 5u);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(samples_beyond(0, 0.95), 0u);
}

TEST(Percentile, MinRoundsLeaveTenSamplesBeyond) {
  for (size_t jobs : {12u, 18u, 24u, 7u}) {
    const size_t rounds = min_rounds_for(0.95, jobs);
    EXPECT_GE(samples_beyond(rounds * jobs, 0.95), 10u) << jobs;
    EXPECT_LT(samples_beyond((rounds - 1) * jobs, 0.95), 10u) << jobs;
  }
}

TEST(RoundOrder, EveryRoundRunsTheSameJobSetUnderAnySeed) {
  std::set<std::vector<size_t>> orders;
  for (uint64_t seed = 0; seed < 40; ++seed)
    for (uint64_t round = 0; round < 25; ++round) {
      std::vector<size_t> order = round_order(24, seed, round);
      orders.insert(order);
      std::sort(order.begin(), order.end());
      std::vector<size_t> all(24);
      std::iota(all.begin(), all.end(), 0);
      ASSERT_EQ(order, all) << "seed " << seed << " round " << round;
    }
  EXPECT_GT(orders.size(), 900u); // the seed really does change the order
  EXPECT_EQ(round_order(18, 7, 3), round_order(18, 7, 3));
  EXPECT_NE(round_order(18, 7, 3), round_order(18, 8, 3));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  EXPECT_DOUBLE_EQ(self_time(0, 10, {}), 10);
  // [1,3] and [2,5] overlap; [8,12] sticks out past the parent.
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{8, 12}, {2, 5}, {1, 3}}), 4);
  // A child inside another child is not counted twice.
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{1, 9}, {2, 3}}), 2);
  EXPECT_DOUBLE_EQ(self_time(5, 6, {{0, 100}}), 0);
}

TEST(SelfTime, TracerNestsAndMedians) {
  Tracer t(true, Clock::now());
  {
    Tracer::Scope job(t, "job", 1);
    const Clock::time_point a = Clock::now();
    { Tracer::Scope run(t, "run", 1); }
    t.add("probe", 1, a, a);
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  const std::vector<const Tracer*> tracers{&t};
  const double job = span_median_ms(tracers, "job");
  const double self = span_median_ms(tracers, "job", true);
  EXPECT_LE(self, job);
  EXPECT_NEAR(self, job - span_median_ms(tracers, "run"), 1e-9);

  Tracer off(false, Clock::now());
  { Tracer::Scope s(off, "job", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Gate, OkLine) {
  EXPECT_EQ(ok_line("start\ndct OK sum=3\nend\n", "dct"), "dct OK sum=3");
  EXPECT_EQ(ok_line("dct FAIL\n", "dct"), "");
}

/// Runs one pinned job for real and returns its outcome.
Outcome run_dct_doe() {
  ksim::api::RunConfig cfg;
  cfg.workload = "dct";
  cfg.isa = "RISC";
  cfg.model = "doe";
  cfg.echo_output = false;
  ksim::api::Session s(cfg);
  const ksim::api::Report rep = s.report(s.run());
  return {rep.stop_reason,
          rep.exit_code,
          ok_line(s.simulator().libc().output(), "dct"),
          rep.output_bytes,
          rep.stats.instructions,
          rep.stats.operations,
          rep.cycles};
}

TEST(Gate, PinnedReferenceMatchesAndEveryPerturbationIsCaught) {
  const References refs = load_references(KSIMBENCH_REFERENCES);
  const std::string key = "doe-paper:dct@RISC";
  ASSERT_EQ(refs.count(key), 1u);
  const Outcome got = run_dct_doe();
  EXPECT_EQ(compare_outcome(refs.at(key), got), "");

  std::vector<Outcome> perturbed(7, refs.at(key));
  perturbed[0].stop_reason = "trap";
  perturbed[1].exit_code += 1;
  perturbed[2].ok_line += "x";
  perturbed[3].output_bytes += 1;
  perturbed[4].instructions += 1;
  perturbed[5].operations += 1;
  perturbed[6].cycles += 1;
  for (const Outcome& p : perturbed) EXPECT_NE(compare_outcome(p, got), "");

  // Through the gate, as a run uses it: the mismatch is a failed operation.
  const std::string path = KSIMBENCH_TMP_DIR "/selftest_refs.json";
  save_references(path, {{key, perturbed[6]}});
  Options o;
  o.references = path;
  Result result;
  Gate gate(o, result);
  gate.check(key, got);
  gate.check("doe-paper:unpinned@RISC", got);
  EXPECT_EQ(result.attempted, 2u);
  EXPECT_EQ(result.failed, 2u);
  std::remove(path.c_str());
}

} // namespace
} // namespace ksimbench
