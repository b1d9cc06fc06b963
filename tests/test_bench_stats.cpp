#include "obs/bench/stats.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/bench/env.hpp"
#include "obs/bench/record.hpp"
#include "obs/bench/registry.hpp"

namespace svsim::obs::bench {
namespace {

TEST(MedianOf, HandlesEmptyOddEven) {
  EXPECT_EQ(median_of({}), 0.0);
  EXPECT_EQ(median_of({3.0}), 3.0);
  EXPECT_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Summarize, BasicStatisticsOnCleanSeries) {
  const SampleStats st = summarize({1.0, 1.0, 1.0, 1.0, 1.0}, {});
  EXPECT_EQ(st.reps(), 5);
  EXPECT_EQ(st.warmup_reps, 0);
  EXPECT_EQ(st.outliers_rejected, 0);
  EXPECT_DOUBLE_EQ(st.mean, 1.0);
  EXPECT_DOUBLE_EQ(st.median, 1.0);
  EXPECT_DOUBLE_EQ(st.stddev, 0.0);
  EXPECT_DOUBLE_EQ(st.mad, 0.0);
  EXPECT_TRUE(st.converged);
}

TEST(Summarize, DetectsLeadingWarmup) {
  // First two reps are 2x slower than the steady state: classic cold-cache
  // warmup that a plain mean would smear into the result.
  const std::vector<double> raw = {2.0, 2.0, 1.0, 1.0, 1.0, 1.0,
                                   1.0, 1.0, 1.0, 1.0};
  const SampleStats st = summarize(raw, {});
  EXPECT_EQ(st.warmup_reps, 2);
  EXPECT_EQ(st.reps(), 8);
  EXPECT_DOUBLE_EQ(st.median, 1.0);
  EXPECT_DOUBLE_EQ(st.mean, 1.0);
}

TEST(Summarize, WarmupCappedAtQuarterOfSeries) {
  // A monotonically decreasing (pathological) series must not be eaten from
  // the front: at most size/4 reps may be classified as warmup.
  const std::vector<double> raw = {8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0};
  const SampleStats st = summarize(raw, {});
  EXPECT_LE(st.warmup_reps, 2);
  EXPECT_GE(st.reps(), 6);
}

TEST(Summarize, RejectsOutlierBeyondMadFence) {
  // One rep hit a scheduler hiccup: 100x the others. The MAD fence drops it
  // and the median/mean stay at the steady state.
  const std::vector<double> raw = {1.00, 0.99, 1.01, 0.98, 1.02, 1.00,
                                   0.99, 100.0, 1.01, 0.98, 1.02, 1.00};
  const SampleStats st = summarize(raw, {});
  EXPECT_EQ(st.outliers_rejected, 1);
  EXPECT_NEAR(st.median, 1.0, 1e-9);
  EXPECT_LT(st.max, 2.0);
}

TEST(Summarize, ZeroMadSkipsOutlierPass) {
  // All-equal samples: MAD is 0, the fence would reject everything; the
  // engine must keep the series intact instead.
  const SampleStats st = summarize({1.0, 1.0, 1.0, 1.0, 1.0, 5.0}, {});
  EXPECT_EQ(st.reps(), 6);
  EXPECT_EQ(st.outliers_rejected, 0);
}

TEST(Summarize, NoisySeriesDoesNotConverge) {
  StatConfig cfg;
  cfg.target_rel_ci = 0.01;
  const SampleStats st = summarize({1.0, 2.0, 1.0, 2.0, 1.0, 2.0}, cfg);
  EXPECT_FALSE(st.converged);
  EXPECT_GT(st.rel_ci95, cfg.target_rel_ci);
}

TEST(Measure, RespectsMinAndMaxReps) {
  StatConfig cfg;
  cfg.min_reps = 4;
  cfg.max_reps = 6;
  // rel_ci95 is never negative, so this target is unreachable and forces
  // the rep cap. A tiny positive target is not: an empty callable often
  // times identically every rep, which gives rel_ci95 == 0.
  cfg.target_rel_ci = -1.0;
  cfg.max_seconds = 60.0;
  int calls = 0;
  const SampleStats st = measure([&] { ++calls; }, cfg);
  // priming rep + max_reps samples.
  EXPECT_EQ(calls, 7);
  EXPECT_GE(st.reps() + st.warmup_reps + st.outliers_rejected, cfg.min_reps);
}

TEST(Measure, StopsOnTimeBudget) {
  StatConfig cfg;
  cfg.min_reps = 2;
  cfg.max_reps = 1000000;
  cfg.target_rel_ci = 0.0;  // never converges
  cfg.max_seconds = 0.02;
  const SampleStats st = measure([] {
    volatile double x = 0;
    for (int i = 0; i < 20000; ++i) x = x + 1.0;
  }, cfg);
  // The budget, not the (absurd) rep cap, must have ended the loop, and
  // the engine must not blow far past it.
  EXPECT_LT(st.reps(), 1000000);
  EXPECT_LT(st.total_seconds, 1.0);
}

TEST(Measure, FastDeterministicFnConverges) {
  StatConfig cfg = StatConfig::smoke();
  const SampleStats st = measure([] {
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  }, cfg);
  EXPECT_GE(st.reps(), 1);
  EXPECT_GT(st.median, 0.0);
}

TEST(HostSpecOverride, ParsesKeyValueList) {
  unsigned cores = 0;
  double ghz = 0, gbps = 0;
  EXPECT_TRUE(
      parse_host_spec_override("cores=16,ghz=2.5,gbps=64", cores, ghz, gbps));
  EXPECT_EQ(cores, 16u);
  EXPECT_DOUBLE_EQ(ghz, 2.5);
  EXPECT_DOUBLE_EQ(gbps, 64.0);
}

TEST(HostSpecOverride, PartialAndInvalidInputs) {
  unsigned cores = 0;
  double ghz = 0, gbps = 0;
  EXPECT_TRUE(parse_host_spec_override("ghz=3.0", cores, ghz, gbps));
  EXPECT_DOUBLE_EQ(ghz, 3.0);
  EXPECT_EQ(cores, 0u);
  EXPECT_FALSE(parse_host_spec_override("bogus", cores, ghz, gbps));
  EXPECT_FALSE(parse_host_spec_override("", cores, ghz, gbps));
}

TEST(RecordJson, EscapesAndSerializes) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");

  BenchRecord r;
  r.id = "case.sub";
  r.case_id = "case";
  r.kind = "measured";
  r.unit = "s";
  r.value = 0.5;
  r.has_stats = true;
  r.stats = summarize({0.5, 0.5, 0.5, 0.5, 0.5}, {});
  std::ostringstream os;
  write_record_json(os, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"id\":\"case.sub\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"measured\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":[0.5,0.5,0.5,0.5,0.5]"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Registry, CasesAreRegisteredAndSorted) {
  // The test binary does not link the bench cases; the registry is empty
  // here, but the API contract (sorted, copy-out) must still hold.
  const auto cases = all_cases();
  for (std::size_t i = 1; i < cases.size(); ++i)
    EXPECT_LT(cases[i - 1].id, cases[i].id);
}

TEST(RunCase, CapturesExceptionInsteadOfPropagating) {
  BenchCase c;
  c.id = "throwing_case";
  c.title = "T";
  c.description = "throws";
  c.fn = [](BenchContext&) { throw std::runtime_error("boom"); };
  const CaseResult r =
      run_case(c, StatConfig::smoke(), true, false, nullptr);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.error, "boom");
}

}  // namespace
}  // namespace svsim::obs::bench
