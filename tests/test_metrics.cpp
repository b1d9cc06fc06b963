#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/threading.hpp"
#include "qc/library.hpp"
#include "sv/fusion.hpp"
#include "sv/simulator.hpp"

namespace svsim::obs {
namespace {

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.increment();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketingIsLowerBoundInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  // v <= bounds[i] lands in bucket i; v > bounds.back() overflows.
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (le semantics)
  h.observe(2.0);    // bucket 1
  h.observe(10.0);   // bucket 1
  h.observe(99.0);   // bucket 2
  h.observe(1000.0); // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 2.0 + 10.0 + 99.0 + 1000.0, 1e-9);
  EXPECT_NEAR(h.mean(), h.sum() / 6.0, 1e-12);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({3.0, 1.0}), Error);
  EXPECT_THROW(Histogram({1.0, 1.0}), Error);
}

TEST(Registry, ReturnsStableReferencesAndResets) {
  MetricsRegistry& r = MetricsRegistry::global();
  Counter& a = r.counter("test.registry_counter");
  Counter& b = r.counter("test.registry_counter");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
  r.reset();
  EXPECT_EQ(a.value(), 0u);
}

TEST(Registry, JsonDumpContainsAllMetricKinds) {
  MetricsRegistry& r = MetricsRegistry::global();
  r.counter("test.json_counter").add(3);
  r.gauge("test.json_gauge").set(1.25);
  r.histogram("test.json_hist", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  r.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":1.25"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1,0]"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Registry, TableListsMetrics) {
  MetricsRegistry& r = MetricsRegistry::global();
  r.counter("test.table_counter").add(5);
  const Table t = r.table();
  EXPECT_GE(t.num_rows(), 1u);
  EXPECT_NE(t.to_text().find("test.table_counter"), std::string::npos);
}

TEST(Instrumentation, SimulatorPublishesRunCounters) {
  MetricsRegistry& r = MetricsRegistry::global();
  r.reset();
  sv::Simulator<double> sim;
  sim.run(qc::qft(5));
  EXPECT_EQ(r.counter("sv.runs").value(), 1u);
  EXPECT_EQ(r.counter("sv.gates_applied").value(), qc::qft(5).size());
  EXPECT_GT(r.counter("sv.bytes_streamed").value(), 0u);
}

TEST(Instrumentation, FusionPublishesBlockWidths) {
  MetricsRegistry& r = MetricsRegistry::global();
  r.reset();
  sv::FusionOptions options;
  options.max_width = 3;
  sv::fuse(qc::qft(6), options);
  Histogram& h = r.histogram("fusion.block_width", {});
  EXPECT_GT(h.count(), 0u);
  EXPECT_GE(h.mean(), 1.0);
  EXPECT_LE(h.mean(), 3.0);
  EXPECT_EQ(r.counter("fusion.blocks").value(), h.count());
  EXPECT_GE(r.counter("fusion.gates_merged").value(), h.count());
}

TEST(Instrumentation, ThreadPoolCountsRegions) {
  ThreadPool pool(2);
  pool.reset_stats();
  pool.parallel_for(1u << 14, kForkGrainBytes,
                    [](unsigned, std::uint64_t, std::uint64_t) {});
  pool.parallel_for(4, /*item_bytes=*/16,
                    [](unsigned, std::uint64_t, std::uint64_t) {});
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_regions, 1u);
  EXPECT_EQ(stats.inline_regions, 1u);
  EXPECT_EQ(stats.items, (1u << 14) + 4u);
  pool.reset_stats();
  EXPECT_EQ(pool.stats().items, 0u);
}

}  // namespace
}  // namespace svsim::obs
