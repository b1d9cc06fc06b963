// Service-layer tests: JSON protocol parsing, plan-cache keying/eviction,
// batched-shot execution equivalence, admission control, and the serve
// session loop (docs/SERVICE.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "dist/dist_plan.hpp"
#include "machine/machine_spec.hpp"
#include "obs/metrics.hpp"
#include "qc/circuit.hpp"
#include "qc/library.hpp"
#include "sv/engine.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"
#include "svc/job_queue.hpp"
#include "svc/json.hpp"
#include "svc/plan_cache.hpp"
#include "svc/service.hpp"

using namespace svsim;

namespace {

std::string bit_label(std::uint64_t key, unsigned width) {
  std::string label;
  for (unsigned b = width; b-- > 0;) label += ((key >> b) & 1) ? '1' : '0';
  return label;
}

std::map<std::string, std::size_t> label_counts(
    const std::map<std::uint64_t, std::size_t>& counts, unsigned width) {
  std::map<std::string, std::size_t> out;
  for (const auto& [k, c] : counts) out[bit_label(k, width)] = c;
  return out;
}

}  // namespace

// ---- JSON reader --------------------------------------------------------

TEST(ServiceJson, ParsesNestedDocument) {
  const auto v = svc::json::parse(
      R"({"id":"a","shots":12,"flag":true,"arr":[1,2.5,-3e2],"obj":{"x":null}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_string("id", ""), "a");
  EXPECT_EQ(v.get_number("shots", 0), 12.0);
  EXPECT_TRUE(v.get_bool("flag", false));
  const svc::json::Value* arr = v.find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->array[2].number, -300.0);
  EXPECT_TRUE(v.at("obj", "t").at("x", "t").is_null());
}

TEST(ServiceJson, StringEscapes) {
  const auto v = svc::json::parse(R"({"s":"a\"b\\c\n\tA"})");
  EXPECT_EQ(v.get_string("s", ""), "a\"b\\c\n\tA");
  EXPECT_EQ(svc::json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ServiceJson, RejectsMalformedInput) {
  EXPECT_THROW(svc::json::parse("{\"a\":1"), Error);
  EXPECT_THROW(svc::json::parse("{} trailing"), Error);
  EXPECT_THROW(svc::json::parse("{\"a\":tru}"), Error);
  EXPECT_THROW(svc::json::parse("[1,]"), Error);
}

// ---- Fingerprints and cache keys ---------------------------------------

TEST(ServiceFingerprint, CircuitStructureSensitive) {
  qc::Circuit a = qc::qft(5);
  qc::Circuit b = qc::qft(5);
  EXPECT_EQ(svc::fingerprint_circuit(a), svc::fingerprint_circuit(b));
  b.rz(0, 0.125);
  EXPECT_NE(svc::fingerprint_circuit(a), svc::fingerprint_circuit(b));

  qc::Circuit c(2);
  c.rz(0, 0.5);
  qc::Circuit d(2);
  d.rz(0, 0.5000001);  // parameter bit pattern matters
  EXPECT_NE(svc::fingerprint_circuit(c), svc::fingerprint_circuit(d));
}

TEST(ServiceFingerprint, MachineAndOptionsSensitive) {
  const auto a64fx = machine::MachineSpec::a64fx();
  const auto xeon = machine::MachineSpec::xeon_6148_dual();
  EXPECT_NE(svc::fingerprint_machine(&a64fx), svc::fingerprint_machine(&xeon));
  EXPECT_NE(svc::fingerprint_machine(&a64fx), svc::fingerprint_machine(nullptr));

  sv::PlanOptions po;
  const auto base = svc::fingerprint_plan_options(po, 1, "remap", 16);
  EXPECT_EQ(base, svc::fingerprint_plan_options(po, 1, "remap", 16));
  EXPECT_NE(base, svc::fingerprint_plan_options(po, 2, "remap", 16));
  EXPECT_NE(base, svc::fingerprint_plan_options(po, 1, "naive", 16));
  sv::PlanOptions fused = po;
  fused.fusion = true;
  EXPECT_NE(base, svc::fingerprint_plan_options(fused, 1, "remap", 16));
}

// ---- PlanCache ----------------------------------------------------------

namespace {

std::shared_ptr<svc::CachedPlan> make_entry(unsigned qubits,
                                            std::uint64_t footprint) {
  auto entry = std::make_shared<svc::CachedPlan>();
  entry->plan = std::make_shared<const sv::ExecutionPlan>(
      sv::compile_plan(qc::qft(qubits), {}));
  entry->footprint_bytes = footprint;
  return entry;
}

}  // namespace

TEST(PlanCache, HitReturnsIdenticalPlan) {
  svc::PlanCache cache(1 << 20);
  svc::PlanKey key{1, 2, 3};
  auto entry = make_entry(4, 100);
  const std::string id = entry->plan->summary_id();
  ASSERT_TRUE(cache.put(key, entry));

  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->plan.get(), entry->plan.get());  // the very same object
  EXPECT_EQ(hit->plan->summary_id(), id);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.get({9, 9, 9}), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCache, EvictsLruUnderByteBudget) {
  svc::PlanCache cache(250);
  ASSERT_TRUE(cache.put({1, 0, 0}, make_entry(3, 100)));
  ASSERT_TRUE(cache.put({2, 0, 0}, make_entry(3, 100)));
  EXPECT_EQ(cache.size(), 2u);
  // Touch key 1 so key 2 is the LRU victim.
  EXPECT_NE(cache.get({1, 0, 0}), nullptr);
  ASSERT_TRUE(cache.put({3, 0, 0}, make_entry(3, 100)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.get({1, 0, 0}), nullptr);  // survivor
  EXPECT_EQ(cache.get({2, 0, 0}), nullptr);  // evicted -> miss
  EXPECT_LE(cache.bytes(), 250u);
}

TEST(PlanCache, RejectsOversizedEntryWithoutFlushing) {
  svc::PlanCache cache(250);
  ASSERT_TRUE(cache.put({1, 0, 0}, make_entry(3, 200)));
  EXPECT_FALSE(cache.put({2, 0, 0}, make_entry(3, 1000)));
  EXPECT_EQ(cache.size(), 1u);            // tenant kept
  EXPECT_NE(cache.get({1, 0, 0}), nullptr);
}

TEST(PlanCache, FootprintEstimateCoversPayloads) {
  const auto plan = sv::compile_plan(qc::qft(6), {});
  const std::uint64_t fp = svc::plan_footprint_bytes(plan);
  EXPECT_GT(fp, sizeof(sv::ExecutionPlan));
  // A wider circuit with more gates must cost more.
  EXPECT_GT(svc::plan_footprint_bytes(sv::compile_plan(qc::qft(10), {})), fp);

  // The footprint counts capacities: a compiled plan, single-node or
  // distributed, leaves no growth slack for the cache to pay for.
  const qc::Circuit qv = qc::random_quantum_volume(10, 6, 3);
  sv::PlanOptions fused;
  fused.fusion = true;
  fused.blocking = true;
  dist::DistExecOptions dopts;
  dopts.plan = fused;
  for (const sv::ExecutionPlan& p :
       {sv::compile_plan(qv, {}), sv::compile_plan(qv, fused),
        dist::compile_distributed(qv, 2, {}),
        dist::compile_distributed(qv, 2, dopts)}) {
    std::size_t slack = (p.phases.capacity() - p.phases.size()) +
                        (p.final_slot_of.capacity() - p.final_slot_of.size());
    for (const sv::PlanPhase& phase : p.phases) {
      slack += (phase.gates.capacity() - phase.gates.size()) +
               (phase.hops.capacity() - phase.hops.size());
      for (const qc::Gate& g : phase.gates)
        slack += (g.qubits.capacity() - g.qubits.size()) +
                 (g.params.capacity() - g.params.size());
    }
    EXPECT_EQ(slack, 0u) << p.summary_id();
  }
}

// mallinfo2 (glibc 2.33+) reads the real allocator; a sanitizer runtime
// replaces it.
#if defined(__GLIBC__) &&                                        \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33)) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define SVSIM_TEST_MALLINFO2 1
#endif

TEST(PlanCache, MeteredBytesTrackHeapGrowth) {
#if !defined(SVSIM_TEST_MALLINFO2)
  GTEST_SKIP() << "needs glibc mallinfo2 and the glibc allocator";
#else
  // Distinct plans through the service fill the cache the way a serve
  // session does; the bytes it meters must be within 15 % of what the heap
  // grew by. Two decks: sampled-like QV (n 10..14, some fused) and
  // trajectory-like noisy QV (n 6..10).
  const auto heap_bytes = [] {
    const struct mallinfo2 m = mallinfo2();
    return static_cast<double>(m.uordblks + m.hblkhd);
  };
  ThreadPool pool(1);
  for (const bool noisy : {false, true}) {
    svc::ServiceOptions o;
    o.cache_bytes = 1ull << 30;
    o.pool = &pool;
    svc::Service service(o);
    auto job = [noisy](std::uint64_t i) {
      svc::JobRequest r;
      const unsigned n = static_cast<unsigned>(noisy ? 6 + i % 5 : 10 + i % 5);
      r.circuit = qc::random_quantum_volume(n, 3 + i % 3, 1000 + i);
      r.fusion = i % 2 == 0;
      r.shots = noisy ? 2 : 16;
      if (noisy) r.noise.add_depolarizing(0.01);
      return r;
    };
    // Warm the metric series, kernel tables and allocator caches.
    for (std::uint64_t i = 0; i < 8; ++i)
      ASSERT_TRUE(service.run_job(job(100000 + i)).ok);
    const double heap_before = heap_bytes();
    const double metered_before = static_cast<double>(service.cache().bytes());
    for (std::uint64_t i = 0; i < 300; ++i)
      ASSERT_TRUE(service.run_job(job(i)).ok);
    const double grown = heap_bytes() - heap_before;
    const double metered =
        static_cast<double>(service.cache().bytes()) - metered_before;
    ASSERT_EQ(service.cache().evictions(), 0u);
    EXPECT_NEAR(metered / grown, 1.0, 0.15)
        << (noisy ? "trajectory" : "sampled") << " deck: metered " << metered
        << " B, heap grew " << grown << " B";
  }
#endif
}

// ---- JobQueue -----------------------------------------------------------

TEST(JobQueue, DrainsAfterClose) {
  svc::JobQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  q.push(3);  // dropped: producer lost the race with shutdown
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));
}

TEST(JobQueue, PushBlocksAtCapacityUntilPop) {
  svc::JobQueue<int> q(2);
  q.push(1);
  q.push(2);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(3);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load()) << "push must block while the queue is full";
  EXPECT_EQ(q.size(), 2u);
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.size(), 2u);
}

TEST(JobQueue, CloseReleasesBlockedPushAndStillDrains) {
  svc::JobQueue<int> q(1);
  q.push(1);
  std::thread producer([&] { q.push(2); });  // full: blocks until close
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();  // released; its item is dropped
  int v = 0;
  ASSERT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(q.pop(v));
}

namespace {

/// Serves `count` copies of one job line, one line per underflow, and
/// counts the lines handed out.
class CountingLineSource : public std::streambuf {
 public:
  CountingLineSource(std::string line, std::size_t count)
      : line_(std::move(line) + "\n"), count_(count) {}
  std::atomic<std::size_t> served{0};

 protected:
  int_type underflow() override {
    if (served.load() == count_) return traits_type::eof();
    ++served;
    setg(line_.data(), line_.data(), line_.data() + line_.size());
    return traits_type::to_int_type(line_[0]);
  }

 private:
  std::string line_;
  std::size_t count_;
};

/// Counts result lines and records how far the source ran ahead of them.
class ReadAheadSink : public std::streambuf {
 public:
  explicit ReadAheadSink(const CountingLineSource& source) : source_(source) {}
  std::size_t lines = 0;
  std::size_t max_ahead = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (ch == '\n') {
      ++lines;
      const std::size_t served = source_.served.load();
      if (served > lines) max_ahead = std::max(max_ahead, served - lines);
    }
    return ch;
  }

 private:
  const CountingLineSource& source_;
};

}  // namespace

TEST(ServeSession, ReadAheadIsBoundedByTheQueues) {
  // 5 000 job lines that parse faster than they run: the reader may only be
  // as far ahead of the written results as the two queues, the job in the
  // worker, the line at the writer and the item the reader holds.
  CountingLineSource source(R"({"qft":9,"shots":64})", 5000);
  ReadAheadSink sink(source);
  std::istream in(&source);
  std::ostream out(&sink);
  ThreadPool pool(1);
  svc::ServiceOptions o;
  o.pool = &pool;
  svc::Service service(o);
  const svc::ServeStats stats = svc::serve_session(in, out, service);
  EXPECT_EQ(stats.jobs, 5000u);
  EXPECT_EQ(sink.lines, 5001u);  // results + summary
  const std::size_t depth = svc::kServeQueueDepthPerWorker;
  EXPECT_LE(sink.max_ahead, 2 * depth + 3);
}

// ---- Engine batch execution --------------------------------------------

TEST(RunPlanBatch, MatchesSequentialRunPlan) {
  // Inputs: a small state on the global pool, and a forking size — 2^16
  // amplitudes on a 4-thread pool, where every DenseGate range splits
  // across workers.
  ThreadPool pool4(4);
  const struct {
    unsigned n;
    ThreadPool* pool;
  } inputs[] = {{6, &ThreadPool::global()}, {16, &pool4}};
  for (const auto& input : inputs) {
    const unsigned n = input.n;
    const qc::Circuit circuit = qc::random_quantum_volume(n, 3, 11);
    sv::PlanOptions po;
    po.blocking = true;
    const auto plan = sv::compile_plan(circuit, po);

    std::vector<sv::StateVector<double>> batch_states;
    std::vector<sv::StateVector<double>*> ptrs;
    batch_states.reserve(3);
    for (int i = 0; i < 3; ++i) {
      batch_states.emplace_back(n, input.pool);
      ptrs.push_back(&batch_states.back());
    }
    const auto batch_stats = sv::run_plan_batch(ptrs, plan);

    sv::StateVector<double> reference(n, input.pool);
    const auto single_stats = sv::run_plan(reference, plan);

    for (const auto* s : ptrs)
      for (std::uint64_t i = 0; i < s->size(); ++i)
        EXPECT_EQ(s->data()[i], reference.data()[i]) << "amplitude " << i;

    // Aggregated stats are the single-run stats times the batch size.
    EXPECT_EQ(batch_stats.traversals, 3 * single_stats.traversals);
    EXPECT_EQ(batch_stats.blocked_gates, 3 * single_stats.blocked_gates);
    EXPECT_EQ(batch_stats.bytes_streamed, 3 * single_stats.bytes_streamed);
  }
}

// ---- Service ------------------------------------------------------------

namespace {

svc::JobRequest qft_job(const std::string& id, unsigned qubits,
                        std::size_t shots, std::uint64_t seed) {
  svc::JobRequest req;
  req.id = id;
  req.circuit = qc::qft(qubits);
  req.shots = shots;
  req.seed = seed;
  return req;
}

}  // namespace

TEST(Service, SampledModeBitIdenticalToSimulator) {
  // The service and Simulator::sample_counts run the same split_shots and
  // run_shots, so at a fixed seed the histograms are bit-identical, not
  // merely close: sampled jobs, noisy trajectories and mid-circuit measures
  // alike, whatever the trajectory batch size.
  struct Case {
    const char* line;
    const char* mode;
  };
  const Case cases[] = {
      {R"({"qft":5,"shots":500,"options":{"seed":42}})", "sampled"},
      {R"({"qv":[6,3,5],"shots":60,"options":{"seed":7},)"
       R"("noise":{"depolarizing":0.02,"readout":[0.01,0.02]}})",
       "trajectory"},
      {R"({"qasm":"OPENQASM 2.0; include \"qelib1.inc\"; qreg q[3];)"
       R"( creg c[3]; h q[0]; measure q[0] -> c[0]; cx q[0],q[1]; h q[2];)"
       R"( measure q[1] -> c[1]; measure q[2] -> c[2];",)"
       R"("shots":200,"options":{"seed":3}})",
       "trajectory"},
  };
  for (const Case& c : cases) {
    const svc::JobRequest req = svc::parse_job_line(c.line);
    sv::SimulatorOptions opts;
    opts.seed = req.seed;
    opts.noise = req.noise;
    sv::Simulator<double> sim(opts);
    const auto expected =
        label_counts(sim.sample_counts(req.circuit, req.shots),
                     sv::split_shots(req.circuit, req.noise).label_width);
    for (const std::uint64_t batch_bytes :
         {std::uint64_t{1}, svc::ServiceOptions{}.batch_bytes}) {
      svc::ServiceOptions options;
      options.batch_bytes = batch_bytes;
      svc::Service service(options);
      const svc::JobResult result = service.run_job(req);
      ASSERT_TRUE(result.ok) << result.error_message;
      EXPECT_EQ(result.mode, c.mode) << c.line;
      EXPECT_EQ(result.executions,
                result.mode == "sampled" ? 1u : req.shots);
      EXPECT_EQ(result.counts, expected)
          << c.line << " batch_bytes=" << batch_bytes;
    }
  }
}

TEST(Service, CacheHitReturnsBitIdenticalPlan) {
  svc::Service service{svc::ServiceOptions{}};
  const auto first = service.run_job(qft_job("a", 6, 64, 1));
  const auto second = service.run_job(qft_job("b", 6, 64, 1));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.cache_key, second.cache_key);
  EXPECT_EQ(first.plan_summary, second.plan_summary);
  EXPECT_EQ(second.compile_seconds, 0.0);
  EXPECT_EQ(first.counts, second.counts);  // same seed -> same samples
  EXPECT_EQ(service.cache().hits(), 1u);
  EXPECT_EQ(service.cache().misses(), 1u);
}

TEST(Service, DifferentOptionsMissTheCache) {
  svc::Service service{svc::ServiceOptions{}};
  ASSERT_TRUE(service.run_job(qft_job("a", 6, 16, 1)).ok);
  svc::JobRequest fused = qft_job("b", 6, 16, 1);
  fused.fusion = true;
  const auto result = service.run_job(fused);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_EQ(service.cache().misses(), 2u);

  // Noise is no compile option, but a noise channel turns a sampled job
  // into trajectories: with and without one, the same circuit must miss,
  // in either order.
  svc::JobRequest clean;
  clean.circuit = qc::Circuit(1);
  clean.circuit.x(0);
  clean.shots = 1000;
  svc::JobRequest noisy = clean;
  noisy.noise.add_bit_flip(0.5);
  for (const bool noisy_first : {false, true}) {
    svc::Service fresh{svc::ServiceOptions{}};
    const auto first = fresh.run_job(noisy_first ? noisy : clean);
    const auto second = fresh.run_job(noisy_first ? clean : noisy);
    ASSERT_TRUE(first.ok && second.ok);
    EXPECT_FALSE(second.cache_hit);
    EXPECT_EQ(fresh.cache().misses(), 2u);
    const svc::JobResult& n = noisy_first ? first : second;
    const svc::JobResult& c = noisy_first ? second : first;
    EXPECT_EQ(n.mode, "trajectory");
    EXPECT_EQ(n.executions, noisy.shots);
    EXPECT_EQ(n.counts.size(), 2u);
    EXPECT_EQ(c.mode, "sampled");
    EXPECT_EQ(c.counts, (std::map<std::string, std::size_t>{{"1", 1000}}));
  }
}

TEST(Service, EvictionUnderSmallByteBudget) {
  svc::ServiceOptions opts;
  opts.cache_bytes = 10240;  // roughly one small plan, in heap chunks
  svc::Service service(opts);
  ASSERT_TRUE(service.run_job(qft_job("a", 4, 8, 1)).ok);
  ASSERT_TRUE(service.run_job(qft_job("b", 5, 8, 1)).ok);
  ASSERT_TRUE(service.run_job(qft_job("c", 6, 8, 1)).ok);
  EXPECT_GT(service.cache().evictions(), 0u);
  EXPECT_LE(service.cache().bytes(), opts.cache_bytes);
  // The evicted first circuit must re-compile as a miss.
  const auto again = service.run_job(qft_job("a2", 4, 8, 1));
  ASSERT_TRUE(again.ok);
  EXPECT_FALSE(again.cache_hit);
}

TEST(Service, AdmissionRejectsOverCostJob) {
  svc::ServiceOptions opts;
  opts.max_modeled_seconds = 1e-12;  // everything is over budget
  svc::Service service(opts);
  const auto result = service.run_job(qft_job("big", 8, 32, 1));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "admission_rejected");
  EXPECT_GT(result.modeled_seconds, result.modeled_limit_seconds);
  EXPECT_TRUE(result.counts.empty());
  EXPECT_EQ(service.jobs_rejected(), 1u);
  // The plan was still compiled and cached: resubmission attributes a hit.
  const auto retry = service.run_job(qft_job("big2", 8, 32, 1));
  EXPECT_TRUE(retry.cache_hit);

  // A state beyond the host's physical memory (2^50 amplitudes) is refused
  // before fingerprint and compile, under the default ceiling: nothing is
  // cached.
  svc::Service unlimited{svc::ServiceOptions{}};
  std::istringstream in(R"({"id":"huge","qft":50,"shots":1})" "\n");
  std::ostringstream out;
  const svc::ServeStats stats = svc::serve_session(in, out, unlimited);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(unlimited.jobs_rejected(), 1u);
  EXPECT_EQ(unlimited.cache().misses(), 0u);
  EXPECT_EQ(unlimited.cache().size(), 0u);
  EXPECT_NE(out.str().find("admission_rejected"), std::string::npos);
}

TEST(Service, AdmissionCountsShotBuffersWithTheState) {
  // 10^12 shots of a 16-amplitude state need about 22 TiB of readout
  // buffers (24 B a shot): refused before fingerprint and compile, and
  // before the sampler allocates anything.
  svc::Service service{svc::ServiceOptions{}};
  std::istringstream in(
      R"({"id":"many","qft":4,"shots":1000000000000})" "\n");
  std::ostringstream out;
  const svc::ServeStats stats = svc::serve_session(in, out, service);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(service.jobs_rejected(), 1u);
  EXPECT_EQ(service.cache().misses(), 0u);
  EXPECT_NE(out.str().find("admission_rejected"), std::string::npos);
  EXPECT_NE(out.str().find("1000000000000 shots"), std::string::npos);
  // A sampled job of the same state with a modest shot count still runs.
  EXPECT_TRUE(service.run_job(qft_job("few", 4, 1024, 1)).ok);
}

TEST(Service, DefaultCeilingRefusesAHugeTrajectoryJob) {
  // The largest job of the benchmark decks models 5.9 ms; the default
  // ceiling keeps three orders of magnitude above it.
  const svc::ServiceOptions defaults;
  EXPECT_GE(defaults.max_modeled_seconds, 1000 * 5.9e-3);
  // 10^7 noisy n=10 trajectories fit in memory but model about 460 s: the
  // default ceiling refuses them instead of running them.
  svc::Service service{defaults};
  const auto result = service.run_job(svc::parse_job_line(
      R"({"id":"long","qv":[10,4,9],"shots":10000000,)"
      R"("noise":{"depolarizing":0.01}})"));
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "admission_rejected");
  EXPECT_EQ(result.modeled_limit_seconds, defaults.max_modeled_seconds);
  EXPECT_GT(result.modeled_seconds, defaults.max_modeled_seconds);
  EXPECT_NE(result.error_message.find("admission ceiling"), std::string::npos);
}

TEST(Service, TrajectoryBatchingMatchesPerShotStatistics) {
  // X(0) then bit-flip noise: P(outcome "0") = p. Compare the service's
  // batched trajectories against the closed form and against
  // Simulator::sample_counts on an independent seed at binomial tolerance
  // (4 sigma of the two-sample difference).
  constexpr double kP = 0.1;
  constexpr std::size_t kShots = 2000;
  qc::Circuit circuit(1, 1);
  circuit.x(0);
  circuit.measure(0, 0);

  svc::JobRequest req;
  req.id = "noisy";
  req.circuit = circuit;
  req.shots = kShots;
  req.seed = 9;
  req.noise.add_bit_flip(kP, 1);
  svc::Service service{svc::ServiceOptions{}};
  const auto result = service.run_job(req);
  ASSERT_TRUE(result.ok) << result.error_message;
  EXPECT_EQ(result.mode, "trajectory");
  EXPECT_EQ(result.executions, kShots);

  sv::SimulatorOptions opts;
  opts.seed = 10;  // independent stream; statistical comparison
  opts.noise.add_bit_flip(kP, 1);
  sv::Simulator<double> sim(opts);
  const auto per_shot = label_counts(sim.sample_counts(circuit, kShots), 1);

  const auto frac = [&](const std::map<std::string, std::size_t>& counts) {
    const auto it = counts.find("0");
    return it == counts.end() ? 0.0
                              : static_cast<double>(it->second) / kShots;
  };
  const double sigma = std::sqrt(2.0 * kP * (1.0 - kP) / kShots);
  EXPECT_NEAR(frac(result.counts), kP, 4.0 * sigma);
  EXPECT_NEAR(frac(per_shot), kP, 4.0 * sigma);
  EXPECT_NEAR(frac(result.counts), frac(per_shot), 4.0 * sigma);

  std::size_t total = 0;
  for (const auto& [k, c] : result.counts) total += c;
  EXPECT_EQ(total, kShots);
}

TEST(Service, TrajectoryResultsInvariantToBatchSplit) {
  qc::Circuit circuit(2, 2);
  circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1);

  svc::JobRequest req;
  req.circuit = circuit;
  req.shots = 100;
  req.seed = 77;
  req.noise.add_depolarizing(0.05);

  svc::ServiceOptions one_batch;
  one_batch.batch_bytes = 1u << 30;  // everything in one batch
  svc::ServiceOptions tiny_batches;
  tiny_batches.batch_bytes = 1;  // one state per batch
  svc::Service a{one_batch};
  svc::Service b(tiny_batches);
  const auto ra = a.run_job(req);
  const auto rb = b.run_job(req);
  ASSERT_TRUE(ra.ok);
  ASSERT_TRUE(rb.ok);
  EXPECT_EQ(ra.batches, 1u);
  EXPECT_EQ(rb.batches, 100u);
  // Trajectory i is seeded by its global index, so the histogram cannot
  // depend on how the shots were grouped into batches.
  EXPECT_EQ(ra.counts, rb.counts);
}

TEST(Service, DampedTrajectoriesInvariantToBatchAndPoolSize) {
  // Amplitude damping calls probability_of_one after every gate, so this
  // job exercises the reused batch states (set_basis_state between
  // batches, a short last batch) and the inline/forked reductions.
  const svc::JobRequest req = svc::parse_job_line(
      R"({"id":"d","qv":[10,3,5],"shots":30,"options":{"seed":9},)"
      R"("noise":{"amplitude_damping":0.05,"readout":[0.01,0.02]}})");
  ThreadPool one(1);
  ThreadPool four(4);
  std::map<std::string, std::size_t> reference;
  for (ThreadPool* pool : {&one, &four}) {
    for (std::uint64_t batch_bytes :
         {std::uint64_t{1}, svc::ServiceOptions{}.batch_bytes,
          std::uint64_t{1} << 30}) {
      svc::ServiceOptions options;
      options.pool = pool;
      options.batch_bytes = batch_bytes;
      svc::Service service(options);
      const svc::JobResult r = service.run_job(req);
      ASSERT_TRUE(r.ok) << r.error_message;
      EXPECT_EQ(r.mode, "trajectory");
      if (reference.empty()) reference = r.counts;
      EXPECT_EQ(r.counts, reference)
          << "threads=" << pool->num_threads() << " batch_bytes="
          << batch_bytes;
      if (batch_bytes == svc::ServiceOptions{}.batch_bytes) {
        // 64 KiB of 16 KiB (n = 10, f64) states: 7 batches of 4, then 2.
        EXPECT_EQ(r.batch_size, 4u);
        EXPECT_EQ(r.batches, 8u);
      }
    }
  }
  std::size_t total = 0;
  for (const auto& [label, c] : reference) total += c;
  EXPECT_EQ(total, 30u);
}

// ---- Serve protocol -----------------------------------------------------

TEST(ServeProtocol, ParseJobLineReadsOptionsAndNoise) {
  const auto req = svc::parse_job_line(
      R"({"id":"x","qft":4,"shots":32,)"
      R"("options":{"fusion":true,"fusion_width":2,"blocked":true,)"
      R"("ranks":4,"sched":"naive","seed":5},)"
      R"("noise":{"depolarizing":0.01,"readout":[0.02,0.03]}})");
  EXPECT_EQ(req.id, "x");
  EXPECT_EQ(req.circuit.num_qubits(), 4u);
  EXPECT_EQ(req.shots, 32u);
  EXPECT_TRUE(req.fusion);
  EXPECT_EQ(req.fusion_width, 2u);
  EXPECT_TRUE(req.blocking);
  EXPECT_EQ(req.ranks, 4u);
  EXPECT_EQ(req.scheduler, "naive");
  EXPECT_EQ(req.seed, 5u);
  EXPECT_EQ(req.noise.channels().size(), 1u);
  EXPECT_TRUE(req.noise.has_readout_error());
  EXPECT_THROW(svc::parse_job_line(R"({"shots":4})"), Error);
  EXPECT_THROW(svc::parse_job_line("not json"), Error);
  // Numbers bound for unsigned fields are range-checked before any cast.
  for (const char* line :
       {R"({"id":"a","qft":-3,"shots":4})", R"({"qft":4,"shots":1e30})",
        R"({"qft":4,"options":{"ranks":-2}})", R"({"qv":[4,2,-1]})",
        R"({"qft":2.5})", R"({"qft":65})", R"({"qft":4,"shots":1e999})",
        R"({"qft":4,"shots":0})", R"({"qft":4,"options":{"seed":1e300}})",
        R"({"qft":4,"options":{"fusion_width":4294967296}})",
        // qv blocks (floor(qubits / 2) x depth) are bounded before the
        // circuit is built.
        R"({"qv":[4,32769]})", R"({"qv":[64,2049]})",
        R"({"qv":[4,4000000000]})"})
    EXPECT_THROW(svc::parse_job_line(line), Error) << line;
}

TEST(ServeProtocol, ResultJsonRoundTripsThroughTheReader) {
  svc::JobResult r;
  r.id = "we\"ird";
  r.shots = 4;
  r.counts["01"] = 3;
  r.counts["10"] = 1;
  r.mode = "sampled";
  r.executions = 1;
  r.batches = 1;
  r.batch_size = 1;
  r.cache_key = "c1.m2.o3";
  r.plan_summary = "q2r1b0p1g2";
  const auto v = svc::json::parse(svc::result_to_json(r));
  EXPECT_EQ(v.get_string("type", ""), "result");
  EXPECT_EQ(v.get_string("id", ""), "we\"ird");
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_EQ(v.at("counts", "t").get_number("01", 0), 3.0);
  EXPECT_EQ(v.at("cache", "t").get_bool("hit", true), false);
}

TEST(ServeProtocol, SessionEmitsResultsAndSummary) {
  std::istringstream in(
      "{\"id\":\"a\",\"qft\":4,\"shots\":16,\"options\":{\"seed\":3}}\n"
      "\n"
      "{\"id\":\"b\",\"qft\":4,\"shots\":16,\"options\":{\"seed\":3}}\n"
      "this is not json\n");
  std::ostringstream out;
  svc::Service service{svc::ServiceOptions{}};
  const svc::ServeStats stats = svc::serve_session(in, out, service);
  EXPECT_EQ(stats.jobs, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.shots, 32u);

  std::vector<svc::json::Value> lines;
  std::istringstream reread(out.str());
  std::string line;
  while (std::getline(reread, line)) lines.push_back(svc::json::parse(line));
  ASSERT_EQ(lines.size(), 4u);  // 3 results + summary

  EXPECT_EQ(lines[0].get_string("id", ""), "a");
  EXPECT_FALSE(lines[0].at("cache", "t").get_bool("hit", true));
  EXPECT_EQ(lines[1].get_string("id", ""), "b");
  EXPECT_TRUE(lines[1].at("cache", "t").get_bool("hit", false));
  // Identical job + seed: the second submission reuses the plan AND
  // reproduces the histogram.
  EXPECT_EQ(lines[0].find("counts")->object.size(),
            lines[1].find("counts")->object.size());
  EXPECT_FALSE(lines[2].get_bool("ok", true));
  EXPECT_EQ(lines[2].at("error", "t").get_string("code", ""), "bad_request");

  const auto& summary = lines[3];
  EXPECT_EQ(summary.get_string("type", ""), "summary");
  EXPECT_EQ(summary.get_number("jobs", 0), 3.0);
  EXPECT_EQ(summary.get_number("errors", 0), 1.0);
  EXPECT_EQ(summary.at("plan_cache", "t").get_number("hits", 0), 1.0);
  EXPECT_EQ(summary.at("plan_cache", "t").get_number("misses", 0), 1.0);
}

TEST(ServeProtocol, BadRequestEchoesSubmittedId) {
  // A line that is valid JSON but fails job parsing (register-wide QASM
  // measure is unsupported) must still echo the submitted id; a line that
  // is not JSON at all falls back to job-<seq>.
  std::istringstream in(
      "{\"id\":\"my-job\",\"qasm\":\"not qasm at all\",\"shots\":4}\n"
      "not json\n");
  std::ostringstream out;
  svc::Service service{svc::ServiceOptions{}};
  svc::serve_session(in, out, service);

  std::istringstream reread(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(reread, line));
  const svc::json::Value first = svc::json::parse(line);
  EXPECT_FALSE(first.get_bool("ok", true));
  EXPECT_EQ(first.at("error", "t").get_string("code", ""), "bad_request");
  EXPECT_EQ(first.get_string("id", ""), "my-job");
  ASSERT_TRUE(std::getline(reread, line));
  const svc::json::Value second = svc::json::parse(line);
  EXPECT_FALSE(second.get_bool("ok", true));
  EXPECT_EQ(second.get_string("id", ""), "job-2");
}

TEST(ServeProtocol, MetricsCountersPublish) {
  obs::MetricsRegistry::global().reset();
  svc::Service service{svc::ServiceOptions{}};
  ASSERT_TRUE(service.run_job(qft_job("a", 4, 8, 1)).ok);
  ASSERT_TRUE(service.run_job(qft_job("b", 4, 8, 1)).ok);
  auto& r = obs::MetricsRegistry::global();
  EXPECT_EQ(r.counter("svc.jobs").value(), 2u);
  EXPECT_EQ(r.counter("svc.plan_cache.hits").value(), 1u);
  EXPECT_EQ(r.counter("svc.plan_cache.misses").value(), 1u);
  EXPECT_EQ(r.counter("svc.shots").value(), 16u);
  EXPECT_GT(r.gauge("svc.plan_cache.bytes").value(), 0.0);
}

// ---- Concurrency: cache hammering, context metrics, multi-worker serve --

TEST(PlanCache, ConcurrentHammerKeepsByteAccounting) {
  // 8 threads mix hits, misses, inserts, and evictions over a key space
  // whose total footprint (12 x 100 bytes) exceeds the 450-byte budget, so
  // the LRU churns constantly. Every counter must balance afterwards: the
  // cache is the one structure all serve workers share.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 200;
  constexpr unsigned kKeySpace = 12;
  constexpr std::uint64_t kFootprint = 100;
  svc::PlanCache cache(450);

  std::vector<std::shared_ptr<svc::CachedPlan>> entries;
  for (unsigned k = 0; k < kKeySpace; ++k)
    entries.push_back(make_entry(3, kFootprint));

  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = t + 1;  // xorshift: deterministic per-thread stream
      for (unsigned i = 0; i < kIters; ++i) {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        const auto k = static_cast<unsigned>(x % kKeySpace);
        const svc::PlanKey key{k + 1, 7, 9};
        gets.fetch_add(1, std::memory_order_relaxed);
        if (cache.get(key) == nullptr) cache.put(key, entries[k]);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.hits() + cache.misses(), gets.load());
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), 450u);
  // No lost or phantom bytes: residency accounting matches the entry count.
  EXPECT_EQ(cache.bytes(), cache.size() * kFootprint);
  // Every indexed entry is still retrievable (no dangling LRU iterators).
  const std::size_t resident = cache.size();
  std::size_t found = 0;
  for (unsigned k = 0; k < kKeySpace; ++k)
    if (cache.get({k + 1, 7, 9}) != nullptr) ++found;
  EXPECT_EQ(found, resident);
}

TEST(PlanCache, MetricsFollowSubstitutedRegistry) {
  // Warm the global-registry path first: a static handle struct would pin
  // the process registry's counters here and leak the later increments.
  svc::PlanCache warm(1000);
  warm.get({5, 5, 5});
  auto& global = obs::MetricsRegistry::global();
  const std::uint64_t frozen = global.counter("svc.plan_cache.misses").value();

  obs::MetricsRegistry mine;
  svc::PlanCache cache(1000, &mine);
  EXPECT_EQ(cache.get({1, 2, 3}), nullptr);
  ASSERT_TRUE(cache.put({1, 2, 3}, make_entry(3, 100)));
  EXPECT_NE(cache.get({1, 2, 3}), nullptr);
  EXPECT_EQ(mine.counter("svc.plan_cache.misses").value(), 1u);
  EXPECT_EQ(mine.counter("svc.plan_cache.hits").value(), 1u);
  EXPECT_EQ(mine.gauge("svc.plan_cache.bytes").value(), 100.0);
  EXPECT_EQ(global.counter("svc.plan_cache.misses").value(), frozen);
}

TEST(Service, RunJobMetricsFollowContext) {
  svc::Service service{svc::ServiceOptions{}};
  ASSERT_TRUE(service.run_job(qft_job("warm", 4, 8, 1)).ok);  // global path
  auto& global = obs::MetricsRegistry::global();
  const std::uint64_t frozen = global.counter("svc.jobs").value();

  obs::MetricsRegistry mine;
  ExecutionContext ctx;
  ctx.with_metrics(mine);
  const auto result = service.run_job(qft_job("ctx", 5, 8, 1), ctx);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(mine.counter("svc.jobs").value(), 1u);
  EXPECT_EQ(mine.counter("svc.shots").value(), 8u);
  // The compile path (cache miss) threads the same registry.
  EXPECT_EQ(mine.counter("plan.compiles").value(), 1u);
  EXPECT_EQ(mine.counter("perf.plan_cost_evals").value(), 1u);
  EXPECT_EQ(global.counter("svc.jobs").value(), frozen);
  EXPECT_EQ(service.jobs_run(), 2u);  // instance counters see both jobs
}

namespace {

/// The serve job mix the worker-equivalence test runs: sampled f64 (with a
/// repeated plan), sampled f32, trajectory noise jobs, a fused QV circuit,
/// and one bad_request line.
const char* worker_job_mix() {
  return
      "{\"id\":\"s1\",\"qft\":5,\"shots\":64,\"options\":{\"seed\":7}}\n"
      "{\"id\":\"s2\",\"qft\":5,\"shots\":64,\"options\":{\"seed\":7}}\n"
      "{\"id\":\"f1\",\"qft\":4,\"shots\":32,"
      "\"options\":{\"seed\":3,\"precision\":\"f32\"}}\n"
      "{\"id\":\"t1\",\"qft\":4,\"shots\":16,\"options\":{\"seed\":5},"
      "\"noise\":{\"bit_flip\":0.05}}\n"
      "{\"id\":\"s3\",\"qv\":[4,2,9],\"shots\":48,"
      "\"options\":{\"seed\":11,\"fusion\":true}}\n"
      "{\"id\":\"t2\",\"qft\":5,\"shots\":8,\"options\":{\"seed\":2},"
      "\"noise\":{\"depolarizing\":0.02}}\n"
      "{\"id\":\"bad\",\"qasm\":\"nope\",\"shots\":4}\n";
}

/// Canonical per-job payload keyed by id, excluding the fields that may
/// legitimately differ across worker counts: timing, and the cache-hit
/// flag (two concurrent submissions of one plan may both miss). The cache
/// KEY and plan summary are deterministic and stay in.
std::map<std::string, std::string> payload_by_id(const std::string& session) {
  std::map<std::string, std::string> payloads;
  std::istringstream is(session);
  std::string line;
  while (std::getline(is, line)) {
    const svc::json::Value v = svc::json::parse(line);
    if (v.get_string("type", "") != "result") continue;
    std::ostringstream os;
    os << "ok=" << v.get_bool("ok", false)
       << " shots=" << v.get_number("shots", -1)
       << " mode=" << v.get_string("mode", "")
       << " precision=" << v.get_string("precision", "")
       << " executions=" << v.get_number("executions", -1)
       << " batches=" << v.get_number("batches", -1)
       << " batch_size=" << v.get_number("batch_size", -1);
    if (const svc::json::Value* c = v.find("counts")) {
      os << " counts=";
      for (const auto& [bits, n] : c->object)
        os << bits << ":" << n.number << ",";
    }
    if (const svc::json::Value* c = v.find("cache"))
      os << " key=" << c->get_string("key", "")
         << " plan=" << c->get_string("plan", "");
    if (const svc::json::Value* e = v.find("error"))
      os << " error=" << e->get_string("code", "");
    const auto [it, inserted] =
        payloads.emplace(v.get_string("id", ""), os.str());
    EXPECT_TRUE(inserted) << "duplicate result id " << it->first;
  }
  return payloads;
}

}  // namespace

TEST(ServeProtocol, MultiWorkerResultSetMatchesSingleWorker) {
  svc::ServiceOptions base;
  base.workers = 1;
  svc::Service single(base);
  std::istringstream in1(worker_job_mix());
  std::ostringstream out1;
  const svc::ServeStats stats1 = svc::serve_session(in1, out1, single);

  base.workers = 4;
  svc::Service quad(base);
  std::istringstream in4(worker_job_mix());
  std::ostringstream out4;
  const svc::ServeStats stats4 = svc::serve_session(in4, out4, quad);

  EXPECT_EQ(stats1.workers, 1u);
  EXPECT_EQ(stats4.workers, 4u);
  ASSERT_EQ(stats4.worker_jobs.size(), 4u);
  std::uint64_t across_workers = 0;
  for (const std::uint64_t j : stats4.worker_jobs) across_workers += j;
  EXPECT_EQ(across_workers, stats4.jobs);

  EXPECT_EQ(stats1.jobs, stats4.jobs);
  EXPECT_EQ(stats1.ok, stats4.ok);
  EXPECT_EQ(stats1.errors, stats4.errors);
  EXPECT_EQ(stats1.shots, stats4.shots);

  // The result SET is bit-identical: same ids, and for each id the same
  // counts histogram, mode, precision, plan attribution, and batching.
  const auto p1 = payload_by_id(out1.str());
  const auto p4 = payload_by_id(out4.str());
  ASSERT_EQ(p1.size(), 7u);
  EXPECT_EQ(p1, p4);
}

TEST(ServeProtocol, SummaryReportsWorkerBlock) {
  svc::ServiceOptions opts;
  opts.workers = 3;
  svc::Service service(opts);
  std::istringstream in(
      "{\"id\":\"a\",\"qft\":4,\"shots\":8,\"options\":{\"seed\":1}}\n"
      "{\"id\":\"b\",\"qft\":4,\"shots\":8,\"options\":{\"seed\":1}}\n");
  std::ostringstream out;
  svc::serve_session(in, out, service);

  std::istringstream reread(out.str());
  std::string line, last;
  while (std::getline(reread, line)) last = line;
  const svc::json::Value summary = svc::json::parse(last);
  ASSERT_EQ(summary.get_string("type", ""), "summary");
  const svc::json::Value& svc_block = summary.at("svc", "summary.svc");
  EXPECT_EQ(svc_block.get_number("workers", 0), 3.0);
  const svc::json::Value* jobs = svc_block.find("worker_jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_TRUE(jobs->is_array());
  ASSERT_EQ(jobs->array.size(), 3u);
  double total = 0;
  for (const auto& j : jobs->array) total += j.number;
  EXPECT_EQ(total, summary.get_number("jobs", -1));
}
