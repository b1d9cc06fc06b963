// svc_sampled and svc_trajectory: closed-loop traffic through the serve
// protocol.
//
// The job mix of each is a fixed multiset of job classes (a deck), dealt
// in a seed-shuffled order and reshuffled every cycle, so every seed
// submits the same composition and only the circuits, sampling seeds,
// order and which keys repeat change with the seed.
#include <algorithm>
#include <array>
#include <set>
#include <thread>
#include <utility>

#include "common/threading.hpp"
#include "sv/simulator.hpp"
#include "svc/service.hpp"

#include "layers.hpp"
#include "pipeline.hpp"
#include "serve_loop.hpp"
#include "workloads.hpp"

namespace bench {

using namespace svsim;

namespace {

constexpr std::uint64_t kSeedRange = 1ull << 31;  // exact in a JSON double
constexpr std::size_t kPregenerated = 4096;
constexpr std::size_t kRecentKeys = 8;

/// Seeded 1-in-`every` selection of stream indices.
bool selected(std::uint64_t seed, std::size_t index, std::uint64_t every) {
  std::uint64_t z = seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return ((z ^ (z >> 31)) % every) == 0;
}

/// Deals deck indices in [0, size), reshuffled every cycle.
class Deck {
 public:
  explicit Deck(std::size_t size) : order_(size) {
    for (std::size_t i = 0; i < size; ++i) order_[i] = i;
  }
  std::size_t deal(InputRng& rng) {
    if (pos_ == 0)
      for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng.below(i)]);
    const std::size_t d = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return d;
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Remembers recent QV circuit seeds per plan-key class so a later job can
/// resubmit one, and which (class, seed) keys were already submitted.
class KeyMemory {
 public:
  std::uint64_t pick(std::uint64_t cls, bool want_repeat, InputRng& rng) {
    auto& recent = recent_[cls];
    if (want_repeat && !recent.empty()) return recent[rng.below(recent.size())];
    const std::uint64_t seed = rng.below(kSeedRange);
    recent.push_back(seed);
    if (recent.size() > kRecentKeys) recent.erase(recent.begin());
    return seed;
  }
  /// True if (cls, seed) was submitted before; records it either way.
  bool seen(std::uint64_t cls, std::uint64_t seed) {
    return !submitted_.insert({cls, seed}).second;
  }

 private:
  std::map<std::uint64_t, std::vector<std::uint64_t>> recent_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> submitted_;
};

// ---- svc_sampled mix --------------------------------------------------------
//
// Deck: {QV depth 4, 8, 12, QFT} x n {10, 12, 14, 16} x fusion x blocked x
// shots {256, 1024, 4096}. On top: 10 % f32, 5 % ranks 4, 1 % malformed
// lines. QV jobs resubmit a recent key a third of the time; QFT circuits
// are fixed per width, so they repeat from their second submission on —
// together about half of all submissions repeat a key.
class SampledMix {
 public:
  explicit SampledMix(std::uint64_t seed) : rng_(seed), deck_(kDeck) {}

  JobSpec operator()(std::size_t index) {
    JobSpec spec;
    spec.id = "j" + std::to_string(index);
    if (rng_.chance(0.01)) return malformed(spec, index);
    std::size_t d = deck_.deal(rng_);
    const unsigned kind = static_cast<unsigned>(d % 4);  // 0-2 QV, 3 QFT
    d /= 4;
    spec.qubits = 10 + 2 * static_cast<unsigned>(d % 4);
    d /= 4;
    spec.fusion = d % 2 == 1;
    d /= 2;
    spec.blocked = d % 2 == 1;
    d /= 2;
    spec.shots = std::array<std::size_t, 3>{256, 1024, 4096}[d % 3];
    spec.f32 = rng_.chance(0.10);
    spec.ranks = rng_.chance(0.05) ? 4 : 1;
    spec.job_seed = 1 + rng_.below(kSeedRange);
    const std::uint64_t cls =
        ((((kind * 32 + spec.qubits) * 2 + spec.fusion) * 2 + spec.blocked) *
             2 + spec.f32) * 8 + spec.ranks;
    if (kind == 3) {
      spec.source = JobSpec::Source::Qft;
      spec.repeat = keys_.seen(cls, 0);
    } else {
      spec.source = JobSpec::Source::Qv;
      spec.depth = 4 * (kind + 1);
      spec.circuit_seed = keys_.pick(cls, rng_.chance(1.0 / 3.0), rng_);
      spec.repeat = keys_.seen(cls, spec.circuit_seed);
    }
    render_line(spec);
    return spec;
  }

 private:
  static constexpr std::size_t kDeck = 4 * 4 * 2 * 2 * 3;

  JobSpec malformed(JobSpec& spec, std::size_t index) {
    spec.malformed = true;
    switch (index % 3) {
      case 0:  // not JSON at all: answered under "job-<seq>"
        spec.line = "{\"id\":\"" + spec.id + "\",\"qv\":[10,4";
        break;
      case 1:
        spec.line = "{\"id\":\"" + spec.id + "\",\"shots\":256}";
        break;
      default:
        spec.line = "{\"id\":\"" + spec.id + "\",\"qft\":10,\"shots\":0}";
        break;
    }
    return spec;
  }

  InputRng rng_;
  Deck deck_;
  KeyMemory keys_;
};

// ---- svc_trajectory mix -----------------------------------------------------
//
// Deck: noisy QV n {6, 8, 10} x depth {3, 4} x noise {depolarizing,
// amplitude damping + readout, bit + phase flip} x shots {64, 128}; 10 %
// of jobs resubmit a recent circuit.
class TrajectoryMix {
 public:
  explicit TrajectoryMix(std::uint64_t seed) : rng_(seed), deck_(kDeck) {}

  JobSpec operator()(std::size_t index) {
    JobSpec spec;
    spec.id = "j" + std::to_string(index);
    std::size_t d = deck_.deal(rng_);
    spec.source = JobSpec::Source::Qv;
    spec.qubits = 6 + 2 * static_cast<unsigned>(d % 3);
    d /= 3;
    spec.depth = 3 + static_cast<unsigned>(d % 2);
    d /= 2;
    spec.noise = std::array<const char*, 3>{"depolarizing", "damping",
                                            "flips"}[d % 3];
    d /= 3;
    spec.shots = d % 2 == 0 ? 64 : 128;
    spec.job_seed = 1 + rng_.below(kSeedRange);
    const std::uint64_t cls = spec.qubits * 8 + spec.depth;
    spec.circuit_seed = keys_.pick(cls, rng_.chance(0.10), rng_);
    spec.repeat = keys_.seen(cls, spec.circuit_seed);
    render_line(spec);
    return spec;
  }

 private:
  static constexpr std::size_t kDeck = 3 * 2 * 3 * 2;

  InputRng rng_;
  Deck deck_;
  KeyMemory keys_;
};

struct SvcWorkload {
  unsigned workers = 1;
  unsigned outstanding = 2;
  /// The highest latency percentile the job count supports (printed).
  double tail_quantile = 0.9;
  const char* tail_name = "latency_p90_s";
  std::size_t tail_min_jobs = 100;
  std::uint64_t oracle_every = 20;
  std::size_t oracle_max = 200;
  std::function<JobSpec(std::size_t)> mix;
  /// Recomputes one kept job's counts independently.
  std::function<std::map<std::string, std::size_t>(const JobSpec&)> recount;
  /// Jobs the oracle can check; empty = all well-formed jobs.
  std::function<bool(const JobSpec&)> checkable;
};

template <typename T>
std::map<std::string, std::size_t> sample_counts_labels(
    const JobSpec& spec, const machine::MachineSpec& machine) {
  qc::Circuit circuit = build_circuit(spec);
  circuit.measure_all();
  sv::SimulatorOptions opts;
  opts.fusion = spec.fusion;
  opts.fusion_width = 3;
  opts.blocking = spec.blocked;
  opts.machine = &machine;
  opts.seed = spec.job_seed;
  sv::Simulator<T> sim(opts);
  std::map<std::string, std::size_t> out;
  for (const auto& [key, n] : sim.sample_counts(circuit, spec.shots))
    out[bit_label(key, circuit.num_clbits())] = n;
  return out;
}

Report run_svc(const Options& opt, const svc::ServiceOptions& options,
               const SvcWorkload& w) {
  Report report;
  JobStream stream(w.mix);
  stream.at(kPregenerated - 1);
  std::size_t kept = 0;
  auto keep = [&](std::size_t index) {
    const JobSpec& spec = stream.at(index);
    if (spec.malformed || (w.checkable && !w.checkable(spec)) ||
        !selected(opt.seed, index, w.oracle_every) || kept >= w.oracle_max)
      return false;
    ++kept;
    return true;
  };

  svc::Service service(options);
  const LoopResult loop =
      run_closed_loop(service, stream, w.outstanding, opt.seconds, keep);

  report.attempted += loop.submitted;
  report.failed += loop.wrong;
  for (const auto& p : loop.problems) report.failures.push_back(p);
  for (const auto& [index, digest] : loop.kept_digests) {
    const JobSpec& spec = stream.at(index);
    if (counts_digest(w.recount(spec)) != digest)
      report.fail(spec.id + ": counts differ from the independent re-run");
  }

  std::vector<double> latency, waits;
  double job_s = 0.0, compile_s = 0.0, wait_s = 0.0, latency_s = 0.0,
         shots = 0.0;
  std::size_t ok = 0;
  for (const CompletedJob& c : loop.completed) {
    job_s += c.job_s;
    compile_s += c.compile_s;
    if (!c.ok) continue;
    ++ok;
    latency.push_back(c.latency_s);
    waits.push_back(c.latency_s - c.job_s);
    latency_s += c.latency_s;
    wait_s += c.latency_s - c.job_s;
    shots += static_cast<double>(c.shots);
  }
  report.oracle(ok >= w.tail_min_jobs,
                "only " + std::to_string(ok) + " jobs completed; the tail "
                "percentile needs " + std::to_string(w.tail_min_jobs));

  std::size_t repeats = 0, f32 = 0, ranks = 0, malformed = 0;
  for (std::size_t i = 0; i < loop.submitted; ++i) {
    const JobSpec& spec = stream.at(i);
    repeats += spec.repeat;
    f32 += spec.f32;
    ranks += spec.ranks > 1;
    malformed += spec.malformed;
  }
  const double submitted = static_cast<double>(loop.submitted);
  const double lookups =
      static_cast<double>(service.cache().hits() + service.cache().misses());
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(service.cache().hits()) / lookups : 0;
  report.note("mix.submitted", submitted, "count");
  report.note("mix.completed_ok", static_cast<double>(ok), "count");
  report.note("mix.repeat_share", static_cast<double>(repeats) / submitted,
              "ratio");
  report.note("mix.f32_share", static_cast<double>(f32) / submitted, "ratio");
  report.note("mix.ranks4_share", static_cast<double>(ranks) / submitted,
              "ratio");
  report.note("mix.malformed_share", static_cast<double>(malformed) / submitted,
              "ratio");
  report.note("serve.cache_hit_ratio", hit_ratio, "ratio");
  report.note("serve.cache_mb", static_cast<double>(service.cache().bytes()) /
                                    (1 << 20),
              "MiB");
  report.note("serve.cache_evictions",
              static_cast<double>(service.cache().evictions()), "count");
  report.note("serve.queue_wait_p50_s", median(waits), "s");
  report.note("serve.compile_share", job_s > 0 ? compile_s / job_s : 0.0,
              "ratio");
  report.note(w.tail_name, quantile(latency, w.tail_quantile), "s");
  report.note("oracle.jobs_rechecked",
              static_cast<double>(loop.kept_digests.size()), "count");

  if (!opt.trace) {
    report.metric("latency_p50_s", median(latency), "s");
    report.metric("jobs_per_s", static_cast<double>(ok) / loop.window_s,
                  "1/s");
    report.metric("shots_per_s", shots / loop.window_s, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  UntracedFacts facts;
  facts.queue_wait_share = latency_s > 0 ? wait_s / latency_s : 0.0;
  facts.busy_share = job_s / (w.workers * loop.window_s);
  facts.cache_hit_ratio = hit_ratio;
  std::vector<JobSpec> candidates;
  candidates.reserve(loop.submitted);
  for (std::size_t i = 0; i < loop.submitted; ++i)
    candidates.push_back(stream.at(i));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned worker_threads =
      w.workers > 1 ? std::max(1u, hw / w.workers)
                    : ThreadPool::global().num_threads();
  measure_layers(opt, candidates, options, worker_threads,
                 std::max(1.0, opt.seconds / 4), facts, report);
  return report;
}

svc::ServiceOptions sampled_options() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  svc::ServiceOptions options;
  options.workers = hw;
  options.threads = hw;  // as `svsim serve --threads N` sets both
  return options;
}

/// One worker on the process-wide pool. Nine in ten trajectory jobs bring a
/// new plan, so with the default 64 MiB budget the cache, and with it the
/// peak RSS, would grow with the job count for the whole run and follow the
/// host's speed; 1 MiB (`svsim serve --cache-bytes 1048576`) fills within
/// the first two hundred jobs and still holds every recent key a repeat
/// can pick.
svc::ServiceOptions trajectory_options() {
  svc::ServiceOptions options;
  options.cache_bytes = 1ull << 20;
  return options;
}

}  // namespace

std::shared_ptr<void> construct_svc_sampled() {
  return std::make_shared<svc::Service>(sampled_options());
}

std::shared_ptr<void> construct_svc_trajectory() {
  return std::make_shared<svc::Service>(trajectory_options());
}

Report run_svc_sampled(const Options& opt) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const svc::ServiceOptions options = sampled_options();
  SvcWorkload w;
  w.workers = hw;
  w.outstanding = 2 * hw;
  w.tail_quantile = 0.99;
  w.tail_name = "latency_p99_s";
  w.tail_min_jobs = 1000;
  w.oracle_every = 20;
  w.oracle_max = 200;
  w.mix = SampledMix(opt.seed);
  // Distributed (ranks 4) plans round differently from the single-node
  // plan sample_counts builds, so only ranks-1 jobs are compared bit for bit.
  w.checkable = [](const JobSpec& spec) { return spec.ranks == 1; };
  const machine::MachineSpec machine = options.machine;
  w.recount = [machine](const JobSpec& spec) {
    return spec.f32 ? sample_counts_labels<float>(spec, machine)
                    : sample_counts_labels<double>(spec, machine);
  };
  return run_svc(opt, options, w);
}

Report run_svc_trajectory(const Options& opt) {
  const svc::ServiceOptions options = trajectory_options();
  SvcWorkload w;
  w.workers = 1;
  w.outstanding = 2;
  w.oracle_every = 10;
  w.oracle_max = 40;
  w.mix = TrajectoryMix(opt.seed);
  // Batch-split invariance: the same job through a fresh service forced to
  // one trajectory per batch must give the same counts.
  auto single = std::make_shared<svc::Service>([&] {
    svc::ServiceOptions o = options;
    o.batch_bytes = 1;
    return o;
  }());
  w.recount = [single](const JobSpec& spec) {
    svc::JobResult r = single->run_job(svc::parse_job_line(spec.line));
    if (!r.ok || r.batch_size != 1) r.counts.clear();
    return r.counts;
  };
  return run_svc(opt, options, w);
}

}  // namespace bench
