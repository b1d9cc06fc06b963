// The readout stage of a sampled job: StateVector::sample, the key count
// (sv::count_keys), the labels (svc::label_counts) and result_to_json, and
// the state a serve worker lends to its jobs. Each is pinned against a
// copy of the straightforward version it replaced: the chunk binary-search
// sampler, std::map counting in the same RNG order, and an ostringstream
// rendering. The outputs must be identical, not merely close.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/aligned_buffer.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "obs/context.hpp"
#include "qc/circuit.hpp"
#include "qc/library.hpp"
#include "sv/noise.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"
#include "sv/state_vector.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"

namespace svsim {
namespace {

// ---- Reference sampler: a chunk table, std::upper_bound, in-chunk scan ----

template <typename T>
std::vector<std::uint64_t> reference_sample(const sv::StateVector<T>& state,
                                            std::size_t shots,
                                            Xoshiro256& rng) {
  const std::complex<T>* psi = state.data();
  const auto prob = [psi](std::uint64_t i) {
    return static_cast<double>(psi[i].real()) * psi[i].real() +
           static_cast<double>(psi[i].imag()) * psi[i].imag();
  };
  const std::uint64_t num_chunks =
      std::min<std::uint64_t>(state.size(), 1u << 12);
  const std::uint64_t chunk = state.size() / num_chunks;
  std::vector<double> cum(num_chunks + 1, 0.0);
  for (std::uint64_t k = 0; k < num_chunks; ++k) {
    double acc = 0.0;
    for (std::uint64_t i = k * chunk; i < (k + 1) * chunk; ++i) acc += prob(i);
    cum[k + 1] = acc;
  }
  for (std::uint64_t k = 0; k < num_chunks; ++k) cum[k + 1] += cum[k];
  const double total = cum[num_chunks];
  std::vector<std::uint64_t> out;
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * total;
    const auto it = std::upper_bound(cum.begin(), cum.end(), r);
    std::uint64_t k = static_cast<std::uint64_t>(
        std::max<std::ptrdiff_t>(0, it - cum.begin() - 1));
    if (k >= num_chunks) k = num_chunks - 1;
    double acc = cum[k];
    std::uint64_t idx = k * chunk;
    for (; idx + 1 < (k + 1) * chunk; ++idx) {
      acc += prob(idx);
      if (acc > r) break;
    }
    out.push_back(idx);
  }
  return out;
}

enum class Shape { Random, ZeroChunks, Basis };

/// A normalized state of `shape`: random amplitudes; random amplitudes with
/// about half of the 2^12-way chunks (or single amplitudes, for small n)
/// exactly zero; or one non-zero amplitude.
template <typename T>
void fill_state(sv::StateVector<T>& state, Shape shape, Xoshiro256& rng) {
  const std::uint64_t size = state.size();
  if (shape == Shape::Basis) {
    state.set_basis_state(rng.uniform_int(size));
    return;
  }
  const std::uint64_t chunk = size / std::min<std::uint64_t>(size, 1u << 12);
  std::vector<std::complex<double>> amps(size);
  bool any = false;
  for (std::uint64_t c = 0; c < size; c += chunk) {
    const bool zero = shape == Shape::ZeroChunks && rng.uniform() < 0.5;
    for (std::uint64_t i = c; i < c + chunk; ++i)
      amps[i] = zero ? std::complex<double>{}
                     : std::complex<double>{rng.normal(), rng.normal()};
    any = any || !zero;
  }
  if (!any) amps[size - 1] = {1.0, 0.0};
  double norm = 0.0;
  for (const auto& a : amps) norm += std::norm(a);
  for (auto& a : amps) a /= std::sqrt(norm);
  state.set_state(amps);
}

template <typename T>
void check_sampler_matches_reference() {
  ThreadPool pool(2);
  Xoshiro256 states(0x5a);
  for (unsigned n = 1; n <= 16; ++n)
    for (Shape shape : {Shape::Random, Shape::ZeroChunks, Shape::Basis})
      for (std::size_t shots : {0, 1, 4096}) {
        sv::StateVector<T> state(n, &pool);
        fill_state(state, shape, states);
        const std::uint64_t seed = 0x1000 + n * 16 + shots;
        Xoshiro256 mine(seed), theirs(seed);
        const auto got = state.sample(shots, mine);
        const auto want = reference_sample(state, shots, theirs);
        ASSERT_EQ(got, want) << "n=" << n << " shape=" << int(shape)
                             << " shots=" << shots;
        EXPECT_EQ(mine(), theirs()) << "both drew one uniform per shot";
      }
}

TEST(Readout, SamplerMatchesChunkSearchF64) {
  check_sampler_matches_reference<double>();
}

TEST(Readout, SamplerMatchesChunkSearchF32) {
  check_sampler_matches_reference<float>();
}

/// The seed whose Xoshiro256 draws `u` first. The first output depends only
/// on the second state word, which is splitmix64 of seed + 2 * 0x9e37...;
/// the output function and splitmix64 both invert, so a chosen uniform
/// (any multiple of 2^-53 in [0, 1)) maps back to its seed.
std::uint64_t seed_for_first_uniform(double u) {
  const std::uint64_t out = static_cast<std::uint64_t>(std::ldexp(u, 53))
                            << 11;
  const auto inverse = [](std::uint64_t a) {  // of odd a, mod 2^64
    std::uint64_t x = a;
    for (int i = 0; i < 6; ++i) x *= 2 - a * x;
    return x;
  };
  const auto unxorshift = [](std::uint64_t y, unsigned s) {
    std::uint64_t x = y;
    for (unsigned i = 0; i <= 64 / s; ++i) x = y ^ (x >> s);
    return x;
  };
  // out = rotl(s1 * 5, 7) * 9.
  const std::uint64_t r = out * inverse(9);
  const std::uint64_t s1 = ((r >> 7) | (r << 57)) * inverse(5);
  // s1 = splitmix64's mix of x = seed + 2 * gamma.
  std::uint64_t z = unxorshift(s1, 31) * inverse(0x94d049bb133111ebull);
  z = unxorshift(z, 27) * inverse(0xbf58476d1ce4e5b9ull);
  return unxorshift(z, 30) - 2 * 0x9e3779b97f4a7c15ull;
}

/// Uniforms that land exactly on the running sums the sampler compares
/// against. Every probability is a power of two, so every chunk sum and
/// running sum is exact and the total is exactly one (r == u):
///  * chunks 0..2047 each hold one amplitude 2^-7 (probability 2^-14, a
///    quarter of a guide bucket) at position k % 4, so four chunk
///    boundaries share each bucket and the walk from the bucket's guide
///    entry takes zero to three steps up before it meets a boundary;
///  * chunk 2500 holds (0.5, 0, 0.25, 0), chunk 3000 (0, 0.5, 0, 0) and
///    chunk 3500 (0.25, 0, 0, 0.5); the chunks between are zero, so the
///    running sums stand on plateaus.
/// The sampler must return the first amplitude whose running sum exceeds
/// r. A `<` where the walk or the in-chunk count has `<=` stops one chunk or
/// one amplitude early, on an amplitude of probability zero.
template <typename T>
void check_sampler_on_exact_boundaries() {
  ThreadPool pool(2);
  sv::StateVector<T> state(14, &pool);
  std::vector<std::complex<double>> amps(state.size());
  for (std::uint64_t k = 0; k < 2048; ++k) amps[4 * k + k % 4] = 0x1p-7;
  amps[4 * 2500] = 0.5;
  amps[4 * 2500 + 2] = 0.25;
  amps[4 * 3000 + 1] = 0.5;
  amps[4 * 3500] = 0.25;
  amps[4 * 3500 + 3] = 0.5;
  state.set_state(amps);
  const struct {
    double u;
    std::uint64_t want;
  } cases[] = {
      {0.0, 0},                  // the first running sum
      {5 * 0x1p-14, 4 * 5 + 1},  // one step up from the guide entry
      {6 * 0x1p-14, 4 * 6 + 2},  // two steps
      {7 * 0x1p-14, 4 * 7 + 3},  // three: the walk's loop meets it
      {2047 * 0x1p-14, 4 * 2047 + 3},
      {0.125, 4 * 2500},              // the end of a zero plateau
      {0.125 + 0.25, 4 * 2500 + 2},   // inside chunk 2500, then a zero
      {0.4375, 4 * 3000 + 1},         // a plateau that ends on a bucket
      {0.6875 + 0.0625, 4 * 3500 + 3},  // inside chunk 3500, two zeros
  };
  for (const auto& c : cases) {
    const std::uint64_t seed = seed_for_first_uniform(c.u);
    ASSERT_EQ(Xoshiro256(seed).uniform(), c.u);
    Xoshiro256 mine(seed), theirs(seed);
    const auto got = state.sample(1, mine);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], c.want) << "u=" << c.u;
    EXPECT_EQ(got, reference_sample(state, 1, theirs)) << "u=" << c.u;
  }
}

TEST(Readout, SamplerBreaksExactTiesUpwardF64) {
  check_sampler_on_exact_boundaries<double>();
}

TEST(Readout, SamplerBreaksExactTiesUpwardF32) {
  check_sampler_on_exact_boundaries<float>();
}

// ---- Counting ---------------------------------------------------------------

TEST(Readout, CountKeysMatchesMapHistogram) {
  Xoshiro256 rng(0xc0);
  for (unsigned width : {0u, 1u, 7u, 8u, 9u, 16u, 33u, 64u})
    for (std::size_t shots : {0, 1, 5, 4096}) {
      std::vector<std::uint64_t> keys(shots);
      for (auto& k : keys)
        k = width == 64 ? rng() : rng() & (pow2(width) - 1);
      // A few repeats, so runs longer than one occur at every width.
      for (std::size_t i = 1; i < shots; i += 3) keys[i] = keys[i - 1];
      std::map<std::uint64_t, std::size_t> want;
      for (std::uint64_t k : keys) ++want[k];
      const sv::SortedCounts got = sv::count_keys(keys);
      const std::map<std::uint64_t, std::size_t> got_map(got.begin(),
                                                         got.end());
      EXPECT_EQ(got_map, want) << "width=" << width << " shots=" << shots;
      EXPECT_EQ(got.size(), want.size());
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    }
}

/// sample_counts against the reference order: every sample uniform first,
/// then per shot and per measure the readout flip, counted in a std::map.
std::map<std::uint64_t, std::size_t> reference_counts(
    const qc::Circuit& circuit, const sv::NoiseModel& noise,
    std::uint64_t seed, std::size_t shots) {
  sv::SimulatorOptions opts;
  opts.seed = seed;
  opts.noise = noise;
  sv::Simulator<double> sim(opts);
  const sv::ShotSplit split = sv::split_shots(circuit, noise);
  EXPECT_EQ(split.mode, sv::ShotMode::Sampled);
  sv::StateVector<double> state(circuit.num_qubits());
  sim.run_plan(state, sv::compile_plan(split.circuit, split.options));
  std::map<std::uint64_t, std::size_t> counts;
  for (std::uint64_t basis : reference_sample(state, shots, sim.rng())) {
    std::uint64_t key = 0;
    for (const auto& [q, c] : split.measures) {
      bool bit = test_bit(basis, q);
      if (noise.has_readout_error()) bit = noise.flip_readout(bit, sim.rng());
      if (bit) key = set_bit(key, c);
    }
    ++counts[key];
  }
  return counts;
}

TEST(Readout, ReadoutErrorCountsFollowTheDrawOrder) {
  qc::Circuit permuted = qc::random_quantum_volume(5, 3, 7);
  permuted.measure(0, 3).measure(1, 0).measure(2, 4).measure(4, 1);
  qc::Circuit in_place = qc::qft(6);
  in_place.measure_all();
  sv::NoiseModel readout;
  readout.set_readout_error(0.05, 0.1);
  for (const qc::Circuit* c : {&permuted, &in_place})
    for (const sv::NoiseModel& noise : {sv::NoiseModel{}, readout})
      for (std::uint64_t seed : {1u, 9001u}) {
        sv::SimulatorOptions opts;
        opts.seed = seed;
        opts.noise = noise;
        sv::Simulator<double> sim(opts);
        EXPECT_EQ(sim.sample_counts(*c, 2048),
                  reference_counts(*c, noise, seed, 2048))
            << "seed=" << seed << " readout=" << noise.has_readout_error();
      }
}

// ---- Labels and JSON --------------------------------------------------------

TEST(Readout, LabelsAreMsbFirstAndInKeyOrder) {
  const sv::SortedCounts counts = {{0, 3}, {1, 1}, {5, 2}, {12, 7}};
  const std::map<std::string, std::size_t> want = {
      {"0000", 3}, {"0001", 1}, {"0101", 2}, {"1100", 7}};
  EXPECT_EQ(svc::label_counts(counts, 4), want);
  EXPECT_EQ(svc::label_counts({{1ull << 63, 1}}, 64).begin()->first,
            "1" + std::string(63, '0'));
}

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// The ostringstream rendering result_to_json must reproduce byte for byte.
std::string reference_json(const svc::JobResult& r) {
  using svc::json::escape;
  std::ostringstream out;
  out << "{\"type\":\"result\",\"id\":\"" << escape(r.id) << "\","
      << "\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) {
    out << ",\"error\":{\"code\":\"" << escape(r.error_code)
        << "\",\"message\":\"" << escape(r.error_message) << "\"}";
  }
  out << ",\"shots\":" << r.shots;
  if (r.ok) {
    out << ",\"counts\":{";
    bool first = true;
    for (const auto& [bits, count] : r.counts) {
      if (!first) out << ",";
      first = false;
      out << "\"" << bits << "\":" << count;
    }
    out << "},\"mode\":\"" << r.mode << "\",\"precision\":\""
        << escape(r.precision) << "\",\"executions\":" << r.executions
        << ",\"batches\":" << r.batches << ",\"batch_size\":" << r.batch_size;
  }
  if (!r.cache_key.empty()) {
    out << ",\"cache\":{\"hit\":" << (r.cache_hit ? "true" : "false")
        << ",\"key\":\"" << r.cache_key << "\",\"plan\":\""
        << escape(r.plan_summary)
        << "\",\"footprint_bytes\":" << r.plan_footprint_bytes << "}";
  }
  out << ",\"admission\":{\"modeled_seconds\":"
      << format_double(r.modeled_seconds) << ",\"limit_seconds\":"
      << format_double(r.modeled_limit_seconds) << "}";
  out << ",\"timing\":{\"compile_seconds\":"
      << format_double(r.compile_seconds) << ",\"execute_seconds\":"
      << format_double(r.execute_seconds) << ",\"total_seconds\":"
      << format_double(r.total_seconds) << "}}";
  return out.str();
}

TEST(Readout, ResultJsonIsByteIdenticalToTheStreamRendering) {
  svc::Service service;
  svc::JobRequest req;
  req.id = "qv-12";
  req.circuit = qc::random_quantum_volume(12, 4, 3);
  req.shots = 4096;
  const svc::JobResult ok = service.run_job(req);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(svc::result_to_json(ok), reference_json(ok));

  svc::JobResult hit = service.run_job(req);
  hit.id = "esc \"quoted\" \\ back\n\t\x01 \xc3\xa9";
  hit.precision = "f\"32";
  hit.modeled_seconds = 1.0 / 3.0;
  hit.modeled_limit_seconds = 1e-300;
  hit.total_seconds = 12345678.9;
  hit.plan_footprint_bytes = ~std::uint64_t{0};
  EXPECT_EQ(svc::result_to_json(hit), reference_json(hit));

  svc::JobResult failed;
  failed.id = "bad\x1f";
  failed.ok = false;
  failed.error_code = "bad_request";
  failed.error_message = "line 1: \"qv\" must be [qubits, depth]\r";
  failed.shots = 0;
  EXPECT_EQ(svc::result_to_json(failed), reference_json(failed));

  svc::JobResult rejected = failed;
  rejected.error_code = "admission_rejected";
  rejected.cache_key = "0123456789abcdef:fedcba9876543210:00ff";
  rejected.plan_summary = "plan \"x\"";
  rejected.cache_hit = true;
  EXPECT_EQ(svc::result_to_json(rejected), reference_json(rejected));
}

// ---- The lent state ---------------------------------------------------------

/// Job lines that alternate width (so the lent state shrinks and grows),
/// precision, and mode (sampled, sampled with readout error, trajectory).
std::vector<std::string> alternating_lines() {
  std::vector<std::string> lines;
  const unsigned widths[] = {12, 3, 16, 5, 14, 2, 16, 9};
  for (unsigned i = 0; i < 16; ++i) {
    const bool noisy = i % 4 == 3;
    std::string noise;
    if (noisy) noise = "\"depolarizing\":0.02";
    if (i % 5 == 2)
      noise += std::string(noisy ? "," : "") + "\"readout\":[0.02,0.05]";
    lines.push_back("{\"id\":\"j" + std::to_string(i) + "\",\"qv\":[" +
                    std::to_string(widths[i % 8]) + ",3," +
                    std::to_string(100 + i) + "],\"shots\":" +
                    (noisy ? "48" : "1024") + ",\"options\":{\"seed\":" +
                    std::to_string(100 + i) + ",\"precision\":\"" +
                    (i % 3 == 1 ? "f32" : "f64") + "\"},\"noise\":{" + noise +
                    "}}");
  }
  return lines;
}

/// A result line up to its cache block: what a job computed, no timing.
std::string payload(const std::string& json) {
  return json.substr(0, json.find(",\"cache\""));
}

TEST(Readout, LentStateLeaksNothingBetweenJobs) {
  ThreadPool pool(1);
  LentBuffer buffer;
  ExecutionContext ctx;
  ctx.with_pool(pool).with_state_buffer(buffer);
  svc::Service worker;
  std::size_t trajectories = 0;
  for (const std::string& line : alternating_lines()) {
    const svc::JobRequest req = svc::parse_job_line(line);
    const svc::JobResult reused = worker.run_job(req, ctx);
    const svc::JobResult fresh = svc::Service().run_job(req);
    ASSERT_TRUE(reused.ok && fresh.ok) << line << ": " << reused.error_message;
    EXPECT_EQ(payload(svc::result_to_json(reused)),
              payload(svc::result_to_json(fresh)));
    trajectories += reused.mode == "trajectory" ? 1 : 0;
  }
  EXPECT_EQ(trajectories, 4u);
  // The largest sampled state was n = 16 at f64; trajectory states do not
  // borrow the buffer.
  EXPECT_EQ(buffer.capacity(), (std::size_t{1} << 16) * 16);
}

TEST(Readout, ServeWorkersLendStatesWithoutLeaks) {
  std::string in_text;
  std::map<std::string, std::string> fresh;
  for (const std::string& line : alternating_lines()) {
    in_text += line + "\n";
    const svc::JobRequest req = svc::parse_job_line(line);
    fresh[req.id] = payload(svc::result_to_json(svc::Service().run_job(req)));
  }
  svc::ServiceOptions options;
  options.workers = 4;
  svc::Service service(options);
  std::istringstream in(in_text + in_text);
  std::ostringstream out;
  const svc::ServeStats stats = svc::serve_session(in, out, service);
  EXPECT_EQ(stats.ok, 32u);

  std::istringstream results(out.str());
  std::string line;
  std::size_t checked = 0;
  while (std::getline(results, line)) {
    const svc::json::Value v = svc::json::parse(line);
    if (v.get_string("type", "") != "result") continue;
    EXPECT_EQ(payload(line), fresh.at(v.get_string("id", "")));
    ++checked;
  }
  EXPECT_EQ(checked, 32u);
}

// Sanitizer allocators quarantine freed memory, so a run under them faults
// in pages the program itself would reuse; the count is measured without.
#if defined(RUSAGE_THREAD) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

TEST(Readout, WarmWorkerJobFaultsInNoState) {
  // A worker thread of its own (its own malloc arena), running the job and
  // rendering its result line as a serve worker does.
  ThreadPool pool(1);
  LentBuffer buffer;
  ExecutionContext ctx;
  ctx.with_pool(pool).with_state_buffer(buffer);
  svc::Service service;
  const svc::JobRequest req =
      svc::parse_job_line(R"({"id":"n16","qv":[16,3,5],"shots":4096})");
  long faults = -1;
  std::size_t bytes = 0;
  std::thread worker([&] {
    const auto job = [&] {
      return svc::result_to_json(service.run_job(req, ctx)).size();
    };
    for (int warm = 0; warm < 3; ++warm) job();
    const long before = minor_faults();
    bytes = job();
    faults = minor_faults() - before;
  });
  worker.join();
  // A fresh allocation of the n = 16 state alone faults in 256 pages.
  EXPECT_GT(bytes, 4096u * 16);
  EXPECT_LT(faults, 10);
}
#endif

}  // namespace
}  // namespace svsim
