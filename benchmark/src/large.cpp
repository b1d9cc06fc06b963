// qv_large and qft_large: the paper's circuit classes on a state far larger
// than the last-level cache (n = 25, 512 MiB of f64 amplitudes).
//
// One operation is what `svsim run --fusion 3 --blocked --shots 1000` does
// through Simulator::sample_counts on a measure-free circuit: allocate the
// state, compile and execute the plan, draw the samples, histogram them and
// release the state. The benchmark makes the same calls itself so the state
// is still there for the correctness checks between the timed parts.
#include <cmath>
#include <complex>
#include <map>
#include <optional>
#include <thread>

#include "qc/dense.hpp"
#include "qc/library.hpp"
#include "qc/qasm.hpp"
#include "sv/simulator.hpp"

#include "layers.hpp"
#include "pipeline.hpp"
#include "workloads.hpp"

namespace bench {

using namespace svsim;

namespace {

constexpr unsigned kQubits = 25;
constexpr unsigned kQvDepth = 8;
constexpr std::size_t kShots = 1000;
constexpr double kNormTolerance = 1e-10;
constexpr double kInverseTolerance = 1e-10;
/// Largest amplitude error against the closed form, relative to the
/// amplitude magnitude 2^(-n/2).
constexpr double kQftRelTolerance = 1e-12;

/// Basis input |x> with n/2 of its n bits set (a fixed count keeps the
/// prepended X layer the same size for every seed), positions by the seed.
std::uint64_t qft_input(unsigned n, InputRng& rng) {
  std::vector<unsigned> bits(n);
  for (unsigned i = 0; i < n; ++i) bits[i] = i;
  std::uint64_t x = 0;
  for (unsigned i = 0; i < n / 2; ++i) {
    std::swap(bits[i], bits[i + rng.below(n - i)]);
    x |= std::uint64_t{1} << bits[i];
  }
  return x;
}

qc::Circuit qft_on_basis(unsigned n, std::uint64_t x) {
  qc::Circuit c(n);
  for (unsigned q = 0; q < n; ++q)
    if ((x >> q) & 1) c.x(q);
  const qc::Circuit transform = qc::qft(n);
  for (const qc::Gate& g : transform.gates()) c.append(g);
  return c;
}

/// QFT|x> = 2^(-n/2) sum_k exp(2 pi i x k / 2^n) |k>. The phase is read
/// from two tables (high and low bits of x*k mod 2^n) so every amplitude is
/// exact to a few ulp. Returns max_k |amp_k - expected_k| / 2^(-n/2).
double qft_error(const std::complex<double>* amps, unsigned n,
                 std::uint64_t x) {
  const unsigned lo_bits = n / 2, hi_bits = n - lo_bits;
  const std::uint64_t mask = (std::uint64_t{1} << n) - 1;
  const double two_pi = 2.0 * std::acos(-1.0);
  std::vector<std::complex<double>> lo(std::size_t{1} << lo_bits),
      hi(std::size_t{1} << hi_bits);
  for (std::size_t j = 0; j < lo.size(); ++j)
    lo[j] = std::polar(1.0, two_pi * static_cast<double>(j) /
                                std::ldexp(1.0, static_cast<int>(n)));
  for (std::size_t j = 0; j < hi.size(); ++j)
    hi[j] = std::polar(1.0, two_pi * static_cast<double>(j) /
                                std::ldexp(1.0, static_cast<int>(hi_bits)));
  const double scale = std::ldexp(1.0, -static_cast<int>(n) / 2) *
                       (n % 2 == 0 ? 1.0 : std::sqrt(0.5));
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> worst(threads, 0.0);
  parallel_split(threads, mask + 1,
                 [&](unsigned t, std::uint64_t b, std::uint64_t e) {
                   double w = 0.0;
                   for (std::uint64_t k = b; k < e; ++k) {
                     const std::uint64_t m = (x * k) & mask;
                     const std::complex<double> expected =
                         scale * hi[m >> lo_bits] *
                         lo[m & ((std::uint64_t{1} << lo_bits) - 1)];
                     w = std::max(w, std::abs(amps[k] - expected));
                   }
                   worst[t] = w;
                 });
  return *std::max_element(worst.begin(), worst.end()) / scale;
}

/// Confirms the closed form's convention against the dense oracle.
bool qft_convention_holds(InputRng& rng) {
  constexpr unsigned n = 10;
  const std::uint64_t x = qft_input(n, rng);
  const std::vector<qc::cplx> dense = qc::dense::run(qft_on_basis(n, x));
  return qft_error(dense.data(), n, x) <= kQftRelTolerance;
}

sv::SimulatorOptions large_options() {
  sv::SimulatorOptions options;
  options.fusion = true;
  options.fusion_width = 3;
  options.blocking = true;
  return options;
}

Report run_large(const Options& opt, bool qft) {
  Report report;
  const sv::SimulatorOptions options = large_options();
  InputRng rng(opt.seed);
  JobSpec spec;
  spec.id = "j0";
  spec.shots = kShots;
  spec.fusion = true;
  spec.blocked = true;
  spec.job_seed = 1 + rng.below(1u << 31);
  qc::Circuit circuit;
  std::uint64_t x = 0;
  if (qft) {
    report.oracle(qft_convention_holds(rng),
                  "closed-form QFT disagrees with qc::dense at n=10");
    x = qft_input(kQubits, rng);
    circuit = qft_on_basis(kQubits, x);
    spec.source = JobSpec::Source::Qasm;
    spec.qasm = qc::to_qasm(circuit);
    report.note("qft.input_x", static_cast<double>(x), "count");
  } else {
    spec.source = JobSpec::Source::Qv;
    spec.qubits = kQubits;
    spec.depth = kQvDepth;
    spec.circuit_seed = rng.below(1u << 31);
    circuit = build_circuit(spec);
  }
  render_line(spec);

  std::vector<double> reps;
  double measured = 0.0, checks_s = 0.0, worst_error = 0.0;
  const auto loop_start = Clock::now();
  for (std::uint64_t r = 0; r == 0 || measured < opt.seconds; ++r) {
    sv::SimulatorOptions o = options;
    o.seed = spec.job_seed + r;
    const auto t0 = Clock::now();
    sv::Simulator<double> sim(o);
    std::optional<sv::StateVector<double>> state = sim.run(circuit);
    std::map<std::uint64_t, std::size_t> counts;
    for (std::uint64_t s : state->sample(kShots, sim.rng())) ++counts[s];
    const auto checks_start = Clock::now();
    double rep_s = seconds_between(t0, checks_start);

    std::size_t total = 0;
    for (const auto& [key, n] : counts) total += n;
    const double error = qft ? qft_error(state->data(), kQubits, x)
                             : std::abs(state->norm_squared() - 1.0);
    worst_error = std::max(worst_error, error);
    report.op(total == kShots &&
                  error <= (qft ? kQftRelTolerance : kNormTolerance),
              "rep " + std::to_string(r) +
                  (qft ? ": relative amplitude error " : ": norm drift ") +
                  std::to_string(error));
    if (!qft && r == 0) {
      sim.run_in_place(*state, circuit.inverse());
      const double p0 = state->probability(0);
      report.oracle(p0 >= 1.0 - kInverseTolerance,
                    "inverse circuit left P(0) = " + std::to_string(p0));
    }

    const auto t1 = Clock::now();
    checks_s += seconds_between(checks_start, t1);
    state.reset();
    rep_s += seconds_between(t1, Clock::now());
    reps.push_back(rep_s);
    measured += rep_s;
  }
  const double loop_wall = seconds_between(loop_start, Clock::now());
  const double runs = static_cast<double>(reps.size());
  report.note("reps", runs, "count");
  report.note(qft ? "oracle.max_rel_amplitude_error" : "oracle.max_norm_drift",
              worst_error, "ratio");

  if (!opt.trace) {
    report.metric("latency_p50_s", median(reps), "s");
    report.metric("jobs_per_s", runs / measured, "1/s");
    report.metric("shots_per_s", runs * kShots / measured, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return report;
  }

  UntracedFacts facts;
  // Runs follow one another with no queue and use no plan cache: no queue
  // wait and no hits.
  facts.busy_share = measured / (loop_wall - checks_s);
  measure_layers(opt, {spec}, svc::ServiceOptions{},
                 ThreadPool::global().num_threads(), 0.0, facts, report);
  return report;
}

}  // namespace

std::shared_ptr<void> construct_large() {
  return std::make_shared<sv::Simulator<double>>(large_options());
}

Report run_qv_large(const Options& opt) { return run_large(opt, false); }
Report run_qft_large(const Options& opt) { return run_large(opt, true); }

}  // namespace bench
