// Readout: what a sampled job spends after its gates. The four stages of
// Simulator::run_shots and svc::Service after run_plan, one at a time, on
// the final state of a QV circuit (depth 4, all qubits measured):
//
//   sample     StateVector::sample of 4096 shots
//   count      sv::read_out + sv::count_keys (key-sorted histogram)
//   label      svc::label_counts (MSB-first bitstring map)
//   serialize  svc::result_to_json of the job's result line
//
// at n = 10 and 16, f64, on a one-thread pool (a serve worker's slice on a
// host with as many workers as cores). `total` runs the four back to back.
#include "bench_util.hpp"

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "obs/context.hpp"
#include "qc/library.hpp"
#include "sv/plan.hpp"
#include "sv/simulator.hpp"
#include "svc/service.hpp"

using namespace svsim;

SVSIM_BENCH(readout, "Readout",
            "sample, count, label and serialize a sampled job's shots") {
  constexpr std::size_t kShots = 4096;
  ThreadPool pool(1);
  ExecutionContext exec;
  exec.with_pool(pool);
  BenchContext::MeasureOpts mo;
  mo.min_reps = ctx.smoke() ? 5 : 20;
  mo.max_seconds = ctx.smoke() ? 0.5 : 2.0;

  Table t("Readout of " + std::to_string(kShots) +
              " shots, f64, one thread (QV depth 4)",
          {"n", "sample_us", "count_us", "label_us", "serialize_us",
           "total_us"});
  for (const unsigned n : {10u, 16u}) {
    const qc::Circuit circuit = qc::random_quantum_volume(n, 4, 17);
    sv::SimulatorOptions so;
    so.context = &exec;
    so.seed = 5;
    sv::Simulator<double> sim(so);
    sv::StateVector<double> state(n, &pool);
    sim.run_plan(state, sv::compile_plan(circuit, {}));
    std::vector<std::pair<unsigned, unsigned>> measures;
    for (unsigned q = 0; q < n; ++q) measures.emplace_back(q, q);
    const sv::NoiseModel noiseless;

    svc::JobResult result;
    result.id = "readout";
    result.shots = kShots;
    result.mode = "sampled";
    result.precision = "f64";
    result.executions = result.batches = result.batch_size = 1;
    result.cache_key = "0123456789abcdef:0123456789abcdef:0123456789abcdef";
    result.plan_summary = "qv" + std::to_string(n);

    Xoshiro256 rng(9);
    std::vector<std::uint64_t> samples;
    sv::SortedCounts counts;
    const auto sample = [&] { samples = state.sample(kShots, rng); };
    const auto count = [&] {
      std::vector<std::uint64_t> keys = samples;
      sv::read_out(keys, measures, noiseless, rng);
      counts = sv::count_keys(std::move(keys));
    };
    const auto label = [&] { result.counts = svc::label_counts(counts, n); };
    std::string line;
    const auto serialize = [&] { line = svc::result_to_json(result); };
    sample();
    count();
    label();

    const std::string id = "n" + std::to_string(n);
    const double sample_s = ctx.measure(id + ".sample.s", sample, mo).median;
    const double count_s = ctx.measure(id + ".count.s", count, mo).median;
    const double label_s = ctx.measure(id + ".label.s", label, mo).median;
    const double serialize_s =
        ctx.measure(id + ".serialize.s", serialize, mo).median;
    const double total_s = ctx.measure(
                                  id + ".total.s",
                                  [&] {
                                    sample();
                                    count();
                                    label();
                                    serialize();
                                  },
                                  mo)
                               .median;
    t.add_row({std::to_string(n), 1e6 * sample_s, 1e6 * count_s,
               1e6 * label_s, 1e6 * serialize_s, 1e6 * total_s});
  }
  ctx.table(t);
}
