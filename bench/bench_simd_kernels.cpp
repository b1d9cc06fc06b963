// SIMD backend comparison: every available kernel backend × precision ×
// hand-vectorized KernelClass, measured as achieved GB/s on one serial
// table call over the whole counter range (the unit every executor
// dispatches, here without the pool split). The
// scalar backend rows are the reference the speedup records divide by;
// regenerate_results.sh asserts the records exist and, on an AVX2 host,
// that the hand-vectorized f32 Hadamard and Matrix1 kernels beat scalar
// by the target factor.
#include "bench_util.hpp"

#include <complex>
#include <map>

#include "common/rng.hpp"
#include "qc/matrix.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"

using namespace svsim;

namespace {

struct ClassCase {
  const char* name;
  qc::Gate gate;
};

/// Low targets on purpose: t < lanes is where the in-register swizzle
/// kernels earn their keep and where `-march=native` auto-vectorization of
/// the scalar loops fails (runs shorter than a vector). The gather classes
/// (McPhase, DiagK, MatrixK) sit on the operands a fused QFT or QV gate
/// has; GB/s counts the whole state, which McPhase only a quarter touches.
std::vector<ClassCase> class_cases() {
  Xoshiro256 rng(7);
  return {
      {"hadamard", qc::Gate::h(0)},
      {"diag1", qc::Gate::rz(0, 1.13)},
      {"matrix1", qc::Gate::u(0, 0.3, 0.7, 1.9)},
      {"matrix2", qc::Gate::u2q(2, 5, qc::Matrix::random_unitary(4, rng))},
      {"mcphase", qc::Gate::cp(2, 9, 0.7)},
      {"diagk", qc::Gate::diag({2, 7, 11}, {std::polar(1.0, 0.1),
                                            std::polar(1.0, 0.9),
                                            std::polar(1.0, 1.7),
                                            std::polar(1.0, 2.5),
                                            std::polar(1.0, 3.3),
                                            std::polar(1.0, 4.1),
                                            std::polar(1.0, 4.9),
                                            std::polar(1.0, 5.7)})},
      {"matrixk",
       qc::Gate::unitary({2, 7, 11}, qc::Matrix::random_unitary(8, rng))},
  };
}

template <typename T>
double measure_class(BenchContext& ctx, const std::string& id,
                     const ClassCase& c, unsigned n) {
  sv::StateVector<T> state(n);
  bench::spread_amplitudes(state);
  const sv::PreparedGate<T> pg = sv::prepare_gate<T>(c.gate);
  const double bytes = static_cast<double>(pow2(n)) * 4 * sizeof(T);  // rd+wr
  BenchContext::MeasureOpts mo;
  mo.model_bytes = bytes;
  const auto st = ctx.measure(
      id,
      [&] {
        sv::apply_range(state.data(), pg, 0, pow2(n - pg.counter_bits));
      },
      mo);
  return st.median;
}

}  // namespace

SVSIM_BENCH(simd_kernels, "SIMD kernels",
            "backend x precision x KernelClass GB/s vs the scalar reference") {
  const unsigned n = ctx.smoke() ? 14 : 18;
  const auto cases = class_cases();

  // Whatever happens below, later cases must run on the backend the
  // session selected, not on the last one this sweep touched.
  struct BackendRestore {
    sv::simd::Isa prev = sv::simd::active_backend().isa;
    ~BackendRestore() { sv::simd::select_backend(prev); }
  } restore;

  Table t("SIMD backends, n=" + std::to_string(n),
          {"backend", "class", "prec", "median_us", "GB/s", "x scalar"});
  const double bytes_f64 = static_cast<double>(pow2(n)) * 32;
  const double bytes_f32 = static_cast<double>(pow2(n)) * 16;

  std::map<std::string, double> medians;  // "<isa>.<class>.<prec>" -> s
  for (const auto& b : sv::simd::backends()) {
    if (!b.available) continue;
    sv::simd::select_backend(b.isa);
    for (const ClassCase& c : cases) {
      const std::string base = std::string(b.name) + "." + c.name;
      medians[base + ".f64"] =
          measure_class<double>(ctx, base + ".f64", c, n);
      medians[base + ".f32"] = measure_class<float>(ctx, base + ".f32", c, n);
      for (const char* prec : {"f64", "f32"}) {
        const double med = medians[base + "." + prec];
        const double scalar_med =
            medians[std::string("scalar.") + c.name + "." + prec];
        const double bytes = prec == std::string("f64") ? bytes_f64
                                                        : bytes_f32;
        t.add_row({b.name, c.name, prec, med * 1e6,
                   bench::measured_bandwidth_gbps(bytes, med),
                   scalar_med > 0.0 && med > 0.0 ? scalar_med / med : 0.0});
      }
    }
  }

  // Derived speedup records (scalar median / backend median): the
  // regression surface for "hand-vectorized beats scalar".
  for (const auto& [key, med] : medians) {
    if (key.rfind("scalar.", 0) == 0 || med <= 0.0) continue;
    const std::string tail = key.substr(key.find('.') + 1);
    const double scalar_med = medians["scalar." + tail];
    if (scalar_med <= 0.0) continue;
    ctx.derived("speedup." + key, scalar_med / med, "x");
  }
  ctx.table(t);
}
