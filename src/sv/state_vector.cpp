#include "sv/state_vector.hpp"

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace svsim::sv {

template <typename T>
StateVector<T>::StateVector(unsigned num_qubits, ThreadPool* pool)
    : num_qubits_(num_qubits),
      amps_(pow2(num_qubits), /*alignment=*/4096),
      pool_(pool) {
  require(num_qubits >= 1 && num_qubits <= 34,
          "StateVector supports 1..34 qubits");
  SVSIM_ASSERT(pool_ != nullptr);
  set_basis_state(0);
}

template <typename T>
double StateVector<T>::probability(std::uint64_t i) const {
  const value_type a = amps_[i];
  return static_cast<double>(a.real()) * a.real() +
         static_cast<double>(a.imag()) * a.imag();
}

template <typename T>
void StateVector<T>::set_basis_state(std::uint64_t basis) {
  require(basis < size(), "set_basis_state: basis index out of range");
  value_type* psi = amps_.data();
  pool_->parallel_for(size(), sizeof(value_type),
                      [psi](unsigned, std::uint64_t b, std::uint64_t e) {
                        std::fill(psi + b, psi + e, value_type{});
                      });
  psi[basis] = value_type{T{1}, T{0}};
}

template <typename T>
void StateVector<T>::set_state(std::span<const std::complex<double>> state) {
  require(state.size() == size(), "set_state: size mismatch");
  value_type* psi = amps_.data();
  const std::complex<double>* src = state.data();
  pool_->parallel_for(
      size(), sizeof(value_type) + sizeof(src[0]),
      [psi, src](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i)
          psi[i] = value_type{static_cast<T>(src[i].real()),
                              static_cast<T>(src[i].imag())};
      });
}

template <typename T>
std::vector<std::complex<double>> StateVector<T>::to_vector() const {
  std::vector<std::complex<double>> out(size());
  for (std::uint64_t i = 0; i < size(); ++i)
    out[i] = {static_cast<double>(amps_[i].real()),
              static_cast<double>(amps_[i].imag())};
  return out;
}

template <typename T>
double StateVector<T>::norm_squared() const {
  const value_type* psi = amps_.data();
  return pool_->parallel_reduce(
      size(), sizeof(value_type),
      [psi](unsigned, std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t i = b; i < e; ++i) {
          acc += static_cast<double>(psi[i].real()) * psi[i].real() +
                 static_cast<double>(psi[i].imag()) * psi[i].imag();
        }
        return acc;
      });
}

template <typename T>
void StateVector<T>::normalize() {
  const double n2 = norm_squared();
  require(n2 > 0.0, "normalize: zero state");
  const T inv = static_cast<T>(1.0 / std::sqrt(n2));
  value_type* psi = amps_.data();
  pool_->parallel_for(size(), sizeof(value_type),
                      [psi, inv](unsigned, std::uint64_t b, std::uint64_t e) {
                        for (std::uint64_t i = b; i < e; ++i) psi[i] *= inv;
                      });
}

template <typename T>
std::complex<double> StateVector<T>::inner_product(
    const StateVector& other) const {
  require(size() == other.size(), "inner_product: size mismatch");
  const value_type* a = amps_.data();
  const value_type* b = other.amps_.data();
  // Two reductions (real and imaginary part); simpler than a complex-typed
  // reduce and still one pass each through cache-resident test sizes.
  const double re = pool_->parallel_reduce(
      size(), 2 * sizeof(value_type),
      [a, b](unsigned, std::uint64_t lo, std::uint64_t hi) {
        double acc = 0.0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(a[i].real()) * b[i].real() +
                 static_cast<double>(a[i].imag()) * b[i].imag();
        }
        return acc;
      });
  const double im = pool_->parallel_reduce(
      size(), 2 * sizeof(value_type),
      [a, b](unsigned, std::uint64_t lo, std::uint64_t hi) {
        double acc = 0.0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          acc += static_cast<double>(a[i].real()) * b[i].imag() -
                 static_cast<double>(a[i].imag()) * b[i].real();
        }
        return acc;
      });
  return {re, im};
}

template <typename T>
double StateVector<T>::probability_of_one(unsigned q) const {
  require(q < num_qubits_, "probability_of_one: qubit out of range");
  const value_type* psi = amps_.data();
  const std::uint64_t half = size() / 2;
  // Fixed-chunk reduction (same scheme as sample()): per-chunk partials are
  // computed in parallel but summed in chunk order, so the result is
  // bit-identical for ANY pool size. This feeds measure() and therefore
  // every trajectory's RNG comparisons — a plain parallel_reduce would make
  // measurement outcomes depend on how many workers the caller's pool has,
  // breaking the serve guarantee that `--threads N` (per-worker pool
  // slices) reproduces `--threads 1` results exactly.
  const std::uint64_t num_chunks = std::min<std::uint64_t>(half, 1u << 12);
  const std::uint64_t chunk = half / num_chunks;
  const auto chunk_sum = [psi, q, chunk](std::uint64_t k) {
    double acc = 0.0;
    for (std::uint64_t c = k * chunk; c < (k + 1) * chunk; ++c) {
      const std::uint64_t i = insert_zero_bit(c, q) | pow2(q);
      acc += static_cast<double>(psi[i].real()) * psi[i].real() +
             static_cast<double>(psi[i].imag()) * psi[i].imag();
    }
    return acc;
  };
  const std::uint64_t chunk_bytes = chunk * sizeof(value_type);
  double total = 0.0;
  if (!pool_->forks(num_chunks, chunk_bytes)) {
    // Inline: the same additions in the same order, without the array.
    for (std::uint64_t k = 0; k < num_chunks; ++k) total += chunk_sum(k);
    return total;
  }
  std::vector<double> partial(num_chunks, 0.0);
  double* part = partial.data();
  pool_->parallel_for(num_chunks, chunk_bytes,
                      [&chunk_sum, part](unsigned, std::uint64_t b,
                                         std::uint64_t e) {
                        for (std::uint64_t k = b; k < e; ++k)
                          part[k] = chunk_sum(k);
                      });
  for (std::uint64_t k = 0; k < num_chunks; ++k) total += partial[k];
  return total;
}

template <typename T>
std::vector<double> StateVector<T>::marginal_probabilities(
    const std::vector<unsigned>& qubits) const {
  require(!qubits.empty() && qubits.size() <= 20,
          "marginal_probabilities: need 1..20 qubits");
  for (unsigned q : qubits)
    require(q < num_qubits_, "marginal_probabilities: qubit out of range");
  const std::uint64_t bins = pow2(static_cast<unsigned>(qubits.size()));
  std::vector<double> out(bins, 0.0);
  // Single sequential sweep (parallel would need per-thread bins; marginals
  // are not on the hot path).
  const value_type* psi = amps_.data();
  for (std::uint64_t i = 0; i < size(); ++i) {
    const double p = static_cast<double>(psi[i].real()) * psi[i].real() +
                     static_cast<double>(psi[i].imag()) * psi[i].imag();
    out[gather_bits(i, qubits)] += p;
  }
  return out;
}

template <typename T>
void StateVector<T>::collapse(unsigned q, bool outcome, double prob_outcome) {
  require(q < num_qubits_, "collapse: qubit out of range");
  require(prob_outcome > 0.0, "collapse: zero-probability outcome");
  const T scale = static_cast<T>(1.0 / std::sqrt(prob_outcome));
  value_type* psi = amps_.data();
  const std::uint64_t half = size() / 2;
  pool_->parallel_for(
      half, 2 * sizeof(value_type),
      [psi, q, outcome, scale](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t c = b; c < e; ++c) {
          const std::uint64_t i0 = insert_zero_bit(c, q);
          const std::uint64_t i1 = i0 | pow2(q);
          const std::uint64_t keep = outcome ? i1 : i0;
          const std::uint64_t kill = outcome ? i0 : i1;
          psi[keep] *= scale;
          psi[kill] = value_type{};
        }
      });
}

template <typename T>
bool StateVector<T>::measure(unsigned q, Xoshiro256& rng) {
  const double p1 = probability_of_one(q);
  const bool outcome = rng.uniform() < p1;
  collapse(q, outcome, outcome ? p1 : 1.0 - p1);
  return outcome;
}

template <typename T>
void StateVector<T>::reset_qubit(unsigned q, Xoshiro256& rng) {
  if (measure(q, rng)) {
    // Map |1> back to |0>: swap the halves (an X gate restricted to the
    // collapsed state is just a relabeling because the |0> half is zero).
    value_type* psi = amps_.data();
    const std::uint64_t half = size() / 2;
    pool_->parallel_for(half, 2 * sizeof(value_type),
                        [psi, q](unsigned, std::uint64_t b, std::uint64_t e) {
                          for (std::uint64_t c = b; c < e; ++c) {
                            const std::uint64_t i0 = insert_zero_bit(c, q);
                            const std::uint64_t i1 = i0 | pow2(q);
                            psi[i0] = psi[i1];
                            psi[i1] = value_type{};
                          }
                        });
  }
}

template <typename T>
std::vector<std::uint64_t> StateVector<T>::sample(std::size_t shots,
                                                  Xoshiro256& rng) const {
  // Chunked cumulative distribution: one coarse table of at most 2^12
  // chunk sums, then a scan within the selected chunk. Keeps the setup pass
  // parallel-friendly and each shot cheap.
  const std::uint64_t num_chunks = std::min<std::uint64_t>(size(), 1u << 12);
  const std::uint64_t chunk = size() / num_chunks;
  std::vector<double> cum(num_chunks + 1, 0.0);
  const value_type* psi = amps_.data();
  pool_->parallel_for(
      num_chunks, chunk * sizeof(value_type),
      [psi, chunk, &cum](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t k = b; k < e; ++k) {
          double acc = 0.0;
          for (std::uint64_t i = k * chunk; i < (k + 1) * chunk; ++i) {
            acc += static_cast<double>(psi[i].real()) * psi[i].real() +
                   static_cast<double>(psi[i].imag()) * psi[i].imag();
          }
          cum[k + 1] = acc;
        }
      });
  for (std::uint64_t k = 0; k < num_chunks; ++k) cum[k + 1] += cum[k];
  const double total = cum[num_chunks];

  std::vector<std::uint64_t> out;
  out.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * total;
    // Binary search the chunk, then linear scan inside.
    const auto it = std::upper_bound(cum.begin(), cum.end(), r);
    std::uint64_t k = static_cast<std::uint64_t>(
        std::max<std::ptrdiff_t>(0, it - cum.begin() - 1));
    if (k >= num_chunks) k = num_chunks - 1;
    double acc = cum[k];
    std::uint64_t idx = k * chunk;
    for (; idx + 1 < (k + 1) * chunk; ++idx) {
      acc += static_cast<double>(psi[idx].real()) * psi[idx].real() +
             static_cast<double>(psi[idx].imag()) * psi[idx].imag();
      if (acc > r) break;
    }
    out.push_back(idx);
  }
  return out;
}

template <typename T>
double StateVector<T>::expectation(const qc::PauliString& pauli) const {
  require(pauli.num_qubits() == num_qubits_,
          "expectation: Pauli qubit count mismatch");
  const value_type* psi = amps_.data();
  const std::uint64_t x = pauli.x_mask();
  const std::uint64_t z = pauli.z_mask();
  const unsigned y_count = popcount(x & z);
  // <ψ|P|ψ> = Σ_col conj(ψ[col ^ x]) · phase(col) · ψ[col]; phase(col) =
  // i^{y_count} · (-1)^{popcount(z & col)}. The sum is real for Hermitian P.
  const double re = pool_->parallel_reduce(
      size(), 2 * sizeof(value_type),
      [psi, x, z](unsigned, std::uint64_t b, std::uint64_t e) {
        double acc = 0.0;
        for (std::uint64_t col = b; col < e; ++col) {
          const std::uint64_t row = col ^ x;
          const double sign = (popcount(z & col) % 2) ? -1.0 : 1.0;
          const std::complex<double> a{
              static_cast<double>(psi[row].real()),
              static_cast<double>(psi[row].imag())};
          const std::complex<double> c{
              static_cast<double>(psi[col].real()),
              static_cast<double>(psi[col].imag())};
          acc += sign * (std::conj(a) * c).real();
        }
        return acc;
      });
  const double im = (y_count % 2 == 1)
                        ? pool_->parallel_reduce(
                              size(), 2 * sizeof(value_type),
                              [psi, x, z](unsigned, std::uint64_t b,
                                          std::uint64_t e) {
                                double acc = 0.0;
                                for (std::uint64_t col = b; col < e; ++col) {
                                  const std::uint64_t row = col ^ x;
                                  const double sign =
                                      (popcount(z & col) % 2) ? -1.0 : 1.0;
                                  const std::complex<double> a{
                                      static_cast<double>(psi[row].real()),
                                      static_cast<double>(psi[row].imag())};
                                  const std::complex<double> c{
                                      static_cast<double>(psi[col].real()),
                                      static_cast<double>(psi[col].imag())};
                                  acc += sign * (std::conj(a) * c).imag();
                                }
                                return acc;
                              })
                        : 0.0;
  // Multiply by i^{y_count}: rotate (re, im) accordingly and keep the real
  // part, which is the Hermitian expectation value.
  switch (y_count % 4) {
    case 0: return re;
    case 1: return -im;
    case 2: return -re;
    default: return im;
  }
}

template <typename T>
double StateVector<T>::expectation(const qc::PauliOperator& op) const {
  double total = 0.0;
  for (const auto& term : op.terms())
    total += term.coefficient * expectation(term.pauli);
  return total;
}

template class StateVector<float>;
template class StateVector<double>;

}  // namespace svsim::sv
