#include "sv/state_vector.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace svsim::sv {

namespace {

unsigned checked_width(unsigned num_qubits) {
  require(num_qubits >= 1 && num_qubits <= 34,
          "StateVector supports 1..34 qubits");
  return num_qubits;
}

}  // namespace

template <typename T>
StateVector<T>::StateVector(unsigned num_qubits, ThreadPool* pool)
    : num_qubits_(checked_width(num_qubits)),
      size_(pow2(num_qubits)),
      owned_(size_, LentBuffer::kAlignment),
      pool_(pool) {
  SVSIM_ASSERT(pool_ != nullptr);
  amps_ = owned_.data();
  set_basis_state(0);
}

template <typename T>
StateVector<T>::StateVector(unsigned num_qubits, ThreadPool* pool,
                            LentBuffer& storage)
    : num_qubits_(checked_width(num_qubits)),
      size_(pow2(num_qubits)),
      amps_(static_cast<value_type*>(
          storage.acquire(size_ * sizeof(value_type)))),
      pool_(pool) {
  SVSIM_ASSERT(pool_ != nullptr);
  set_basis_state(0);
}

template <typename T>
StateVector<T>::StateVector(StateVector&& other) noexcept
    : num_qubits_(other.num_qubits_),
      size_(std::exchange(other.size_, 0)),
      amps_(std::exchange(other.amps_, nullptr)),
      owned_(std::move(other.owned_)),
      pool_(other.pool_) {}

template <typename T>
StateVector<T>& StateVector<T>::operator=(StateVector&& other) noexcept {
  if (this != &other) {
    num_qubits_ = other.num_qubits_;
    size_ = std::exchange(other.size_, 0);
    amps_ = std::exchange(other.amps_, nullptr);
    owned_ = std::move(other.owned_);
    pool_ = other.pool_;
  }
  return *this;
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
  value_type* psi = amps_;
  pool_->parallel_for(size(), sizeof(value_type),
                      [psi](unsigned, std::uint64_t b, std::uint64_t e) {
                        std::fill(psi + b, psi + e, value_type{});
                      });
  psi[basis] = value_type{T{1}, T{0}};
}

template <typename T>
void StateVector<T>::set_state(std::span<const std::complex<double>> state) {
  require(state.size() == size(), "set_state: size mismatch");
  value_type* psi = amps_;
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
  const value_type* psi = amps_;
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
  value_type* psi = amps_;
  pool_->parallel_for(size(), sizeof(value_type),
                      [psi, inv](unsigned, std::uint64_t b, std::uint64_t e) {
                        for (std::uint64_t i = b; i < e; ++i) psi[i] *= inv;
                      });
}

template <typename T>
std::complex<double> StateVector<T>::inner_product(
    const StateVector& other) const {
  require(size() == other.size(), "inner_product: size mismatch");
  const value_type* a = amps_;
  const value_type* b = other.amps_;
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
  const value_type* psi = amps_;
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
  const value_type* psi = amps_;
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
  value_type* psi = amps_;
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
    value_type* psi = amps_;
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
  // chunk sums, summed in chunk order, then a scan within the selected
  // chunk. Keeps the setup pass parallel-friendly and each shot cheap.
  const std::uint64_t num_chunks = std::min<std::uint64_t>(size(), 1u << 12);
  const std::uint64_t chunk = size() / num_chunks;
  std::vector<double> cum(num_chunks + 1, 0.0);
  const value_type* psi = amps_;
  const auto prob = [psi](std::uint64_t i) {
    return static_cast<double>(psi[i].real()) * psi[i].real() +
           static_cast<double>(psi[i].imag()) * psi[i].imag();
  };
  pool_->parallel_for(
      num_chunks, chunk * sizeof(value_type),
      [&prob, chunk, &cum](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t k = b; k < e; ++k) {
          double acc = 0.0;
          for (std::uint64_t i = k * chunk; i < (k + 1) * chunk; ++i)
            acc += prob(i);
          cum[k + 1] = acc;
        }
      });
  for (std::uint64_t k = 0; k < num_chunks; ++k) cum[k + 1] += cum[k];
  const double total = cum[num_chunks];

  // Guide table: guide[g] is the first j with cum[j] > g * total / G, so
  // the search for the first cum[j] > r (what std::upper_bound returns)
  // starts next to its answer and walks O(1) expected steps. The walk
  // corrects in both directions, so rounding in the bucket only costs
  // steps, never changes the answer.
  const std::uint64_t buckets = num_chunks;
  const double step = total / static_cast<double>(buckets);
  std::vector<std::uint32_t> guide(buckets);
  for (std::uint64_t g = 0, j = 0; g < buckets; ++g) {
    const double threshold = static_cast<double>(g) * step;
    while (j <= num_chunks && cum[j] <= threshold) ++j;
    guide[g] = static_cast<std::uint32_t>(j);
  }

  // Pass 1, per shot in draw order: the uniform and its chunk. With
  // one-amplitude chunks the chunk is the sample.
  std::vector<std::uint64_t> out(shots);
  std::vector<double> rs(chunk > 1 ? shots : 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double u = rng.uniform();
    const double r = u * total;
    std::uint64_t j = guide[static_cast<std::uint64_t>(
        u * static_cast<double>(buckets))];
    while (j > 0 && cum[j - 1] > r) --j;
    // Usually zero to two steps up: taken without a branch first.
    j += j <= num_chunks && cum[j] <= r ? 1u : 0u;
    j += j <= num_chunks && cum[j] <= r ? 1u : 0u;
    while (j <= num_chunks && cum[j] <= r) ++j;
    out[s] = std::min(j == 0 ? 0 : j - 1, num_chunks - 1);
    if (chunk > 1) rs[s] = r;
  }
  if (chunk == 1) return out;

  // Pass 2, shots grouped by chunk in chunk order (a counting sort), so the
  // scans walk the state once instead of jumping across it. Each scan adds
  // the chunk's probabilities to cum[k] in order and stops at the first
  // running sum above r; the chunk's last amplitude takes whatever rounding
  // leaves over. The running sums never decrease, so the stop is the count
  // of sums at or below r: counted 16 at a time without a branch per
  // amplitude, the same sums in the same order.
  std::vector<std::size_t> first(num_chunks + 1, 0);
  for (std::size_t s = 0; s < shots; ++s) ++first[out[s] + 1];
  for (std::uint64_t k = 0; k < num_chunks; ++k) first[k + 1] += first[k];
  std::vector<std::size_t> order(shots);
  for (std::size_t s = 0; s < shots; ++s) order[first[out[s]]++] = s;
  for (const std::size_t s : order) {
    const std::uint64_t k = out[s];
    const double r = rs[s];
    const std::uint64_t last = (k + 1) * chunk - 1;
    double acc = cum[k];
    std::uint64_t idx = k * chunk;
    for (;;) {
      const std::uint64_t stop = std::min(idx + 16, last);
      std::uint64_t below = 0;
      for (std::uint64_t i = idx; i < stop; ++i) {
        acc += prob(i);
        below += acc <= r ? 1 : 0;
      }
      if (idx + below < stop || stop == last) {
        idx += below;
        break;
      }
      idx = stop;
    }
    out[s] = idx;
  }
  return out;
}

template <typename T>
double StateVector<T>::expectation(const qc::PauliString& pauli) const {
  require(pauli.num_qubits() == num_qubits_,
          "expectation: Pauli qubit count mismatch");
  const value_type* psi = amps_;
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
