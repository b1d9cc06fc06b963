// StateVector<T>: the 2^n-amplitude register.
//
// Owns an aligned array of std::complex<T> (T = float or double; the paper's
// precision study needs both), or borrows one from a LentBuffer so a serve
// worker reuses one state's pages job after job. Allocation is
// uninitialized and the |0...0> fill runs through the thread pool so pages
// are first-touched by the workers that will stream them (NUMA-correct on
// real multi-socket/CMG machines).
//
// All whole-register reductions (norm, probabilities, sampling, expectation)
// live here; gate application is in kernels.hpp.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "qc/pauli.hpp"

namespace svsim::sv {

template <typename T>
class StateVector {
 public:
  using value_type = std::complex<T>;

  /// Allocates a 2^num_qubits register initialized to |0...0>.
  /// `pool` is borrowed for the lifetime of the object (default: the
  /// process-global pool).
  explicit StateVector(unsigned num_qubits,
                       ThreadPool* pool = &ThreadPool::global());

  /// Same, over `storage`'s memory (grown if too small) instead of a fresh
  /// allocation. `storage` must outlive the state and lend itself to no
  /// other user meanwhile.
  StateVector(unsigned num_qubits, ThreadPool* pool, LentBuffer& storage);

  StateVector(StateVector&& other) noexcept;
  StateVector& operator=(StateVector&& other) noexcept;

  unsigned num_qubits() const noexcept { return num_qubits_; }
  std::uint64_t size() const noexcept { return size_; }

  value_type* data() noexcept { return amps_; }
  const value_type* data() const noexcept { return amps_; }

  ThreadPool& pool() const noexcept { return *pool_; }

  value_type amplitude(std::uint64_t i) const { return amps_[i]; }
  /// |amplitude(i)|^2.
  double probability(std::uint64_t i) const;

  /// Resets to the computational basis state |basis>.
  void set_basis_state(std::uint64_t basis);

  /// Copies an arbitrary (normalized) state in; size must be 2^n.
  void set_state(std::span<const std::complex<double>> state);

  /// Copies the state out as complex<double> (for test comparison).
  std::vector<std::complex<double>> to_vector() const;

  /// Σ |a_i|^2 (parallel).
  double norm_squared() const;

  /// Scales so norm_squared() == 1. Throws on the zero vector.
  void normalize();

  /// <this|other> (parallel).
  std::complex<double> inner_product(const StateVector& other) const;

  /// Probability that measuring qubit q yields 1 (parallel).
  double probability_of_one(unsigned q) const;

  /// Marginal distribution of a qubit subset: element k is the probability
  /// of reading bit pattern k across `qubits` (qubits[0] = LSB of k).
  /// O(2^n) single sweep; result has 2^|qubits| entries.
  std::vector<double> marginal_probabilities(
      const std::vector<unsigned>& qubits) const;

  /// Projects qubit q onto `outcome` and renormalizes. `prob_outcome` is
  /// the probability of that outcome (pass the value you computed).
  void collapse(unsigned q, bool outcome, double prob_outcome);

  /// Measures qubit q: samples an outcome, collapses, returns the outcome.
  bool measure(unsigned q, Xoshiro256& rng);

  /// Forces qubit q to |0> (measure + conditional X).
  void reset_qubit(unsigned q, Xoshiro256& rng);

  /// Draws `shots` basis-state samples from |a|^2 without disturbing the
  /// state, one uniform per shot in shot order. One pass builds a table of
  /// at most 2^12 chunk sums and a guide table into it; each shot then finds
  /// its chunk in O(1) expected steps and scans at most that chunk
  /// (size / 2^12 amplitudes), the scans running in chunk order.
  std::vector<std::uint64_t> sample(std::size_t shots, Xoshiro256& rng) const;

  /// <ψ|P|ψ> for a single Pauli string (real by Hermiticity; parallel).
  double expectation(const qc::PauliString& pauli) const;

  /// Σ_k c_k <ψ|P_k|ψ>.
  double expectation(const qc::PauliOperator& op) const;

 private:
  unsigned num_qubits_ = 0;
  std::uint64_t size_ = 0;
  value_type* amps_ = nullptr;   ///< owned_'s data or lent memory
  AlignedBuffer<value_type> owned_;
  ThreadPool* pool_ = nullptr;
};

extern template class StateVector<float>;
extern template class StateVector<double>;

}  // namespace svsim::sv
