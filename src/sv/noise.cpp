#include "sv/noise.hpp"

#include <cmath>

#include "common/error.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace svsim::sv {

namespace {

/// Applies one uniformly drawn non-identity Pauli over `qubits`.
template <typename T>
void apply_random_pauli(StateVector<T>& state,
                        const std::vector<unsigned>& qubits, Xoshiro256& rng) {
  // Draw a non-identity assignment of {I,X,Y,Z} over the qubits.
  const std::uint64_t combos = pow2(2 * static_cast<unsigned>(qubits.size()));
  const std::uint64_t pick = 1 + rng.uniform_int(combos - 1);
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    const unsigned code = static_cast<unsigned>((pick >> (2 * i)) & 3u);
    const unsigned q = qubits[i];
    switch (code) {
      case 0: break;
      case 1: apply_gate(state, qc::Gate::x(q)); break;
      case 2: apply_gate(state, qc::Gate::y(q)); break;
      case 3: apply_gate(state, qc::Gate::z(q)); break;
    }
  }
}

/// One amplitude-damping trajectory step on qubit q.
template <typename T>
void apply_amplitude_damping(StateVector<T>& state, unsigned q, double gamma,
                             Xoshiro256& rng) {
  const double p1 = state.probability_of_one(q);
  const double p_jump = gamma * p1;
  std::complex<T>* psi = state.data();
  const unsigned n = state.num_qubits();
  if (rng.uniform() < p_jump) {
    // Jump K1 = [[0, √γ],[0, 0]]: |1> component moves to |0>; after
    // normalization the state is the post-jump trajectory.
    const T scale = static_cast<T>(1.0 / std::sqrt(p1));
    state.pool().parallel_for(
        pow2(n - 1), detail::amp_bytes<T>(2),
        [psi, q, scale](unsigned, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t c = b; c < e; ++c) {
            const std::uint64_t i0 = insert_zero_bit(c, q);
            const std::uint64_t i1 = i0 | pow2(q);
            psi[i0] = psi[i1] * scale;
            psi[i1] = {};
          }
        });
  } else {
    // No-jump K0 = diag(1, √(1-γ)), renormalized by the no-jump probability
    // 1 - γ·p1: one Diag1 pass with d0 = scale, d1 = √(1-γ)·scale.
    const double scale = 1.0 / std::sqrt(1.0 - p_jump);
    PreparedGate<T> pg = prepare_gate<T>(qc::Gate::z(q));
    pg.coeff = {detail::cast_c<T>(scale),
                detail::cast_c<T>(std::sqrt(1.0 - gamma) * scale)};
    apply_prepared(psi, n, pg, state.pool());
  }
}

}  // namespace

NoiseModel& NoiseModel::add_depolarizing(double p, unsigned arity) {
  require(p >= 0.0 && p <= 1.0, "depolarizing probability out of range");
  channels_.push_back({NoiseChannel::Type::Depolarizing, p, arity});
  return *this;
}

NoiseModel& NoiseModel::add_bit_flip(double p, unsigned arity) {
  require(p >= 0.0 && p <= 1.0, "bit-flip probability out of range");
  channels_.push_back({NoiseChannel::Type::BitFlip, p, arity});
  return *this;
}

NoiseModel& NoiseModel::add_phase_flip(double p, unsigned arity) {
  require(p >= 0.0 && p <= 1.0, "phase-flip probability out of range");
  channels_.push_back({NoiseChannel::Type::PhaseFlip, p, arity});
  return *this;
}

NoiseModel& NoiseModel::add_amplitude_damping(double gamma, unsigned arity) {
  require(gamma >= 0.0 && gamma <= 1.0, "damping rate out of range");
  channels_.push_back({NoiseChannel::Type::AmplitudeDamping, gamma, arity});
  return *this;
}

NoiseModel& NoiseModel::set_readout_error(double p0_to_1, double p1_to_0) {
  require(p0_to_1 >= 0.0 && p0_to_1 <= 1.0 && p1_to_0 >= 0.0 &&
              p1_to_0 <= 1.0,
          "readout error probabilities out of range");
  readout_p01_ = p0_to_1;
  readout_p10_ = p1_to_0;
  return *this;
}

bool NoiseModel::flip_readout(bool outcome, Xoshiro256& rng) const {
  const double p = outcome ? readout_p10_ : readout_p01_;
  if (p > 0.0 && rng.uniform() < p) return !outcome;
  return outcome;
}

template <typename T>
void NoiseModel::apply_after(StateVector<T>& state, const qc::Gate& gate,
                             Xoshiro256& rng) const {
  if (!gate.is_unitary_op()) return;
  for (const auto& ch : channels_) {
    if (ch.arity != 0 && ch.arity != gate.num_qubits()) continue;
    switch (ch.type) {
      case NoiseChannel::Type::Depolarizing:
        if (rng.uniform() < ch.parameter)
          apply_random_pauli(state, gate.qubits, rng);
        break;
      case NoiseChannel::Type::BitFlip:
        for (unsigned q : gate.qubits)
          if (rng.uniform() < ch.parameter)
            apply_gate(state, qc::Gate::x(q));
        break;
      case NoiseChannel::Type::PhaseFlip:
        for (unsigned q : gate.qubits)
          if (rng.uniform() < ch.parameter)
            apply_gate(state, qc::Gate::z(q));
        break;
      case NoiseChannel::Type::AmplitudeDamping:
        for (unsigned q : gate.qubits)
          apply_amplitude_damping(state, q, ch.parameter, rng);
        break;
    }
  }
}

template void NoiseModel::apply_after<float>(StateVector<float>&,
                                             const qc::Gate&,
                                             Xoshiro256&) const;
template void NoiseModel::apply_after<double>(StateVector<double>&,
                                              const qc::Gate&,
                                              Xoshiro256&) const;

}  // namespace svsim::sv
