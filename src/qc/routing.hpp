// Qubit routing for restricted connectivity.
//
// Real devices (and cache-blocking schemes on simulators) restrict which
// qubit pairs may interact. `route_linear` rewrites a circuit so every
// multi-qubit gate acts on adjacent physical qubits of a linear chain,
// inserting SWAPs and tracking the logical->physical mapping as it drifts.
// The router rejects gates wider than two qubits.
#pragma once

#include <vector>

#include "qc/circuit.hpp"

namespace svsim::qc {

struct RoutedCircuit {
  Circuit circuit;                     ///< physical-qubit circuit
  std::vector<unsigned> final_layout;  ///< logical qubit -> physical slot
  std::size_t swaps_inserted = 0;
};

/// Routes `circuit` (1- and 2-qubit gates plus measure/reset/barrier only)
/// onto a linear chain: after routing, every 2-qubit gate acts on physical
/// neighbours |p - q| == 1. Measurement/reset follow the tracked layout.
/// The result satisfies: routed ≡ permute(final_layout) ∘ original.
RoutedCircuit route_linear(const Circuit& circuit);

/// Verification helper: true if every multi-qubit unitary in `circuit`
/// touches only adjacent physical qubits.
bool respects_linear_coupling(const Circuit& circuit);

}  // namespace svsim::qc
