// Gate fusion: merge adjacent gates into one gate when that costs no more.
//
// Every gate is priced by the work its kernel does (sv::kernel_price): the
// share of amplitudes it touches times the complex multiplies per touched
// amplitude, plus one traversal of the state. A run of adjacent gates whose
// combined support fits in max_width qubits becomes one gate only while
// each merge keeps the merged gate's price at or below the sum of its parts
// (a tie merges: the same work in one pass instead of two), so
// max_width is a cap, not a target. Merges keep structure: an all-diagonal
// group stays a DIAG gate, and a non-diagonal gate ends a diagonal group
// instead of densifying it (a diagonal gate may still extend a group that
// is already dense). Dense groups become UNITARY gates. This is the
// optimization Table 2 of the reconstructed evaluation quantifies (the
// technique of Qiskit Aer's fusion and qsim's gate grouping).
#pragma once

#include "qc/circuit.hpp"

namespace svsim::obs {
class MetricsRegistry;
}

namespace svsim::sv {

struct FusionOptions {
  /// Maximum number of distinct qubits per fused group (2..6 useful).
  unsigned max_width = 3;
  /// Groups that remain a single gate pass through unchanged. Diagonal
  /// groups are emitted as DIAG gates; false emits the same groups as
  /// dense UNITARY gates (the ablation baseline, priced as DIAG).
  bool prefer_diagonal = true;
  /// Registry fusion telemetry publishes to (borrowed); nullptr = the
  /// process-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Returns an equivalent circuit where runs of adjacent unitary gates with
/// combined support <= max_width qubits are merged into DIAG (or UNITARY)
/// gates wherever the cost gate above accepts each merge. MEASURE/RESET/
/// BARRIER flush the current group and are preserved; I gates are dropped.
qc::Circuit fuse(const qc::Circuit& circuit, const FusionOptions& options);

}  // namespace svsim::sv
