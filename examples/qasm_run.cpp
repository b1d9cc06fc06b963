// Run an OpenQASM 2.0 file: parse, simulate, print counts.
//
//   $ ./qasm_run circuit.qasm [shots]
//   $ ./qasm_run            # runs a built-in demo program
//
// Demonstrates the QASM front-end plus the shot-execution engine (fast path
// for trailing measurements, trajectories for mid-circuit measurement).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "qc/qasm.hpp"
#include "sv/simulator.hpp"

namespace {

const char* kDemo = R"(
// Built-in demo: 4-qubit phase-kickback interferometer.
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
h q[1];
h q[2];
x q[3];
cu1(pi/2) q[0],q[3];
cu1(pi/4) q[1],q[3];
cu1(pi/8) q[2],q[3];
h q[0];
h q[1];
h q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace svsim;
  try {
    const qc::Circuit circuit = argc > 1 ? qc::parse_qasm_file(argv[1])
                                         : qc::parse_qasm(kDemo);
    const std::size_t shots =
        argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 1024;

    std::cout << "parsed: " << circuit.num_qubits() << " qubits, "
              << circuit.size() << " ops, depth " << circuit.depth() << "\n";
    for (const auto& [name, count] : circuit.gate_counts())
      std::cout << "  " << name << " x" << count << "\n";

    sv::Simulator<double> sim;
    const auto counts = sim.sample_counts(circuit, shots);
    std::cout << "\ncounts (" << shots << " shots):\n";
    const unsigned width =
        sv::split_shots(circuit, sim.options().noise).label_width;
    for (const auto& [bits, count] : counts) {
      std::string label;
      for (unsigned b = width; b-- > 0;)
        label += ((bits >> b) & 1) ? '1' : '0';
      std::printf("  %s : %zu\n", label.c_str(), count);
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
