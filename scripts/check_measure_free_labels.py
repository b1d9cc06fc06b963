#!/usr/bin/env python3
"""Check that measure-free circuits are counted on the full basis index.

Usage:
  check_measure_free_labels.py --emit-with PATH/TO/svsim [--output-dir DIR]

A circuit with no MEASURE is read out as if every qubit q were measured into
bit q, whatever classical register it declares (docs/SERVICE.md "Batching
semantics"). Two 2-qubit circuits exercise both shot modes: one declares no
`creg` (the QASM parser gives it a single classical bit) and samples; the
other resets a qubit without measuring and runs trajectories. A third,
Clifford circuit measures qubits into different cbits of a 3-bit register
(q0 -> c2, q1 -> c0), so its labels are 100 and 101. Each goes through
`svsim run` and through one `svsim serve` session; the sampled-mode
(reset-free) ones also through `svsim run --backend stab`, which must print
the same label set as the state-vector run. Every histogram must hold
MSB-first labels of the expected width, each label once, every expected
outcome, and every shot. Exits nonzero with a diagnostic on the first
violation.
"""

import argparse
import json
import os
import subprocess
import sys

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
TWO_BITS = {"00", "01", "10", "11"}
# name -> (QASM, the label set every backend must print)
CIRCUITS = {
    "no-creg": (HEADER + "qreg q[2];\nh q[0];\nh q[1];\n", TWO_BITS),
    "reset": (HEADER + "qreg q[2];\nreset q[0];\nh q[0];\nh q[1];\n",
              TWO_BITS),
    "creg-map": (HEADER + "qreg q[3];\ncreg c[3];\nx q[0];\nh q[1];\n"
                 "measure q[0] -> c[2];\nmeasure q[1] -> c[0];\n",
                 {"100", "101"}),
}
# The stabilizer backend runs sampled-mode (reset-free) circuits only.
STAB_CIRCUITS = ("no-creg", "creg-map")
SHOTS = 400


def fail(msg):
    print(f"check_measure_free_labels: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_histogram(where, pairs, expected):
    labels = [label for label, _ in pairs]
    if len(labels) != len(set(labels)):
        fail(f"{where}: a label repeats: {labels}")
    if set(labels) != expected:
        fail(f"{where}: labels {sorted(labels)} are not {sorted(expected)}")
    if sum(count for _, count in pairs) != SHOTS:
        fail(f"{where}: counts do not add up to {SHOTS} shots")


def run(cmd, stdin=None):
    result = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                            timeout=300)
    if result.returncode != 0:
        fail(f"{' '.join(cmd)} exited {result.returncode}: {result.stderr}")
    return result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--emit-with", metavar="SVSIM", required=True,
                        help="svsim binary to drive")
    parser.add_argument("--output-dir", default=".",
                        help="where the QASM inputs are written")
    args = parser.parse_args()
    os.makedirs(args.output_dir, exist_ok=True)

    jobs = []
    for name, (qasm, expected) in CIRCUITS.items():
        path = os.path.join(args.output_dir, f"measure_free_{name}.qasm")
        with open(path, "w") as f:
            f.write(qasm)
        backends = ["sv", "stab"] if name in STAB_CIRCUITS else ["sv"]
        for backend in backends:
            out = run([args.emit_with, "run", path, "--shots", str(SHOTS),
                       "--seed", "5", "--backend", backend])
            pairs = []
            for line in out.splitlines():
                label, sep, count = line.partition(" : ")
                if not sep:
                    fail(f"run {name} ({backend}): unexpected output line "
                         f"{line!r}")
                pairs.append((label, int(count)))
            check_histogram(f"run {name} ({backend})", pairs, expected)
        jobs.append(json.dumps({"id": name, "qasm": qasm, "shots": SHOTS,
                                "options": {"seed": 5}}))

    out = run([args.emit_with, "serve"], stdin="\n".join(jobs) + "\n")
    seen = set()
    for line in out.splitlines():
        rec = json.loads(line, object_pairs_hook=lambda kv: kv)
        fields = dict(rec)
        if fields.get("type") != "result":
            continue
        name = fields["id"]
        if fields.get("ok") is not True:
            fail(f"serve {name}: job failed: {line}")
        check_histogram(f"serve {name}", fields["counts"], CIRCUITS[name][1])
        seen.add(name)
    if seen != set(CIRCUITS):
        fail(f"serve returned results for {sorted(seen)}, "
             f"not {sorted(CIRCUITS)}")
    print("check_measure_free_labels: OK")


if __name__ == "__main__":
    main()
