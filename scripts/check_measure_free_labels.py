#!/usr/bin/env python3
"""Check that measure-free circuits are counted on the full basis index.

Usage:
  check_measure_free_labels.py --emit-with PATH/TO/svsim [--output-dir DIR]

A circuit with no MEASURE is read out as if every qubit q were measured into
bit q, whatever classical register it declares (docs/SERVICE.md "Batching
semantics"). Two 2-qubit circuits exercise both shot modes: one declares no
`creg` (the QASM parser gives it a single classical bit) and samples; the
other resets a qubit without measuring and runs trajectories. Each goes
through `svsim run` and through one `svsim serve` session. Every histogram
must hold 2-bit labels, each label once, all four outcomes, and every shot.
Exits nonzero with a diagnostic on the first violation.
"""

import argparse
import json
import os
import subprocess
import sys

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
CIRCUITS = {
    "no-creg": HEADER + "h q[0];\nh q[1];\n",
    "reset": HEADER + "reset q[0];\nh q[0];\nh q[1];\n",
}
SHOTS = 400
LABELS = {"00", "01", "10", "11"}


def fail(msg):
    print(f"check_measure_free_labels: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_histogram(where, pairs):
    labels = [label for label, _ in pairs]
    if len(labels) != len(set(labels)):
        fail(f"{where}: a label repeats: {labels}")
    if set(labels) != LABELS:
        fail(f"{where}: labels {sorted(labels)} are not the four 2-bit "
             f"outcomes")
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
    for name, qasm in CIRCUITS.items():
        path = os.path.join(args.output_dir, f"measure_free_{name}.qasm")
        with open(path, "w") as f:
            f.write(qasm)
        out = run([args.emit_with, "run", path, "--shots", str(SHOTS),
                   "--seed", "5"])
        pairs = []
        for line in out.splitlines():
            label, sep, count = line.partition(" : ")
            if not sep:
                fail(f"run {name}: unexpected output line {line!r}")
            pairs.append((label, int(count)))
        check_histogram(f"run {name}", pairs)
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
        check_histogram(f"serve {name}", fields["counts"])
        seen.add(name)
    if seen != set(CIRCUITS):
        fail(f"serve returned results for {sorted(seen)}, "
             f"not {sorted(CIRCUITS)}")
    print("check_measure_free_labels: OK")


if __name__ == "__main__":
    main()
