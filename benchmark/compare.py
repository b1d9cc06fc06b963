#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    benchmark/compare.py A.json B.json   # B against A
    benchmark/compare.py A.json          # spreads of one set only

A and B are results files written by benchmark/run.sh (use --runs N for a
set of N seeds), taken at the same --seconds. For every end-to-end
metric x workload the verdict is

  agree       B's median is not worse than A's by more than the bound;
  worse       it is;
  unresolved  the spread of A or B (interquartile range over the median)
              is wider than the bound, so the runs cannot tell.

Exit status 1 when any pair is worse or unresolved, or any run was wrong;
2 when the files cannot be compared.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(path):
    """Run length, {(workload, metric): [values]} of the untraced runs, and
    problems."""
    data = json.loads(pathlib.Path(path).read_text())
    values, problems = {}, []
    for run in data["runs"]:
        if run["trace"] != 0:
            continue
        result = run["result"]
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{path}: {run['workload']} seed {run['seed']} "
                            "reported a wrong outcome")
        for name, metric in result["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return data["seconds"], values, problems


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds_a, a, problems = load_runs(argv[1])
    b = None
    if len(argv) == 3:
        seconds_b, b, more = load_runs(argv[2])
        if seconds_b != seconds_a:
            print(f"cannot compare: {argv[1]} ran {seconds_a} s per run, "
                  f"{argv[2]} ran {seconds_b} s", file=sys.stderr)
            return 2
        problems += more

    failing = bool(problems)
    header = f"{'workload':16} {'metric':16} {'bound':>6} {'spread A':>9}"
    header += f" {'spread B':>9} {'change':>8}  verdict" if b else ""
    print(header)
    for (workload, name), va in sorted(a.items()):
        m = metrics.get(name)
        if m is None:
            continue
        bound = m["bound"]
        sa = spread(va)
        row = f"{workload:16} {name:16} {bound:6.3f} {sa:9.4f}"
        if b is None:
            verdict = "ok" if sa <= bound else "unresolved"
            print(f"{row}  {verdict}")
            failing |= verdict != "ok"
            continue
        vb = b.get((workload, name), [])
        if not vb:
            print(f"{row}  missing from B")
            failing = True
            continue
        sb = spread(vb)
        ma, mb = statistics.median(va), statistics.median(vb)
        change = (mb - ma) / ma
        worse_by = change if m["better"] == "lower" else -change
        if max(sa, sb) > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        else:
            verdict = "agree"
        failing |= verdict != "agree"
        print(f"{row} {sb:9.4f} {change:+8.4f}  {verdict}")
    for p in problems:
        print(p)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
