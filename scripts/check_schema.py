#!/usr/bin/env python3
"""Validate the JSON artifacts svsim emits against their schemas.

Usage:
  check_schema.py trace    [TRACE.json]        [--emit-with SVSIM [--output FILE]]
  check_schema.py plan     [PLAN.json]         [--emit-with SVSIM [--output FILE]]
  check_schema.py profile  [PROFILE.json ...]  [--emit-with SVSIM [--output-dir DIR]]
  check_schema.py timeline [TIMELINE.json ...] [--emit-with SVSIM [--output-dir DIR]]
  check_schema.py service  [TRANSCRIPT.jsonl]  [--emit-with SVSIM [--output FILE]]
                           [--threads N]
  check_schema.py bench    [--json FILE] [--jsonl FILE] [--emit-with SVSIM_BENCH]

With --emit-with, the binary is run first to emit the kind's canonical
artifacts, and those are validated, so the check exercises the full emit
path. `check_schema.py KIND --help` lists the invariants each kind enforces.
Exits nonzero with a diagnostic on the first violation.
"""

import argparse
import json
import math
import os
import subprocess
import sys

PHASE_KINDS = {"local_sweep", "dense_gate", "exchange", "measure_flush"}

KIND = "check_schema"  # the kind being checked, for diagnostics


def fail(msg):
    print(f"check_schema {KIND}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def ok(msg):
    print(f"check_schema {KIND}: OK: {msg}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def need_ints(obj, keys, where=""):
    for key in keys:
        if not isinstance(obj.get(key), int) or obj[key] < 0:
            fail(f"{where}{key} must be a non-negative integer")


def need_nums(obj, keys, where=""):
    for key in keys:
        if not is_num(obj.get(key)) or obj[key] < 0:
            fail(f"{where}{key} must be a non-negative number")


def need_strs(obj, keys, where=""):
    for key in keys:
        if not isinstance(obj.get(key), str) or not obj[key]:
            fail(f"{where}{key} must be a non-empty string")


def need_obj(obj, key, where=""):
    """obj[key], which must be a JSON object."""
    value = obj.get(key)
    if not isinstance(value, dict):
        fail(f"{where}{key} must be an object")
    return value


def check_geometry(obj, where, expect_ranks=None):
    """The rank split every plan-derived artifact records."""
    if obj["local_qubits"] != obj["num_qubits"] - obj["node_qubits"]:
        fail(f"{where}local_qubits != num_qubits - node_qubits")
    if obj["ranks"] != 1 << obj["node_qubits"]:
        fail(f"{where}ranks != 2^node_qubits")
    if expect_ranks is not None and obj["ranks"] != expect_ranks:
        fail(f"{where}expected {expect_ranks} ranks, artifact has "
             f"{obj['ranks']}")


def load_object(path, versioned=True):
    """The JSON document at `path`, which must be an object (carrying
    `version: 1` when `versioned`)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    if versioned and doc.get("version") != 1:
        fail(f"{path}: missing or unsupported 'version'")
    return doc


def load_jsonl(path):
    """(line number, parsed value) for every non-blank line of `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
    out = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            out.append((lineno, json.loads(line)))
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno} is not valid JSON: {e}")
    return out


def run_emitter(cmd, stdin=None):
    result = subprocess.run(cmd, input=stdin, capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited {result.returncode}:\n"
             f"{result.stderr}")


def check_chrome_trace(path):
    """Checks the Chrome trace-event envelope every svsim trace shares and
    returns its events: a 'ns' or 'ms' displayTimeUnit, a non-empty
    traceEvents array of objects with a non-negative integer pid, and on
    every complete ('X') event a non-empty name, a non-negative integer
    tid, non-negative ts and dur (µs), and an args object."""
    doc = load_object(path, versioned=False)
    if doc.get("displayTimeUnit") not in ("ns", "ms"):
        fail(f"{path}: missing or invalid 'displayTimeUnit'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: 'traceEvents' must be a non-empty array")
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            fail(f"{where} is not an object")
        need_ints(ev, ("pid",), f"{where}.")
        if ev.get("ph") != "X":
            continue
        need_strs(ev, ("name",), f"{where}.")
        need_ints(ev, ("tid",), f"{where}.")
        need_nums(ev, ("ts", "dur"), f"{where}.")
        need_obj(ev, "args", f"{where}.")
    return events


# ---- trace ------------------------------------------------------------------

TRACE_CATEGORIES = {"kernel", "measure", "fusion", "collective", "region"}


def check_trace(path):
    events = check_chrome_trace(path)
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if ev.get("ph") != "X":
            fail(f"{where}: expected complete ('X') event, got "
                 f"{ev.get('ph')!r}")
        if ev.get("cat") not in TRACE_CATEGORIES:
            fail(f"{where}: unknown category {ev.get('cat')!r}")
        args = ev["args"]
        need_ints(args, ("bytes", "stride"), f"{where}: args.")
        if "qubits" in args:
            q = args["qubits"]
            if not isinstance(q, list) or not q:
                fail(f"{where}: args.qubits must be a non-empty list")
            # Entries are qubit indices; a trailing "+N" string summarizes
            # operands beyond the two recorded per span.
            for entry in q:
                good = (isinstance(entry, int) and entry >= 0) or (
                    isinstance(entry, str) and entry.startswith("+"))
                if not good:
                    fail(f"{where}: bad args.qubits entry {entry!r}")
    kernels = sum(1 for ev in events if ev["cat"] in ("kernel", "measure"))
    if kernels == 0:
        fail("no kernel/measure spans — tracing was not wired into the run")
    # Spans are sorted by start time at export.
    ts = [ev["ts"] for ev in events]
    if ts != sorted(ts):
        fail("events are not sorted by timestamp")
    ok(f"{len(events)} events ({kernels} kernel/measure spans)")


def kind_trace(args):
    """Chrome trace-event JSON from `svsim run --trace-json`.

    --emit-with runs `run --qft 5 --shots 8 --trace-json OUTPUT` first.
    Beyond the shared trace-event envelope, every event is a complete ('X')
    span in a known category whose args carry non-negative integer bytes and
    stride (and, when present, a non-empty qubits list of indices with an
    optional trailing "+N"); at least one span is a kernel or measure span,
    and the events are sorted by timestamp.
    """
    if args.emit_with:
        run_emitter([args.emit_with, "run", "--qft", "5", "--shots", "8",
                     "--trace-json", args.output])
        args.files = [args.output]
    for path in args.files:
        check_trace(path)


# ---- plan -------------------------------------------------------------------

MEASURE_NAMES = {"measure", "reset"}


def check_gate(where, gate, num_qubits):
    if not isinstance(gate, dict):
        fail(f"{where} is not an object")
    need_strs(gate, ("name",), f"{where}.")
    name, qubits = gate["name"], gate.get("qubits")
    if not isinstance(qubits, list):
        fail(f"{where}: 'qubits' must be a list")
    for q in qubits:
        if not isinstance(q, int) or not 0 <= q < num_qubits:
            fail(f"{where}: qubit {q!r} out of range [0, {num_qubits})")
    return name, qubits


def check_plan_phase(i, phase, doc):
    where = f"phases[{i}]"
    if not isinstance(phase, dict):
        fail(f"{where} is not an object")
    kind = phase.get("kind")
    if kind not in PHASE_KINDS:
        fail(f"{where}: unknown kind {kind!r}")
    num_qubits = doc["num_qubits"]
    local_qubits = doc["local_qubits"]
    block_qubits = doc["block_qubits"]

    if kind == "exchange":
        if "moves_data" not in phase or not isinstance(phase["moves_data"], bool):
            fail(f"{where}: exchange needs a boolean 'moves_data'")
        hops = phase.get("hops")
        if not isinstance(hops, list) or not hops:
            fail(f"{where}: exchange needs a non-empty 'hops' list")
        total = 0.0
        for j, hop in enumerate(hops):
            hw = f"{where}.hops[{j}]"
            for key in ("local_slot", "node_slot", "rank_bit", "bytes"):
                if key not in hop:
                    fail(f"{hw} missing required key '{key}'")
            need_nums(hop, ("bytes",), f"{hw}.")
            total += hop["bytes"]
            if phase["moves_data"]:
                ls, ns = hop["local_slot"], hop["node_slot"]
                if not 0 <= ls < local_qubits:
                    fail(f"{hw}: local_slot {ls} not below the rank boundary")
                if not local_qubits <= ns < num_qubits:
                    fail(f"{hw}: node_slot {ns} not a node slot")
                if hop["rank_bit"] != ns - local_qubits:
                    fail(f"{hw}: rank_bit {hop['rank_bit']} inconsistent "
                         f"with node_slot {ns}")
        if abs(total - phase.get("bytes_per_rank", -1)) > 1e-6 * max(total, 1):
            fail(f"{where}: bytes_per_rank does not equal the hop sum")
        return

    gates = phase.get("gates")
    if not isinstance(gates, list) or not gates:
        fail(f"{where}: '{kind}' needs a non-empty 'gates' list")
    if kind == "dense_gate" and len(gates) != 1:
        fail(f"{where}: dense_gate must hold exactly one gate")
    for j, gate in enumerate(gates):
        name, qubits = check_gate(f"{where}.gates[{j}]", gate, num_qubits)
        is_measure = name in MEASURE_NAMES
        if kind == "measure_flush" and not is_measure:
            fail(f"{where}.gates[{j}]: unitary gate '{name}' inside a "
                 f"measure_flush phase")
        if kind != "measure_flush" and is_measure:
            fail(f"{where}.gates[{j}]: '{name}' outside a measure_flush phase")
        if kind == "local_sweep":
            for q in qubits:
                if q >= block_qubits:
                    fail(f"{where}.gates[{j}]: sweep operand {q} at or above "
                         f"the block boundary {block_qubits}")


def check_plan(path):
    doc = load_object(path)
    need_ints(doc, ("num_qubits", "node_qubits", "local_qubits",
                    "block_qubits", "num_clbits", "ranks"))
    check_geometry(doc, "")
    if doc["block_qubits"] > doc["local_qubits"]:
        fail("block boundary above the rank boundary "
             f"({doc['block_qubits']} > {doc['local_qubits']})")

    slots = doc.get("final_slot_of")
    if (not isinstance(slots, list) or len(slots) != doc["num_qubits"]
            or sorted(slots) != list(range(doc["num_qubits"]))):
        fail("'final_slot_of' must be a permutation of the qubit indices")

    phases = doc.get("phases")
    if not isinstance(phases, list):
        fail("'phases' must be an array")
    prev_exchange = False
    counted = {"sweep_gates": 0, "dense_gates": 0, "free_gates": 0,
               "measure_gates": 0, "num_exchanges": 0}
    for i, phase in enumerate(phases):
        check_plan_phase(i, phase, doc)
        is_exchange = phase.get("kind") == "exchange"
        if is_exchange and prev_exchange:
            fail(f"phases[{i}]: two adjacent exchange phases "
                 f"(windows not coalesced)")
        prev_exchange = is_exchange
        kind = phase["kind"]
        if kind == "local_sweep":
            counted["sweep_gates"] += len(phase["gates"])
        elif kind == "dense_gate":
            free = phase["gates"][0]["name"] in ("id", "barrier")
            counted["free_gates" if free else "dense_gates"] += 1
        elif kind == "measure_flush":
            counted["measure_gates"] += len(phase["gates"])
        else:
            counted["num_exchanges"] += len(phase["hops"])

    stats = need_obj(doc, "stats")
    for key, value in counted.items():
        if stats.get(key) != value:
            fail(f"stats.{key} = {stats.get(key)!r} but the phases "
                 f"contain {value}")
    ok(f"{len(phases)} phases, {counted['num_exchanges']} exchange hops, "
       f"{stats.get('traversals')} traversals")


def kind_plan(args):
    """ExecutionPlan JSON from `svsim plan --dump-plan`.

    --emit-with runs `plan --qft 10 --ranks 4 --blocked --dump-plan OUTPUT`
    first, so the check exercises the full compile-and-dump path. Beyond
    key/type checks, the structural invariants every executor relies on are
    enforced: no two adjacent exchange phases (windows must be maximal),
    local-sweep operands strictly below the block boundary, the block
    boundary at or below the rank boundary, measure/reset only inside
    measure_flush phases, data-moving hops straddling the rank boundary with
    a consistent rank bit, each exchange's bytes_per_rank equal to its hop
    sum, final_slot_of a permutation, and the stats block equal to the
    gate and hop counts of the phases.
    """
    if args.emit_with:
        run_emitter([args.emit_with, "plan", "--qft", "10", "--ranks", "4",
                     "--blocked", "--dump-plan", args.output])
        args.files = [args.output]
    for path in args.files:
        check_plan(path)


# ---- profile ----------------------------------------------------------------

PROFILE_ENV_INT_KEYS = ("threads", "num_qubits", "node_qubits",
                        "local_qubits", "block_qubits", "simd_vector_bits",
                        "ranks", "declared_cache_budget_bytes",
                        "probed_cache_budget_bytes")
PROFILE_PHASE_NUM_KEYS = ("measured_seconds", "modeled_seconds",
                          "drift_ratio", "measured_bytes", "modeled_bytes",
                          "flops", "exchange_bytes", "sim_exchange_seconds",
                          "measured_gbps", "modeled_gbps", "measured_gflops",
                          "modeled_gflops", "share")
ROOFLINE_NUM_KEYS = ("arithmetic_intensity", "attainable_gflops",
                     "compute_roof_gflops", "bandwidth_gbps")


def check_drift(where, m, mod, ratio):
    expect = m / mod if mod > 0 else 0.0
    if not math.isclose(ratio, expect, rel_tol=1e-6, abs_tol=1e-12):
        fail(f"{where}drift_ratio {ratio} != measured/modeled {expect}")


def check_profile_phase(i, phase):
    where = f"phases[{i}]"
    if not isinstance(phase, dict):
        fail(f"{where} is not an object")
    if phase.get("index") != i:
        fail(f"{where}: index {phase.get('index')!r} breaks dense ordering")
    kind = phase.get("kind")
    if kind not in PHASE_KINDS:
        fail(f"{where}: unknown kind {kind!r}")
    need_ints(phase, ("gates", "hops", "threads", "dropped_spans"),
              f"{where}.")
    need_nums(phase, PROFILE_PHASE_NUM_KEYS, f"{where}.")
    check_drift(f"{where}.", phase["measured_seconds"],
                phase["modeled_seconds"], phase["drift_ratio"])

    roof = need_obj(phase, "roofline", f"{where}.")
    need_nums(roof, ROOFLINE_NUM_KEYS, f"{where}.roofline.")
    if not isinstance(roof.get("memory_bound"), bool):
        fail(f"{where}.roofline: 'memory_bound' must be a boolean")
    if kind == "exchange":
        if roof["attainable_gflops"] != 0:
            fail(f"{where}: exchange phase carries a roofline placement")
    elif (phase["modeled_bytes"] > 0 and phase["flops"] > 0
          and roof["attainable_gflops"] <= 0):
        # Zero-flop phases (pure permutations) legitimately sit at AI = 0.
        fail(f"{where}: compute phase missing its roofline placement")
    if kind != "exchange" and phase["sim_exchange_seconds"] > 0:
        fail(f"{where}: sim_exchange_seconds on a non-exchange phase")

    hw = need_obj(phase, "hw", f"{where}.")
    if not isinstance(hw.get("valid"), bool):
        fail(f"{where}.hw: 'valid' must be a boolean")
    need_ints(hw, ("cycles", "instructions", "cache_misses"), f"{where}.hw.")
    if not is_num(hw.get("ipc")):
        fail(f"{where}.hw: 'ipc' must be a number")


def check_profile(path, expect_ranks=None):
    doc = load_object(path)
    if not isinstance(doc.get("partial"), bool):
        fail("'partial' must be a boolean")

    env = need_obj(doc, "env")
    need_strs(env, ("machine", "simd_isa", "simd_backend"), "env.")
    need_ints(env, PROFILE_ENV_INT_KEYS, "env.")
    for key in ("probe_valid", "cache_budget_warning"):
        if not isinstance(env.get(key), bool):
            fail(f"env.{key} must be a boolean")
    if not is_num(env.get("cache_budget_disagreement")):
        fail("env.cache_budget_disagreement must be a number")
    check_geometry(env, "env: ", expect_ranks)

    totals = need_obj(doc, "totals")
    need_nums(totals, ("measured_seconds", "modeled_seconds", "drift_ratio",
                       "measured_bytes", "modeled_bytes"), "totals.")

    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail("'phases' must be a non-empty array")
    if totals.get("phases") != len(phases):
        fail(f"totals.phases = {totals.get('phases')!r} but the artifact "
             f"holds {len(phases)}")
    for i, phase in enumerate(phases):
        check_profile_phase(i, phase)
    share_sum = sum(p["share"] for p in phases)
    if not math.isclose(share_sum, 1.0, rel_tol=1e-6):
        fail(f"phase shares sum to {share_sum}, expected 1")
    if not any(p["modeled_seconds"] > 0 for p in phases):
        fail("no phase carries a modeled cost — the cost join is empty")
    check_drift("totals.", totals["measured_seconds"],
                totals["modeled_seconds"], totals["drift_ratio"])

    attribution = doc.get("attribution")
    if not isinstance(attribution, list) or len(attribution) != len(phases):
        fail("'attribution' must list every phase exactly once")
    cumulative = 0.0
    prev = math.inf
    seen = set()
    for j, row in enumerate(attribution):
        where = f"attribution[{j}]"
        if not isinstance(row, dict):
            fail(f"{where} is not an object")
        idx = row.get("index")
        if not isinstance(idx, int) or not 0 <= idx < len(phases):
            fail(f"{where}: index {idx!r} out of range")
        if idx in seen:
            fail(f"{where}: phase {idx} attributed twice")
        seen.add(idx)
        if row.get("kind") != phases[idx]["kind"]:
            fail(f"{where}: kind disagrees with phases[{idx}]")
        if not is_num(row.get("measured_seconds")):
            fail(f"{where}: 'measured_seconds' must be a number")
        if row["measured_seconds"] > prev * (1 + 1e-9):
            fail(f"{where}: attribution not sorted by measured time")
        prev = row["measured_seconds"]
        cumulative += row.get("share", 0.0)
        if not math.isclose(row.get("cumulative_share", -1), cumulative,
                            rel_tol=1e-6, abs_tol=1e-12):
            fail(f"{where}: cumulative_share does not accumulate the shares")
    if not math.isclose(cumulative, 1.0, rel_tol=1e-6):
        fail(f"attribution shares sum to {cumulative}, expected 1")

    exchanges = sum(1 for p in phases if p["kind"] == "exchange")
    ok(f"{path}: {len(phases)} phases ({exchanges} exchange), "
       f"ranks={env['ranks']}, drift x{totals['drift_ratio']:.3g}"
       f"{' [PARTIAL]' if doc['partial'] else ''}")


def kind_profile(args):
    """ProfileReport JSON from `svsim profile --json` or `run --profile`.

    --emit-with profiles a blocked single-node QV circuit and a
    simulated-distributed one (--ranks 4), and validates both artifacts
    (each must report the rank count it was run with), so the check
    exercises the full profile-join-dump path on the two plan shapes that
    matter. Beyond key/type checks, the cross-field invariants consumers
    rely on are enforced: phase indices dense and in order, phase kinds
    drawn from the plan IR vocabulary, per-phase shares summing to one, at
    least one phase with a modeled cost, the attribution section sorted by
    measured time with a cumulative share that ends at ~1, drift ratios
    consistent with the measured/modeled pairs they summarize (1e-6
    relative), roofline placements zeroed exactly on exchange phases and
    present on compute phases that move bytes and do flops, and
    sim_exchange_seconds only on exchange phases.
    """
    if not args.emit_with:
        for path in args.files:
            check_profile(path)
        return
    jobs = [
        ("profile_blocked.json", ["--qv", "12", "6", "--blocked"], 1),
        ("profile_dist.json",
         ["--qv", "12", "4", "--ranks", "4", "--blocked"], 4),
    ]
    for name, flags, ranks in jobs:
        path = os.path.join(args.output_dir, name)
        run_emitter([args.emit_with, "profile"] + flags + ["--json", path])
        check_profile(path, expect_ranks=ranks)


# ---- timeline ---------------------------------------------------------------

EVENT_KINDS = {"compute", "wire", "wait"}
TIMELINE_PLAN_INT_KEYS = ("num_qubits", "node_qubits", "local_qubits",
                          "block_qubits", "num_phases", "ranks")
RANK_PID = 3
WIRE_PID = 4

REL_TOL = 1e-9


def check_event(where, e):
    if not isinstance(e, dict):
        fail(f"{where} is not an object")
    kind = e.get("kind")
    if kind not in EVENT_KINDS:
        fail(f"{where}: unknown kind {kind!r}")
    if e.get("phase_kind") not in PHASE_KINDS:
        fail(f"{where}: unknown phase_kind {e.get('phase_kind')!r}")
    need_ints(e, ("phase",), f"{where}.")
    need_nums(e, ("start_seconds", "duration_seconds"), f"{where}.")
    if kind == "compute":
        if not isinstance(e.get("gates"), int) or e["gates"] < 0:
            fail(f"{where}: compute event missing 'gates'")
        if e["phase_kind"] == "exchange":
            fail(f"{where}: compute event inside an exchange phase")
    else:
        for key in ("hop", "partner", "rank_bit"):
            if not isinstance(e.get(key), int):
                fail(f"{where}: '{key}' must be an integer")
        if e["phase_kind"] != "exchange":
            fail(f"{where}: {kind} event outside an exchange phase")
    if kind == "wire":
        need_nums(e, ("bytes", "fixed_seconds", "transfer_seconds"),
                  f"{where}.")
        if not isinstance(e.get("partner_event"), int) or e["partner_event"] < 0:
            fail(f"{where}: wire event missing 'partner_event'")
        split = e["fixed_seconds"] + e["transfer_seconds"]
        if not math.isclose(e["duration_seconds"], split, rel_tol=REL_TOL):
            fail(f"{where}: duration {e['duration_seconds']} != "
                 f"fixed + transfer {split}")


def check_rank(r, rank, makespan):
    where = f"ranks[{r}]"
    if not isinstance(rank, dict):
        fail(f"{where} is not an object")
    if rank.get("rank") != r:
        fail(f"{where}: rank id {rank.get('rank')!r} breaks dense ordering")
    need_nums(rank, ("end_seconds", "compute_seconds", "wire_seconds",
                     "wait_seconds"), f"{where}.")
    events = rank.get("events")
    if not isinstance(events, list):
        fail(f"{where}: 'events' must be an array")

    clock = 0.0
    sums = {"compute": 0.0, "wire": 0.0, "wait": 0.0}
    for i, e in enumerate(events):
        check_event(f"{where}.events[{i}]", e)
        if not math.isclose(e["start_seconds"], clock, rel_tol=REL_TOL,
                            abs_tol=1e-15):
            fail(f"{where}.events[{i}]: starts at {e['start_seconds']}, "
                 f"previous event ended at {clock} — the lane has a gap")
        clock = e["start_seconds"] + e["duration_seconds"]
        sums[e["kind"]] += e["duration_seconds"]
    if not math.isclose(rank["end_seconds"], clock, rel_tol=REL_TOL,
                        abs_tol=1e-15):
        fail(f"{where}: end_seconds {rank['end_seconds']} != last event "
             f"end {clock}")
    if rank["end_seconds"] > makespan * (1 + REL_TOL):
        fail(f"{where}: rank ends after the makespan")
    for kind, key in (("compute", "compute_seconds"), ("wire", "wire_seconds"),
                      ("wait", "wait_seconds")):
        if not math.isclose(rank[key], sums[kind], rel_tol=1e-6,
                            abs_tol=1e-15):
            fail(f"{where}: {key} {rank[key]} != event sum {sums[kind]}")


def check_wire_pairing(ranks):
    wires = 0
    for r, rank in enumerate(ranks):
        for i, e in enumerate(rank["events"]):
            if e["kind"] != "wire":
                continue
            wires += 1
            p = e["partner"]
            if not 0 <= p < len(ranks):
                fail(f"ranks[{r}].events[{i}]: partner {p} out of range")
            partner_events = ranks[p]["events"]
            if e["partner_event"] >= len(partner_events):
                fail(f"ranks[{r}].events[{i}]: partner_event out of range")
            pe = partner_events[e["partner_event"]]
            if (pe["kind"] != "wire" or pe["partner"] != r
                    or pe["partner_event"] != i):
                fail(f"ranks[{r}].events[{i}]: wire pairing with rank {p} is "
                     f"not symmetric")
            for key in ("start_seconds", "duration_seconds", "bytes",
                        "rank_bit"):
                if pe[key] != e[key]:
                    fail(f"ranks[{r}].events[{i}]: '{key}' disagrees with "
                         f"the partner wire")
    return wires


def check_critical_path(doc):
    cp = need_obj(doc, "critical_path")
    need_nums(cp, ("path_seconds", "compute_seconds", "wire_seconds",
                   "wait_seconds"), "critical_path.")
    steps = cp.get("steps")
    if not isinstance(steps, list) or not steps:
        fail("critical_path.steps must be a non-empty array")

    makespan = doc["makespan_seconds"]
    ranks = doc["ranks"]
    total = 0.0
    clock = 0.0
    for i, s in enumerate(steps):
        where = f"critical_path.steps[{i}]"
        if not isinstance(s, dict):
            fail(f"{where} is not an object")
        if s.get("kind") == "wait":
            fail(f"{where}: a wait event on the critical path — waits are "
                 f"symptoms, the path must cross to the late partner")
        if s.get("kind") not in EVENT_KINDS:
            fail(f"{where}: unknown kind {s.get('kind')!r}")
        r = s.get("rank")
        if not isinstance(r, int) or not 0 <= r < len(ranks):
            fail(f"{where}: rank {r!r} out of range")
        idx = s.get("event_index")
        events = ranks[r]["events"]
        if not isinstance(idx, int) or not 0 <= idx < len(events):
            fail(f"{where}: event_index {idx!r} out of range")
        e = events[idx]
        for key in ("kind", "phase", "start_seconds", "duration_seconds"):
            if s.get(key) != e[key]:
                fail(f"{where}: '{key}' disagrees with "
                     f"ranks[{r}].events[{idx}]")
        if s["start_seconds"] < clock * (1 - REL_TOL) - 1e-15:
            fail(f"{where}: steps are not chronological")
        clock = s["start_seconds"] + s["duration_seconds"]
        total += s["duration_seconds"]

    # The invariant of the whole artifact: the path sum is the makespan.
    if not math.isclose(total, makespan, rel_tol=REL_TOL, abs_tol=1e-15):
        fail(f"critical path sums to {total}, makespan is {makespan} "
             f"(relative error {abs(total - makespan) / max(makespan, 1e-300)})")
    if not math.isclose(cp["path_seconds"], makespan, rel_tol=REL_TOL,
                        abs_tol=1e-15):
        fail(f"critical_path.path_seconds {cp['path_seconds']} != makespan "
             f"{makespan}")
    kind_sum = cp["compute_seconds"] + cp["wire_seconds"] + cp["wait_seconds"]
    if not math.isclose(kind_sum, total, rel_tol=1e-6, abs_tol=1e-15):
        fail(f"critical path kind split sums to {kind_sum}, steps to {total}")
    return len(steps)


def check_attribution(doc):
    attribution = doc.get("attribution")
    ranks = doc["ranks"]
    if not isinstance(attribution, list) or len(attribution) != len(ranks):
        fail("'attribution' must list every rank exactly once")
    makespan = doc["makespan_seconds"]
    critical = 0.0
    for r, row in enumerate(attribution):
        where = f"attribution[{r}]"
        if not isinstance(row, dict) or row.get("rank") != r:
            fail(f"{where}: must be ordered by rank")
        need_nums(row, ("compute_seconds", "wire_seconds", "wait_seconds",
                        "slack_seconds", "critical_seconds"), f"{where}.")
        span = (row["compute_seconds"] + row["wire_seconds"]
                + row["wait_seconds"] + row["slack_seconds"])
        if makespan > 0 and not math.isclose(span, makespan, rel_tol=1e-6):
            fail(f"{where}: compute+wire+wait+slack {span} does not span the "
                 f"makespan {makespan}")
        critical += row["critical_seconds"]
    if makespan > 0 and not math.isclose(critical, makespan, rel_tol=1e-6):
        fail(f"attribution critical_seconds sum to {critical}, expected the "
             f"makespan {makespan}")

    histogram = doc.get("slack_histogram")
    if not isinstance(histogram, list) or not histogram:
        fail("'slack_histogram' must be a non-empty array")
    if sum(histogram) != len(ranks):
        fail(f"slack_histogram counts {sum(histogram)} ranks, artifact has "
             f"{len(ranks)}")


def check_whatif(doc):
    whatif = doc.get("whatif")
    if not isinstance(whatif, list) or not whatif:
        fail("'whatif' must be a non-empty array")
    makespan = doc["makespan_seconds"]
    for i, w in enumerate(whatif):
        where = f"whatif[{i}]"
        if not isinstance(w, dict) or not isinstance(w.get("name"), str):
            fail(f"{where}: must be an object with a 'name'")
        for key in ("compute_scale", "link_bandwidth_scale", "latency_scale",
                    "makespan_seconds", "baseline_seconds", "speedup"):
            if not is_num(w.get(key)) or w[key] <= 0:
                fail(f"{where}: '{key}' must be a positive number")
        if w["baseline_seconds"] != makespan:
            fail(f"{where}: baseline {w['baseline_seconds']} != recorded "
                 f"makespan {makespan}")
        expect = w["baseline_seconds"] / w["makespan_seconds"]
        if not math.isclose(w["speedup"], expect, rel_tol=1e-6):
            fail(f"{where}: speedup {w['speedup']} != baseline/makespan "
                 f"{expect}")
    first = whatif[0]
    if (first["name"] != "baseline"
            or not math.isclose(first["makespan_seconds"], makespan,
                                rel_tol=REL_TOL)):
        fail("whatif[0] must be the baseline replay reproducing the makespan")


def check_timeline(path, expect_ranks=None):
    doc = load_object(path)
    plan = need_obj(doc, "plan")
    need_strs(plan, ("id",), "plan.")
    need_ints(plan, TIMELINE_PLAN_INT_KEYS, "plan.")
    check_geometry(plan, "plan: ", expect_ranks)
    need_strs(doc, ("machine", "interconnect"))
    need_nums(doc, ("makespan_seconds", "imbalance", "wire_utilization"))

    ranks = doc.get("ranks")
    if not isinstance(ranks, list) or len(ranks) != plan["ranks"]:
        fail("'ranks' must hold one entry per rank")
    makespan = doc["makespan_seconds"]
    for r, rank in enumerate(ranks):
        check_rank(r, rank, makespan)
    if not any(rank["events"] for rank in ranks):
        fail("no rank recorded any event — the timeline is empty")

    wires = check_wire_pairing(ranks)
    if plan["node_qubits"] > 0 and wires == 0:
        fail("distributed plan recorded no wire events")
    steps = check_critical_path(doc)
    check_attribution(doc)
    check_whatif(doc)

    ok(f"{path}: {plan['ranks']} ranks, "
       f"{sum(len(r['events']) for r in ranks)} events ({wires} wire), "
       f"{steps} path steps, makespan {makespan * 1e6:.3f} us")


def check_timeline_trace(path, expect_ranks):
    rank_lanes = set()
    wire_lane = 0
    for e in check_chrome_trace(path):
        if e["pid"] == RANK_PID and e.get("ph") == "X":
            rank_lanes.add(e["tid"])
        elif e["pid"] == WIRE_PID and e.get("ph") == "X":
            wire_lane += 1
        elif e["pid"] not in (RANK_PID, WIRE_PID):
            fail(f"{path}: pid {e['pid']!r} collides with the profiler "
                 f"overlay's reserved pids 0-2")
    if rank_lanes != set(range(expect_ranks)):
        fail(f"{path}: expected one lane per rank 0..{expect_ranks - 1}, "
             f"got {sorted(rank_lanes)}")
    if expect_ranks > 1 and wire_lane == 0:
        fail(f"{path}: multi-rank trace has no wire-lane events")
    ok(f"{path}: {expect_ranks} rank lanes, {wire_lane} wire-lane slices")


def kind_timeline(args):
    """Timeline JSON from `svsim timeline --json` or `plan/profile --timeline`.

    --emit-with records an 8-rank simulated-distributed QV circuit (with the
    Chrome trace alongside) and a single-node blocked QFT, and validates
    both artifacts; each must report the rank count it was run with. Beyond
    key and type checks, the invariants the analysis layer guarantees are
    enforced: every rank's events tile its axis gap-free and end by the
    makespan, per-rank compute/wire/wait totals equal their event sums,
    compute + wire + wait + slack spans the makespan per rank, wire events
    pair symmetrically across ranks through 'partner_event' and split into
    fixed + transfer time, a distributed plan records wire events, the
    critical path's chronological step sum equals the reported makespan
    within 1e-9 relative (the recorder is bit-exact; the tolerance only
    absorbs JSON round-tripping), no wait event appears on the path, the
    slack histogram counts every rank, the what-if baseline reproduces the
    makespan, and the Chrome trace (shared trace-event envelope) carries
    one pid-3 lane per rank plus the pid-4 wire lane and no other pid.
    """
    if not args.emit_with:
        for path in args.files:
            check_timeline(path)
        return
    out = args.output_dir
    dist_json = os.path.join(out, "timeline_dist.json")
    dist_trace = os.path.join(out, "timeline_dist_trace.json")
    single_json = os.path.join(out, "timeline_single.json")
    run_emitter([args.emit_with, "timeline", "--qv", "12", "4", "--ranks",
                 "8", "--blocked", "--machine", "a64fx", "--json", dist_json,
                 "--trace-json", dist_trace])
    check_timeline(dist_json, expect_ranks=8)
    check_timeline_trace(dist_trace, expect_ranks=8)
    run_emitter([args.emit_with, "timeline", "--qft", "10", "--blocked",
                 "--machine", "a64fx", "--json", single_json])
    check_timeline(single_json, expect_ranks=1)


# ---- service ----------------------------------------------------------------

SESSION_JOBS = [
    {"id": "cold", "qft": 5, "shots": 128, "options": {"seed": 11}},
    {"id": "warm", "qft": 5, "shots": 128, "options": {"seed": 11}},
    {"id": "noisy", "qft": 3, "shots": 32, "options": {"seed": 7},
     "noise": {"depolarizing": 0.02, "readout": [0.01, 0.01]}},
    "this line is not JSON",
    {"id": "too-big", "qft": 16, "shots": 100000, "options": {"seed": 1},
     "noise": {"depolarizing": 0.01}},
]
ADMISSION_CEILING = "0.05"  # seconds; admits the small jobs, rejects too-big


def check_result(where, rec):
    where = f"{where} (id={rec.get('id')!r})"
    for key, types in (("id", str), ("ok", bool), ("shots", int),
                       ("admission", dict), ("timing", dict)):
        if not isinstance(rec.get(key), types):
            fail(f"{where}: '{key}' must be {types.__name__}")
    need_nums(rec["timing"], ("compile_seconds", "execute_seconds",
                              "total_seconds"), f"{where}: timing.")
    admission = rec["admission"]
    for key in ("modeled_seconds", "limit_seconds"):
        if not is_num(admission.get(key)):
            fail(f"{where}: admission.{key} must be a number")

    if rec["ok"]:
        counts = rec.get("counts")
        if not isinstance(counts, dict) or not counts:
            fail(f"{where}: ok result needs a non-empty 'counts' object")
        total = 0
        for bits, n in counts.items():
            if not bits or set(bits) - {"0", "1"}:
                fail(f"{where}: counts key {bits!r} is not a bitstring")
            if not isinstance(n, int) or n <= 0:
                fail(f"{where}: counts[{bits!r}] must be a positive integer")
            total += n
        if total != rec["shots"]:
            fail(f"{where}: counts sum {total} != shots {rec['shots']}")
        if rec.get("mode") not in ("sampled", "trajectory"):
            fail(f"{where}: 'mode' must be sampled|trajectory")
        expected_execs = 1 if rec["mode"] == "sampled" else rec["shots"]
        if rec.get("executions") != expected_execs:
            fail(f"{where}: executions {rec.get('executions')} inconsistent "
                 f"with {rec['mode']} mode")
        for key in ("batches", "batch_size"):
            if not isinstance(rec.get(key), int) or rec[key] < 1:
                fail(f"{where}: '{key}' must be a positive integer")
    else:
        err = need_obj(rec, "error", f"{where}: ")
        if err.get("code") not in ("bad_request", "admission_rejected",
                                   "job_failed"):
            fail(f"{where}: unknown error code {err.get('code')!r}")
        need_strs(err, ("message",), f"{where}: error.")

    cache = rec.get("cache")
    if cache is not None:
        for key, types in (("hit", bool), ("key", str), ("plan", str),
                           ("footprint_bytes", int)):
            if not isinstance(cache.get(key), types):
                fail(f"{where}: cache.{key} must be {types.__name__}")
        parts = cache["key"].split(".")
        if (len(parts) != 3
                or [p[0] for p in parts] != ["c", "m", "o"]
                or any(len(p) != 17 for p in parts)):
            fail(f"{where}: cache.key {cache['key']!r} is not "
                 f"c<16hex>.m<16hex>.o<16hex>")


def check_summary_svc(summary, jobs):
    svc = need_obj(summary, "svc", "summary: ")
    workers = svc.get("workers")
    if not isinstance(workers, int) or workers < 1:
        fail("summary: svc.workers must be a positive integer")
    worker_jobs = svc.get("worker_jobs")
    if (not isinstance(worker_jobs, list) or len(worker_jobs) != workers
            or any(not isinstance(j, int) or j < 0 for j in worker_jobs)):
        fail("summary: svc.worker_jobs must list one non-negative job "
             "count per worker")
    if sum(worker_jobs) != jobs:
        fail(f"summary: svc.worker_jobs sums to {sum(worker_jobs)}, "
             f"jobs says {jobs}")
    return workers


def check_canned_session(results, threads):
    by_id = {r["id"]: r for r in results}
    for job_id in ("cold", "warm", "noisy", "too-big"):
        if job_id not in by_id:
            fail(f"canned session: result '{job_id}' missing")
    cold, warm = by_id["cold"], by_id["warm"]
    if threads <= 1:
        # Deterministic single-worker attribution. With concurrent workers,
        # cold and warm may race and both miss; the cache key, plan, and
        # histogram equalities below hold regardless.
        if cold["cache"]["hit"]:
            fail("canned session: first submission must be a cache miss")
        if not warm["cache"]["hit"]:
            fail("canned session: identical resubmission must be a "
                 "plan-cache hit")
        if warm["timing"]["compile_seconds"] != 0:
            fail("canned session: a cache hit must not recompile")
    if warm["cache"]["key"] != cold["cache"]["key"]:
        fail("canned session: identical jobs produced different keys")
    if warm["cache"]["plan"] != cold["cache"]["plan"]:
        fail("canned session: cache hit returned a different plan")
    if warm["counts"] != cold["counts"]:
        fail("canned session: same job + seed must reproduce the "
             "histogram bit-for-bit")
    if by_id["noisy"]["mode"] != "trajectory":
        fail("canned session: the noisy job must run trajectories")
    too_big = by_id["too-big"]
    if too_big["ok"] or too_big["error"]["code"] != "admission_rejected":
        fail("canned session: the over-cost job must be rejected by "
             "admission control")
    bad = [r for r in results if not r["ok"]
           and r["error"]["code"] == "bad_request"]
    if not bad:
        fail("canned session: the malformed line must yield bad_request")


def check_transcript(path, expect_session=False, threads=1):
    lines = load_jsonl(path)
    if not lines:
        fail("transcript is empty")
    for lineno, rec in lines:
        if not isinstance(rec, dict) or rec.get("type") not in ("result",
                                                                "summary"):
            fail(f"line {lineno}: 'type' must be result|summary")
    if lines[-1][1]["type"] != "summary":
        fail("last line must be the summary record")
    results, summary = [rec for _, rec in lines[:-1]], lines[-1][1]
    if any(r["type"] != "result" for r in results):
        fail("summary must be the only non-result line, and come last")

    for lineno, rec in lines[:-1]:
        check_result(f"line {lineno}", rec)

    ok_results = [r for r in results if r["ok"]]
    errors = [r for r in results if not r["ok"]]
    cache = need_obj(summary, "plan_cache", "summary: ")
    need_ints(cache, ("hits", "misses", "evictions", "entries", "bytes",
                      "budget_bytes"), "summary: plan_cache.")
    checks = {
        "jobs": len(results),
        "ok": len(ok_results),
        "errors": len(errors),
        "shots": sum(r["shots"] for r in ok_results),
    }
    for key, expected in checks.items():
        if summary.get(key) != expected:
            fail(f"summary: '{key}' = {summary.get(key)!r}, "
                 f"results say {expected}")
    workers = check_summary_svc(summary, len(results))
    if threads > 1 and workers != threads:
        fail(f"summary: svc.workers = {workers}, expected {threads}")
    hits = [r for r in results if (r.get("cache") or {}).get("hit")]
    misses = [r for r in results if r.get("cache")
              and not r["cache"]["hit"]]
    if cache["hits"] != len(hits) or cache["misses"] != len(misses):
        fail(f"summary plan_cache hits/misses ({cache['hits']}/"
             f"{cache['misses']}) disagree with per-result attribution "
             f"({len(hits)}/{len(misses)})")
    if expect_session:
        check_canned_session(results, threads)

    ok(f"{len(results)} results ({len(ok_results)} ok, {len(errors)} "
       f"errors), plan cache {cache['hits']} hits / {cache['misses']} misses")


def kind_service(args):
    """A `svsim serve` session transcript, against docs/SERVICE.md.

    --emit-with drives a canned session through `svsim serve`: the same QFT
    job twice (the second submission MUST be a plan-cache hit with an
    identical histogram at the same seed), a noisy trajectory job, a
    malformed line, and an over-cost job against a tight admission ceiling
    (MUST come back `admission_rejected`). The transcript is validated line
    by line: every line is a well-formed JSON object, results carry the
    counts/cache/admission/timing blocks with consistent types, shot totals
    add up, executions match the mode, cache keys have the c.m.o shape,
    cache attribution matches the summary's plan_cache block, the summary's
    svc block accounts every job to a worker, and the summary accounting
    (jobs = ok + errors) closes.

    Result lines are correlated by job id, never by position: with
    --threads N (> 1) the serve loop runs N workers and emits results in
    completion order. Concurrent workers may also both miss on the same
    plan (the "warm" job can race "cold"), so the warm-submission-must-hit
    assertion is enforced only at --threads 1; the bit-identical-histogram
    assertion holds at every worker count.
    """
    if not args.emit_with:
        for path in args.files:
            check_transcript(path, threads=args.threads)
        return
    stdin = "\n".join(job if isinstance(job, str) else json.dumps(job)
                      for job in SESSION_JOBS) + "\n"
    cmd = [args.emit_with, "serve", "--max-seconds", ADMISSION_CEILING,
           "--out", args.output]
    if args.threads > 1:
        cmd += ["--threads", str(args.threads)]
    run_emitter(cmd, stdin=stdin)
    check_transcript(args.output, expect_session=True, threads=args.threads)


# ---- bench ------------------------------------------------------------------

BENCH_CASES = [
    "abl_design",
    "fig1_target_qubit",
    "fig2_gate_kernels",
    "fig3_thread_scaling",
    "fig4_sve_width",
    "fig5_roofline",
    "fig6_distributed",
    "micro_kernels",
    "simd_kernels",
    "tab1_circuits",
    "tab2_fusion",
    "tab3_power",
    "tab4_precision",
    "tab5_clifford_baseline",
]

BENCH_ENV_KEYS = [
    "hostname",
    "hw_concurrency",
    "threads",
    "compiler",
    "build_type",
    "clock_ghz",
    "clock_source",
    "stream_gbps",
    "cpu_isa",
    "simd_backend",
    "simd_vector_bits",
    "timestamp_utc",
]

RECORD_KINDS = {"measured", "model", "derived", "value"}


def check_bench_env(env, where):
    if not isinstance(env, dict):
        fail(f"{where}: env is not an object")
    for key in BENCH_ENV_KEYS:
        if key not in env:
            fail(f"{where}: env missing key '{key}'")


def check_record(rec, case_id, where):
    for key in ("id", "kind", "unit", "value"):
        if key not in rec:
            fail(f"{where}: record missing '{key}': {rec}")
    rid = rec["id"]
    if not rid.startswith(case_id + "."):
        fail(f"{where}: record id '{rid}' not prefixed by case '{case_id}'")
    if rec["kind"] not in RECORD_KINDS:
        fail(f"{where}: record '{rid}' has unknown kind '{rec['kind']}'")
    value = rec["value"]
    if not is_num(value) or not math.isfinite(value):
        fail(f"{where}: record '{rid}' has non-finite value {value!r}")
    if rec["kind"] != "measured":
        return
    stats = rec.get("stats")
    if not isinstance(stats, dict):
        fail(f"{where}: measured record '{rid}' lacks stats")
    samples = stats.get("samples")
    if not isinstance(samples, list) or not samples:
        fail(f"{where}: measured record '{rid}' retains no samples")
    lo, hi = stats.get("min"), stats.get("max")
    med = stats.get("median")
    if lo is None or hi is None or med is None:
        fail(f"{where}: measured record '{rid}' stats incomplete")
    if not (lo - 1e-12 <= med <= hi + 1e-12):
        fail(f"{where}: record '{rid}' median {med} outside [{lo}, {hi}]")
    if abs(value - med) > max(1e-12, 1e-9 * abs(med)):
        fail(f"{where}: record '{rid}' value {value} != median {med}")
    if len(samples) != stats.get("reps"):
        fail(f"{where}: record '{rid}' reps {stats.get('reps')} != "
             f"len(samples) {len(samples)}")


def check_results_json(path):
    doc = load_object(path, versioned=False)
    if doc.get("schema_version") != 1:
        fail(f"{path}: schema_version != 1")
    if doc.get("mode") not in ("smoke", "full"):
        fail(f"{path}: mode '{doc.get('mode')}' not smoke/full")
    check_bench_env(doc.get("env"), path)

    cases = doc.get("cases", {})
    for case in BENCH_CASES:
        if case not in cases:
            fail(f"{path}: expected case '{case}' missing")
        elif cases[case].get("failed"):
            fail(f"{path}: case '{case}' failed")

    records = doc.get("records", {})
    if not isinstance(records, dict) or not records:
        fail(f"{path}: no records")
    for rid, rec in records.items():
        if rec.get("id") != rid:
            fail(f"{path}: key '{rid}' != embedded id '{rec.get('id')}'")
        check_record(rec, rec.get("case", ""), path)
    counted = {c: 0 for c in cases}
    for rec in records.values():
        counted[rec.get("case")] = counted.get(rec.get("case"), 0) + 1
    for case, meta in cases.items():
        if not meta.get("failed") and meta.get("records") != counted.get(case, 0):
            fail(f"{path}: case '{case}' advertises {meta.get('records')} "
                 f"records, found {counted.get(case, 0)}")
    ok(f"{path}: {len(records)} records across {len(cases)} cases")


def check_results_jsonl(path):
    seen_ids = set()
    seen_cases = set()
    for lineno, doc in load_jsonl(path):
        where = f"{path}:{lineno}"
        case_id = doc.get("case")
        if not case_id:
            fail(f"{where}: line missing 'case'")
        seen_cases.add(case_id)
        check_bench_env(doc.get("env"), where)
        if doc.get("failed"):
            fail(f"{where}: case '{case_id}' failed")
        for rec in doc.get("records", []):
            check_record(rec, case_id, where)
            rid = rec.get("id")
            if rid in seen_ids:
                fail(f"{where}: duplicate record id '{rid}'")
            seen_ids.add(rid)
    for case in BENCH_CASES:
        if case not in seen_cases:
            fail(f"{path}: expected case '{case}' missing")
    ok(f"{path}: {len(seen_ids)} records across {len(seen_cases)} cases")


def kind_bench(args):
    """svsim_bench results: the --json document and/or the --jsonl stream.

    --emit-with runs that svsim_bench binary (smoke tier) first to produce
    the files being validated. Checked:

      * schema_version is 1 and the envelope fields are present;
      * the environment stamp carries the required provenance keys;
      * every expected benchmark case (the reconstructed figures/tables of
        the paper evaluation) is present and did not fail, and each case's
        advertised record count matches its records;
      * every record has a stable ID prefixed by its case, a known kind, a
        unit, and a finite value;
      * "measured" records retain their per-rep samples and the summary
        statistics are internally consistent (median within [min, max],
        value equals the median, reps equals the sample count);
      * record IDs are unique across the whole document.
    """
    if args.emit_with:
        cmd = [args.emit_with, "--smoke", "--no-tables"]
        if args.json:
            cmd += ["--json", args.json]
        if args.jsonl:
            cmd += ["--jsonl", args.jsonl]
        run_emitter(cmd)
    if args.json:
        check_results_json(args.json)
    if args.jsonl:
        check_results_jsonl(args.jsonl)


# ---- front end --------------------------------------------------------------

# kind -> (entry point, (--emit-with output option, default); None for
# bench, whose --json/--jsonl name both the inputs and the emitted files)
KINDS = {
    "trace": (kind_trace, ("--output", "trace_schema_check.json")),
    "plan": (kind_plan, ("--output", "plan_schema_check.json")),
    "profile": (kind_profile, ("--output-dir", ".")),
    "timeline": (kind_timeline, ("--output-dir", ".")),
    "service": (kind_service, ("--output", "service_schema_check.jsonl")),
    "bench": (kind_bench, None),
}


def main():
    global KIND
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind, (entry, output) in KINDS.items():
        p = sub.add_parser(kind, help=entry.__doc__.splitlines()[0],
                           description=entry.__doc__,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--emit-with", metavar="BINARY",
                       help="run this binary first and check what it emits")
        if output is None:
            p.add_argument("--json", help="results document to validate")
            p.add_argument("--jsonl", help="per-case JSONL stream to validate")
            continue
        p.add_argument("files", nargs="*", help="existing artifacts to check")
        p.add_argument(output[0], default=output[1],
                       help="where --emit-with writes its artifacts")
        if kind == "service":
            p.add_argument("--threads", type=int, default=1,
                           help="serve worker count for --emit-with; > 1 "
                           "relaxes single-worker cache-hit attribution")
    args = parser.parse_args()
    KIND = args.kind
    entry, output = KINDS[args.kind]
    if output is None:
        if not args.json and not args.jsonl:
            parser.error("nothing to validate: pass --json and/or --jsonl")
    elif not args.emit_with and not args.files:
        parser.error(f"{args.kind}: need artifact files or --emit-with")
    if args.kind == "service" and args.threads < 1:
        parser.error("--threads must be >= 1")
    entry(args)


if __name__ == "__main__":
    main()
