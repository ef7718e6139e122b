#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Table 1 pipeline and the NoC
simulator.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seconds S]

Builds the `perfbench` package from source, then runs passes of one
workload for `--seconds` seconds, each pass in a fresh process (so every
pass reports its own peak memory), one pass at a time, on at most two CPUs.
A workload is one or more parts (`perfbench pass --workload <part>`); a
workload of several parts shares its time among them, giving the next
pass to the part that has run for the shortest time so far. Every pass
checks its outputs; a pass that panics, aborts or fails a check counts
as failed.

With `--trace 0` the result carries the end-to-end metrics: per part the
median over the passes, summed over the parts (the peak memory: the
largest part's). With `--trace 1` untraced and traced passes alternate
within each part; the result carries the per-layer metrics,
`<part>.<metric>` (medians over the part's traced passes), and
`trace.overhead_pct`, the traced passes' `total_s` against the untraced
ones'. The traced passes' spans are written under the build
directory, in `perfbench-traces/`.

The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The exit code is 0 only when every pass was correct.

`--workload all` runs every workload in turn and prints each one's result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "perfbench/Cargo.toml"
# Each workload and the parts its passes run.
WORKLOADS = {
    "table1_paper": ["table1_paper"],
    "noc_mix": ["noc_sparse_1m", "noc_uniform_64", "noc_faulted_16"],
}
MAX_CPUS = 2
PASS_TIMEOUT_S = 170

# End-to-end metrics: unit, and how the parts' values (each the median
# over the part's passes) combine into the workload's. Other tenants of a
# shared host slow passes down in spells of seconds to minutes; the median
# pass has been the steadiest estimate across runs (see README.md).
END_TO_END = {
    "total_s": ("s", sum),
    "setup_s": ("s", sum),
    "peak_rss_mb": ("MiB", max),
}

SCHEMES = ["sc", "dfc", "dpc", "sdfc", "sdpc"]
# Per-layer metrics of each part: name and unit. Each is reported as
# `<part>.<name>`; README.md says which end-to-end metric each should move.
NOC_LAYERS = {
    "run_s": "s",
    "teardown_s": "s",
    "netsim.new_s": "s",
    "netsim.cycles_leapt": "cycles",
    "netsim.router_steps": "count",
    "netsim.active_frac": "ratio",
    "netsim.ns_per_router_step": "ns",
    "leakage_saved_pct": "%",
    "latency_cy": "cycles",
}
PART_LAYERS = {
    "table1_paper": {
        "run_s": "s",
        "teardown_s": "s",
        **{f"core.characterize.{s}_s": "s" for s in SCHEMES},
        "core.leakage_detail_s": "s",
        "core.parallel_speedup": "ratio",
        **{f"circuit.unknowns.{s}": "count" for s in SCHEMES},
        **{f"circuit.nnz.{s}": "count" for s in SCHEMES},
        "circuit.assemble_us": "us",
        "circuit.refactor_us": "us",
        "circuit.solve_us": "us",
        "paper_err_pp": "pp",
    },
    "noc_sparse_1m": {
        **NOC_LAYERS,
        "netsim.drop_sim_s": "s",
        "netsim.drop_stats_s": "s",
        "netsim.leap_fraction": "ratio",
        "netsim.leaps": "count",
        "netsim.events": "count",
        "netsim.routers_settled": "count",
        "netsim.settle_ops_per_leap": "ratio",
        "netsim.max_debt_span": "cycles",
        "power.accounting_s": "s",
        "power.sleep_entries": "count",
        "power.wake_stall_cycles": "cycles",
    },
    "noc_uniform_64": {
        **NOC_LAYERS,
        "netsim.thread_scaling": "ratio",
    },
    "noc_faulted_16": {
        **NOC_LAYERS,
        "netsim.flits_dropped_by_fault": "count",
        "netsim.packets_unroutable": "count",
        "netsim.dropped_at_source": "count",
    },
}
PER_LAYER = {
    f"{part}.{name}": unit
    for part, layers in PART_LAYERS.items()
    for name, unit in layers.items()
}
PER_LAYER["trace.overhead_pct"] = "%"

# Simulated outcomes: a pure function of the inputs, so every pass of a
# run must read exactly the same.
DETERMINISTIC = ["leakage_saved_pct", "latency_cy", "paper_err_pp"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: build failed: {exc}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with exit code {done.returncode}")
        return None
    return target_dir() / "release" / "perfbench"


def limit_cpus():
    """Pins this process and its children to at most MAX_CPUS CPUs, so
    `available_parallelism` (and with it the simulator's `Auto` thread
    count) sees at most that many."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:MAX_CPUS])
    return len(cpus)


def run_pass(binary, workload, seed, traced):
    cmd = [str(binary), "pass", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"pass timed out after {PASS_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = done.stderr.strip().splitlines()[-3:]
        return {"ok": False, "error": f"exit code {done.returncode}: {' | '.join(tail)}"}
    if done.returncode != 0 and record.get("ok"):
        record.update(ok=False, error=f"exit code {done.returncode}")
    return record


def combine(passes, name):
    """The median of a metric over passes; None when no pass has it."""
    values = [p["metrics"][name] for p in passes if p["metrics"].get(name) is not None]
    return statistics.median(values) if values else None


def measure(binary, workload, seed, seconds, trace):
    """Runs passes until the time is up; returns per part the (untraced,
    traced) records. The next pass goes to the part that has run for the
    shortest time, so the parts share the run's time evenly."""
    parts = WORKLOADS[workload]
    untraced = {part: [] for part in parts}
    traced = {part: [] for part in parts}
    spent = {part: 0.0 for part in parts}
    start = time.monotonic()
    longest = 0.0
    while True:
        part = min(parts, key=spent.get)
        use_trace = trace and len(traced[part]) < len(untraced[part])
        t0 = time.monotonic()
        record = run_pass(binary, part, seed, use_trace)
        took = time.monotonic() - t0
        spent[part] += took
        longest = max(longest, took)
        (traced if use_trace else untraced)[part].append(record)
        pending = any(not untraced[q] or (trace and not traced[q]) for q in parts)
        if not pending and time.monotonic() - start + longest > seconds:
            return untraced, traced


def check_repeats(passes):
    """Every correct pass of a run must agree on the simulated outcomes."""
    ok = [p for p in passes if p.get("ok")]
    for name in DETERMINISTIC + ["digest"]:
        seen = {
            json.dumps(p["metrics"].get(name) if name != "digest" else p["info"].get(name))
            for p in ok
        }
        if len(seen) > 1:
            return f"{name} differs between passes of one run: {sorted(seen)}"
    return None


def write_spans(workload, seed, traced):
    out = target_dir() / "perfbench-traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}.json"
    spans = [{"pass": i, "spans": p.get("spans", [])} for i, p in enumerate(traced)]
    path.write_text(json.dumps(spans, indent=1) + "\n")
    return path


def end_to_end(good_untraced):
    metrics = {}
    for name, (unit, across_parts) in END_TO_END.items():
        values = [combine(passes, name) for passes in good_untraced.values()]
        if values and None not in values:
            metrics[name] = {"value": across_parts(values), "unit": unit}
    return metrics


def per_layer(good_untraced, good_traced):
    metrics = {}
    for name, unit in PER_LAYER.items():
        part, _, layer = name.partition(".")
        value = combine(good_traced.get(part, []), layer)
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    plain = [combine(passes, "total_s") for passes in good_untraced.values()]
    with_spans = [combine(passes, "total_s") for passes in good_traced.values()]
    if None not in plain + with_spans:
        overhead = 100.0 * (sum(with_spans) / sum(plain) - 1.0)
        metrics["trace.overhead_pct"]["value"] = overhead
    return metrics


def summarize(workload, seed, untraced, traced, trace, host_cpus):
    parts = WORKLOADS[workload]
    passes = [p for part in parts for p in untraced[part] + traced[part]]
    failed = [p for p in passes if not p.get("ok")]
    repeat_errors = [e for part in parts
                     if (e := check_repeats(untraced[part] + traced[part]))]
    good_untraced = {part: [p for p in untraced[part] if p.get("ok")] for part in parts}
    good_traced = {part: [p for p in traced[part] if p.get("ok")] for part in parts}

    metrics = per_layer(good_untraced, good_traced) if trace else end_to_end(good_untraced)
    correct = not failed and not repeat_errors and all(good_untraced.values())
    if trace:
        correct = correct and all(good_traced.values())

    # The human-readable report: every metric by name and unit, the
    # failure rate, and per part the simulated outcomes and the resolved
    # geometry.
    log(f"== {workload} seed {seed}: {len(passes)} passes, {len(failed)} failed")
    log(f"   fail_rate = {len(failed) / max(len(passes), 1):.3f}")
    for name, m in metrics.items():
        log(f"   {name} = {m['value']:.6g} {m['unit']}")
    for part in parts:
        info = next((p.get("info", {}) for p in untraced[part] + traced[part]), {})
        log(f"   {part}: {len(untraced[part])} untraced + {len(traced[part])} traced passes, "
            f"kernel = {info.get('kernel', '?')}, shards = {info.get('shards', '-')}, "
            f"threads = {info.get('threads', '-')}, "
            f"available_parallelism = {info.get('available_parallelism', '?')}, "
            f"nproc = {host_cpus}")
        for name, (unit, _) in END_TO_END.items():
            value = combine(good_untraced[part], name)
            if value is not None and not trace:
                log(f"      {name} = {value:.6g} {unit}")
        for name, unit in [("leakage_saved_pct", "%"), ("latency_cy", "cycles"),
                           ("paper_err_pp", "pp")]:
            value = combine(good_untraced[part] + good_traced[part], name)
            if value is not None:
                log(f"      {name} = {value:.6g} {unit}")
    for p in failed[:1]:
        error = " | ".join(str(p.get("error")).splitlines())
        log(f"   FAILED ({p.get('workload', '?')}): {error}")
    for error in repeat_errors:
        log(f"   FAILED: {error}")
    if trace:
        for part in parts:
            if traced[part]:
                log(f"   spans: {write_spans(part, seed, traced[part])}")

    return {
        "correct": correct,
        "attempted": len(passes),
        "failed": len(failed) + len(repeat_errors),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None or not binary.exists():
        sys.exit(2)
    host_cpus = limit_cpus()

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        untraced, traced = measure(binary, workload, args.seed, args.seconds,
                                   bool(args.trace))
        results.append(summarize(workload, args.seed, untraced, traced,
                                 bool(args.trace), host_cpus))
        if args.workload == "all":
            print(json.dumps({"workload": workload, **results[-1]}), flush=True)
    if args.workload != "all":
        print(json.dumps(results[0]), flush=True)
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
