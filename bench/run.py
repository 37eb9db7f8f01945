"""freealg benchmark runner.

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 24 --trace 0

Run from the repository root. Each repetition of the workload runs in a
fresh interpreter (bench/worker.py), one at a time, so every repetition
starts with the program's caches cold. The number of repetitions is the one
that best fills --seconds, at least one. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of traced repetitions, which
alternate with untraced ones to measure the tracing overhead. LAYERS.md
explains how to read them.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
LAYER_METRICS = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 2.0  # extra set-up-only interpreters per run
TIME_LIMIT_S = 170  # the whole run, including every child


class HarnessError(Exception):
    pass


def _spawn(args, extra, deadline) -> dict:
    spawn_t = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--spawn-t", repr(spawn_t)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawn_t))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"a repetition of {args.workload} did not finish within {TIME_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _repeat(args, variants, deadline) -> list[list[dict]]:
    """Rounds of repetitions, one per variant. The first round's duration
    sets how many rounds fill args.seconds, so every run measures about the
    same span of time whatever the workload."""
    start = time.monotonic()
    rounds = [[_spawn(args, extra, deadline) for extra in variants]]
    wanted = max(1, round(args.seconds / (time.monotonic() - start)))
    while len(rounds) < wanted:
        rounds.append([_spawn(args, extra, deadline) for extra in variants])
    return rounds


def _setup_samples(args, deadline) -> list[float]:
    """Extra set-up-only interpreters: at least SETUP_MIN, then more while
    they take under SETUP_BUDGET_S in total, up to SETUP_MAX."""
    samples, start = [], time.monotonic()
    while len(samples) < SETUP_MIN or (len(samples) < SETUP_MAX
                                       and time.monotonic() - start < SETUP_BUDGET_S):
        samples.append(_spawn(args, ["--setup-only"], deadline)["setup_s"])
    return samples


def _p95(samples: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _totals(reps: list[dict]) -> dict:
    keys = ("attempted", "failed", "decided", "drift")
    out = {k: sum(r[k] for r in reps) for k in keys}
    out["failures"] = [m for r in reps for m in r["failures"]][:5]
    return out


def _mismatches(untraced: list[dict], traced: list[dict]) -> int:
    """Observations of traced repetitions that differ from the untraced ones:
    the wrappers must not change a verdict or a report."""
    base = untraced[0]["observed"]
    return sum(r["observed"] != base for r in untraced[1:] + traced)


def end_to_end(args, deadline) -> tuple[dict, dict, list[str]]:
    reps = [r for (r,) in _repeat(args, [["--trace", "0"]], deadline)]
    setups = [r["setup_s"] for r in reps]
    setups += _setup_samples(args, deadline)
    latencies = [x for r in reps for x in r["latencies_s"]]
    per_rep = len(reps[0]["latencies_s"])
    wall_s = statistics.median(r["wall_s"] for r in reps)
    totals = _totals(reps)
    totals["failed"] += _mismatches(reps, [])
    metrics = {
        "wall_s": wall_s,
        "queries_per_s": per_rep / wall_s,
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_p95_ms": _p95(latencies) * 1000,
        "decided_ratio": totals["decided"] / totals["attempted"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"repetitions: {len(reps)}; queries per repetition: {per_rep};"
        f" latency samples: {len(latencies)}; set-up samples: {len(setups)}",
        "wall_s per repetition: " + ", ".join(f"{r['wall_s']:.3f}" for r in reps),
        f"failed_ratio: {totals['failed'] / totals['attempted']:.4f}"
        f" ({totals['failed']} of {totals['attempted']})",
        f"report_drift: {totals['drift']}",
    ]
    return metrics, totals, notes


def per_layer(args, deadline) -> tuple[dict, dict, list[str]]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.scale}-seed{args.seed}.jsonl"
    rounds = _repeat(args, [["--trace", "0"], ["--trace", "1", "--spans", str(spans)]], deadline)
    untraced = [u for u, _ in rounds]
    traced = [t for _, t in rounds]
    totals = _totals(untraced + traced)
    totals["failed"] += _mismatches(untraced, traced)
    derived = {
        "check.report_drift": totals["drift"],
        "trace.overhead_ratio": (statistics.median(t["wall_s"] for t in traced)
                                 / statistics.median(u["wall_s"] for u in untraced)),
    }
    metrics = {}
    for name in LAYER_METRICS:
        if name in derived:
            metrics[name] = derived[name]
        elif name in traced[0]["layers"]:
            metrics[name] = statistics.median(t["layers"][name] for t in traced)
        else:
            raise HarnessError(f"the tracer does not produce {name}")
    notes = [f"traced repetitions: {len(traced)}; spans written to {spans.relative_to(ROOT)}"]
    return metrics, totals, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: minimal inputs, for the harness self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "freealg" / "__init__.py").is_file() or not (ROOT / "theories").is_dir():
        print(f"bench: no freealg sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, totals, notes = measure(args, deadline)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"bench: workload={args.workload} seed={args.seed} scale={args.scale} trace={args.trace}")
    for line in notes + totals["failures"]:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6f} {UNITS[name]}")
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
