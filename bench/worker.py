"""One repetition of one workload, in a fresh interpreter.

Started by run.py from the repository root. A fresh process per repetition
keeps the program's module-level caches cold on every repetition without
touching them. Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import freealg  # noqa: E402
from freealg import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPECTED = Path(__file__).resolve().parent / "expected.json"
MAX_MESSAGES = 5


def _load_expected() -> dict:
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text(encoding="utf-8"))
    return {}


def _setup(workload: str, seed: int, scale: str) -> dict:
    if workload == "decide-mix":
        theories = workloads.load_theories(workloads.MIX_THEORIES)
        pool = workloads.build_pool(theories)
        return {"theories": theories, "pool": pool,
                "queries": workloads.sample_queries(pool, seed, scale)}
    return {"jobs": workloads.cli_jobs(workload, scale)}


def _run_queries(state):
    clock, theories = time.perf_counter, state["theories"]
    latencies, verdicts = [], []
    for key, _, eq in state["queries"]:
        start = clock()
        try:
            verdict = freealg.decide(theories[key.split("/")[0]], eq)
        except Exception as exc:  # recorded as a failed query, checked below
            verdict = exc
        latencies.append(clock() - start)
        verdicts.append(verdict)
    return latencies, verdicts


def _run_jobs(state):
    clock = time.perf_counter
    latencies, outputs = [], []
    for _, argv in state["jobs"]:
        out = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:  # recorded as a failed job, checked below
            code = exc
        latencies.append(clock() - start)
        outputs.append((code, out.getvalue()))
    return latencies, outputs


def _check_queries(state, verdicts, expected, result):
    exp = expected.get("decide_mix", {})
    if exp and exp.get("pool_digest") != workloads.pool_digest(state["pool"]):
        raise SystemExit("bench: the decide-mix pool differs from expected.json; re-record it")
    statuses = exp.get("status", {})
    observed = []
    for (key, idx, eq), verdict in zip(state["queries"], verdicts):
        theory = state["theories"][key.split("/")[0]]
        message = checks.check_decide(theory, eq, verdict)
        if message is None:
            got = checks.status_of(verdict)
            want = statuses.get(key)
            want = want and checks.STATUS_NAME[want[idx]]
            if key.split("/")[1] == "derived" and got == "refuted":
                message = "derived (true) equation refuted"
            elif want is not None and checks.is_flip(want, got):
                message = f"expected {want}, got {got}"
            observed.append([key, idx, checks.STATUS_LETTER[got]])
            result["decided"] += got != "unknown"
        _record(result, message, f"{key}#{idx}")
    result["observed"] = {"queries": observed}


def _check_jobs(state, outputs, expected, scale, result):
    exp = expected.get("jobs", {}).get(scale, {})
    theories = {}
    observed = {}
    for (job_id, argv), (code, text) in zip(state["jobs"], outputs):
        message = None
        if isinstance(code, Exception):
            message = f"exception: {code!r}"
        elif code == checks.EXIT_USAGE:
            message = "exit 3"
        else:
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                _record(result, f"exit {code} without a JSON report", job_id)
                continue
            path = argv[1]
            if path not in theories:
                theories[path] = workloads.load_theory_file(path)
            failures = checks.check_report(theories[path], report)
            status = report["verdict"]["status"]
            digest = checks.report_digest(report)
            observed[job_id] = {"exit": code, "status": status, "digest": digest}
            want = exp.get(job_id)
            if failures:
                message = "; ".join(failures)
            elif want is not None and checks.is_flip(want["status"], status):
                message = f"expected {want['status']}, got {status}"
            if want is not None and (want["digest"], want["exit"]) != (digest, code):
                result["drift"] += 1
            result["decided"] += status != "unknown"
        _record(result, message, job_id)
    result["observed"] = {"jobs": observed}


def _record(result, message, where):
    result["attempted"] += 1
    if message is not None:
        result["failed"] += 1
        if len(result["failures"]) < MAX_MESSAGES:
            result["failures"].append(f"{where}: {message}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file for the traced spans (JSON lines)")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}/{args.seed}")
        tracer.install()
    state = _setup(args.workload, args.seed, args.scale)
    setup_s = time.monotonic() - args.spawn_t
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = _run_queries if args.workload == "decide-mix" else _run_jobs
    start = time.perf_counter()
    latencies, outputs = run(state)
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.layer_metrics() if tracer is not None else None

    expected = _load_expected()
    result = {"setup_s": setup_s, "wall_s": wall_s, "latencies_s": latencies, "rss_mb": rss_mb,
              "attempted": 0, "failed": 0, "decided": 0, "drift": 0, "failures": []}
    if args.workload == "decide-mix":
        _check_queries(state, outputs, expected, result)
    else:
        _check_jobs(state, outputs, expected, args.scale, result)
    if tracer is not None:
        result["layers"] = layers
        result["sites"] = tracer.sites
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
