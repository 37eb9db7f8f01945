"""Harness self-test: every workload once at tiny scale, untraced and traced.

    python3 bench/selftest.py

Run from the repository root. Checks that the last line of each run names
every metric of BENCHMARK.json with its unit, that nothing failed, that the
tracer wrapped the layers where other modules look them up, and that the
benchmark refuses to run without the program's sources. It lives outside
the test suite's testpaths, so the tier-1 tests do not pay for it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Namespaces that bind a layer function by `from ... import`; the tracer must
# replace each of them, or calls made there would go untraced.
REQUIRED_SITES = {
    "engine.decide": ["freealg", "freealg.cli", "freealg.derivative", "freealg.functor", "freealg.malcev"],
    "engine.tri_equal": ["freealg.derivative", "freealg.finset", "freealg.functor", "freealg.malcev"],
    "functor.free_algebra": ["freealg.cli", "freealg.finset"],
    "terms.enumerate_terms": ["freealg.derivative", "freealg.finset", "freealg.malcev"],
    "normal_forms.catalog_normalizer": ["freealg.engine", "freealg.functor", "freealg.derivative"],
}


def _run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int) -> list[str]:
    proc = _run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"])
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                        f" attempted={result['attempted']}\n{proc.stdout}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def check_sites() -> list[str]:
    proc = _run([sys.executable, "bench/worker.py", "--workload", "model-enum", "--seed", "1",
                 "--scale", "tiny", "--trace", "1", "--spawn-t", repr(time.monotonic())])
    sites = json.loads(proc.stdout.strip().splitlines()[-1])["sites"]
    return [f"tracer did not wrap {name} in {ns}"
            for name, namespaces in REQUIRED_SITES.items()
            for ns in namespaces if ns not in sites[name]]


def check_stripped() -> list[str]:
    """Without src/ and theories/ the benchmark must fail and print no result."""
    stripped = ROOT / ".bench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["command"] + ["--workload", "model-enum", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=stripped)
    shutil.rmtree(stripped)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"stripped checkout: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = check_sites() + check_stripped()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_run(w["name"], trace)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
