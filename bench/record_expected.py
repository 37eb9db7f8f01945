"""Re-record bench/expected.json from the current program.

    python3 bench/record_expected.py

Run from the repository root, at a commit whose verdicts and reports are
trusted. It records the verdict status of every decide-mix pool query and,
for every CLI job at both scales, the exit code, the verdict status and the
SHA-256 of the --json report without timing_ms. A verdict is recorded only
after its evidence checks out. Commit the result with a note on why the
expectations changed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from worker import EXPECTED, ROOT  # first: it puts src/ on sys.path

import checks  # noqa: E402
import freealg  # noqa: E402
import workloads  # noqa: E402


def _pool_statuses() -> dict:
    theories = workloads.load_theories(workloads.MIX_THEORIES)
    pool = workloads.build_pool(theories)
    statuses = {}
    for key, eqs in pool.items():
        theory = theories[key.split("/")[0]]
        letters = []
        for eq in eqs:
            verdict = freealg.decide(theory, eq)
            message = checks.check_decide(theory, eq, verdict)
            if message is not None:
                raise SystemExit(f"{key}: {message}")
            letters.append(checks.STATUS_LETTER[checks.status_of(verdict)])
        statuses[key] = "".join(letters)
    return {"pool_digest": workloads.pool_digest(pool), "status": statuses}


def _job_observations(workload: str, scale: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", workload, "--seed", "0", "--scale", scale,
           "--spawn-t", repr(time.monotonic())]
    result = json.loads(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                       check=True).stdout.splitlines()[-1])
    if result["failures"]:
        raise SystemExit(f"{workload}/{scale}: {result['failures']}")
    return result["observed"]["jobs"]


def main() -> int:
    expected = {"decide_mix": _pool_statuses(), "jobs": {}}
    for scale in workloads.SCALES:
        jobs = {}
        for workload in workloads.WORKLOADS:
            if workload != "decide-mix":
                jobs.update(_job_observations(workload, scale))
        expected["jobs"][scale] = jobs
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
