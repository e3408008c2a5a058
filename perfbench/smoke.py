"""Smoke test and determinism check for the benchmark harness.

    python3 perfbench/smoke.py

For every workload: the same seed generates an identical job list, a
different seed a different one; two short passes (the first few jobs) with
one seed agree on the job list, the cell count and the verdict multiset and
check clean; one short traced pass reports every module.  Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS = 8


def _pass(workload: str, seed: int, mode: str = "plain") -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--limit", str(JOBS), "--mode", mode]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=150).stdout
    return json.loads(out.strip().splitlines()[-1])


def _job_list(workloads, name: str, seed: int) -> list[str]:
    return [f"{j.kind}\t{j.label}\t{j.data}"
            for j in workloads.WORKLOADS[name](random.Random(seed))]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads
    from tracer import MODULES

    problems = []
    for name in workloads.WORKLOADS:
        if _job_list(workloads, name, 1) != _job_list(workloads, name, 1):
            problems.append(f"{name}: one seed gave two job lists")
        if _job_list(workloads, name, 1) == _job_list(workloads, name, 2):
            problems.append(f"{name}: two seeds gave the same job list")
        a, b = _pass(name, 1), _pass(name, 1)
        for key in ("jobs_digest", "cells", "verdict_digest"):
            if a[key] != b[key]:
                problems.append(f"{name}: {key} differs between passes of one seed")
        for p in (a, b):
            if p["failures"]:
                problems.append(f"{name}: {p['failures']}\n{p['first_mismatch']}")
        traced = _pass(name, 1, "trace")
        if traced["verdict_digest"] != a["verdict_digest"]:
            problems.append(f"{name}: tracing changed the verdicts")
        if not set(MODULES) <= set(traced["module_self_s"]):
            problems.append(f"{name}: trace lacks modules")
        print(f"{name}: {a['jobs']} jobs, {a['cells']} cells, "
              f"wall {a['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
