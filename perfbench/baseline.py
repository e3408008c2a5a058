"""Record the benchmark baseline with its context.

    python3 perfbench/baseline.py [--seed 1]

Runs every workload of BENCHMARK.json once untraced and once traced, and the
known-defect probe, then writes ``perfbench/baseline.json`` with the machine
(Python version, CPU count, platform), the seed, the reason for each
workload, the job and cell counts, every end-to-end and per-layer metric,
and every failure by its cause.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    record = {
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "machine": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    for workload in bench["workloads"]:
        name = workload["name"]
        plain = run.measure(name, args.seed, bench["run_seconds"], 0)
        traced = run.measure(name, args.seed, bench["run_seconds"], 1)
        record["workloads"][name] = {
            "why": workload["why"],
            "jobs": plain["jobs"],
            "job_kinds": plain["job_kinds"],
            "cells": plain["cells"],
            "correct": plain["correct"] and traced["correct"],
            "failed_share": plain["failed"] / plain["attempted"],
            "failures": plain["failures"],
            "notes": plain["notes"] + traced["notes"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
        print(name, "done", flush=True)
    probe = run.run_pass("defects", args.seed)
    record["known_defects"] = {
        "attempted": probe["jobs"],
        "failed": sum(probe["failures"].values()),
        "failed_share": sum(probe["failures"].values()) / probe["jobs"],
        "failures": probe["failures"],
        "first_mismatch": probe["first_mismatch"],
    }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote", out.relative_to(run.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
