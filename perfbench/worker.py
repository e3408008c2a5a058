"""One measured pass over a workload's job list in a fresh interpreter.

``run.py`` starts this file once per repeat, because the program keeps
process-global ``lru_cache`` tables: a second pass in the same interpreter
would measure warm caches that a command-line user never has.

The pass generates the jobs from the seed, runs them one at a time in a
closed loop (no threads), then checks every output against its reference,
outside the timed region.  It prints one JSON object on stdout.

    python3 perfbench/worker.py --workload hard_check --seed 1 [--mode plain|trace|profile|setup]

A ``setup`` probe stops before the first job: it measures set-up time only.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: where profile passes (and, from run.py, traces) are written
OUT = HERE / "out"

#: one calibration round: a fixed pure-Python load of the kind the program
#: runs (tuples, frozensets, dict updates, hashing), independent of teamsem
CAL_ITERATIONS = 1500
#: the round time of the reference host, to which reported times are scaled
#: (about the median round on the 2-CPU x86_64 VM where the benchmark was
#: defined, Python 3.11.7)
CAL_REFERENCE_S = 0.001
#: wall-clock seconds between calibration rounds in a plain pass
CAL_INTERVAL_S = 0.025
#: a job's (or the set-up's) times are scaled by the rounds that began
#: during it or this close to it: the host's speed changes within fractions
#: of a second, so a pass-wide mean misjudges single jobs
CAL_WINDOW_S = 2 * CAL_INTERVAL_S
#: calibration rounds a set-up probe runs after its set-up
PROBE_ROUNDS = 20


def calibrate() -> float:
    """Run one calibration round and return its duration.  The collector is
    off during a round, so the jobs' garbage is not swept on its clock."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(CAL_ITERATIONS):
            key = (i % 97, i % 89, i % 83)
            item = frozenset((key, (i % 7,)))
            table[item] = table.get(item, 0) + hash(key)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Calibration rounds on a wall-clock timer (SIGALRM), so that they sample
    the host's speed evenly over a pass, inside long jobs too: shared hosts
    change speed within fractions of a second.  A round interrupts whatever
    runs; ``stolen`` gives the time the rounds took from a span, to be taken
    off the job or the set-up they fell in."""

    def __init__(self):
        self.rounds: list[float] = []  # each round's calibration time
        self.at: list[float] = []  # when each round started
        self.cost: list[float] = []  # each round's whole time, handler included
        self.started = time.perf_counter()

    def take(self):
        start = time.perf_counter()
        self.rounds.append(calibrate())
        self.at.append(start)
        self.cost.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stolen(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start)
        return sum(self.cost[lo:bisect.bisect_right(self.at, end)])

    def speed(self, start: float, end: float) -> float:
        """The host's speed from start to end relative to the reference host:
        CAL_REFERENCE_S over the mean of the rounds that began within
        CAL_WINDOW_S of that span (of all rounds when none did).  The mean,
        because slow spells come in bursts that a median would skip."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW_S)
        return CAL_REFERENCE_S / statistics.fmean(self.rounds[lo:hi] or self.rounds)


def _summary(out) -> str:
    """A stable, short rendering of a job's output for the verdict multiset."""
    import teamsem as ts
    from workloads import Swept

    if isinstance(out, Swept):
        return f"{_summary(out.out)} models={out.models} teams={out.teams}"
    if isinstance(out, ts.EquivReport):
        return f"equivalent={out.equivalent}"
    if isinstance(out, ts.Team):
        return f"witness={sorted(out.rows)}"
    if isinstance(out, ts.HierarchyReport):
        return str(out)
    if isinstance(out, list) and out and isinstance(out[0], ts.BoundReport):
        return f"bounds={len(out)} holds={all(r.holds for r in out)}"
    if isinstance(out, list):  # per-size, per-model verdict lists of a sweep
        flat = [v for per_size in out for per_model in per_size for v in per_model]
        return f"sweep true={sum(flat)} false={len(flat) - sum(flat)}"
    if isinstance(out, tuple) and len(out) == 2:  # (exit code, stdout)
        return f"exit={out[0]}"
    if isinstance(out, tuple):  # chain: (formula, printed, reprinted, verdict)
        return f"chain chars={len(out[1])} verdict={out[3]}"
    return repr(out)


def _cause(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = frames[-1].name if frames else "?"
    return f"{type(exc).__name__} in {where}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "profile", "setup"),
                    default="plain")
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first N jobs (smoke runs)")
    args = ap.parse_args(argv)

    sampler = Sampler() if args.mode in ("plain", "setup") else None
    if sampler is not None:
        sampler.start()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads  # imports teamsem: part of set-up time

    make = {**workloads.WORKLOADS, **workloads.PROBES}[args.workload]
    jobs = make(random.Random(args.seed))
    if args.limit:
        jobs = jobs[:args.limit]
    if args.mode == "setup":
        first = time.perf_counter()
        sampler.stop()
        for _ in range(PROBE_ROUNDS):
            sampler.take()
        print(json.dumps({"mode": "setup", "t_first_job": first,
                          "setup_stolen_s": sampler.stolen(sampler.started, first),
                          "setup_speed": sampler.speed(sampler.started, first),
                          "calibration_s": sampler.rounds}))
        return 0
    spec = "\n".join(f"{j.kind}\t{j.label}\t{j.data}" for j in jobs)

    tracer = None
    profiles: dict = {}  # job kind -> pstats.Stats over its jobs
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if args.mode == "profile":
        import cProfile
        import pstats

    outputs, times, spans = [], [], []
    first = time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        if tracer is not None:
            tracer.enter("harness.job")
        if args.mode == "profile":
            prof = cProfile.Profile()
            prof.enable()
        try:
            out = job.run()
        except Exception as exc:  # counted as a failure by cause, never skipped
            out = exc
        finally:
            if args.mode == "profile":
                prof.disable()
            if tracer is not None:
                tracer.exit()
        end = time.perf_counter()
        spans.append((start, end))
        times.append(end - start - (sampler.stolen(start, end) if sampler else 0.0))
        outputs.append(out)
        if args.mode == "profile":
            if job.kind in profiles:
                profiles[job.kind].add(prof)
            else:
                profiles[job.kind] = pstats.Stats(prof)
    if sampler is not None:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failures = collections.Counter()
    mismatch = None
    cells = 0
    verdicts = collections.Counter()
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            failures[_cause(out)] += 1
            continue
        try:
            problem = job.check(out)
            cause = "wrong verdict"
            cells += job.cells(out)
        except Exception as exc:
            cause = f"reference check raised {_cause(exc)}"
            problem = cause
        verdicts[f"{job.kind} {_summary(out)}"] += 1
        if problem:
            failures[cause] += 1
            if mismatch is None:
                mismatch = f"{job.label}\n{problem}"

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "t_first_job": first,
        "setup_stolen_s": sampler.stolen(sampler.started, first) if sampler else 0.0,
        "wall_s": sum(times),
        "job_s": times,
        "calibration_s": sampler.rounds if sampler is not None else [],
        "jobs": len(jobs),
        "job_kinds": dict(collections.Counter(j.kind for j in jobs)),
        "cells": cells,
        "failures": dict(failures),
        "first_mismatch": mismatch,
        "peak_rss_mb": peak_rss_mb,
        "jobs_digest": hashlib.sha256(spec.encode()).hexdigest(),
        "verdict_digest": hashlib.sha256(
            "\n".join(f"{k}\t{v}" for k, v in sorted(verdicts.items())).encode()
        ).hexdigest(),
    }
    if sampler is not None:
        result["setup_speed"] = sampler.speed(sampler.started, first)
        result["job_speed"] = [sampler.speed(start, end) for start, end in spans]
    if tracer is not None:
        result["trace"] = tracer.to_json()
        result["module_self_s"] = tracer.module_self()
    if args.mode == "profile":
        result["profile"] = _profile_report(profiles, args.workload, args.seed)
    print(json.dumps(result))
    return 0


def _hash_share(stats) -> float:
    """Exclusive time in hashing frames (``hash`` and every ``__hash__``)
    over the profiled time.  Cumulative times double count the recursion
    hash -> __hash__ -> hash through nested formulas."""
    total = stats.total_tt
    hashed = sum(entry[2] for func, entry in stats.stats.items()
                 if func[2] in ("<built-in method builtins.hash>", "__hash__"))
    return hashed / total if total else 0.0


def _profile_report(profiles: dict, workload: str, seed: int) -> dict:
    """Write the pass beside the trace and return the hash shares."""
    import io

    kinds = sorted(profiles)
    by_kind = {kind: _hash_share(profiles[kind]) for kind in kinds}
    stats = profiles[kinds[0]]
    for kind in kinds[1:]:
        stats.add(profiles[kind])
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"profile-{workload}-{seed}"
    stats.dump_stats(str(stem) + ".prof")
    text = io.StringIO()
    stats.stream = text
    stats.sort_stats("cumulative").print_stats(25)
    stats.sort_stats("tottime").print_stats(15)
    stem.with_suffix(".txt").write_text(text.getvalue())
    return {
        "hash_share": _hash_share(stats),
        "hash_share_by_kind": by_kind,
        "file": str(stem.relative_to(ROOT)) + ".txt",
    }


if __name__ == "__main__":
    sys.exit(main())
