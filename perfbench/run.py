"""teamsem benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each is here is recorded in BENCHMARK.json):
``rewrite_equiv``, ``model_sweep``, ``hard_check``, ``witness_search``.

The run is a closed loop: it starts ``worker.py`` in a fresh interpreter,
waits for it, and starts the next one until ``--seconds`` have passed (at
least one pass).  Every pass runs the whole seeded job list once, one job
at a time, and checks every output against a reference that does not come
from the evaluator.  The end-to-end metrics:

  setup_s      interpreter start, ``import teamsem`` and input generation,
               up to the first job (median over the passes and
               SETUP_PROBES set-up-only starts)
  wall_s       time to run all jobs (median over the passes)
  cells_per_s  (model, team, formula) verdicts decided per second
  job_p50_ms   median job latency: the median over the jobs of each job's
               median latency over the passes
  job_tail_ms  the highest percentile of the same per-job latencies with
               at least 10 jobs beyond it
  peak_rss_mb  ru_maxrss of the pass's own process (median over the passes)

Times are scaled to a reference host: a fixed pure-Python calibration round
runs every 25 ms of a pass on a timer signal (its time is taken off the job
it interrupts), and each job's time, and the set-up's, is multiplied by
CAL_REFERENCE_S over the mean time of the rounds during and next to it.
Shared hosts change speed by half within fractions of a second, which would
swamp any change in the program; the unscaled figures are printed beside
the metrics.

With ``--trace 1`` the run makes one untraced pass (the base of
``trace.overhead``), then traced passes until ``--seconds`` have passed, one
cProfile pass and one command-line cold start, and reports the per-layer
metrics instead.  Every traced pass must leave at most HARNESS_SHARE_LIMIT
of its wall outside the layer spans.  Trace and profile files go to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import MODULES
from worker import CAL_REFERENCE_S, OUT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("rewrite_equiv", "model_sweep", "hard_check", "witness_search")
PASS_TIMEOUT_S = 150
#: set-up-only worker starts per run, beside the passes, for ``setup_s``
SETUP_PROBES = 10
#: jobs beyond the tail percentile, per pass
TAIL_JOBS = 10
#: most of a traced pass belongs to the program's layers: the harness (its
#: own code in a job, the tracer's bookkeeping at the calls it makes, the
#: loop between jobs) may take at most this share of the traced wall.  The
#: baseline shows at most 0.033; a larger share means the layer spans miss
#: program work.
HARNESS_SHARE_LIMIT = 0.1

#: per-layer metrics read from the trace: (metric, span, field)
SPAN_METRICS = (
    ("syntax.parse.self_s", "syntax.parse", "self_s"),
    ("syntax.pretty.self_s", "syntax.pretty", "self_s"),
    ("syntax.free_variables.calls", "syntax.free_variables", "calls"),
    ("syntax.is_first_order.calls", "syntax.is_first_order", "calls"),
    ("structures.tarski_eval.calls", "structures.tarski_eval", "calls"),
    ("structures.tarski_eval.self_s", "structures.tarski_eval", "self_s"),
    ("structures.enumerate_models.items", "structures.enumerate_models", "items"),
    ("structures.enumerate_models.self_s", "structures.enumerate_models", "self_s"),
    ("structures.enumerate_teams.items", "structures.enumerate_teams", "items"),
    ("structures.enumerate_teams.self_s", "structures.enumerate_teams", "self_s"),
    ("structures.Model.init.calls", "structures.Model.init", "calls"),
    ("structures.Team.restrict_vars.calls", "structures.Team.restrict_vars", "calls"),
    ("structures.Team.restrict_vars.self_s", "structures.Team.restrict_vars", "self_s"),
    ("structures.Team.with_rows.calls", "structures.Team.with_rows", "calls"),
    ("structures.Team.project_rows.calls", "structures.Team.project_rows", "calls"),
    ("structures.Team.project_rows.self_s", "structures.Team.project_rows", "self_s"),
    ("structures.universal_extend.calls", "structures.universal_extend", "calls"),
    ("structures.universal_extend.self_s", "structures.universal_extend", "self_s"),
    ("evaluator.Evaluator.init.calls", "evaluator.Evaluator.init", "calls"),
    ("evaluator.Evaluator.evaluate.calls", "evaluator.Evaluator.evaluate", "calls"),
    ("evaluator.Evaluator.evaluate.self_s", "evaluator.Evaluator.evaluate", "self_s"),
    ("evaluator.evaluate.calls", "evaluator.evaluate", "calls"),
    ("evaluator.envelope.calls", "evaluator.envelope", "calls"),
    ("evaluator.downward_part.calls", "evaluator.downward_part", "calls"),
    ("analysis.equivalent.self_s", "analysis.equivalent", "self_s"),
    ("analysis.minimal_satisfying_subteam.calls",
     "analysis.minimal_satisfying_subteam", "calls"),
    ("analysis.minimal_satisfying_subteam.self_s",
     "analysis.minimal_satisfying_subteam", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
)


def run_pass(workload: str, seed: int, mode: str = "plain") -> dict:
    """One worker pass; ``setup_s`` is measured from just before its start."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_first_job"] - start - result["setup_stolen_s"]
    return result


def tail_percentile(count: int) -> float:
    """The highest percentile, in steps of 0.1, with at least TAIL_JOBS of
    ``count`` jobs beyond it (the median when there are too few jobs)."""
    return max(50.0, math.floor(1000 * (count - TAIL_JOBS) / count) / 10)


def beyond(count: int, p: float) -> int:
    """Jobs of ``count`` above the p-th percentile as ``percentile`` takes it."""
    return count - math.ceil(round(p / 100 * count, 9))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - beyond(len(ordered), p) - 1)]


def host_speed(p: dict) -> float:
    """The host's mean speed during a pass relative to the reference host."""
    return CAL_REFERENCE_S / statistics.fmean(p["calibration_s"])


def end_to_end(passes: list[dict], probes: list[dict]) -> tuple[dict, list[str]]:
    """Times scaled to the reference host, each job and each set-up by the
    host's speed around it; pass figures are medians over the passes
    (set-up time over the passes and the set-up probes), job latencies
    percentiles over the jobs of each job's median over the passes, which
    keeps a stall of the host in one pass out of them."""
    jobs = passes[0]["jobs"]
    tail = tail_percentile(jobs)
    scaled = [[t * k for t, k in zip(p["job_s"], p["job_speed"])] for p in passes]
    latencies = [statistics.median(t) * 1e3 for t in zip(*scaled)]
    setups = [p["setup_s"] * p["setup_speed"] for p in passes + probes]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(times) for times in scaled),
        "cells_per_s": statistics.median(p["cells"] / sum(times)
                                         for p, times in zip(passes, scaled)),
        "job_p50_ms": percentile(latencies, 50),
        "job_tail_ms": percentile(latencies, tail),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    units = {"setup_s": "s", "wall_s": "s", "cells_per_s": "1/s", "job_p50_ms": "ms",
             "job_tail_ms": "ms", "peak_rss_mb": "MB"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    notes = [f"passes: {len(passes)} and {len(probes)} set-up probes, jobs per pass: {jobs}, "
             f"cells per pass: {passes[0]['cells']}",
             f"host speed (median over passes): "
             f"{statistics.median(host_speed(p) for p in passes):.4f} of the "
             f"reference; unscaled wall_s {statistics.median(p['wall_s'] for p in passes):.4f} s, "
             f"setup_s {statistics.median(p['setup_s'] for p in passes + probes):.4f} s",
             f"job_tail_ms is p{tail:g} ({beyond(jobs, tail)} jobs beyond it of {jobs})"]
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: dict, traced: list[dict], profile: dict,
              cold_start_s: float) -> dict:
    """Medians over the traced passes of the per-layer figures."""
    def one(p: dict) -> dict:
        spans = p["trace"]["spans"]
        wall = p["wall_s"]

        def span(name, field):
            return spans.get(name, {}).get(field, 0)

        values = {metric: span(name, field) for metric, name, field in SPAN_METRICS}
        cells = p["cells"]
        values["evaluator.visits_per_verdict"] = _ratio(
            span("structures.Team.restrict_vars", "calls"), cells)
        values["evaluator.subteams_per_verdict"] = _ratio(
            span("structures.Team.with_rows", "calls"), cells)
        values["transforms.out_nodes"] = p["trace"]["transforms_out_nodes"]
        candidates = sum(e["calls"] for e in p["trace"]["edges"]
                         if e["parent"] == "analysis.minimal_satisfying_subteam"
                         and e["child"] == "evaluator.Evaluator.evaluate")
        values["analysis.witness_yield"] = _ratio(
            span("analysis.minimal_satisfying_subteam", "nonnull"), candidates)
        layers = p["module_self_s"]
        for module in MODULES:
            values[f"{module}.self_s"] = layers[module]
            values[f"{module}.share"] = _ratio(layers[module], wall)
        values["harness.self_s"] = _harness_s(p)
        values["harness.share"] = _ratio(values["harness.self_s"], wall)
        values["trace.wall_s"] = wall
        values["trace.overhead"] = _ratio(wall, plain["wall_s"])
        return values

    rows = [one(p) for p in traced]
    merged = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    merged["cli.cold_start_s"] = cold_start_s
    merged["profile.hash_share"] = profile["profile"]["hash_share"]
    return {name: {"value": value, "unit": _layer_unit(name)}
            for name, value in merged.items()}


def _harness_s(p: dict) -> float:
    """Traced time inside job spans but outside every layer span, plus the
    loop between jobs."""
    job = p["trace"]["spans"]["harness.job"]
    return job["self_s"] + p["wall_s"] - job["total_s"]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".items", ".out_nodes")):
        return "count"
    return "ratio"


def cold_start() -> float:
    """One ``python -m teamsem.cli equiv`` subprocess, as a user starts it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "teamsem.cli", "equiv", "NE", "forall q all(q)",
           "--vars", "x", "--max-model", "2"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=PASS_TIMEOUT_S, cwd=ROOT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("equivalent"):
        raise RuntimeError(f"cold start failed: {proc.returncode} {proc.stdout!r}")
    return elapsed


def _outcome(passes: list[dict]) -> dict:
    attempted = sum(p["jobs"] for p in passes)
    failures = sum((Counter(p["failures"]) for p in passes), Counter())
    failed = sum(failures.values())
    notes = [f"failed_share: {failed}/{attempted} = {_ratio(failed, attempted):.4f}"]
    notes += [f"  failure: {count} x {cause}" for cause, count in sorted(failures.items())]
    mismatch = next((p["first_mismatch"] for p in passes if p["first_mismatch"]), None)
    if mismatch:
        notes.append("first mismatch:\n" + mismatch)
    digests = {(p["jobs_digest"], p["verdict_digest"], p["cells"]) for p in passes}
    if len(digests) != 1:
        notes.append("passes of one seed disagree on jobs, verdicts or cells")
    return {"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
            "failed": failed, "failures": dict(failures), "notes": notes,
            "jobs": passes[0]["jobs"], "job_kinds": passes[0]["job_kinds"],
            "cells": passes[0]["cells"]}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the passes of one benchmark run and compute its metrics."""
    start = time.perf_counter()
    if trace == 0:
        passes = [run_pass(workload, seed)]
        while time.perf_counter() - start < seconds:
            passes.append(run_pass(workload, seed))
        probes = [run_pass(workload, seed, "setup") for _ in range(SETUP_PROBES)]
        metrics, notes = end_to_end(passes, probes)
    else:
        plain = run_pass(workload, seed)
        passes = [plain, run_pass(workload, seed, "trace")]
        while time.perf_counter() - start < seconds:
            passes.append(run_pass(workload, seed, "trace"))
        profile = run_pass(workload, seed, "profile")
        passes.append(profile)
        traced = [p for p in passes if p["mode"] == "trace"]
        metrics = per_layer(plain, traced, profile, cold_start())
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-{seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": seed, "cells": plain["cells"],
             "passes": [{k: p[k] for k in ("wall_s", "module_self_s", "trace")}
                        for p in traced]}, indent=1))
        notes = [f"traced passes: {len(traced)}; trace in {trace_file.relative_to(ROOT)}, "
                 f"profile in {profile['profile']['file']}",
                 "profile hash share by job kind: " + ", ".join(
                     f"{k} {v:.3f}" for k, v in profile["profile"]["hash_share_by_kind"].items())]
    result = _outcome(passes)
    result["metrics"] = metrics
    if trace:
        # the layer spans must account for the traced wall, up to the harness
        share = max(_harness_s(p) / p["wall_s"] for p in traced)
        notes.append(f"harness share of the traced wall: at most {share:.4f} "
                     f"(limit {HARNESS_SHARE_LIMIT})")
        if share > HARNESS_SHARE_LIMIT:
            result["correct"] = False
    result["notes"] = notes + result["notes"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "teamsem" / "__init__.py", ROOT / "tests" / "naive.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in result["notes"]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
