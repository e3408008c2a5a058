"""Compare two source trees with alternating runs of their own benchmark.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --label NAME
        [--workloads rewrite_equiv,model_sweep,...] [--seed N] [--pairs 10]
        [--seconds 20]

Each tree is a checkout of the repository.  First the tool byte-compiles
``src/``, ``tests/`` and ``perfbench/`` in both trees with ``python3 -m
compileall``, so that both start from fresh bytecode: with
``PYTHONDONTWRITEBYTECODE`` set, a tree whose ``__pycache__`` is stale or
missing would compile its modules again on every start and inflate its
``setup_s``.  The bytecode goes to one temporary directory, set as
``PYTHONPYCACHEPREFIX`` for every process the tool starts and removed when
it exits, so both trees stay as they were found: no ``__pycache__`` is
written into them.  Then, for every workload, the tool runs ``python3
perfbench/run.py --workload W --seed N --seconds S`` in the parent tree
and then in the change tree, ``--pairs`` times, with the order inside a
pair swapped every other pair so that a drift of the host's speed does
not favour one side.  Before the pairs of a workload it runs one pass
of ``python3 perfbench/worker.py --workload W --seed N`` in each tree and
records both trees' ``verdict_digest``; under ``calls``, each tree's
``Evaluator._eval``, ``_eval_raw``, ``_kernel``, ``_pick``, ``_largest``
and ``_conflicts`` call counts, its ``Team``-to-mask conversions
(``_team``), its calls of each search route
(``_exists_sat``, ``_exists``, ``_coherent_split``, ``_down_split`` and
``_generic_split``), its ``_exists`` calls whose body forces
``dep(D; v)`` for the bound variable v and so search functions of D
(``_exists_determined``), those of them whose body ``Evaluator._settled``
changes by dropping the conjuncts every candidate satisfies
(``_settled``), the states its ``_depth_first`` searches step
to (``_search_states``), its evaluator-level ``tarski_eval`` calls, the
formula nodes it creates, not counting the interning table's hits
(``_nodes_built``), and its job with the most ``_eval`` calls, from the
``counts.py`` beside this file run on the tree at the same seed (``_eval`` does not count the memo
hits that the loop deciding a tree of ``&``, ``||`` and ``~`` reads
itself; ``_eval_raw`` and ``_kernel`` are the fingerprint of a change
that keeps the searches and the evaluations deciding them, and both fell
by design when the coherent split's pair evaluations gave way to
``_conflicts``, which keeps the colouring search); and one short traced
run, ``python3 perfbench/run.py --workload W --seed N --seconds 1 --trace
1``, in each tree, whose ``correct`` and ``harness.share`` it records.  Each tree runs its own harness, and
``counts.py`` its own workloads, in a process of their own; nothing under
``perfbench/`` is imported here.

For every workload and end-to-end metric the tool writes to
``BENCH_<label>.json`` in the current directory the median and quartiles
of each side, the relative change of the medians, the number of pairs the
change won, whether the gap between the medians exceeds the parent's
interquartile distance, and whether the change's median stays within the
metric's regression bound.  Directions and bounds come from the change
tree's ``BENCHMARK.json``.  It prints the same as a Markdown table.  It
also records, under ``src_lines``, each tree's number of lines in
``src/**/*.py``, and prints both counts after the table.  The exit code
is 1 if any run, traced runs included, was incorrect or failed an
operation, or if the two trees' verdict digests differ on any workload,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_script(tree: Path, script: str, workload: str, seed: int,
               *extra: str, env: dict) -> dict:
    """Run one of the tree's benchmark scripts on a workload in the
    environment env: the JSON object on the last line of its output."""
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         *extra], cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {script} {workload} in {tree} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def compile_tree(tree: Path, env: dict) -> None:
    """Write fresh bytecode for the tree's sources, tests and harness under
    env's ``PYTHONPYCACHEPREFIX``."""
    dirs = [d for d in ("src", "tests", "perfbench") if (tree / d).is_dir()]
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs],
                          cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"error: compileall in {tree} exited "
                         f"{proc.returncode}: {proc.stdout.strip()[-500:]}")


def call_counts(tree: Path, workload: str, seed: int, env: dict) -> dict:
    """The tree's evaluator call counts on the workload, from counts.py run
    in the environment env."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("counts.py")), str(tree),
         "--seed", str(seed), "--workloads", workload],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"error: counts.py {workload} in {tree} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)[workload]


def src_lines(tree: Path) -> int:
    """The number of lines in the tree's ``src/**/*.py`` files."""
    return sum(p.read_bytes().count(b"\n") for p in tree.glob("src/**/*.py"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: dict[str, list[dict]], spec: dict[str, dict]) -> dict:
    """Per metric: each side's median and quartiles, the change of the
    medians, the pairs the change won, and the checks against the noise
    and the bound."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        series = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        lower = spec[name]["better"] == "lower"
        bound = spec[name]["bound"]
        stats = {side: quartiles(series[side]) for side in SIDES}
        p_med, c_med = stats["parent"][1], stats["change"][1]
        gap = (p_med - c_med) if lower else (c_med - p_med)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(series["parent"], series["change"]))
        out[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": "lower" if lower else "higher",
            **{side: {"median": stats[side][1], "q1": stats[side][0],
                      "q3": stats[side][2], "runs": series[side]}
               for side in SIDES},
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else None,
            "wins": wins,
            "gap_exceeds_parent_iqr": gap > stats["parent"][2] - stats["parent"][0],
            "within_bound": (c_med <= p_med * (1 + bound) if lower
                             else c_med >= p_med * (1 - bound)),
        }
    return out


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def table(result: dict) -> str:
    lines = ["| workload | metric | parent | change | Δ | wins |",
             "| --- | --- | --- | --- | --- | --- |"]
    for workload, metrics in result["workloads"].items():
        for name, m in metrics["metrics"].items():
            p, c = m["parent"], m["change"]
            pct = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f} %"
            lines.append(
                f"| {workload} | {name} | {_fmt(p['median'])} [{_fmt(p['q1'])}, "
                f"{_fmt(p['q3'])}] | {_fmt(c['median'])} [{_fmt(c['q1'])}, "
                f"{_fmt(c['q3'])}] | {pct} | {m['wins']}/{result['pairs']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads",
                    default="rewrite_equiv,model_sweep,hard_check,witness_search")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} has no perfbench/run.py")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}

    result = {
        "label": args.label, "seed": args.seed, "pairs": args.pairs,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "workloads": {},
    }
    cache = tempfile.TemporaryDirectory(prefix="pairs-pycache-")  # removed at exit
    env = {**os.environ, "PYTHONPYCACHEPREFIX": cache.name}
    for tree in trees.values():
        compile_tree(tree, env)
    clean = True
    for workload in args.workloads.split(","):
        digests = {side: run_script(trees[side], "perfbench/worker.py", workload,
                                    args.seed, env=env)["verdict_digest"]
                   for side in SIDES}
        same = digests["parent"] == digests["change"]
        clean &= same
        print(f"{workload} verdict_digest {'same' if same else 'DIFFERS'}: "
              f"{digests['parent'][:12]} {digests['change'][:12]}", flush=True)
        counts = {side: call_counts(trees[side], workload, args.seed, env)
                  for side in SIDES}
        print(f"{workload} calls parent {counts['parent']} change "
              f"{counts['change']}", flush=True)
        traced = {}
        for side in SIDES:
            out = run_script(trees[side], "perfbench/run.py", workload, args.seed,
                             "--seconds", "1", "--trace", "1", env=env)
            traced[side] = {"correct": bool(out["correct"]) and not out["failed"],
                            "harness_share": out["metrics"]["harness.share"]["value"]}
            clean &= traced[side]["correct"]
            print(f"{workload} traced {side}: correct {traced[side]['correct']} "
                  f"harness.share {traced[side]['harness_share']:.4f}", flush=True)
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                out = run_script(trees[side], "perfbench/run.py", workload,
                                 args.seed, "--seconds", str(args.seconds),
                                 env=env)
                runs[side].append(out)
                print(f"{workload} pair {i + 1} {side}: wall_s "
                      f"{out['metrics']['wall_s']['value']:.4g} correct "
                      f"{out['correct']} failed {out['failed']}", flush=True)
        outcome = {side: {"correct": sum(bool(r["correct"]) for r in runs[side]),
                          "attempted": sum(r["attempted"] for r in runs[side]),
                          "failed": sum(r["failed"] for r in runs[side])}
                   for side in SIDES}
        clean &= all(o["correct"] == args.pairs and not o["failed"]
                     for o in outcome.values())
        result["workloads"][workload] = {"verdict_digest": digests,
                                         "calls": counts,
                                         "traced": traced, "outcome": outcome,
                                         "metrics": summarise(runs, spec)}
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(table(result))
    lines = result["src_lines"]
    print(f"src lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    print(f"wrote {out}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
