"""The call counter in tools/ still runs against the current program, and
the pair runner leaves the trees it compares as it found them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_counts_runs_on_this_tree():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "counts.py"), str(ROOT),
         "--workloads", "witness_search", "--seed", "5"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(proc.stdout)["witness_search"]
    assert counts["failed"] == 0
    assert all(counts[name] > 0 for name in ("_eval", "_kernel", "_pick", "_largest"))


def test_counts_reads_zero_for_a_method_the_tree_lacks(tmp_path):
    """A tree whose evaluator predates a counted method, here one with
    none of them, still runs, and counts 0 calls of each."""
    pkg = tmp_path / "src" / "teamsem"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "evaluator.py").write_text("class Evaluator:\n    pass\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "class Job:\n    label = 'job'\n    def run(self):\n        pass\n"
        "WORKLOADS = {'w': lambda rng: [Job()]}\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "counts.py"), str(tmp_path),
         "--workloads", "w"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["w"] == {
        "_eval": 0, "_eval_raw": 0, "_kernel": 0, "_pick": 0, "_largest": 0,
        "_conflicts": 0, "_team": 0, "_exists_sat": 0, "_exists": 0,
        "_coherent_split": 0, "_down_split": 0, "_generic_split": 0,
        "_exists_determined": 0, "_settled": 0, "_search_states": 0, "tarski_eval": 0,
        "_nodes_built": 0, "failed": 0, "top": ["job", 0]}


def test_pairs_keeps_bytecode_out_of_the_trees(tmp_path):
    """The compile step writes under PYTHONPYCACHEPREFIX, not into the tree,
    and the scripts run in that environment."""
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    tree = tmp_path / "tree"
    for d in ("src", "tests", "perfbench"):
        (tree / d).mkdir(parents=True)
        (tree / d / "mod.py").write_text("X = 1\n")
    (tree / "perfbench" / "worker.py").write_text(
        "import json, os\n"
        "print(json.dumps({'prefix': os.environ.get('PYTHONPYCACHEPREFIX')}))\n")
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache)}
    pairs.compile_tree(tree, env)
    assert not list(tree.rglob("__pycache__"))
    assert len(list(cache.rglob("*.pyc"))) == 4
    out = pairs.run_script(tree, "perfbench/worker.py", "w", 1, env=env)
    assert out == {"prefix": str(cache)}
    assert not list(tree.rglob("__pycache__"))
