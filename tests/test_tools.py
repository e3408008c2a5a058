"""The call counter in tools/ still runs against the current program."""

import json
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
        "_eval": 0, "_kernel": 0, "_pick": 0, "_largest": 0, "_exists_sat": 0,
        "_exists": 0, "_coherent_split": 0, "_down_split": 0, "_generic_split": 0,
        "tarski_eval": 0, "failed": 0, "top": ["job", 0]}
