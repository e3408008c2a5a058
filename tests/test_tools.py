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
    assert all(counts[name] > 0 for name in ("_eval", "_kernel", "_pick"))
