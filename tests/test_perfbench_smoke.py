"""The benchmark harness still runs against the current program: its own
smoke and determinism check must pass, and its tracer finds every method
it wraps."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import teamsem as ts

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_tracer_finds_what_it_wraps():
    """Every method the tracer's METHODS names is defined on its class, since
    install reads it from the class's __dict__ and a missing one fails every
    traced run; and formula_nodes counts a formula's node occurrences from
    each node's fields."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, name, methods in tracer.METHODS:
        cls = getattr(importlib.import_module(f"teamsem.{module}"), name)
        assert set(methods) <= set(vars(cls)), (name, set(methods) - set(vars(cls)))
    assert tracer.formula_nodes(ts.parse("x = y & (x = y | exists z NE)")) == 6
