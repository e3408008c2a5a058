"""Deep formulas: long & and || chains evaluate without recursing down the
chain, and the command line answers anything deeper with exit code 2 and a
one-line message, never a traceback read as "false"."""

import random

import pytest

import teamsem as ts
from naive import naive_eval
from teamsem.cli import main


@pytest.fixture
def files(tmp_path):
    (tmp_path / "m3.model").write_text("domain 3\n")
    (tmp_path / "x.team").write_text("vars x\n0\n1\n")
    return tmp_path


def run_eval(capsys, files, formula):
    code = main(["eval", formula, "--model", str(files / "m3.model"),
                 "--team", str(files / "x.team")])
    out, err = capsys.readouterr()
    return code, out, err


def test_600_conjunct_chain(files, capsys):
    chain = " & ".join(["x = x"] * 600)
    assert run_eval(capsys, files, chain) == (0, "true\n", "")
    assert run_eval(capsys, files, chain + " & const(x)") == (1, "false\n", "")
    assert run_eval(capsys, files, "NE || " + " || ".join(["x != x"] * 600)) \
        == (0, "true\n", "")


@pytest.mark.parametrize("formula", [
    " & ".join(["x = x"] * 5000),
    " ".join(f"exists v{i}" for i in range(5000)) + " (x = x)",
], ids=["conjuncts", "quantifiers"])
def test_5000_deep_formulas_end_cleanly(files, capsys, formula):
    code, out, err = run_eval(capsys, files, formula)
    assert code in (0, 2)
    if code == 0:
        assert out == "true\n"
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_5000_conjunct_chain_prints(capsys):
    chain = " & ".join(["x = y"] * 5000)
    assert main(["parse", chain]) == 0
    assert capsys.readouterr().out == chain + "\n"


def test_chains_agree_with_the_oracle():
    rng = random.Random(5)
    parts = ["x = y", "x != y", "NE", "const(x)", "ncon(y)", "x = x", "dep(x; y)"]
    model = ts.Model(2)
    rows = [(a, b) for a in range(2) for b in range(2)]
    for _ in range(40):
        text = parts[rng.randrange(len(parts))]
        for _ in range(rng.randrange(1, 12)):
            text += rng.choice([" & ", " || "]) + rng.choice(parts)
        f = ts.parse(text)
        for mask in range(16):
            team = ts.Team(("x", "y"), [r for i, r in enumerate(rows) if mask >> i & 1])
            assert ts.evaluate(model, team, f) == naive_eval(model, team, f), text
