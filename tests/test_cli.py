"""End-to-end command-line checks: subcommands, exit codes, file formats."""

import time

import pytest

import teamsem as ts
from teamsem import transforms
from teamsem.cli import main


@pytest.fixture
def workspace(tmp_path):
    model3 = tmp_path / "m3.model"
    model3.write_text("domain 3\n")
    team_empty = tmp_path / "empty.team"
    team_empty.write_text("vars x\n")
    team_xy = tmp_path / "xy.team"
    team_xy.write_text("vars x y\n0 0\n0 1\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_infinity_sentence(workspace, capsys):
    code, out, _ = run(
        capsys, "eval", "exists x forall y exists z (dep(z; y) & z != x)",
        "--model", str(workspace / "m3.model"))
    assert code == 1 and out.strip() == "false"


def test_eval_bot_on_empty_team(workspace, capsys):
    code, out, _ = run(capsys, "eval", "bot",
                       "--model", str(workspace / "m3.model"),
                       "--team", str(workspace / "empty.team"))
    assert code == 0 and out.strip() == "true"


def test_eval_team_file_and_dep(workspace, capsys):
    code, out, _ = run(capsys, "eval", "dep(x; y)",
                       "--model", str(workspace / "m3.model"),
                       "--team", str(workspace / "xy.team"))
    assert code == 1 and out.strip() == "false"


def test_eval_malformed_formula(workspace, capsys):
    code, _, err = run(capsys, "eval", "exists (x",
                       "--model", str(workspace / "m3.model"))
    assert code == 2 and "error" in err


def test_eval_free_variables_need_team(workspace, capsys):
    code, _, err = run(capsys, "eval", "x = y",
                       "--model", str(workspace / "m3.model"))
    assert code == 2 and "free variables" in err


def test_eval_with_relations(workspace, capsys):
    model = workspace / "p.model"
    model.write_text("domain 2\nrel P arity 1\n0\nend\n")
    team = workspace / "x.team"
    team.write_text("vars x\n0\n")
    code, out, _ = run(capsys, "eval", "P(x)", "--model", str(model),
                       "--team", str(team), "--rel", "P:1")
    assert code == 0 and out.strip() == "true"


def test_eval_rejects_team_values_outside_the_domain(workspace, capsys):
    model = workspace / "m2.model"
    model.write_text("domain 2\n")
    team = workspace / "x3.team"
    team.write_text("vars x\n0\n1\n3\n")
    code, out, err = run(capsys, "eval", "geq(x, 3)", "--model", str(model),
                         "--team", str(team))
    assert (code, out) == (2, "")
    assert err == "error: team values outside the domain of size 2: [3]\n"


def test_eval_rejects_a_relation_given_twice(workspace, capsys):
    model = workspace / "pp.model"
    model.write_text("domain 2\nrel P arity 1\n0\nend\nrel P arity 1\n1\nend\n")
    team = workspace / "x.team"
    team.write_text("vars x\n0\n")
    code, out, err = run(capsys, "eval", "P(x)", "--model", str(model),
                         "--team", str(team), "--rel", "P:1")
    assert (code, out) == (2, "")
    assert err == "error: relation P given twice\n"


def test_eval_implication_past_the_row_cap(workspace, capsys):
    model = workspace / "m5.model"
    model.write_text("domain 5\n")
    team = workspace / "xy17.team"
    team.write_text("vars x y\n" + "".join(f"{i // 5} {i % 5}\n" for i in range(17)))
    code, out, err = run(capsys, "eval", "NE -> dep(x; y)", "--model", str(model),
                         "--team", str(team))
    assert (code, out) == (2, "")
    assert err == "error: -> on a team of 17 rows exceeds the cap of 16\n"


def test_eval_custom_dependency(workspace, capsys):
    code, out, _ = run(
        capsys, "eval", "D:big()", "--model", str(workspace / "m3.model"),
        "--dep", "big=0:exists x exists y (x != y)")
    assert code == 0 and out.strip() == "true"


def test_parse_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "NE||all(x)")
    assert code == 0 and out.strip() == "NE || all(x)"
    code, _, err = run(capsys, "parse", "NE ||")
    assert code == 2


def test_formula_from_file(workspace, capsys):
    path = workspace / "formula.txt"
    path.write_text("bot\n")
    code, out, _ = run(capsys, "eval", f"@{path}",
                       "--model", str(workspace / "m3.model"))
    assert code == 1 and out.strip() == "false"  # {empty-assignment} team


def test_transform_negelim(capsys):
    code, out, _ = run(capsys, "transform", "negelim", "~NE")
    assert code == 0 and out.strip() == "exists v (v != v)"


def test_transform_negelim_verify(capsys):
    code, out, _ = run(capsys, "transform", "negelim", "~(x = y | NE)",
                       "--verify", "2")
    assert code == 0 and "verified" in out


def test_transform_countdef_verify(capsys):
    code, out, _ = run(capsys, "transform", "countdef", "eq", "1", "v",
                       "--verify", "3")
    assert code == 0
    assert "verified (nonempty teams, |M|<=3)" in out


def test_transform_counting_formula_kinds(capsys):
    code, out, _ = run(capsys, "transform", "countdef", "co_le", "1", "v",
                       "--verify", "2")
    assert code == 0 and "verified" in out


def test_transform_dnf_prints_parts(capsys):
    code, out, _ = run(capsys, "transform", "dnf", "(x = y || x != y) & const(x)")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert code == 0 and len(lines) == 2


def test_transform_depdef_verify(capsys):
    code, out, _ = run(capsys, "transform", "depdef", "v", "w",
                       "--verify", "2")
    assert code == 0 and "verified" in out


def test_transform_depdef_verify_4(capsys):
    """65,536 teams over (x, y) at |M| = 4 fall into 3,044 orbits of the
    domain's 24 permutations; the sweep decides one team per orbit."""
    code, out, _ = run(capsys, "transform", "depdef", "x", "y", "--verify", "4")
    assert code == 0 and "verified (all teams, |M|<=4)" in out


def test_transform_nedef_verify(capsys):
    code, out, _ = run(capsys, "transform", "nedef", "--verify", "3")
    assert code == 0 and out.splitlines()[0] == "forall q all(q)"


def test_transform_compile_unary_verify(capsys):
    code, out, _ = run(capsys, "transform", "compile-unary", "eq:1", "v",
                       "--verify", "3")
    assert code == 0 and "verified" in out


def test_compile_unary_verify_5_is_quick(capsys):
    """The compiled description nests exists p (const(p) & ...) blocks,
    which take one value per witness."""
    import time

    start = time.perf_counter()
    code, out, _ = run(capsys, "transform", "compile-unary",
                       "eq:1 & co_eq:0 | neq:2", "v", "--verify", "5")
    assert code == 0 and "verified (nonempty teams, |M|<=5)" in out
    assert time.perf_counter() - start < 1.5


def test_transform_brackets(capsys):
    code, out, _ = run(capsys, "transform", "brackets",
                       "[exists v1 (v1 = v1)] & NE")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "[exists v1 (v1 = v1)]" and lines[1] == "NE"


@pytest.mark.parametrize("argv", [
    ("flatten", "NE | x = y"),
    ("dualneg", "x = y | P(x)", "--rel", "P:1"),
    ("restrict", "dep(x; y)", "x != y"),
    ("dnf", "(x = y || x != y) & const(x)"),
    ("brackets", "[exists v1 (v1 = v1)] & NE"),
])
def test_transform_verify_kinds(capsys, argv):
    code, out, _ = run(capsys, "transform", *argv, "--verify", "2")
    assert code == 0 and "verified (all teams, |M|<=2)" in out


def test_transform_verify_nonempty_teams(capsys):
    code, out, _ = run(capsys, "transform", "flatten", "NE", "--verify", "2",
                       "--nonempty-teams")
    assert code == 0 and "verified (nonempty teams, |M|<=2)" in out


def test_transform_verify_counterexample_replays(workspace, capsys, monkeypatch):
    # a rewriter that returns its input is wrong for dualneg
    monkeypatch.setattr(transforms, "dual_negate", lambda f: f)
    code, out, _ = run(capsys, "transform", "dualneg", "x = y", "--verify", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "x = y" and lines[1].startswith("counterexample at")
    want = lines[1].endswith("left is True")
    vars_at = next(i for i, ln in enumerate(lines) if ln.startswith("vars"))
    (workspace / "cx.model").write_text("\n".join(lines[2:vars_at]) + "\n")
    (workspace / "cx.team").write_text("\n".join(lines[vars_at:]) + "\n")
    code, out, _ = run(capsys, "eval", lines[0],
                       "--model", str(workspace / "cx.model"),
                       "--team", str(workspace / "cx.team"))
    assert out.strip() == ("false" if want else "true")


def test_transform_fragment_violation(capsys):
    code, _, err = run(capsys, "transform", "flatten", "~NE")
    assert code == 2 and "error" in err


def test_transform_verify_failure_prints_counterexample(workspace, capsys):
    # dualneg on a correct input always verifies; force a failure through
    # equiv instead, which shares the counterexample printer
    code, out, _ = run(capsys, "equiv", "const(x)", "NE", "--vars", "x",
                       "--out", str(workspace / "cx"))
    assert code == 1 and "counterexample" in out
    model_text = (workspace / "cx.model").read_text()
    team_text = (workspace / "cx.team").read_text()
    m = ts.parse_model_text(model_text, ts.EMPTY_SIGNATURE)
    t = ts.parse_team_text(team_text)
    assert ts.evaluate(m, t, ts.parse("const(x)")) != ts.evaluate(m, t, ts.NE)


def test_equiv_ne_totality(capsys):
    code, out, _ = run(capsys, "equiv", "NE", "forall q all(q)",
                       "--vars", "x", "--max-model", "3")
    assert code == 0 and "equivalent" in out


def test_equiv_cap_errors(capsys):
    code, _, err = run(capsys, "equiv", "x = y", "T", "--vars", "x")
    assert code == 2  # y is not swept


def test_bounds_check(capsys):
    code, out, _ = run(capsys, "bounds", "check", "all(x) | all(y)",
                       "--max-model", "2")
    assert code == 0
    assert "nu(|M|=1) = 2" in out and "nu(|M|=2) = 4" in out
    assert "all hold" in out


def test_bounds_check_computes_each_bound_once(monkeypatch, capsys):
    """The command prints the bounds that the sweep computed: one
    nu_bound call per model size."""
    from teamsem import analysis

    sizes = []
    nu_bound = analysis.nu_bound

    def spy(f, n, *rest):
        sizes.append(n)
        return nu_bound(f, n, *rest)

    monkeypatch.setattr(analysis, "nu_bound", spy)
    code, out, _ = run(capsys, "bounds", "check", "geq(x, 2) & NE",
                       "--max-model", "4")
    assert code == 0 and sizes == [1, 2, 3, 4]
    assert out.splitlines()[:4] == [f"nu(|M|={n}) = 3" for n in (1, 2, 3, 4)]


def test_bounds_check_missing_gamma(capsys):
    code, _, err = run(capsys, "bounds", "check", "D:up(x)", "--max-model", "2",
                       "--dep", "up=1:exists x R(x)")
    assert code == 2 and "upward" in err


def test_bounds_check_gamma_override(capsys):
    code, out, _ = run(capsys, "bounds", "check", "count_eq(x, 1)",
                       "--max-model", "2", "--gamma", "count_eq=const:1")
    assert code == 0
    code, out, _ = run(capsys, "bounds", "check", "all(x) | NE", "--gamma",
                       "all=lin:1", "--max-model", "2")
    assert code == 0
    assert "nu(|M|=2) = 3" in out and "all hold" in out
    code, out, _ = run(capsys, "bounds", "check", "all(x)", "--gamma", "all=n1",
                       "--max-model", "2")
    assert code == 0
    assert "nu(|M|=2) = 2" in out and "all hold" in out
    code, out, _ = run(capsys, "bounds", "check", "all(x)", "--gamma", "all=n0",
                       "--max-model", "2")
    assert code == 1
    assert "|M|=2 |X|=2: witness 2 > nu 1 [VIOLATION]" in out


def test_bounds_check_prints_each_violation_as_a_strict_excess(capsys):
    code, out, _ = run(capsys, "bounds", "check", "all(x)", "--gamma",
                       "all=const:0", "--max-model", "2")
    assert code == 1
    assert out.splitlines()[2:4] == [
        "|M|=1 |X|=1: witness 1 > nu 0 [VIOLATION]",
        "|M|=2 |X|=2: witness 2 > nu 0 [VIOLATION]"]


def test_bounds_hierarchy(capsys):
    code, out, _ = run(capsys, "bounds", "hierarchy", "2", "1", "1")
    assert code == 0
    assert "n=2" in out and "4 > 2" in out
    code, out, _ = run(capsys, "bounds", "hierarchy", "2", "1", "3")
    assert code == 0 and "n=4" in out and "16 > 12" in out
    code, out, _ = run(capsys, "bounds", "hierarchy", "3", "2", "2")
    assert code == 0 and "n=3" in out and "27 > 18" in out
    code, out, err = run(capsys, "bounds", "hierarchy", "5", "1", "1")
    assert (code, out) == (2, "")
    assert err == "error: witness team of size 32 exceeds the cap of 27\n"
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "hierarchy", "100000", "1", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: witness team of size 2**100000 or more exceeds the cap of 27\n"


@pytest.mark.parametrize("argv", [
    ("equiv", "x = x", "x != x", "--vars", "x", "--max-model", "0"),
    ("equiv", "x = x", "x != x", "--vars", "x", "--max-model", "-3"),
    ("bounds", "check", "all(x)", "--max-model", "0"),
    ("transform", "flatten", "NE", "--verify", "0"),
    ("transform", "flatten", "NE", "extra"),
    ("transform", "nedef", "junk", "--verify", "1"),
    ("transform", "countdef", "le", "x", "v"),
    ("equiv", "[forall x R(x, x, x)]", "[forall y R(y, y, y)]", "--rel", "R:3",
     "--max-model", "3"),
    ("equiv", "x = x", "x = x", "--rel", "R:1", "--rel", "R:2"),
    ("bounds", "check", "all(x)", "--max-model", "2", "--gamma", "all=n0",
     "--gamma", "all=n1"),
])
def test_bad_size_or_extra_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("transform", "depdef", "x", "y", "--verify", "5"),
    ("bounds", "check", "geq(x y z, 2)", "--max-model", "3"),
    ("equiv", "NE", "NE | NE", "--max-model", "17"),
    ("bounds", "check", "NE", "--max-model", "17"),
], ids=["models", "teams", "equiv-size", "bounds-size"])
def test_sweep_past_a_cap_stops_before_it_starts(capsys, argv):
    """A sweep checks its caps for its largest size first: the 25 assignments
    to (x, y) at size 5, the 27 to (x, y, z) at size 3, or a model size of
    17 where no relation or team caps it, exit 2 before any smaller size is
    swept."""
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and "exceed the cap of 16" in err
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv,last", [
    (("equiv", "NE", "NE | NE", "--max-model", "16"),
     "equivalent (models up to size 16, all teams)"),
    (("bounds", "check", "NE", "--max-model", "16"),
     "checked 16 satisfying team(s): all hold"),
], ids=["equiv", "bounds"])
def test_sweep_up_to_the_size_cap_runs(capsys, argv, last):
    code, out, err = run(capsys, *argv)
    assert (code, err, out.splitlines()[-1]) == (0, "", last)


def test_countdef_bad_k_names_the_argument(capsys):
    code, out, err = run(capsys, "transform", "countdef", "le", "x", "v")
    assert code == 2 and "countdef" in err and "K" in err


@pytest.mark.parametrize("argv,files", [
    (("equiv", "x = x", "x = x", "--rel", "bad"), {}),
    (("eval", "NE", "--model", "m.model", "--dep", "garbage"),
     {"m.model": "domain 2\n"}),
    (("parse", "x = y", "--dep", "garbage"), {}),
    (("bounds", "check", "NE", "--gamma", "ne=bad"), {}),
    (("equiv", "x = x", "x = x", "--vars", ","), {}),
    (("transform", "countdef", "xx", "1", "v"), {}),
    (("bounds", "check", "P(x)", "--rel", "P:1"), {}),
    (("bounds", "hierarchy", "2", "1", "0"), {}),
    (("bounds", "hierarchy", "2", "1", "100"), {}),
    (("eval", "NE", "--model", "m.model", "--rel", "P:1"),
     {"m.model": "domain 2\nrel P 1 arity\nend\n"}),
    (("eval", "NE", "--model", "m.model", "--rel", "P:1"),
     {"m.model": "domain 2\nrel P arity 2\nend\n"}),
    (("eval", "NE", "--model", "m.model", "--rel", "P:1"),
     {"m.model": "domain 2\nrel P arity 1\n0\n"}),
    (("eval", "x = x", "--model", "m.model", "--team", "t.team"),
     {"m.model": "domain 2\n", "t.team": "0 1\n"}),
], ids=["rel", "eval-dep", "parse-dep", "gamma", "empty-vars", "countdef-kind",
        "bounds-signature", "hierarchy-q0", "hierarchy-q100", "model-rel-line",
        "model-arity", "model-no-end", "team-no-vars"])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, files):
    """A bad flag, argument or input file exits 2 with one error line and
    prints nothing on stdout; ``parse`` reads ``--dep`` as every other
    subcommand does."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
