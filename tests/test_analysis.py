"""Witness bounds, minimal subteams, the hierarchy witness, and the
equivalence sweep."""

from itertools import product

import pytest

import teamsem as ts
from teamsem.analysis import GammaTable
from teamsem.syntax import Atom


def team(vs, *rows):
    return ts.Team(vs, rows)


def test_nu_bound_examples():
    g = GammaTable()
    assert ts.nu_bound(ts.parse("all(x) | all(y)"), 3, g) == 6
    assert ts.nu_bound(ts.parse("exists z (z = x | z != y)"), 5, g) == 0
    assert ts.nu_bound(ts.parse("NE & NE"), 5, g) == 2
    assert ts.nu_bound(ts.parse("geq(x, 3) | NE"), 2, g) == 4
    assert ts.nu_bound(ts.parse("all(x y)"), 3, g) == 9
    assert ts.nu_bound(ts.parse("const(x) & all(y)"), 3, g) == 3
    assert ts.nu_bound(ts.parse("ncon(x) || ndep(x; y)"), 3, g) == 4


def test_nu_bound_custom_needs_claim_or_override():
    sig = ts.Signature({"R": 1})
    plain = ts.DependencySpec("thing", 1, ts.parse("exists x R(x)", sig))
    reg = ts.EMPTY_REGISTRY.register(plain)
    atom = Atom("custom", (("x",),), name="thing")
    with pytest.raises(ts.AnalysisError):
        ts.nu_bound(atom, 2, GammaTable(), reg)
    assert ts.nu_bound(atom, 2, GammaTable({"thing": ("const", 1)}), reg) == 1
    claimed = ts.DependencySpec("up", 1, ts.parse("exists x R(x)", sig),
                                claimed_upward_closed="yes")
    reg2 = ts.EMPTY_REGISTRY.register(claimed)
    assert ts.nu_bound(Atom("custom", (("x",),), name="up"), 3,
                       GammaTable(), reg2) == 3


def test_minimal_satisfying_subteam():
    m = ts.Model(3)
    full = team(("x",), (0,), (1,), (2,))
    # first-order: the empty subteam
    assert ts.minimal_satisfying_subteam(m, full, ts.parse("x = x")) == \
        full.with_rows(())
    # totality needs every value
    assert len(ts.minimal_satisfying_subteam(m, full, ts.parse("all(x)"))) == 3
    # nonemptiness needs one row
    assert len(ts.minimal_satisfying_subteam(m, full, ts.NE)) == 1
    # unsatisfiable on this team
    assert ts.minimal_satisfying_subteam(
        m, team(("x",), (0,)), ts.parse("geq(x, 2)")) is None
    with pytest.raises(ts.AnalysisError):
        ts.minimal_satisfying_subteam(m, full, ts.NE, cap=2)


def test_minimal_none_implies_unsatisfied():
    m = ts.Model(2)
    for text in ("NE", "all(x)", "geq(x, 2)", "count_eq(x, 1)"):
        f = ts.parse(text)
        for t in ts.enumerate_teams(m, ("x",)):
            res = ts.minimal_satisfying_subteam(m, t, f)
            if res is None:
                assert not ts.evaluate(m, t, f)
            else:
                assert ts.evaluate(m, res, f)


def test_greedy_descent_cannot_beat_minimum():
    """Greedy row removal double-checks exact minima for upward-closed
    formulas."""
    m = ts.Model(2)
    for text in ("all(x)", "NE | NE", "geq(x, 2) | NE", "all(x) & all(y)"):
        f = ts.parse(text)
        for t in ts.enumerate_teams(m, ("x", "y")):
            if not ts.evaluate(m, t, f):
                continue
            exact = ts.minimal_satisfying_subteam(m, t, f)
            greedy = t
            changed = True
            while changed:
                changed = False
                for row in sorted(greedy.rows):
                    cand = greedy.with_rows(greedy.rows - {row})
                    if ts.evaluate(m, cand, f):
                        greedy = cand
                        changed = True
                        break
            assert len(exact) <= len(greedy)
            assert ts.evaluate(m, greedy, f)


def test_check_boundedness_examples():
    for text in ("all(x)", "NE | NE", "const(x) & all(x)"):
        reports = ts.check_boundedness(ts.parse(text), 2)
        assert reports, text
        assert all(r.holds for r in reports), text


def test_check_boundedness_fragment_errors():
    with pytest.raises(ts.AnalysisError):
        ts.check_boundedness(ts.parse("dep(x; y)"), 2)
    with pytest.raises(ts.AnalysisError):
        ts.check_boundedness(ts.parse("~NE"), 2)
    with pytest.raises(ts.AnalysisError):
        ts.check_boundedness(ts.parse("count_eq(x, 1)"), 2)
    # a bound override admits a non-upward-closed atom explicitly
    reports = ts.check_boundedness(
        ts.parse("count_eq(x, 1)"), 2, GammaTable({"count_eq": ("const", 1)}))
    assert all(r.holds for r in reports)


def test_hierarchy_witness_values():
    for q, expected_n in ((1, 2), (2, 3), (3, 4)):
        report = ts.hierarchy_witness(2, 1, q)
        assert report.domain_size == expected_n
        assert report.team_size == expected_n ** 2
        assert report.witness_size == expected_n ** 2
        assert report.narrow_bound == q * expected_n
        assert report.exceeds
    # a higher-arity case that still fits the default caps
    cube = ts.hierarchy_witness(3, 1, 3)
    assert cube.domain_size == 2 and cube.witness_size == 8 and cube.exceeds
    with pytest.raises(ts.AnalysisError):
        ts.hierarchy_witness(1, 1, 1)
    with pytest.raises(ts.AnalysisError):
        ts.hierarchy_witness(5, 1, 1)


def test_narrow_totality_definable_from_wide():
    """Lower-arity totality is the universal closure of higher arity."""
    narrow = ts.parse("all(x)")
    wide = ts.parse("forall w1 all(x w1)")
    assert ts.equivalent(narrow, wide, ("x", "y"), max_model=2).equivalent


def test_equivalent_reports():
    f = ts.parse("NE")
    assert ts.equivalent(f, f, ("x",)).equivalent
    report = ts.equivalent(ts.parse("const(x)"), ts.NE, ("x",), max_model=3)
    assert not report.equivalent
    # counterexample re-validates: the two formulas really disagree on it
    assert ts.evaluate(report.counter_model, report.counter_team,
                       ts.parse("const(x)")) != \
        ts.evaluate(report.counter_model, report.counter_team, ts.NE)
    text = report.to_text()
    assert "counterexample" in text and "domain" in text and "vars" in text


def test_equivalent_rejects_unswept_variables():
    with pytest.raises(ts.AnalysisError):
        ts.equivalent(ts.parse("x = y"), ts.TOP, ("x",))


def test_custom_atom_witness_within_power_bound():
    """Any satisfied k-ary atom has a witness of at most |M|**k rows."""
    sig = ts.Signature({"R": 2})
    spec = ts.DependencySpec(
        "link", 2, ts.parse("exists x exists y (R(x, y) & x != y)", sig))
    reg = ts.EMPTY_REGISTRY.register(spec)
    atom = Atom("custom", (("x", "y"),), name="link")
    for size in (1, 2):
        m = ts.Model(size)
        for t in ts.enumerate_teams(m, ("x", "y")):
            if ts.evaluate(m, t, atom, reg):
                w = ts.minimal_satisfying_subteam(m, t, atom, reg)
                assert w is not None and len(w) <= size ** 2


def test_sizes_below_one_are_errors():
    for size in (0, -3):
        with pytest.raises(ts.AnalysisError):
            ts.equivalent(ts.parse("x = x"), ts.parse("x != x"), ("x",),
                          max_model=size)
        with pytest.raises(ts.AnalysisError):
            ts.check_boundedness(ts.parse("all(x)"), size)


def test_witness_searches_reuse_the_sweep_evaluator(monkeypatch):
    """check_boundedness searches witnesses with its sweep evaluator, plus one
    fresh re-validation per witness; hierarchy_witness checks the full team
    and searches with one evaluator."""
    built = []
    init = ts.Evaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ts.Evaluator, "__init__", counting_init)
    reports = ts.check_boundedness(ts.parse("all(x) | all(y)"), 2)
    assert len(reports) == 8 and all(r.holds for r in reports)
    assert len(built) == 2 + 8  # one per model size, one per witness
    built.clear()
    assert ts.hierarchy_witness(2, 1, 3).witness_size == 16
    assert len(built) == 2


def test_hierarchy_witness_searches_only_supersets_of_forced_rows(monkeypatch):
    """The only subteam of the full 16-row team satisfying all(w1 w2) is the
    team itself, and the size bound of all(w1 w2) at |M| = 4 is 16 rows: the
    search starts there, so it tries the team alone, not its 65,536
    subteams."""
    calls = []
    evaluate = ts.Evaluator._eval

    def counting_eval(self, *args):
        calls.append(None)
        return evaluate(self, *args)

    monkeypatch.setattr(ts.Evaluator, "_eval", counting_eval)
    assert ts.hierarchy_witness(2, 1, 3).witness_size == 16
    assert len(calls) <= 300


def test_witness_search_starts_at_the_size_bound(monkeypatch):
    """No subteam of fewer than 6 rows satisfies NE & geq(x y, 6), and
    nothing is forced in the full 16-row team: the search starts at the
    first 6-row subteam, not after the 6,885 smaller ones."""
    calls = []
    evaluate = ts.Evaluator._eval

    def counting_eval(self, *args):
        calls.append(None)
        return evaluate(self, *args)

    monkeypatch.setattr(ts.Evaluator, "_eval", counting_eval)
    full = ts.Team(("x", "y"), product(range(4), repeat=2))
    witness = ts.minimal_satisfying_subteam(
        ts.Model(4), full, ts.parse("NE & geq(x y, 6)"))
    assert sorted(witness.rows) == sorted(full.rows)[:6]
    assert len(calls) <= 20


def test_witness_search_stops_when_a_union_closed_formula_has_no_greatest_subteam(
        monkeypatch):
    """Binary totality is upward closed, so its greatest satisfying
    subteam of a team is the whole team or none.  On the 16 rows over
    (x, y, z) at |M| = 3 whose (x, y) pairs miss (2, 2), one evaluation on
    the team shows there is none: the search yields no candidates, where
    it used to decide all 65,536 subteams."""
    sig = ts.Signature({"R": 2})
    spec = ts.DependencySpec("tot", 2, ts.parse("forall a forall b R(a, b)", sig),
                             claimed_upward_closed="yes")
    reg = ts.EMPTY_REGISTRY.register(spec)
    calls = []
    evaluate = ts.Evaluator._eval

    def counting_eval(self, *args):
        calls.append(None)
        return evaluate(self, *args)

    monkeypatch.setattr(ts.Evaluator, "_eval", counting_eval)
    rows = [(x, y, z) for x, y in product(range(3), repeat=2) if (x, y) != (2, 2)
            for z in range(2)]
    t = ts.Team(("x", "y", "z"), rows)
    assert len(t) == 16
    f = ts.parse("D:tot(x y)")
    assert ts.minimal_satisfying_subteam(ts.Model(3), t, f, reg) is None
    assert len(calls) <= 2


def test_witness_order_survives_a_warm_evaluator():
    """Rows get their numbers in the order an evaluator meets them; the
    witness search still takes the sorted-row order, so an evaluator that
    met the rows in reverse finds the witness a fresh one finds."""
    from teamsem.analysis import _first_witness

    m = ts.Model(2)
    full = team(("x", "y"), (0, 0), (0, 1), (1, 0), (1, 1))
    for text in ("ncon(x)", "NE", "ncon(x) & ncon(y)", "ndep(x; y) | NE"):
        f = ts.parse(text)
        warm = ts.Evaluator(m)
        for row in sorted(full.rows, reverse=True):
            warm.evaluate(full.with_rows([row]), f)
        want = ts.minimal_satisfying_subteam(m, full, f)
        assert _first_witness(warm, full, f) == want, text
        if text == "ncon(x)":  # bit order would give (0, 1), (1, 1)
            assert want == team(("x", "y"), (0, 0), (1, 0))
