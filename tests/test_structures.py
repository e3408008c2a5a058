"""Models, teams, Tarski evaluation, enumerators, and the file formats."""

from itertools import permutations, product

import pytest

import teamsem as ts
from teamsem.structures import all_assignment_rows


def team_xy(*rows):
    return ts.Team(("x", "y"), rows)


def test_tarski_basics():
    sig = ts.Signature({"R": 1})
    m = ts.Model(2, {"R": {(0,)}}, sig)
    assert ts.tarski_eval(m, {"x": 0}, ts.parse("R(x)", sig))
    assert not ts.tarski_eval(m, {"x": 1}, ts.parse("R(x)", sig))
    assert not ts.tarski_eval(m, {"x": 0, "y": 0}, ts.parse("x != y"))
    assert ts.tarski_eval(m, {"x": 0}, ts.parse("exists y (y != x)"))
    with pytest.raises(ValueError):
        ts.tarski_eval(m, {}, ts.NE)
    with pytest.raises(ValueError):
        ts.tarski_eval(m, {}, ts.parse("x = x"))  # unassigned variable


def test_model_validation():
    with pytest.raises(ValueError):
        ts.Model(0)
    sig = ts.Signature({"R": 2})
    with pytest.raises(ValueError):
        ts.Model(2, {"R": {(0,)}}, sig)  # wrong arity
    with pytest.raises(ValueError):
        ts.Model(2, {"R": {(0, 5)}}, sig)  # outside domain
    with pytest.raises(ValueError):
        ts.Model(2, {"Q": set()}, sig)  # undeclared relation
    m = ts.Model(2, signature=sig)
    assert m.interp["R"] == frozenset()


def test_team_canonical_order_and_equality():
    a = ts.Team(("y", "x"), [(1, 0), (0, 0)])
    b = ts.Team(("x", "y"), [(0, 1), (0, 0)])
    assert a == b and hash(a) == hash(b)
    assert a.variables == ("x", "y")
    assert list(b.assignments()) == [{"x": 0, "y": 0}, {"x": 0, "y": 1}]
    with pytest.raises(ValueError):
        ts.Team(("x", "x"), [])
    with pytest.raises(ValueError):
        ts.Team(("x",), [(0, 1)])


def test_project():
    t = team_xy((0, 1), (0, 0))
    assert ts.project(t, ("x",)) == {(0,)}
    assert ts.project(t, ("x", "y")) == {(0, 1), (0, 0)}
    assert ts.project(ts.Team(("x", "y")), ("x",)) == set()
    assert ts.project(t, ("y", "x")) == {(1, 0), (0, 0)}
    with pytest.raises(ValueError):
        ts.project(t, ("z",))


def test_restrict():
    m = ts.Model(2)
    t = team_xy((0, 1), (0, 0))
    assert ts.restrict(m, t, ts.TOP) == t
    assert ts.restrict(m, t, ts.parse("x != x")).is_empty()
    assert ts.restrict(m, t, ts.parse("x = y")) == team_xy((0, 0))
    with pytest.raises(ValueError):
        ts.restrict(m, t, ts.NE)
    with pytest.raises(ValueError):
        ts.restrict(m, t, ts.parse("v1 = x"))  # variable outside the team


def test_restrict_partitions_by_dual_negation():
    m = ts.Model(3)
    theta = ts.parse("exists z (z = x & z != y)")
    for team in (team_xy(), team_xy((0, 1)), team_xy((0, 0), (1, 2), (2, 2))):
        yes = ts.restrict(m, team, theta)
        no = ts.restrict(m, team, ts.dual_negate(theta))
        assert yes.rows | no.rows == team.rows
        assert not (yes.rows & no.rows)


def test_universal_extend():
    m = ts.Model(3)
    empty = ts.Team(("x",))
    assert ts.universal_extend(m, empty, "q").is_empty()
    assert ts.universal_extend(m, empty, "q").variables == ("q", "x")
    start = ts.Team((), [()])
    ext = ts.universal_extend(m, start, "v")
    assert len(ext) == 3 and ext.variables == ("v",)
    # overwrite an existing column
    t = team_xy((0, 1), (2, 2))
    over = ts.universal_extend(m, t, "y")
    assert over.variables == ("x", "y")
    assert len(over) <= len(t) * m.size
    assert ts.project(over, ("y",)) == {(0,), (1,), (2,)}


def test_extension_projection_full():
    m = ts.Model(3)
    for t in (team_xy((0, 0)), team_xy((0, 1), (2, 0))):
        ext = ts.universal_extend(m, t, "q")
        assert ts.project(ext, ("q",)) == {(v,) for v in range(3)}


def test_enumerate_teams_counts_and_order():
    m2 = ts.Model(2)
    teams = list(ts.enumerate_teams(m2, ("x",)))
    assert len(teams) == 4
    assert teams[0].is_empty()
    assert len(set(teams)) == 4  # no duplicates
    assert len(list(ts.enumerate_teams(m2, ("x", "y")))) == 16
    assert len(list(ts.enumerate_teams(ts.Model(3), ("x",)))) == 8
    # empty variable set: the empty team and the one-empty-assignment team
    zero = list(ts.enumerate_teams(m2, ()))
    assert zero == [ts.Team(()), ts.Team((), [()])]
    with pytest.raises(ts.EnumerationLimit):
        list(ts.enumerate_teams(ts.Model(3), ("x", "y", "z")))


def test_enumerate_models_counts():
    assert len(list(ts.enumerate_models(ts.EMPTY_SIGNATURE, 3))) == 1
    unary = ts.Signature({"P": 1})
    assert len(list(ts.enumerate_models(unary, 2))) == 4
    binary = ts.Signature({"R": 2})
    assert len(list(ts.enumerate_models(binary, 2))) == 16
    # isomorphism reduction keeps one model per orbit
    reduced = list(ts.enumerate_models(unary, 2, up_to_isomorphism=True))
    assert len(reduced) == 3  # empty, singleton, full


def by_rank(items):
    """Every subset of items, the k-th holding items[i] for each set bit i
    of k."""
    return [tuple(items[i] for i in range(len(items)) if k >> i & 1)
            for k in range(1 << len(items))]


def literal_models(sig, size):
    """Every model of the signature and size, built by the public
    constructor, in the enumerator's order."""
    names = sig.names
    spaces = [by_rank(all_assignment_rows(size, sig.arity(n))) for n in names]
    return [ts.Model(size, dict(zip(names, combo)), sig) for combo in product(*spaces)]


@pytest.mark.parametrize("size, variables", [
    (2, ()), (3, ()), (3, ("x",)), (4, ("x",)), (2, ("y", "x")), (3, ("x", "y")),
    (4, ("y", "x")), (2, ("z", "x", "y"))])
def test_enumerate_teams_match_the_public_constructor(size, variables):
    """The k-th team holds the rows of the set bits of k over the assignment
    rows, equal, and hashing equal, to the team the public constructor
    builds; (x, y) at |M| = 4 reaches the 16-row cap."""
    vs = tuple(sorted(variables))
    subsets = by_rank(all_assignment_rows(size, len(vs)))
    teams = list(ts.enumerate_teams(ts.Model(size), variables))
    assert len(teams) == len(subsets)
    for team, rows in zip(teams, subsets):
        want = ts.Team(vs, rows)
        assert team == want and hash(team) == hash(want)
        assert team.variables == vs


@pytest.mark.parametrize("arities, sizes", [
    ({"P": 1}, range(1, 5)), ({"R": 2}, range(1, 4)), ({"P": 1, "Q": 1}, range(1, 5))])
def test_enumerate_models_match_the_public_constructor(arities, sizes):
    sig = ts.Signature(arities)
    for size in sizes:
        assert list(ts.enumerate_models(sig, size)) == literal_models(sig, size)


@pytest.mark.parametrize("arities, sizes", [
    ({"P": 1}, range(1, 5)), ({"R": 2}, range(1, 4)),
    ({"P": 1, "Q": 1}, range(1, 5)), ({"E": 0, "P": 1}, range(1, 4))])
def test_isomorphism_representatives_are_lex_least(arities, sizes):
    """up_to_isomorphism keeps exactly the models whose per-relation sorted
    tuples are lex-least among their images under all n! permutations, in
    the order of the full enumeration."""
    sig = ts.Signature(arities)

    def image(model, perm):
        return tuple(tuple(sorted(tuple(perm[e] for e in t) for t in model.interp[n]))
                     for n in sig.names)

    for size in sizes:
        want = [m for m in literal_models(sig, size)
                if image(m, range(size)) == min(image(m, perm)
                                                for perm in permutations(range(size)))]
        assert list(ts.enumerate_models(sig, size, up_to_isomorphism=True)) == want


def test_assignment_rows_deterministic():
    assert all_assignment_rows(2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_model_text_round_trip():
    sig = ts.Signature({"R": 2, "P": 1})
    m = ts.Model(3, {"R": {(0, 1), (2, 2)}, "P": {(1,)}}, sig)
    text = ts.model_to_text(m)
    assert ts.parse_model_text(text, sig) == m
    assert "domain 3" in text and "rel R arity 2" in text and "end" in text
    with pytest.raises(ValueError):
        ts.parse_model_text("rel R arity 2\nend\n", sig)
    with pytest.raises(ValueError):
        ts.parse_model_text("domain 2\nrel Q arity 1\nend\n", sig)


def test_team_text_round_trip():
    t = team_xy((0, 1), (2, 0))
    text = ts.team_to_text(t)
    assert ts.parse_team_text(text) == t
    assert text.splitlines()[0] == "vars x y"
    empty = ts.Team(("x",))
    assert ts.parse_team_text(ts.team_to_text(empty)) == empty
    # zero-variable teams write '-' for the empty assignment
    sentence = ts.Team((), [()])
    assert ts.parse_team_text(ts.team_to_text(sentence)) == sentence
    with pytest.raises(ValueError):
        ts.parse_team_text("vars x\n0 1\n")
