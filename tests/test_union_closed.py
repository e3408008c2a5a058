"""Greatest satisfying subteams of union-closed formulas, against the
literal oracle: ``Evaluator._largest`` is the union of all satisfying
subteams of the team, or None when none satisfies, and the ``|`` splits
and existentials that decide by it agree with the oracle.  Seeded, at
|M| <= 3 on teams of at most 4 rows, 3 under a quantifier at |M| = 2."""

import random
from itertools import product

import teamsem as ts
from teamsem.evaluator import union_closed
from naive import _subteams, naive_eval

SIG = ts.Signature({"P": 1, "R": 2})
REG = ts.EMPTY_REGISTRY.register(ts.DependencySpec(
    "full", 1, ts.parse("forall a R(a)", ts.Signature({"R": 1})),
    claimed_upward_closed="yes"))


def _leaf(rng, scope: tuple[str, ...]) -> str:
    a, b = rng.sample(scope, 2)
    return rng.choice([f"inc({a}; {b})", f"inc({a}; {b})", f"{a} = {b}",
                       f"{a} != {b}", f"P({a})", f"!R({a}, {b})", "NE",
                       f"geq({a}, 2)", "[exists w P(w)]", f"D:full({a})"])


def _union_closed(rng, scope: tuple[str, ...], depth: int, quantify: bool) -> str:
    """A random formula built from union-closed leaves with &, | and, if
    quantify, one exists or forall over z, with depth levels of these
    below the top, fewer at random."""
    pick = rng.randrange(4 if quantify else 2) if depth else None
    if pick is None or (depth < 2 and rng.random() < 0.3):
        return _leaf(rng, scope)
    if pick >= 2:
        body = _union_closed(rng, scope + ("z",), depth - 1, False)
        return f"{('exists', 'forall')[pick - 2]} z ({body})"
    left, right = (_union_closed(rng, scope, depth - 1, quantify) for _ in "lr")
    return f"({left}) {'&|'[pick]} ({right})"


def _model(rng, size: int) -> ts.Model:
    return ts.Model(size, {
        "P": {(i,) for i in range(size) if rng.random() < 0.6},
        "R": {(i, j) for i in range(size) for j in range(size) if rng.random() < 0.6},
    }, SIG)


def _team(rng, size: int, most: int) -> ts.Team:
    rows = list(product(range(size), repeat=2))
    most = min(most, len(rows))
    return ts.Team(("x", "y"),
                   rng.sample(rows, max(0, most - rng.choice((0, 0, 1, 2, most)))))


def test_largest_is_the_union_of_the_satisfying_subteams():
    """Also: the bounded search of the lax rules finds a satisfying team
    between random forced rows and the team iff G contains the rows."""
    rng = random.Random(1813)
    seen, full, empty, none = set(), 0, 0, 0
    for _ in range(300):
        quantified = rng.random() < 0.4
        f = ts.parse(_union_closed(rng, ("x", "y"), 2, quantified), SIG)
        assert f.union_builtin and union_closed(f, REG, 3), str(f)
        size = 2 if quantified else rng.choice((2, 3))
        m = _model(rng, size)
        t = _team(rng, size, 3 if quantified else 4)
        ev = ts.Evaluator(m, REG)
        u, mask = ev._team(t, f)
        got = ev._largest(f, u, mask)
        sats = [s for s in _subteams(t) if naive_eval(m, s, f, REG)]
        want = sorted(set().union(*(s.rows for s in sats))) if sats else None
        assert (got if got is None else sorted(u.rows_of(got))) == want, \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]), sorted(t.rows))
        lower = sorted(rng.sample(sorted(t.rows), rng.randrange(min(2, len(t)) + 1)))
        nonempty = rng.random() < 0.5
        assert ev._exists_sat(f, u, mask, u.mask(lower), nonempty) == any(
            set(lower) <= s.rows and (s.rows or not nonempty) for s in sats), \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]), sorted(t.rows))
        if want is None:
            none += 1
        else:
            full, empty = full + bool(want), empty + (not want)
        for node in ts.syntax._nodes(f):
            seen.add(node.kind if isinstance(node, ts.Atom) else type(node).__name__)
    assert min(full, empty, none) > 10
    assert seen >= {"inc", "ne", "geq", "custom", "PositiveLiteral",
                    "NegativeLiteral", "Equal", "NotEqual", "Bracket", "And",
                    "TensorOr", "Exists", "Forall"}, seen


def test_rows_drop_until_nothing_changes():
    """Dropping (0, 1), whose x value no y takes, drops the y value 1 that
    (1, 2) needs: G of inc(x; y) is {(2, 2)} alone.  Under forall z with
    R(x, z) failing at x = 1, z = 1, the rows with x = 1 go first; then
    (0, 0) extended by z = 1 breaks inc(z; y), so G is the empty team."""
    ev = ts.Evaluator(ts.Model(3))
    t = ts.Team(("x", "y"), [(0, 1), (1, 2), (2, 2)])
    u, mask = ev._team(t, ts.parse("inc(x; y)"))
    assert u.rows_of(ev._largest(ts.parse("inc(x; y)"), u, mask)) == [(2, 2)]
    ev = ts.Evaluator(ts.Model(2, {"P": set(), "R": {(0, 0), (0, 1), (1, 0)}}, SIG))
    f = ts.parse("forall z (inc(z; y) & R(x, z))", SIG)
    u, mask = ev._team(ts.Team(("x", "y"), [(0, 0), (1, 0), (1, 1)]), f)
    assert ev._largest(f, u, mask) == 0


#: | sides by how the split takes them: first-order, union-closed (each
#: with an envelope that admits only some rows) and neither
FLAT_SIDES = ["x = y", "P(x)", "R(x, y) & x != y", "NE & P(y)"]
UNION_SIDES = ["inc(x; y)", "inc(y; x) & P(x)", "inc(x; y) & x != y",
               "exists z (inc(z; x) & R(z, y))"]
OTHER_SIDES = ["dep(x; y)", "const(x) & R(x, y)", "dep(y; x) & NE & x != y",
               "const(y) & NE"]


def _nest(rng, sides: list) -> ts.Formula:
    """One | tree over the sides in order, split at random points."""
    if len(sides) == 1:
        return sides[0]
    cut = rng.randrange(1, len(sides))
    return ts.TensorOr(_nest(rng, sides[:cut]), _nest(rng, sides[cut:]))


def test_mixed_split_chains_against_the_oracle():
    """| chains of 3 or 4 sides, at least one of each kind in random order
    and nesting, so the rows each side admits must follow it through the
    split's grouping of its sides."""
    rng = random.Random(1814)
    verdicts = []
    for _ in range(200):
        texts = [rng.choice(FLAT_SIDES), rng.choice(UNION_SIDES),
                 rng.choice(OTHER_SIDES)]
        texts.append(rng.choice(FLAT_SIDES + UNION_SIDES + OTHER_SIDES))
        texts = rng.sample(texts, rng.choice((3, 4)))
        f = _nest(rng, [ts.parse(text, SIG) for text in texts])
        size = rng.choice((2, 3))
        m = _model(rng, size)
        t = _team(rng, size, 4)
        want = naive_eval(m, t, f)
        assert ts.evaluate(m, t, f) == want, \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]), sorted(t.rows))
        verdicts.append(want)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


EXISTS_BODIES = ["inc(z; x)", "inc(x; z) & z != y", "inc(z; y) & R(x, z)",
                 "inc(x; z) | inc(y; z)", "(inc(z; x) & NE) | z = y",
                 "inc(z; x) & inc(x; z) & P(z)", "forall w (inc(z; w) | R(z, w))"]


def test_existential_inc_bodies_against_the_oracle():
    """exists z over union-closed bodies decides by whether each row's
    block meets the body's greatest satisfying subteam."""
    rng = random.Random(1815)
    verdicts = []
    for _ in range(200):
        f = ts.parse(f"exists z ({rng.choice(EXISTS_BODIES)})", SIG)
        size = rng.choice((1, 2, 2))
        m = _model(rng, size)
        t = _team(rng, size, 3)
        want = naive_eval(m, t, f)
        assert ts.evaluate(m, t, f) == want, \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]), sorted(t.rows))
        verdicts.append(want)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_3000_deep_union_closed_formulas_decide():
    """A 3,000-deep & chain of inc atoms as a side of a | split, and a
    3,000-deep exists nest over an inc body: their greatest satisfying
    subteams are computed on one list of rules, not by recursion."""
    model = ts.Model(3)
    team = ts.Team(("x", "y"), [(0, 1), (1, 0), (2, 0)])
    chain = ts.parse(" & ".join(["inc(x; y)", "inc(y; x)"] * 1500))
    assert not ts.evaluate(model, team, chain)
    f = ts.TensorOr(chain, ts.parse("dep(x; y)"))
    assert ts.evaluate(model, team, f)
    assert not ts.evaluate(model, team.with_rows([(0, 1), (0, 2), (1, 1)]), f)
    nest = ts.parse(" ".join(f"exists v{i}" for i in range(3000)) + " inc(x; v2999)")
    assert ts.evaluate(model, team, nest)
    nest = ts.parse(" ".join(f"exists v{i}" for i in range(3000))
                    + " (inc(x; y) & inc(y; v2999))")
    assert not ts.evaluate(model, team, nest)
