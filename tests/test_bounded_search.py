"""The bounded subteam search of the lax rules on formulas that are not
union closed, against the literal oracle: ``Evaluator._exists_sat`` finds a
team Y between random forced rows and an upper bound (nonempty when asked)
iff some such Y satisfies the formula, and ``Evaluator._satisfying``
yields exactly the Y that do.  Seeded formulas over ``dep``,
``const``, ``count_eq``, ``inc``, ``NE`` and literals, with ``&``, ``|``
and ``exists``, on teams over (x, y) of at most 5 rows at |M| <= 3, at most
4 rows at |M| = 2 under a quantifier.  tests/test_union_closed.py checks
the union-closed formulas."""

import random
from itertools import product

import teamsem as ts
from teamsem.evaluator import union_closed
from naive import _subteams, naive_eval

SIG = ts.Signature({"P": 1})


def _leaf(rng, scope: tuple[str, ...]) -> str:
    a, b = rng.sample(scope, 2)
    return rng.choice([f"dep({a}; {b})", f"const({a})", f"count_eq({a}, 2)",
                       f"count_eq({a}, 1)", f"inc({a}; {b})", "NE", f"{a} = {b}",
                       f"{a} != {b}", f"P({a})", f"!P({b})"])


def _formula(rng, scope: tuple[str, ...], depth: int, quantify: bool) -> str:
    """A random formula over the leaves with & and |, and, if quantify, at
    most one exists z, with depth levels of these below the top, fewer at
    random."""
    pick = rng.randrange(3 if quantify else 2) if depth else None
    if pick is None or (depth < 2 and rng.random() < 0.3):
        return _leaf(rng, scope)
    if pick == 2:
        return f"exists z ({_formula(rng, scope + ('z',), depth - 1, False)})"
    left, right = (_formula(rng, scope, depth - 1, quantify) for _ in "lr")
    return f"({left}) {'&|'[pick]} ({right})"


def test_bounded_search_against_naive_evaluator():
    rng = random.Random(2021)
    verdicts, tried = [], 0
    while tried < 400:
        quantified = rng.random() < 0.3
        f = ts.parse(_formula(rng, ("x", "y"), 2, quantified), SIG)
        if union_closed(f, ts.EMPTY_REGISTRY, 3):
            continue
        tried += 1
        size = 2 if quantified else rng.choice((2, 3))
        m = ts.Model(size, {"P": {(i,) for i in range(size) if rng.random() < 0.5}},
                     SIG)
        rows = list(product(range(size), repeat=2))
        t = ts.Team(("x", "y"), rng.sample(rows, min(len(rows), rng.randint(
            0, 4 if quantified else 5))))
        upper = sorted(rng.sample(sorted(t.rows), rng.randint(0, len(t))))
        lower = sorted(rng.sample(upper, rng.randint(0, min(2, len(upper)))))
        ev = ts.Evaluator(m)
        u, _ = ev._team(t, f)
        up, low = u.mask(upper), u.mask(lower)
        between = [s for s in _subteams(t.with_rows(upper))
                   if set(lower) <= s.rows and naive_eval(m, s, f)]
        stream = {frozenset(u.rows_of(sub))
                  for sub in ev._satisfying(f, u, ev._top(f, u, up), low)}
        assert {s.rows for s in between} == stream, \
            (str(f), size, sorted(m.interp["P"]), upper, lower)
        for nonempty in (False, True):
            want = any(s.rows or not nonempty for s in between)
            assert ev._exists_sat(f, u, up, low, nonempty) == want, \
                (str(f), size, sorted(m.interp["P"]), upper, lower, nonempty)
            verdicts.append(want)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100
