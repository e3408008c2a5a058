"""Settling the dependence witness search as a law, tested with hypothesis:
a body that forces ``dep(D; v)`` is searched over the candidates X[F/v]
with F a function of D, less the conjuncts on its ``&`` spine that every
such candidate satisfies, so ``exists v`` over such bodies must keep the
oracle's verdict.  Skipped where hypothesis is not installed."""

from itertools import product

import pytest

import teamsem as ts
from naive import naive_eval

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SIG = ts.Signature({"P": 1})
#: the determiners D of v the law draws
DETERMINERS = [(), ("x",), ("y",), ("x", "y")]


def conjuncts(d: tuple[str, ...]) -> tuple[str, list[str], list[str]]:
    """The conjunct forcing dep(d; v); dependences to put beside it: a
    wider one, which every X[F/v] with F a function of d satisfies, and
    ones that must stay (on a variable outside d, of two variables, below
    a ``forall``); and conjuncts that shape the witnesses: the negated
    kinds, ``inc``, ``NE`` and literals."""
    group = " ".join(d)
    outside = next(x for x in ("x", "y", "w") if x not in d)
    deps = [f"dep({' '.join(d + (outside,))}; v)", f"dep({outside}; v)", "const(v w)",
            f"dep({group}; v w)" if d else "const(w v)", "forall w dep(x; v)"]
    shapes = ["ndep(x; v)", "ncon(v)", "inc(x; v)", "inc(v; y)", "NE", "P(v)", "v != x"]
    return f"dep({group}; v)" if d else "const(v)", deps, shapes


def joined(parts: list[str], rng) -> str:
    """The parts joined by ``&`` in a tree of a drawn shape."""
    if len(parts) == 1:
        return parts[0]
    k = rng.randint(1, len(parts) - 1)
    return f"({joined(parts[:k], rng)}) & ({joined(parts[k:], rng)})"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rng=st.randoms(use_true_random=True))
def test_settled_witness_search_against_naive_evaluator(rng):
    """``exists v`` over a body of 3 or 4 conjuncts, nested in any shape,
    agrees with the oracle on teams of at most 4 rows over (w, x, y) at
    |M| <= 3: one conjunct forces ``dep(D; v)``, one is a dependence that
    every candidate satisfies or one that must stay, and one or two shape
    the witnesses.  The draws come from one seeded ``random.Random``, so
    each conjunct is as likely as any other."""
    d = rng.choice(DETERMINERS)
    forcing, deps, shapes = conjuncts(d)
    parts = [forcing, rng.choice(deps), *rng.sample(shapes, rng.randint(1, 2))]
    rng.shuffle(parts)
    f = ts.Exists("v", ts.parse(joined(parts, rng), SIG))
    assert "v" in f.body.determiners
    size = rng.choice((2, 3))
    m = ts.Model(size, {"P": {(i,) for i in range(size) if rng.random() < 0.5}}, SIG)
    t = ts.Team(("w", "x", "y"), rng.sample(list(product(range(size), repeat=3)),
                                            rng.randint(0, 4)))
    assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
        (str(f), size, sorted(m.interp["P"]), sorted(t.rows))
