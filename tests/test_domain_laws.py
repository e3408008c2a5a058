"""Renaming the domain as a law, tested with hypothesis: lax team semantics
has no constants, and its atoms, custom atoms and brackets are invariant
under isomorphism, so permuting a model's domain, its relations with it,
together with a team's values keeps every verdict.  ``equivalent`` rests on
this when it decides one team per automorphism orbit.  The teams reach 20
rows, past the reach of ``tests/naive.py``.  Skipped where hypothesis is
not installed."""

from itertools import product

import pytest

import teamsem as ts

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SIG = ts.Signature({"P": 1, "R": 2})
REGISTRY = ts.EMPTY_REGISTRY.register(ts.DependencySpec(
    "pair", 1, ts.parse("exists a exists b (a != b & R(a) & R(b))", ts.Signature({"R": 1})))
).register(ts.DependencySpec(
    "sym", 2, ts.parse("forall a forall b (!R(a, b) | R(b, a))", ts.Signature({"R": 2}))))

#: formulas over (x, y): literals, atoms, custom atoms and brackets
LEAVES = ["x = y", "x != y", "P(x)", "!P(y)", "R(x, y)", "!R(y, x)", "NE",
          "dep(x; y)", "const(x)", "ncon(y)", "geq(x y, 3)", "count_eq(x, 2)",
          "inc(x; y)", "D:pair(x)", "D:sym(x y)", "[exists a R(a, a)]",
          "[forall a exists b (R(a, b) & P(b))]"]
#: antecedents of ->, whose satisfying subteams stay few on 20 rows
ANTECEDENTS = ["x = y", "const(x)", "x = y & P(x)"]
BINARY = ["{} & {}", "{} | {}", "{} || {}"]
UNARY = ["~{}", "<>{}", "exists y {}", "forall y {}", "exists x {}"]


def formulas():
    leaf = st.sampled_from(LEAVES)
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.sampled_from(BINARY), sub, sub).map(
            lambda t: t[0].format(f"({t[1]})", f"({t[2]})")),
        st.tuples(st.sampled_from(UNARY), sub).map(lambda t: t[0].format(f"({t[1]})")),
        st.tuples(st.sampled_from(ANTECEDENTS), sub).map(
            lambda t: f"({t[0]}) -> ({t[1]})")), max_leaves=4)


def _verdict(model, team, f):
    """The verdict, or the EvalError's message when a cap stops it."""
    try:
        return ts.evaluate(model, team, f, REGISTRY)
    except ts.EvalError as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(text=formulas(), data=st.data())
def test_permuting_the_domain_keeps_the_verdict(text, data):
    """A formula of up to four leaves, with ->, <>, brackets and custom
    atoms, on a team of up to 20 rows over (x, y) at |M| <= 5 gets the same
    verdict after the domain, the model's relations and the team's values
    are renamed by one permutation."""
    f = ts.parse(text, SIG)
    size = data.draw(st.sampled_from((2, 3, 4, 5, 5)))
    cells = list(product(range(size), repeat=2))
    model = ts.Model(size, {
        "P": data.draw(st.sets(st.sampled_from([(i,) for i in range(size)]))),
        "R": data.draw(st.sets(st.sampled_from(cells)))}, SIG)
    rows = data.draw(st.permutations(cells))[:data.draw(st.sampled_from(range(21)))]
    team = ts.Team(("x", "y"), rows)
    perm = data.draw(st.permutations(range(size)))
    renamed = ts.Model(size, {name: {tuple(perm[e] for e in t) for t in tuples}
                              for name, tuples in model.interp.items()}, SIG)
    moved = ts.Team(("x", "y"), [tuple(perm[e] for e in row) for row in rows])
    assert _verdict(renamed, moved, f) == _verdict(model, team, f)
