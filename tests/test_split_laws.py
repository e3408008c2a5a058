"""The copy rule of the ``|`` split solvers as a law, tested with
hypothesis: copies of one side are interchangeable, so a chain's verdict
does not depend on the order of its sides.  Skipped where hypothesis is
not installed."""

from itertools import product

import pytest

import teamsem as ts
from naive import naive_eval

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


#: sides that neither flatness nor G decides: a chain of coherent ones goes
#: to the colouring, one with a downward side that is not coherent to the
#: downward split
LAW_SIDES = {
    "coherent": ["dep(x; y)", "dep(y; x)", "const(x)", "const(y)",
                 "dep(x; y) & P(y)", "const(x) & x != y"],
    "downward": ["dep(x; y) || const(y)", "x != y -> const(y)", "const(x) || const(y)",
                 "P(x) -> const(y)"],
}


@pytest.mark.parametrize("kind", ["coherent", "downward"])
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_shuffled_sides_keep_the_verdict(kind, data):
    """Copies of one side are interchangeable, so the copy rule that both
    split solvers apply must not depend on where the copies sit: a | chain
    of 2 to 4 sides drawn from two formulas, the first of the kind's list
    and the other a coherent side or of the kind's list, on up to 9 rows
    over (x, y) at |M| <= 3, gets one verdict whatever the order of its
    sides, and on up to 5 rows the oracle's."""
    sig = ts.Signature({"R": 2, "P": 1})
    first = data.draw(st.sampled_from(LAW_SIDES[kind]))
    other = data.draw(st.sampled_from(LAW_SIDES[kind] + LAW_SIDES["coherent"])
                      .filter(lambda text: text != first))
    sides = [ts.parse(text, sig) for text in [first] + data.draw(
        st.lists(st.sampled_from([first, other]), min_size=1, max_size=3))]
    shuffled = data.draw(st.permutations(sides))
    size = data.draw(st.sampled_from((2, 3, 3)))
    cells = list(product(range(size), repeat=2))
    m = ts.Model(size, {"P": data.draw(st.sets(st.sampled_from([(i,) for i in range(size)]))),
                        "R": data.draw(st.sets(st.sampled_from(cells)))}, sig)
    rows = data.draw(st.permutations(cells))[:data.draw(st.integers(size, len(cells)))]
    t = ts.Team(("x", "y"), rows)
    f, g = ts.syntax.or_all(sides), ts.syntax.or_all(shuffled)
    assert ts.Evaluator(m)._split_plan(f)[2] == kind
    want = ts.evaluate(m, t, f)
    assert ts.evaluate(m, t, g) == want
    if len(t) <= 5:
        assert naive_eval(m, t, f) == want
