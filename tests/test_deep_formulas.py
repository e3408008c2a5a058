"""Deep formulas: long | chains, chains of mixed sides included, and trees
of &, || and ~ nested any way evaluate without recursing down them, a
split of more than a thousand rows evaluates without recursing per row,
long quantifier prefixes parse and print without recursing down the
prefix, a long prefix of constancy-witnessed existentials evaluates
quickly, a prefix of dependence-witnessed ones keeps its teams small, an
existential over dep(x; z) on 60 rows searches functions of x, a
subformula shared by many parents is walked once, the weakenings of
3,000-deep nests are made on first read without recursing, and the command
line answers anything deeper with exit code 2 and a one-line message, never a
traceback read as "false"."""

import random
from itertools import product

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


def const_chain(sides: int) -> str:
    """|X(x)| <= sides, as the paper writes it: a splitting disjunction of
    sides constancy atoms."""
    return " | ".join(["const(x)"] * sides)


def test_600_fold_split_chain(files, capsys):
    chain = ts.parse(const_chain(600))
    assert ts.evaluate(ts.Model(3), ts.Team(("x",), [(0,), (1,), (2,)]), chain)
    (files / "x3.team").write_text("vars x\n0\n1\n2\n")
    code = main(["eval", const_chain(600), "--model", str(files / "m3.model"),
                 "--team", str(files / "x3.team")])
    assert (code, capsys.readouterr()) == (0, ("true\n", ""))


@pytest.mark.parametrize("formula", [
    " | ".join(["NE"] * 600),
    " | ".join(["exists z dep(x; z)"] * 200),
], ids=["upward", "downward"])
def test_long_split_chains_of_closed_sides(files, capsys, formula):
    """Chains whose sides are all upward or all downward closed, but not
    coherent, are decided in one pass or one row-by-row split."""
    (files / "x3.team").write_text("vars x\n0\n1\n2\n")
    code = main(["eval", formula, "--model", str(files / "m3.model"),
                 "--team", str(files / "x3.team")])
    assert (code, capsys.readouterr()) == (0, ("true\n", ""))


def _left_chain(side: ts.Formula, n: int) -> ts.Formula:
    f = side
    for _ in range(n - 1):
        f = ts.TensorOr(f, side)
    return f


def _right_chain(side: ts.Formula, n: int, last: ts.Formula) -> ts.Formula:
    f = last
    for _ in range(n):
        f = ts.TensorOr(side, f)
    return f


MIXED_CHAINS = {
    "inc": lambda n: _left_chain(ts.parse("inc(x; x)"), n),
    "exists": lambda n: _right_chain(ts.parse("exists z dep(x; z)"), n, ts.NE),
    "first-order": lambda n: _right_chain(ts.parse("x = x"), n, ts.NE),
}


@pytest.mark.parametrize("build", MIXED_CHAINS.values(), ids=MIXED_CHAINS.keys())
def test_long_mixed_split_chains(build):
    """Chains mixing sides of different kinds, nested either way, are
    decided from their flattened sides, so 600 of them do not recurse; four
    agree with the oracle."""
    team = ts.Team(("x",), [(0,), (1,), (2,)])
    model = ts.Model(3)
    assert ts.evaluate(model, team, build(600))
    short = build(4)
    for rows in ([], [(0,)], [(0,), (2,)], team.rows):
        sub = team.with_rows(rows)
        assert ts.evaluate(model, sub, short) == naive_eval(model, sub, short)


def test_600_fold_inc_chain_on_the_command_line(files, capsys):
    (files / "x3.team").write_text("vars x\n0\n1\n2\n")
    code = main(["eval", " | ".join(["inc(x; x)"] * 600), "--model",
                 str(files / "m3.model"), "--team", str(files / "x3.team")])
    assert (code, capsys.readouterr()) == (0, ("true\n", ""))


def test_long_downward_chain_one_side_short():
    """199 copies of a side that no row passes beside one constancy side:
    three values cannot be split, and the copies are tried once per row."""
    never = "exists z (const(z) & z = x & z != x)"
    f = ts.parse(" | ".join([never] * 199 + ["exists z (const(z) & z = x)"]))
    team = ts.Team(("x",), [(0,), (1,), (2,)])
    assert not ts.evaluate(ts.Model(3), team, f)
    assert ts.evaluate(ts.Model(3), team.with_rows([(1,)]), f)


def test_300_deep_const_prefix_is_quick():
    """Each exists p_i over a body that forces const(p_i) tries one value
    per witness, so the nested teams keep their three rows."""
    import time

    n = 300
    text = (" ".join(f"exists p{i}" for i in range(n)) + " ("
            + " & ".join(f"const(p{i})" for i in range(n)) + " & x = x)")
    f = ts.parse(text)
    start = time.perf_counter()
    assert ts.evaluate(ts.Model(3), ts.Team(("x",), [(0,), (1,), (2,)]), f)
    assert time.perf_counter() - start < 5


def test_deep_dependence_prefix_keeps_three_rows():
    """Each exists p_i over a body that forces dep(x; p_i) on the three
    classes of x extends them by the first value each admits, so the nested
    teams keep their three rows.  Extending every value before the search
    grows the team at level i to 3**(i + 1) rows."""
    import time

    n = 10
    text = (" ".join(f"exists p{i}" for i in range(n)) + " ("
            + " & ".join(f"dep(x; p{i})" for i in range(n)) + " & x = x)")
    ev = ts.Evaluator(ts.Model(3))
    start = time.perf_counter()
    assert ev.evaluate(ts.Team(("x",), [(0,), (1,), (2,)]), ts.parse(text))
    assert time.perf_counter() - start < 5
    assert max(len(u.rows) for u in ev._universes.values()) == 3


def _planted_exdep_team(rng, n: int, nrows: int, xs: int) -> ts.Team:
    """nrows rows over (w, x, y) at |M| = n on which x takes xs values and y
    every value."""
    xvals = rng.sample(range(n), xs)
    rows = {(rng.randrange(n), xvals[y % xs], y) for y in range(n)}
    pool = [r for r in product(range(n), repeat=3) if r[1] in xvals and r not in rows]
    rows |= set(rng.sample(pool, nrows - len(rows)))
    return ts.Team(("w", "x", "y"), rows)


@pytest.mark.parametrize("xs", [5, 6])
def test_60_row_dependence_witness_searches_functions(monkeypatch, xs):
    """exists z (dep(x; z) & inc(y; z)) holds iff a function of x covers
    every y value, that is iff |X(x)| >= |X(y)|.  Its witnesses are the
    functions from the team's x values to z values, so on 60 rows at
    |M| = 6 with 5 x values the false case tries at most 6**5 of them.  The
    downward-part prune asks dep(x; z) once per partial function, 6 + 6**2
    + ... + 6**5 times, and the inc checks mostly hit the memo; a set of z
    values per row took 98,202 kernel calls here."""
    kernels = []
    kernel = ts.Evaluator._kernel

    def spy(self, *args):
        kernels.append(args)
        return kernel(self, *args)

    monkeypatch.setattr(ts.Evaluator, "_kernel", spy)
    team = _planted_exdep_team(random.Random(60), 6, 60, xs)
    assert len(team) == 60 and len({row[2] for row in team.rows}) == 6
    f = ts.parse("exists z (dep(x; z) & inc(y; z))")
    assert ts.evaluate(ts.Model(6), team, f) is (xs == 6)
    assert len(kernels) <= sum(6 ** i for i in range(1, 6)) + 1000


def test_downward_split_of_1040_rows():
    """A downward | split places one row per level of its search without
    recursing: 1,040 rows, two per value of x, go to two sides that each
    need one row per value."""
    import time

    n = 520
    side = "(dep(x; y) || const(y))"
    team = ts.Team(("x", "y"), [(a, b) for a in range(n) for b in range(2)])
    start = time.perf_counter()
    assert ts.evaluate(ts.Model(n), team, ts.parse(f"{side} | {side}"))
    assert time.perf_counter() - start < 5


def test_split_decides_a_closed_envelope_once(monkeypatch):
    """T, the envelope of every dep and const side, is a sentence: the
    evaluator decides it once, not once per row of the team."""
    from teamsem import evaluator

    calls = []
    tarski_eval = evaluator.tarski_eval

    def spy(model, s, f):
        calls.append(f)
        return tarski_eval(model, s, f)

    monkeypatch.setattr(evaluator, "tarski_eval", spy)
    n = 20
    side = "(dep(x; y) || const(y))"
    team = ts.Team(("x", "y"), [(a, b) for a in range(n) for b in range(2)])
    assert ts.evaluate(ts.Model(n), team, ts.parse(f"{side} | {side}"))
    assert calls == [ts.TOP]


def test_depth_first_search_5000_levels_deep():
    """The evaluator's backtracking driver: 5,000 levels with one choice
    each but two at the last two levels, so the search backtracks through
    four leaves, in order, and undoes every in-place step when it fails."""
    from teamsem.evaluator import _depth_first

    depth, leaves = 5000, []

    def step(level, path):
        for bit in (0, 1) if level >= depth - 2 else (0,):
            path.append(bit)
            yield path
            path.pop()

    def done(path):
        leaves.append(tuple(path[-2:]))
        return path[-2:] == [1, 1]

    path = []
    assert _depth_first(path, depth, step, done)
    assert leaves == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(path) == depth and not any(path[:-2])
    path = []
    assert not _depth_first(path, depth, step, lambda p: False)
    assert path == []
    assert _depth_first("root", 0, step, lambda state: state == "root")


def test_short_split_chain_counts_values():
    team = ts.Team(("x",), [(0,), (1,), (2,), (3,)])
    assert not ts.evaluate(ts.Model(4), team, ts.parse(const_chain(3)))
    assert ts.evaluate(ts.Model(4), team, ts.parse(const_chain(4)))


def test_split_chain_one_side_short_is_quick():
    """Ten values against nine identical sides: the sides are
    interchangeable, so the colouring tries one unused side per row
    instead of all 9! orders."""
    import time

    team = ts.Team(("x",), [(i,) for i in range(10)])
    start = time.perf_counter()
    assert not ts.evaluate(ts.Model(10), team, ts.parse(const_chain(9)))
    assert time.perf_counter() - start < 0.5


def test_5000_quantifier_prefix_parses_and_prints(capsys):
    text = " ".join(f"forall v{i}" for i in range(5000)) + " dep(x; y)"
    f = ts.parse(text)
    assert ts.parse(ts.pretty(f)) is f
    assert main(["parse", text]) == 0
    assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("name,formula", [
    ("dnf", " & ".join(["x = y", "NE"] * 1500)),
    ("dnf", " || ".join(["x = y"] * 3000)),
    ("brackets", " & ".join(["[forall z (z = z)]"] * 3000)),
    ("negelim", "~(" + " || ".join(["x = y", "NE"] * 1500) + ")"),
], ids=["dnf-and", "dnf-or", "brackets", "negelim"])
def test_3000_deep_rewrites(capsys, name, formula):
    """The ||-rewriters rebuild a formula without recursing down it."""
    assert main(["transform", name, formula]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out


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


IMPL_CHAIN = " -> ".join(["x = y"] * 3000)


@pytest.mark.parametrize("args,expected", [
    (["parse", IMPL_CHAIN], IMPL_CHAIN),
    (["parse", "(" * 3000 + "x = y" + ")" * 3000], "x = y"),
    (["parse", "[" + "(" * 3000 + "forall x (x = x)" + ")" * 3000 + "]"],
     "[forall x (x = x)]"),
    (["transform", "flatten", IMPL_CHAIN], " | ".join(["x != y"] * 2999) + " | x = y"),
], ids=["impl-chain", "parentheses", "bracket", "flatten-impl-chain"])
def test_3000_deep_implications_and_parentheses(capsys, args, expected):
    """A -> chain and nested parentheses parse, print and flatten without
    recursing down them."""
    assert main(args) == 0
    assert capsys.readouterr() == (expected + "\n", "")


def test_implication_chains_nest_right():
    f = ts.parse(IMPL_CHAIN)
    for _ in range(2999):
        assert isinstance(f, ts.IntImpl) and not isinstance(f.left, ts.IntImpl)
        f = f.right
    assert f == ts.parse("x = y")
    mixed = ts.parse("x = y -> NE & x != y -> (x = x -> NE) -> NE | NE")
    assert mixed == ts.IntImpl(ts.parse("x = y"), ts.IntImpl(
        ts.parse("NE & x != y"),
        ts.IntImpl(ts.parse("(x = x -> NE)"), ts.parse("NE | NE"))))
    assert ts.parse(ts.pretty(mixed)) is mixed
    assert ts.pretty(mixed) == "x = y -> NE & x != y -> (x = x -> NE) -> NE | NE"


def _nested(op: str, n: int, right: bool) -> str:
    """n copies of x = y joined by op, parenthesised to nest right (each
    right operand a chain) or left (each left operand a chain)."""
    text = "x = y"
    for _ in range(n - 1):
        text = f"x = y {op} ({text})" if right else f"({text}) {op} x = y"
    return text


@pytest.mark.parametrize("op,right", [("&", True), ("|", True), ("||", True),
                                      ("->", False)],
                         ids=["and-right", "tensor-right", "or-right", "impl-left"])
def test_3000_deep_counter_nested_chains_parse_and_print(capsys, op, right):
    """A chain nested the other way from how its operator groups is walked
    off its spine without recursing, by the printer and the evaluator."""
    text = _nested(op, 3000, right)
    assert main(["parse", text]) == 0
    out, err = capsys.readouterr()
    assert err == "" and ts.parse(out) is ts.parse(text)


def test_3000_deep_right_nested_conjunction_evaluates():
    f = ts.parse(_nested("&", 3000, right=True))
    model = ts.Model(2)
    assert ts.evaluate(model, ts.Team(("x", "y"), [(0, 0), (1, 1)]), f)
    assert not ts.evaluate(model, ts.Team(("x", "y"), [(0, 0), (0, 1)]), f)


@pytest.mark.parametrize("depth", [3000, 3001])
def test_3000_deep_contradictory_negation_evaluates(files, capsys, depth):
    """~ is decided in the loop that decides & and ||, so a 3,000-deep
    stack of them does not recurse: an even stack over NE holds exactly on
    a nonempty team, an odd one exactly on the empty team."""
    text = "~" * depth + "NE"
    f = ts.parse(text)
    even = depth % 2 == 0
    model = ts.Model(3)
    assert ts.evaluate(model, ts.Team(("x",), [(0,)]), f) is even
    assert ts.evaluate(model, ts.Team(("x",)), f) is not even
    (files / "one.team").write_text("vars x\n0\n")
    (files / "empty.team").write_text("vars x\n")
    for team, holds in (("one.team", even), ("empty.team", not even)):
        code = main(["eval", text, "--model", str(files / "m3.model"),
                     "--team", str(files / team)])
        assert (code, capsys.readouterr()) == (
            (0, ("true\n", "")) if holds else (1, ("false\n", "")))


def test_1000_deep_nest_of_and_or_and_double_negation_evaluates():
    """x = y & (x != y || ~~(...)), 1,000 levels over x = y, holds exactly
    on the teams satisfying x = y."""
    text = "x = y"
    for _ in range(1000):
        text = f"x = y & (x != y || ~~({text}))"
    f = ts.parse(text)
    model = ts.Model(2)
    assert ts.evaluate(model, ts.Team(("x", "y"), [(0, 0), (1, 1)]), f)
    assert ts.evaluate(model, ts.Team(("x", "y")), f)
    assert not ts.evaluate(model, ts.Team(("x", "y"), [(0, 0), (0, 1)]), f)


def test_3000_deep_exists_nest_over_ne_evaluates():
    """The greatest satisfying subteam of an upward-closed quantifier comes
    from its rule on the frame list, so a 3,000-deep nest does not recurse."""
    f = ts.parse(" ".join(f"exists v{i}" for i in range(3000)) + " (NE)")
    assert ts.evaluate(ts.Model(2), ts.Team(("x",), [(0,), (1,)]), f)


def test_3000_deep_forall_nest_over_ne_evaluates():
    """A union-closed quantifier holds iff its greatest satisfying subteam
    is the team, and that comes from its rule on the frame list, so a
    3,000-deep forall nest does not recurse."""
    f = ts.parse(" ".join(f"forall v{i}" for i in range(3000)) + " (NE)")
    assert ts.evaluate(ts.Model(2), ts.Team(("x",), [(0,), (1,)]), f)
    assert not ts.evaluate(ts.Model(2), ts.Team(("x",)), f)


def _right_split_nest(n: int) -> str:
    """n copies of x = y & NE joined by |, nested right."""
    text = "x = y & NE"
    for _ in range(n - 1):
        text = f"x = y & NE | ({text})"
    return text


@pytest.mark.parametrize("text", [
    "~" * 3000 + "(x = y & NE)",
    " ".join(f"exists v{i}" for i in range(3000)) + " (x = y & NE)",
    " | ".join(["x = y & NE"] * 3000),
    _right_split_nest(3000),
], ids=["negation", "exists", "split-left", "split-right"])
def test_3000_deep_weakenings_are_made_on_first_read(text):
    """The envelope and the downward part are made the first time they are
    read, by a walk that does not recurse; a second read returns the same
    node, and each weakening is the interned node its printed form parses
    to."""
    f = ts.parse(text)
    for weakening in ("envelope", "downward_part"):
        w = getattr(f, weakening)
        assert getattr(f, weakening) is w
        assert ts.parse(ts.pretty(w)) is w
        assert w.first_order if weakening == "envelope" else w.downward


def _shared_nest(leaf: ts.Formula, depth: int) -> ts.Formula:
    """And(f, f) nested depth times over the leaf: depth + 1 distinct
    nodes, 2**depth occurrences of the leaf."""
    f = leaf
    for _ in range(depth):
        f = ts.And(f, f)
    return f


@pytest.mark.parametrize("name", ["nu_bound", "check_boundedness",
                                  "minimal_satisfying_subteam", "flatten",
                                  "neg_eliminate", "extract_brackets"])
def test_shared_nest_is_walked_once_per_distinct_node(monkeypatch, name):
    """Over a 16-level And(f, f) nest over NE, 17 distinct nodes and 65,536
    occurrences of NE, each pass asks for a node's children at most 100
    times, once per distinct node it walks, and still counts occurrences
    where they matter: the nest's witness bound is 65,536."""
    from teamsem import analysis, evaluator, syntax, transforms
    f = _shared_nest(ts.NE, 16)
    one_row = ts.Team((), [()])
    passes = {
        "nu_bound": lambda: ts.nu_bound(f, 2) == 65536,
        "check_boundedness": lambda: [str(r) for r in ts.check_boundedness(f, 2)] == [
            "|M|=1 |X|=1: witness 1 <= nu 65536 [ok]",
            "|M|=2 |X|=1: witness 1 <= nu 65536 [ok]"],
        "minimal_satisfying_subteam": lambda: ts.minimal_satisfying_subteam(
            ts.Model(2), one_row, f) == one_row,
        "flatten": lambda: ts.flatten(f) is _shared_nest(ts.TOP, 16),
        "neg_eliminate": lambda: ts.neg_eliminate(f) is f,
        "extract_brackets": lambda: ts.extract_brackets(f) == ([], f),
    }
    calls = 0
    children = syntax._children

    def counting(g):
        nonlocal calls
        calls += 1
        return children(g)

    for module in (syntax, evaluator, transforms, analysis):
        if hasattr(module, "_children"):
            monkeypatch.setattr(module, "_children", counting)
    assert passes[name]()
    assert 0 < calls <= 100, calls


def test_shared_bracket_nest_keeps_each_sentence_once():
    """Bracket extraction joins only the sentences its right operand adds,
    so a 22-level And(f, f) nest, with 4,194,304 bracket occurrences, never
    holds a list longer than its one distinct sentence."""
    import tracemalloc

    f = _shared_nest(ts.parse("[exists z (z = z)] & NE"), 22)
    tracemalloc.start()
    try:
        sentences, core = ts.extract_brackets(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sentences == [ts.parse("exists z (z = z)")]
    assert core is _shared_nest(ts.NE, 22)
    assert peak < 4 * 2 ** 20, peak
