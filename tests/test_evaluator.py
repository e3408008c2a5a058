"""Lax evaluator semantics: rule-level checks, the naive-evaluator
cross-check, flatness, locality, and the dependency registry."""

import random
from itertools import combinations, product

import pytest

import teamsem as ts
from corpus import FO_CORPUS, all_teams
from naive import naive_eval


def team(vs, *rows):
    return ts.Team(vs, rows)


SENTENCE_TEAM = ts.Team((), [()])


# ---------------------------------------------------------------------------
# direct rule checks


def test_bot_and_top():
    m = ts.Model(2)
    assert ts.evaluate(m, ts.Team(("x",)), ts.BOT)
    assert not ts.evaluate(m, team(("x",), (0,)), ts.BOT)
    assert ts.evaluate(m, ts.Team(("x",)), ts.TOP)
    assert ts.evaluate(m, team(("x",), (0,), (1,)), ts.TOP)


def test_dep_atom():
    m = ts.Model(2)
    f = ts.parse("dep(x; y)")
    assert not ts.evaluate(m, team(("x", "y"), (0, 0), (0, 1)), f)
    assert ts.evaluate(m, team(("x", "y"), (0, 0), (1, 1)), f)
    assert ts.evaluate(m, ts.Team(("x", "y")), f)


def test_all_atom():
    m = ts.Model(3)
    f = ts.parse("all(x)")
    assert ts.evaluate(m, team(("x",), (0,), (1,), (2,)), f)
    assert not ts.evaluate(m, team(("x",), (0,), (1,)), f)


def test_infinity_sentence_false_on_finite_models():
    f = ts.parse("exists x forall y exists z (dep(z; y) & z != x)")
    for n in range(1, 5):
        assert not ts.evaluate(ts.Model(n), SENTENCE_TEAM, f)


def test_custom_matches_builtin_constancy():
    sig = ts.Signature({"R": 1})
    spec = ts.DependencySpec(
        "uconst", 1,
        ts.parse("forall x forall y (!R(x) | !R(y) | x = y)", sig))
    reg = ts.EMPTY_REGISTRY.register(spec)
    f = ts.parse("D:uconst(x)")
    g = ts.parse("const(x)")
    for n in (1, 2, 3):
        m = ts.Model(n)
        for t in ts.enumerate_teams(m, ("x", "y")):
            assert ts.evaluate(m, t, f, reg) == ts.evaluate(m, t, g, reg)


def test_register_binary_functional_notion():
    """A binary notion whose relation pairs each value with at most one
    partner, usable as D:sub(x, y).  Defining sentences are in negation
    normal form, so material implication is spelled with ! and |."""
    sig = ts.Signature({"R": 2})
    spec = ts.DependencySpec(
        "sub", 2,
        ts.parse("forall x forall y (!R(x, y) | x = y)", sig))
    reg = ts.EMPTY_REGISTRY.register(spec)
    f = ts.parse("D:sub(x, y)")
    m = ts.Model(2)
    assert ts.evaluate(m, team(("x", "y"), (0, 0), (1, 1)), f, reg)
    assert not ts.evaluate(m, team(("x", "y"), (0, 1)), f, reg)
    with pytest.raises(ValueError):
        ts.DependencySpec("bad", 2, ts.parse("forall x (R(x, x) -> x = x)", sig))


def test_zeroary_custom_ignores_team():
    spec = ts.DependencySpec("big", 0, ts.parse("exists x exists y (x != y)"))
    reg = ts.EMPTY_REGISTRY.register(spec)
    f = ts.parse("D:big()")
    for n, expected in ((1, False), (2, True), (3, True)):
        m = ts.Model(n)
        assert ts.evaluate(m, ts.Team(("x",)), f, reg) is expected
        assert ts.evaluate(m, team(("x",), (0,)), f, reg) is expected
        assert ts.evaluate(m, SENTENCE_TEAM, f, reg) is expected


def test_bracket_vs_plain_sentence_on_empty_team():
    m = ts.Model(2)
    sentence = ts.parse("exists v1 exists v2 (v1 != v2)")
    empty = ts.Team(("x",))
    # a plain first-order sentence is vacuously satisfied by the empty team,
    # the bracketed form consults the model
    assert ts.evaluate(m, empty, sentence)
    assert ts.evaluate(m, empty, ts.parse("[exists v1 exists v2 (v1 != v2)]"))
    assert not ts.evaluate(ts.Model(1), empty,
                           ts.parse("[exists v1 exists v2 (v1 != v2)]"))


def test_registry_errors():
    with pytest.raises(ts.EvalError):
        ts.evaluate(ts.Model(2), SENTENCE_TEAM, ts.parse("D:nosuch()"))
    spec = ts.DependencySpec("mine", 0, ts.TOP)
    reg = ts.EMPTY_REGISTRY.register(spec)
    with pytest.raises(ValueError):
        reg.register(spec)  # duplicate
    with pytest.raises(ValueError):
        ts.DependencySpec("dep", 1, ts.TOP)  # reserved name
    with pytest.raises(ValueError):
        ts.DependencySpec("bad", 1, ts.NE)  # not first-order
    with pytest.raises(ValueError):
        ts.DependencySpec("bad", 1, ts.parse("x = x"))  # free variable
    sig = ts.Signature({"R": 2})
    with pytest.raises(ValueError):
        ts.DependencySpec("bad", 1, ts.parse("exists x R(x, x)", sig))
    with pytest.raises(ts.EvalError):
        # arity mismatch at use site
        reg2 = ts.EMPTY_REGISTRY.register(ts.DependencySpec(
            "un", 1, ts.parse("exists x R(x)", ts.Signature({"R": 1}))))
        ts.evaluate(ts.Model(2), team(("x", "y"), (0, 0)),
                    ts.parse("D:un(x, y)"), reg2)


def test_variable_outside_domain():
    with pytest.raises(ts.EvalError):
        ts.evaluate(ts.Model(2), ts.Team(("x",)), ts.parse("x = y"))


# ---------------------------------------------------------------------------
# spec'd semantic properties


def test_flatness_on_corpus():
    """First-order satisfaction reduces to pointwise Tarski satisfaction."""
    for sig, text in FO_CORPUS[:12]:
        f = ts.parse(text, sig)
        for size in (1, 2):
            for m in ts.enumerate_models(sig, size):
                for t in ts.enumerate_teams(m, ("x", "y")):
                    got = ts.evaluate(m, t, f)
                    want = all(ts.tarski_eval(m, s, f) for s in t.assignments())
                    assert got == want, (text, size, sorted(t.rows))


def test_first_order_nodes_are_decided_by_flatness(monkeypatch):
    """A first-order exists, forall or | is decided by restricting the
    team by it, never by the lax rules, and agrees with the oracle."""
    sig = ts.Signature({"R": 2})
    lax = [_spy(monkeypatch, name) for name in ("_exists", "_extend", "_tensor_or")]
    for text in ("exists z (R(x, z) | z = y)", "forall z (R(z, x) | x = y)",
                 "R(x, y) | x = y"):
        f = ts.parse(text, sig)
        for size in (1, 2):
            for m in ts.enumerate_models(sig, size):
                for t in ts.enumerate_teams(m, ("x", "y")):
                    assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
                        (text, size, sorted(m.interp["R"]), sorted(t.rows))
    assert [len(calls) for calls in lax] == [0, 0, 0]


def test_dual_negation_pointwise():
    for sig, text in FO_CORPUS[:12]:
        f = ts.parse(text, sig)
        neg = ts.dual_negate(f)
        for size in (1, 2):
            for m in ts.enumerate_models(sig, size):
                for t in ts.enumerate_teams(m, ("x", "y")):
                    got = ts.evaluate(m, t, neg)
                    want = all(not ts.tarski_eval(m, s, f)
                               for s in t.assignments())
                    assert got == want, (text, size, sorted(t.rows))


def test_locality_dummy_column():
    """Adding an unrelated column never changes satisfaction."""
    m = ts.Model(2)
    formulas = [ts.parse(s) for s in (
        "dep(x; y)", "NE", "all(x)", "NE | x = y", "exists z (z != x)",
        "~const(x)", "count_eq(x, 1)", "NE || const(y)")]
    for f in formulas:
        for t in all_teams(m, ("x", "y")):
            padded = ts.Team(
                ("x", "y", "u"),
                [row + (extra,) for row in sorted(t.rows)
                 for extra in range(m.size)])
            assert ts.evaluate(m, t, f) == ts.evaluate(m, padded, f)


EMPTY_TEAM_SATISFIED = [
    "const(x)", "const(x y)", "dep(x; y)", "inc(x; y)", "ind(x; y; y)",
    "geq(x, 0)", "count_eq(x, 0)", "count_neq(x, 1)",
    "x = y", "x != y", "exists z (z = x)", "forall z (z != x)", "T", "bot",
]
EMPTY_TEAM_REJECTED = [
    "NE", "ncon(x)", "ndep(x; y)", "ninc(x; y)", "nind(x; y; y)",
    "all(x)", "geq(x, 1)", "count_eq(x, 1)", "count_neq(x, 0)",
]


def test_empty_team_atom_table():
    m = ts.Model(2)
    empty = ts.Team(("x", "y"))
    for text in EMPTY_TEAM_SATISFIED:
        assert ts.evaluate(m, empty, ts.parse(text)), text
    for text in EMPTY_TEAM_REJECTED:
        assert not ts.evaluate(m, empty, ts.parse(text)), text
    # the complement-counting atoms depend on the model size:
    assert ts.evaluate(m, empty, ts.parse("cocount_eq(x, 2)"))
    assert not ts.evaluate(m, empty, ts.parse("cocount_eq(x, 1)"))
    assert ts.evaluate(m, empty, ts.parse("cocount_neq(x, 0)"))
    assert not ts.evaluate(m, empty, ts.parse("cocount_neq(x, 2)"))


def test_possibly_matches_satisfying_subteams():
    m = ts.Model(2)
    for text in ("x = y", "NE & x = y", "all(x)", "dep(x; y)", "count_eq(x, 2)"):
        f = ts.parse(text)
        g = ts.Possibly(f)
        for t in all_teams(m, ("x", "y")):
            subs = ts.satisfying_subteams(m, t, f)
            assert ts.evaluate(m, t, g) == any(
                not s.is_empty() for s in subs), (text, sorted(t.rows))


def test_satisfying_subteams_examples():
    m = ts.Model(2)
    t = team(("x", "y"), (0, 0), (0, 1), (1, 0))
    # first-order: exactly the subteams of the pointwise restriction
    f = ts.parse("x = y")
    expected = set()
    good = sorted(ts.restrict(m, t, f).rows)
    for k in range(len(good) + 1):
        for combo in combinations(good, k):
            expected.add(t.with_rows(combo))
    assert ts.satisfying_subteams(m, t, f) == expected
    # NE: every non-empty subteam
    subs = ts.satisfying_subteams(m, t, ts.NE)
    assert subs == {s for s in _all_subteams(t) if not s.is_empty()}
    # bot: only the empty team
    assert ts.satisfying_subteams(m, t, ts.BOT) == {t.with_rows(())}


def _all_subteams(t):
    rows = sorted(t.rows)
    return {t.with_rows(c) for k in range(len(rows) + 1)
            for c in combinations(rows, k)}


#: upward-closed formulas, their first-order conjuncts dropping rows from E
UPWARD_TEXTS = [
    "geq(x y, 3) & x != y", "all(x y)", "NE & x = y", "ncon(x) & ncon(y)",
    "ndep(x; y) | geq(y, 2)", "exists z (ncon(z) & z != x)",
    "forall z geq(x z, 3)", "D:some(x) & P(y)", "all(x y) & x != y",
    "(all(x) & !P(y)) | ncon(y)", "ndep(x; y) & P(x) | NE & x = y",
]
UPWARD_SIG = ts.Signature({"P": 1})
UPWARD_REG = ts.EMPTY_REGISTRY.register(ts.DependencySpec(
    "some", 1, ts.parse("exists a R(a)", ts.Signature({"R": 1})), "yes")
).register(ts.DependencySpec(  # some x value with three y values
    "fan", 2, ts.parse("exists a exists b exists c exists d (R(a, b) & R(a, c)"
                       " & R(a, d) & b != c & b != d & c != d)",
                       ts.Signature({"R": 2})), "yes")
).register(ts.DependencySpec(  # a cycle through three values
    "cyc", 2, ts.parse("exists a exists b exists c (R(a, b) & R(b, c) & R(c, a)"
                       " & a != b & b != c & a != c)", ts.Signature({"R": 2})),
    "yes"))


def test_upward_satisfying_subteams_match_the_oracle():
    """satisfying_subteams enumerates only the subteams of the rows passing
    a formula's envelope, from its size bound up; the set is the literal one."""
    from teamsem.evaluator import upward_closed

    for interp in ({(1,)}, {(0,), (1,)}):
        m = ts.Model(2, {"P": frozenset(interp)}, UPWARD_SIG)
        for text in ("x = y", "NE & x = y", "all(x)", "dep(x; y)",
                     "count_eq(x, 2)", *UPWARD_TEXTS):
            f = ts.parse(text, UPWARD_SIG)
            assert text not in UPWARD_TEXTS or upward_closed(f, UPWARD_REG, 2)
            for t in all_teams(m, ("x", "y")):
                want = {s for s in _all_subteams(t)
                        if naive_eval(m, s, f, UPWARD_REG)}
                got = ts.satisfying_subteams(m, t, f, UPWARD_REG)
                assert got == want, (text, sorted(t.rows))


FULL = tuple(product(range(3), repeat=2))
SEVEN = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1))
#: formula, team rows at |M| = 3 with P = {0, 2}: witnesses of several sizes,
#: formulas with forced rows, and no witness although the team satisfies the
#: envelope
WITNESS_CASES = [
    ("geq(x y, 3) & x != y", FULL),
    ("D:fan(x y)", FULL[1:]),
    ("D:cyc(x y)", tuple(r for r in FULL if r != (1, 2))),
    ("geq(x y, 5) & x != y", FULL),
    ("all(x y)", FULL),
    ("all(x) & geq(x y, 5)", SEVEN),
    ("exists z all(x z) & forall z geq(x y z, 15)", SEVEN),
    ("geq(x y, 4) & <>(x = y & !P(x)) & D:cyc(x y)", FULL),
    ("<>(x = y & !P(x)) & D:cyc(x y)", FULL),
    ("all(x y) & x != y", FULL),
    ("forall z geq(x y z, 1) & all(x y) & P(x)", FULL),
]
#: formulas that are not upward closed, some with first-order conjuncts
#: dropping rows from the envelope
OTHER_TEXTS = [
    "dep(x; y) & NE", "dep(x; y) & NE & x != y", "count_eq(x, 2) & P(y)",
    "inc(x; y) & NE & P(x)", "const(x) & geq(y, 2) | x = y", "~NE & x = y",
]


def test_first_witness_matches_the_literal_order():
    """first_satisfying_subteam against the plain search: combinations of
    the sorted rows, sizes ascending, each decided by a fresh evaluator.
    Every formula takes the envelope cut and the size bound, upward closed
    or not.  Each case is also searched by an evaluator that met the rows
    in reverse order, and so are random teams."""
    m = ts.Model(3, {"P": frozenset({(0,), (2,)})}, UPWARD_SIG)
    rng = random.Random(2024)
    cases = [(ts.parse(text, UPWARD_SIG), rows) for text, rows in WITNESS_CASES]
    for texts, count in ((UPWARD_TEXTS, 24), (OTHER_TEXTS, 12)):
        cases += [(ts.parse(rng.choice(texts), UPWARD_SIG),
                   rng.sample(FULL, rng.randint(5, 9))) for _ in range(count)]
    for f, rows in cases:
        t = ts.Team(("x", "y"), rows)
        want = next((t.with_rows(combo) for k in range(len(rows) + 1)
                     for combo in combinations(sorted(rows), k)
                     if ts.evaluate(m, t.with_rows(combo), f, UPWARD_REG)),
                    None)
        assert ts.Evaluator(m, UPWARD_REG).first_satisfying_subteam(t, f) == want
        warm = ts.Evaluator(m, UPWARD_REG)
        for row in sorted(rows, reverse=True):
            warm.evaluate(t.with_rows([row]), f)
        assert warm.first_satisfying_subteam(t, f) == want, (f, rows)


def test_size_bound_past_the_team_finds_nothing():
    """A bound above every candidate count leaves no candidate to defer to;
    a bound equal to the team's size leaves the team itself."""
    m = ts.Model(3)
    t = ts.Team(("x", "y"), FULL[:6])
    for k, want in ((7, None), (6, t)):
        f = ts.parse(f"geq(x y, {k})")
        assert ts.minimal_satisfying_subteam(m, t, f) == want
        assert ts.satisfying_subteams(m, t, f) == ({want} if want else set())


#: atoms with a nonzero size bound, over x and {v}
BOUNDED_ATOMS = ["NE", "ncon({v})", "ndep(x; {v})", "geq(x {v}, 3)",
                 "count_eq({v}, 2)", "all(x {v})"]


def test_size_bound_is_sound_against_the_oracle():
    """No team with fewer rows than a formula's size bound satisfies it,
    by the literal evaluator, for every bounded atom under each connective;
    a bare atom's bound is the size of its smallest satisfying team."""
    for atom in BOUNDED_ATOMS:
        a, az = atom.format(v="y"), atom.format(v="z")
        texts = [(a, 3), (f"{a} & ncon(y)", 3), (f"{a} | ncon(y)", 3),
                 (f"{a} || ncon(y)", 3), (f"~{a}", 3), (f"{a} -> ncon(y)", 3),
                 (f"ncon(y) -> {a}", 3), (f"exists z {az}", 2),
                 (f"forall z {az}", 2), (f"exists z ({az} & y = z)", 2),
                 (f"<>{a}", 2), (f"<>(x = y & {a})", 2)]
        for text, top in texts:
            f = ts.parse(text)
            for n in range(1, top + 1):
                m = ts.Model(n)
                least = ts.Evaluator(m)._least(f)
                for t in all_teams(m, ("x", "y"), least - 1):
                    assert not naive_eval(m, t, f), (text, n, sorted(t.rows))
                if text == a:
                    sizes = [len(t) for t in all_teams(m, ("x", "y"))
                             if naive_eval(m, t, f)]
                    assert min(sizes, default=least) == least, (text, n)


def test_size_bound_of_a_deep_chain():
    """The bound is read without recursing: 1,500 levels of exists z (_ &
    geq(x y, k)) over NE, each halving the bound at |M| = 2."""
    f = ts.parse("NE")
    for k in range(1, 1501):
        f = ts.Exists("z", ts.And(f, ts.Atom("geq", (("x", "y"),), k)))
    assert ts.Evaluator(ts.Model(1))._least(f) == 1500
    assert ts.Evaluator(ts.Model(2))._least(f) == 750


def test_subsets_order_and_bounds():
    from teamsem.evaluator import _subsets

    rows = [(2,), (0,), (1,)]
    assert list(_subsets(rows)) == [
        (), ((0,),), ((1,),), ((2,),), ((0,), (1,)), ((0,), (2,)),
        ((1,), (2,)), ((0,), (1,), (2,))]
    assert list(_subsets(rows, 1, 1)) == [((0,),), ((1,),), ((2,),)]
    assert list(_subsets(rows, least=2)) == [
        ((0,), (1,)), ((0,), (2,)), ((1,), (2,)), ((0,), (1,), (2,))]
    assert list(_subsets(rows, most=0)) == [()]
    assert list(_subsets(rows, 1, 9)) == list(_subsets(rows, 1))
    assert list(_subsets([], 1)) == []


# ---------------------------------------------------------------------------
# cross-checks against the literal evaluator


CROSS_TEXTS = [
    "x = y", "NE", "const(x)", "dep(x; y)", "inc(x; y)", "ninc(x; y)",
    "ind(x; y; y)", "nind(x; y; y)", "all(x)", "geq(x, 2)", "ncon(x)",
    "ndep(x; y)", "count_eq(x, 1)", "cocount_neq(x, 0)",
    "NE | x = y", "dep(x; y) | x = y", "NE | NE", "all(x) | all(y)",
    "count_eq(x, 1) | count_eq(y, 1)", "inc(x; y) | inc(y; x)",
    "NE || const(x)", "~NE", "~(x = y)", "~dep(x; y)",
    "const(x) -> const(y)", "NE -> ncon(x)", "<>all(x)", "<>(x = y & NE)",
    "<>(NE -> x = y)", "<>(dep(x; y) & ncon(x))",
    "exists z (dep(z; y) & z != x)", "exists z (all(z) | const(z))",
    "exists z ((NE & z = x) | z != y)", "forall z ((z = x & NE) | z != x)",
    "exists z (count_eq(z, 2))", "exists z (inc(z; x) & z != y)",
    "forall z <>(z = x)", "~(exists z (NE & z = x))",
    "exists z (dep(z; x) & ~(z = y))", "[exists v1 (v1 = v1)] & NE",
]


def test_cross_check_against_naive_evaluator():
    formulas = [ts.parse(s) for s in CROSS_TEXTS]
    for size in (1, 2):
        m = ts.Model(size)
        for f in formulas:
            vs = tuple(sorted(ts.free_variables(f) | {"x", "y"}))
            for t in all_teams(m, vs, max_rows=3):
                assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
                    (str(f), size, sorted(t.rows))


#: every built-in atom kind, with distinct and multi-variable tuples
ATOM_TEXTS = [
    "NE", "const(x y)", "ncon(x z)", "all(x y)", "geq(x y, 3)",
    "count_eq(x, 1)", "count_neq(y, 1)", "cocount_eq(z, 1)", "cocount_neq(x, 0)",
    "dep(x; y)", "dep(x y; z)", "ndep(x; y z)", "inc(x; y)", "inc(x y; z x)",
    "ninc(x y; z x)", "ind(x; y; z)", "ind(z; x y; y)", "nind(z; x y; y)",
    "nind(x; y; z)", "ind(y; z; z)",
]


def test_atom_kinds_against_naive_evaluator():
    """Each atom kernel, and each negated kind's flip of its base kernel,
    agrees with the oracle on every team over (x, y, z) at |M| <= 2."""
    atoms = [ts.parse(s) for s in ATOM_TEXTS]
    for size in (1, 2):
        m = ts.Model(size)
        for t in all_teams(m, ("x", "y", "z")):
            for a in atoms:
                assert ts.evaluate(m, t, a) == naive_eval(m, t, a), \
                    (str(a), size, sorted(t.rows))


def test_atom_kernels_share_their_caches_across_teams():
    """One evaluator decides every atom, repeated-variable and permuted
    forms and two custom atoms of one arity included, on every team of at
    most 4 rows over (x, y, z) at |M| = 3, so the projection, value-mask
    and per-relation caches are reused across teams and atoms; each
    verdict agrees with the oracle, which by locality is asked once per
    atom and projection of the team onto the atom's variables."""
    sig = ts.Signature({"R": 2})
    reg = ts.EMPTY_REGISTRY.register(ts.DependencySpec(
        "diag", 2, ts.parse("forall x forall y (!R(x, y) | x = y)", sig)))
    reg = reg.register(ts.DependencySpec("func", 2, ts.parse(
        "forall x forall y forall z (!R(x, y) | !R(x, z) | y = z)", sig)))
    texts = ATOM_TEXTS + [
        "inc(x; x)", "dep(x; x)", "inc(x y; y x)", "ind(x; x; y)",
        "D:diag(x, y)", "D:func(x, y)", "D:func(z, x)", "D:diag(y, y)"]
    by_vars = {}  # the atoms' sorted variables -> the atoms over them
    for a in map(ts.parse, texts):
        by_vars.setdefault(tuple(sorted(a.free_vars)), []).append(a)
    m = ts.Model(3)
    ev = ts.Evaluator(m, reg)
    oracle = {}  # (atom, projected team) -> the oracle's verdict
    for t in all_teams(m, ("x", "y", "z"), max_rows=4):
        for vs, atoms in by_vars.items():
            idx = [t.variables.index(v) for v in vs]
            sub = ts.Team(vs, {tuple(row[i] for i in idx) for row in t.rows})
            for a in atoms:
                want = oracle.get((a, sub))
                if want is None:
                    want = oracle[a, sub] = naive_eval(m, sub, a, reg)
                assert ev.evaluate(t, a) == want, (str(a), sorted(t.rows))


def test_existential_choice_function_agreement():
    """The witness-search implementation of the lax existential agrees with
    direct choice-function enumeration."""
    bodies = [
        "dep(z; y) & z != x", "const(z) & z != x", "all(z)", "NE & z = x",
        "(NE & z = x) | z != y", "count_eq(z, 1)", "inc(z; x)",
        "z = x | z = y", "ncon(z) & dep(z; x)",
        "ndep(x y; z) & (x = y | const(z))",
    ]
    for size in (1, 2):
        m = ts.Model(size)
        for text in bodies:
            f = ts.Exists("z", ts.parse(text))
            for t in all_teams(m, ("x", "y"), max_rows=3):
                assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
                    (text, size, sorted(t.rows))


def test_random_formula_cross_check():
    from test_syntax import _random_formula

    rng = random.Random(77)
    sig = ts.Signature({"R": 2, "P": 1})
    spec = ts.DependencySpec(
        "mine", 1, ts.parse("exists x R(x)", ts.Signature({"R": 1})),
        claimed_upward_closed="yes")
    reg = ts.EMPTY_REGISTRY.register(spec)
    checked = 0
    while checked < 60:
        f = _random_formula(rng, rng.randrange(3))
        m = next(iter(ts.enumerate_models(sig, rng.choice((1, 2)))))
        interp = {
            "P": {(i,) for i in range(m.size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(m.size) for j in range(m.size)
                  if rng.random() < 0.4},
        }
        m = ts.Model(m.size, interp, sig)
        vs = tuple(sorted(ts.free_variables(f) | {"x"}))
        rows = list(product(range(m.size), repeat=len(vs)))
        chosen = [r for r in rows if rng.random() < 0.6][:3]
        t = ts.Team(vs, chosen)
        assert ts.evaluate(m, t, f, reg) == naive_eval(m, t, f, reg), \
            (str(f), m, sorted(t.rows))
        checked += 1


def _naive_cost(f, rows, n):
    """Upper bound on the literal evaluator's work; used to skip shapes the
    oracle cannot afford at domain size 3."""
    match f:
        case ts.Exists(_, b):
            return (2 ** n - 1) ** max(rows, 1) * _naive_cost(b, min(rows * n, 9), n)
        case ts.Forall(_, b):
            return _naive_cost(b, min(rows * n, 9), n)
        case ts.TensorOr(l, r) | ts.IntImpl(l, r):
            return 4 ** rows * (_naive_cost(l, rows, n) + _naive_cost(r, rows, n))
        case ts.Possibly(b):
            return 2 ** rows * _naive_cost(b, rows, n)
        case ts.And(l, r) | ts.ClassicalOr(l, r):
            return _naive_cost(l, rows, n) + _naive_cost(r, rows, n)
        case ts.ContraNeg(b):
            return _naive_cost(b, rows, n)
        case _:
            return max(rows, 1) ** 2


def test_soak_cross_check_larger_domains():
    """Seeded random soak at domain sizes up to 3 with the full atom zoo,
    including quantifier shadowing and registered custom notions."""
    from test_syntax import _random_formula

    rng = random.Random(424242)
    sig = ts.Signature({"R": 2, "P": 1})
    reg = (ts.EMPTY_REGISTRY
           .register(ts.DependencySpec(
               "mine", 1, ts.parse("exists x R(x)", ts.Signature({"R": 1})),
               claimed_upward_closed="yes")))
    checked = skipped = 0
    while checked < 1500:
        f = _random_formula(rng, rng.choice((1, 1, 2, 2, 3)))
        size = rng.choice((1, 2, 2, 3))
        interp = {
            "P": {(i,) for i in range(size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(size) for j in range(size)
                  if rng.random() < 0.4},
        }
        m = ts.Model(size, interp, sig)
        vs = tuple(sorted(ts.free_variables(f) | {rng.choice(("x", "y", "z"))}))
        rows = list(product(range(size), repeat=len(vs)))
        cap = 3 if size == 3 else 4
        chosen = rng.sample(rows, k=min(len(rows), rng.randrange(0, cap + 1)))
        if _naive_cost(f, len(chosen), size) > 300_000:
            skipped += 1
            continue
        t = ts.Team(vs, chosen)
        assert ts.evaluate(m, t, f, reg) == naive_eval(m, t, f, reg), \
            (str(f), size, sorted(interp["P"]), sorted(interp["R"]),
             sorted(t.rows))
        checked += 1


# ---------------------------------------------------------------------------
# splitting-disjunction chains of coherent sides


#: coherent sides with differing free variables over x, y, z
COHERENT_SIDES = [
    "dep(x; y)", "dep(y; x)", "dep(x y; z)", "dep(z; x)", "const(x)",
    "const(y z)", "x = y", "x != z", "P(x)", "!P(y)", "R(x, y)",
    "!R(y, z)", "dep(x; y) & P(z)", "const(z) & x != y",
    "dep(x; y) & dep(y; z)", "forall w dep(x w; y)",
    "forall w (dep(x w; y) & !R(w, x))", "forall w (dep(z; y) & !R(w, w))",
    "x = y | P(z)",
]


def _nest(rng, sides: list, shape: str):
    """One | tree over the sides in order: left- or right-nested, or split
    at random points."""
    if len(sides) == 1:
        return sides[0]
    cut = {"left": len(sides) - 1, "right": 1}.get(shape) or rng.randrange(1, len(sides))
    return ts.TensorOr(_nest(rng, sides[:cut], shape), _nest(rng, sides[cut:], shape))


def _spy(monkeypatch, name: str) -> list:
    """Count the calls of one Evaluator method."""
    calls = []
    method = getattr(ts.Evaluator, name)

    def spy(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(ts.Evaluator, name, spy)
    return calls


def test_coherent_chains_against_naive_evaluator(monkeypatch):
    """Random | chains of 2 to 4 coherent sides, nested every way, on teams
    over (x, y, z) of at most 5 rows at |M| <= 3, agree with the oracle."""
    calls = _spy(monkeypatch, "_coherent_split")
    rng = random.Random(606)
    sig = ts.Signature({"R": 2, "P": 1})
    checked = 0
    while checked < 400:
        pool = rng.sample(COHERENT_SIDES, 2)  # repeated sides make false cases
        sides = [ts.parse(rng.choice(pool), sig) for _ in range(rng.randrange(2, 5))]
        f = _nest(rng, sides, rng.choice(("left", "right", "mixed")))
        size = rng.choice((1, 2, 3, 3))
        m = ts.Model(size, {
            "P": {(i,) for i in range(size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(size) for j in range(size)
                  if rng.random() < 0.5},
        }, sig)
        rows = list(product(range(size), repeat=3))
        chosen = rng.sample(rows, k=min(len(rows), rng.randrange(0, 6)))
        # the bound counts every pair of parts at every | of the chain; the
        # oracle tries right parts only beside left parts that hold
        if _naive_cost(f, len(chosen), size) > 10 ** 11:
            continue
        t = ts.Team(("x", "y", "z"), chosen)
        assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]),
             sorted(t.rows))
        checked += 1
    assert len(calls) > 100


def test_coherent_split_rejects_a_row_that_no_side_holds_on(monkeypatch):
    """forall v dep(x; v) fails on every row at |M| = 2, since the row's
    extension takes both values of v, so the coherent split of two copies
    of it stops at the first row: false on each nonempty team over x, true
    on the empty one, as the oracle says."""
    calls = _spy(monkeypatch, "_coherent_split")
    side = ts.parse("forall v dep(x; v)")
    f = ts.TensorOr(side, side)
    m = ts.Model(2)
    verdicts = {}
    for t in ts.enumerate_teams(m, ("x",)):
        verdict = ts.evaluate(m, t, f)
        assert verdict == naive_eval(m, t, f)
        verdicts[tuple(sorted(t.rows))] = verdict
    assert verdicts == {(): True, ((0,),): False, ((1,),): False,
                        ((0,), (1,)): False}
    assert len(calls) == 4  # each verdict comes from the coherent split
    assert not any(ts.evaluate(m, team(("x",), row), side) for row in [(0,), (1,)])


def test_colouring_agrees_with_the_downward_split(monkeypatch):
    """Past the oracle's reach: random | chains of 2 to 4 coherent sides on
    teams of 8 to 20 rows over (x, y, z) at |M| = 3 or 4 get the same
    verdict from the colouring as from the row-by-row downward split, which
    a patched _split_plan forces on the same chains."""
    coloured = _spy(monkeypatch, "_coherent_split")
    placed = _spy(monkeypatch, "_down_split")
    plan, forced = ts.Evaluator._split_plan, []

    def downward(self, f):
        flat, rest, how, twins = plan(self, f)
        return flat, rest, "downward" if forced and how == "coherent" else how, twins

    monkeypatch.setattr(ts.Evaluator, "_split_plan", downward)
    rng = random.Random(1998)
    sig = ts.Signature({"R": 2, "P": 1})
    verdicts = []
    for _ in range(300):
        pool = rng.sample(COHERENT_SIDES, 2)  # repeated sides make false cases
        sides = [ts.parse(rng.choice(pool), sig) for _ in range(rng.randrange(2, 5))]
        f = _nest(rng, sides, rng.choice(("left", "right", "mixed")))
        size = rng.choice((3, 4))
        m = ts.Model(size, {
            "P": {(i,) for i in range(size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(size) for j in range(size)
                  if rng.random() < 0.5},
        }, sig)
        rows = list(product(range(size), repeat=3))
        t = ts.Team(("x", "y", "z"), rng.sample(rows, rng.randrange(8, 21)))
        want = ts.evaluate(m, t, f)
        forced.append(True)
        assert ts.evaluate(m, t, f) == want, (str(f), size, sorted(t.rows))
        forced.pop()
        verdicts.append(want)
    assert len(coloured) == len(placed) > 100
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("text", [
    "dep(x; x)", "dep(x y; x z)", "const(x y)", "dep(x; y) & x != z & P(y)",
    "dep(x; z) & dep(y; z)", "forall w (dep(x w; y) & !R(w, z))"])
def test_conflict_tables_match_the_pairwise_verdicts(text):
    """The conflict table of a coherent side, read from its structure,
    lists for each row that holds the side alone exactly the rows it fails
    the side with, as a separate evaluator finds pair by pair: repeated and
    overlapping groups of dep, const, & with first-order conjuncts, two dep
    atoms, and a forall that is evaluated pair by pair, on random teams
    over (x, y, z) at |M| <= 4."""
    from teamsem.evaluator import _bits

    rng = random.Random(text)
    sig = ts.Signature({"R": 2, "P": 1})
    side = ts.parse(text, sig)
    clashes = 0
    for _ in range(40):
        size = rng.randrange(1, 5)
        m = ts.Model(size, {
            "P": {(i,) for i in range(size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(size) for j in range(size)
                  if rng.random() < 0.7},
        }, sig)
        rows = list(product(range(size), repeat=3))
        t = ts.Team(("x", "y", "z"), rng.sample(rows, min(len(rows), rng.randrange(2, 13))))
        ev, ref = ts.Evaluator(m), ts.Evaluator(m)
        u, mask = ev._team(t, side)
        ref_u, _ = ref._team(t, side)  # numbers the rows alike
        alone = [row for row in _bits(mask) if ref._eval(side, ref_u, row)]
        table = ev._conflicts(side, u, alone)
        for a, clash in zip(alone, table):
            assert clash == sum(b for b in alone
                                if not ref._eval(side, ref_u, a | b)), (sorted(t.rows), a)
            clashes += clash != 0
    assert bool(clashes) is (text != "dep(x; x)")  # which holds on every team


def test_coherent_split_asks_each_row_once_per_distinct_side(monkeypatch):
    """Three copies of dep(x y; z) on a planted team whose keys (x, y) take
    1, 2 and 3 values of z: the coherent split asks the atom's kernel at
    most once per row, for the row alone, and reads every pair's conflict
    from the value classes, so it holds, and fails once a key takes 4."""
    side = ts.parse("dep(x y; z)")
    f = ts.TensorOr(ts.TensorOr(side, side), side)
    keys = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 0), (3, 3)]
    rows = [key + (z,) for i, key in enumerate(keys) for z in range(1 + i % 3)]
    inside, kernels = [], []
    split, kernel = ts.Evaluator._coherent_split, ts.Evaluator._kernel

    def coherent_split(self, *args):
        inside.append(True)
        try:
            return split(self, *args)
        finally:
            inside.pop()

    def counted(self, *args):
        if inside:
            kernels.append(args)
        return kernel(self, *args)

    monkeypatch.setattr(ts.Evaluator, "_coherent_split", coherent_split)
    monkeypatch.setattr(ts.Evaluator, "_kernel", counted)
    m = ts.Model(4)
    assert ts.evaluate(m, ts.Team(("x", "y", "z"), rows), f)
    assert 0 < len(kernels) <= len(rows)
    kernels.clear()
    assert not ts.evaluate(m, ts.Team(("x", "y", "z"), rows + [(3, 3, 3)]), f)
    assert 0 < len(kernels) <= len(rows) + 1


def test_colouring_fails_at_a_final_dead_end():
    """A row whose first choice is final and runs out of sides fails the
    split: three values of y for one x cannot go to two copies of
    dep(x; y), whatever the 200 rows beside them do."""
    f = ts.parse("dep(x; y) | dep(x; y)")
    rows = [(0, 0), (0, 1), (0, 2)] + [(a, 0) for a in range(1, 201)]
    assert not ts.evaluate(ts.Model(201), ts.Team(("x", "y"), rows), f)
    assert ts.evaluate(ts.Model(201), ts.Team(("x", "y"), rows[1:]), f)


def test_colouring_unwinds_from_a_final_dead_end_deep_in_the_search():
    """200 rows with three conflicts each, all on side 1, are coloured
    first and take side 0, which constrains no row, so every choice stays
    final.  Then a triangle that conflicts on both sides has no colouring:
    its first row's failure ends the search at once, where retrying the
    200 rows' other side would take 2**200 steps."""
    from teamsem.evaluator import _bits, _colour

    free = 200
    rows = (1 << free + 3) - 1
    bits = _bits(rows)
    conflict = {row: [0, 0] for row in bits}
    for start in range(0, free, 4):  # groups of four, in conflict on side 1
        group = sum(bits[start:start + 4])
        for row in bits[start:start + 4]:
            conflict[row][1] = group & ~row
    triangle = sum(bits[free:])
    for row in bits[free:]:
        conflict[row] = [triangle & ~row] * 2
    links = {row: conflict[row][0] | conflict[row][1] for row in bits}
    allowed = dict.fromkeys(bits, 0b11)
    assert not _colour(rows, allowed, conflict, links, [])
    assert _colour(rows & ~bits[-1], allowed, conflict, links, [])


def test_split_with_an_incoherent_downward_side(monkeypatch):
    """An existential side is downward closed but not coherent, so this
    split still assigns rows one at a time."""
    calls = _spy(monkeypatch, "_down_split")
    sig = ts.Signature({"P": 1})
    f = ts.parse("exists z (dep(x; z) & P(z)) | dep(x; y)", sig)
    assert not f.left.coherent and f.right.coherent
    for m in (ts.Model(2, {"P": {(1,)}}, sig), ts.Model(3, {"P": {(0,), (2,)}}, sig)):
        for t in all_teams(m, ("x", "y"), max_rows=4):
            assert ts.evaluate(m, t, f) == naive_eval(m, t, f), sorted(t.rows)
    assert calls


#: downward-closed sides that are not coherent, and upward-closed sides
DOWNWARD_SIDES = [
    "exists z (dep(x; z) & P(z))", "exists z (const(z) & R(z, x))",
    "const(x) & [exists z P(z)]", "dep(x; y) || const(y)", "x = y -> const(x)",
    "forall w exists z (dep(w; z) & z != y)", "const(x)", "P(y)",
]
UPWARD_SIDES = ["NE", "ncon(x)", "ndep(x; y)", "P(x) & NE", "geq(x y, 2)",
                "exists z (ncon(z) & R(z, y))", "x != y", "all(x)"]
#: first-order, upward-closed, coherent, downward-closed and other sides
MIXED_SIDES = ["x = y", "P(x)", "NE", "ncon(y)", "dep(x; y)", "const(x)",
               "exists z (dep(x; z) & P(z))", "x = y -> const(x)", "inc(x; y)",
               "dep(x; y) & NE", "inc(y; x) & const(x)", "count_eq(x, 1)"]


@pytest.mark.parametrize("pool", [DOWNWARD_SIDES, UPWARD_SIDES, MIXED_SIDES],
                         ids=["downward", "upward", "mixed"])
def test_closed_chains_against_naive_evaluator(monkeypatch, pool):
    """Random | chains of 2 to 4 sides, all downward closed, all upward
    closed, or mixed, nested every way, agree with the oracle on teams over
    (x, y) at |M| <= 3.  Each chain is decided as a whole: no | is
    evaluated inside another."""
    outer, nested, calls = [], [], []
    tensor_or = ts.Evaluator._tensor_or

    def spy(self, u, mask, f):
        calls.append(f)
        if outer:
            nested.append((outer[-1], f))
        outer.append(f)
        try:
            return tensor_or(self, u, mask, f)
        finally:
            outer.pop()

    monkeypatch.setattr(ts.Evaluator, "_tensor_or", spy)
    splits = _spy(monkeypatch, "_down_split")
    generic = _spy(monkeypatch, "_generic_split")
    rng = random.Random(1979)
    sig = ts.Signature({"R": 2, "P": 1})
    checked = 0
    while checked < 150:
        picks = rng.sample(pool, 2)  # repeated sides make false cases
        sides = [ts.parse(rng.choice(picks), sig) for _ in range(rng.randrange(2, 5))]
        f = _nest(rng, sides, rng.choice(("left", "right", "mixed")))
        size = rng.choice((1, 2, 3, 3))
        m = ts.Model(size, {
            "P": {(i,) for i in range(size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(size) for j in range(size)
                  if rng.random() < 0.5},
        }, sig)
        rows = list(product(range(size), repeat=2))
        chosen = rng.sample(rows, k=min(len(rows), rng.randrange(0, 5)))
        if _naive_cost(f, len(chosen), size) > 10 ** 9:
            continue
        t = ts.Team(("x", "y"), chosen)
        assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]),
             sorted(t.rows))
        checked += 1
    assert calls and not nested
    assert (len(splits) > 50) is (pool is DOWNWARD_SIDES)
    assert bool(generic) is (pool is MIXED_SIDES)


def _dead_ends():
    """(route, model, team, formula): a class or a row that no option
    admits, met last by the search of its route."""
    sig = ts.Signature({"R": 2})
    seven = ts.Model(8, {"R": {(x, z) for x in range(8) for z in range(8) if x != 6}},
                     sig)
    pairs = [r for r in product(range(5), repeat=2) if r[0] != r[1]][:14]
    yield ("_exists", seven, ts.Team(("x",), [(x,) for x in range(7)]),
           ts.parse("exists z (dep(x; z) & R(x, z) & NE)", sig))
    yield ("_down_split", ts.Model(5), ts.Team(("x", "y"), pairs + [(4, 4)]),
           ts.parse("(x = y -> x != y) | (x = y -> x != y)"))


@pytest.mark.parametrize("route, m, t, f", _dead_ends(),
                         ids=["dep_witness", "down_split"])
def test_a_row_or_class_without_options_fails_the_search_at_once(
        monkeypatch, route, m, t, f):
    """No value of z has R(6, z), so the class x = 6 of the dependence
    witness search has no option; the row (4, 4) fails both sides of the
    downward split alone.  Either search fails before it starts, not after
    trying every choice for the rows before (8**6 partial functions, or
    2**13 placements)."""
    searched = _spy(monkeypatch, route)
    raw = _spy(monkeypatch, "_eval_raw")
    assert not ts.evaluate(m, t, f)
    assert len(searched) == 1 and len(raw) <= 20


def test_down_split_asks_a_row_s_other_sides_only_when_it_tries_them(monkeypatch):
    """On a true chain of three distinct downward sides whose first side
    holds on the whole team, the search gives every row to the first side,
    so the other two are asked only on the empty team: each row is asked of
    the first side alone, in the pass that refutes a row no side holds,
    and with its partial team."""
    n = 40
    first, *others = (ts.parse(text) for text in (
        "dep(x; y) || const(y)", "const(x) || const(y)", "x = y -> const(y)"))
    t = ts.Team(("x", "y"), [(a, a % 2) for a in range(n)])
    splits = _spy(monkeypatch, "_down_split")
    raw = _spy(monkeypatch, "_eval_raw")
    assert ts.evaluate(ts.Model(n), t, ts.syntax.or_all([first, *others]))
    assert len(splits) == 1
    assert not [f for f, u, mask in raw if f in others and mask]
    assert len(raw) <= 2 * n + 10


def _planted_dep_split(rng, k: int, want: bool) -> ts.Team:
    """18 to 20 rows over (x, y, z) at |M| = 4 on which the k-fold split of
    dep(x y; z) holds exactly when want: it holds iff no key (x, y) takes
    more than k values of z."""
    keys = list(product(range(4), repeat=2))
    while True:
        rng.shuffle(keys)
        counts = [rng.randint(1, k) for _ in keys]
        if not want:
            counts[0] = rng.randint(k + 1, 4)
        rows = [key + (z,) for key, count in zip(keys, counts)
                for z in rng.sample(range(4), count)]
        for cut in range(len(keys), 0, -1):  # keep the first cut keys
            kept = rows[:sum(counts[:cut])]
            if 18 <= len(kept) <= 20:
                return ts.Team(("x", "y", "z"), kept)


def test_dep_splits_past_the_enumeration_cap():
    rng = random.Random(2013)
    side = ts.parse("dep(x y; z)")
    m = ts.Model(4)
    for k in (2, 3):
        f = ts.syntax.or_all([side] * k)
        for want in (True, False) * 5:
            t = _planted_dep_split(rng, k, want)
            assert len(t) > 16
            assert ts.evaluate(m, t, f) is want, (k, sorted(t.rows))


def test_implication_caps_its_local_team():
    """-> tries every subteam of its team, so it refuses a team of more than
    16 rows over its own variables; on 16 rows or fewer it still decides."""
    m = ts.Model(5)
    rows = list(product(range(5), repeat=2))
    f, g = ts.parse("NE -> dep(x; y)"), ts.parse("ndep(x; y) -> ncon(y)")
    with pytest.raises(ts.EvalError, match="17 rows exceeds the cap of 16"):
        ts.evaluate(m, ts.Team(("x", "y"), rows[:17]), f)
    sixteen = ts.Team(("x", "y"), rows[:16])
    assert not ts.evaluate(m, sixteen, f) and ts.evaluate(m, sixteen, g)
    # 32 rows over (x, y, z), 16 over (x, y)
    wide = ts.Team(("x", "y", "z"), (r + (z,) for r in rows[:16] for z in (0, 1)))
    assert not ts.evaluate(m, wide, f)


def test_implication_tries_only_antecedent_candidates(monkeypatch):
    """-> asks its consequent only on the subteams that satisfy its
    antecedent, and tries as those only the antecedent's candidate
    subteams: inside its greatest satisfying subteam, here the rows with
    x != y, and from its size bound, here 3 rows, up.  The first such
    subteam breaks dep(x; y), so the verdict is false after the G and that
    one candidate."""
    f = ts.parse("(geq(x y, 3) & x != y) -> dep(x; y)")
    m = ts.Model(3)
    t = ts.Team(("x", "y"), sorted(product(range(3), repeat=2))[:8])
    asked = []
    evaluate = ts.Evaluator._eval

    def spy(self, g, u, mask):
        if g is f.left:
            asked.append(u.rows_of(mask))
        return evaluate(self, g, u, mask)

    monkeypatch.setattr(ts.Evaluator, "_eval", spy)
    assert not ts.evaluate(m, t, f)
    assert not naive_eval(m, t, f)
    assert asked and all(len(rows) >= 3 and all(x != y for x, y in rows)
                         for rows in asked), asked
    assert len(asked) == 2


# ---------------------------------------------------------------------------
# existentials whose body forces constancy of the bound variable


#: (formula, whether its outer ``exists p`` body forces const(p))
CONST_WITNESSES = [
    ("exists p (const(p) & p = x)", True),
    ("exists p (const(p) & p != x)", True),
    ("exists p (const(p) & R(p, x) & (y != p | NE))", True),
    ("exists p (const(p) & dep(x; y) & P(p))", True),
    ("exists p (const(p) & (x != p | x = p & NE) & !P(p))", True),
    ("exists p exists q (const(p q) & p != q & (x = p | x = q))", True),
    ("exists p exists q (const(p) & q = x & R(q, p))", True),
    ("exists p forall q (const(p) & (R(p, q) | q != x))", True),
    ("exists p (const(p) & exists q (const(q) & q != p & R(q, x)))", True),
    ("exists p (exists p const(p) & p = x)", False),
    ("exists p ((const(p) | P(p)) & p = x)", False),
    ("exists p (const(p) || p = y)", False),
    ("exists p (~const(p) & p != y)", False),
    ("exists p (const(p) -> p = x)", False),
]


#: (formula, whether its outer ``exists p`` body forces dep(D; p) for some
#: nonempty D)
DEP_WITNESSES = [
    ("exists p (dep(x; p) & inc(y; p))", True),
    ("exists p (dep(x; p) & p != y)", True),
    ("exists p (dep(y; p) & R(p, x) & (x != p | NE))", True),
    ("exists p (dep(x y; p) & inc(x; p) & P(p))", True),
    ("exists p (dep(x; p) & dep(p; y))", True),
    ("exists p (dep(y x; p) & dep(x; p) & ncon(p))", True),
    ("exists p forall q (dep(x; p) & (R(p, q) | q != y))", True),
    ("exists p exists q (dep(x; p q) & p != q & inc(y; q))", True),
    ("exists p (dep(x; p) & exists q (dep(p; q) & q != x & inc(q; y)))", True),
    ("exists p (exists x dep(x; p) & inc(y; p))", False),
    ("exists p ((dep(x; p) | P(p)) & inc(y; p))", False),
    ("exists p (dep(x; p) || inc(p; y))", False),
    ("exists p (~dep(x; p) & p != y)", False),
    ("exists p (dep(x; p) -> inc(y; p))", False),
    ("exists p (dep(p; x) & inc(y; p))", False),
]


def _check_witnesses(monkeypatch, table, routed, rounds: int, seed: int) -> int:
    """Random teams over (x, y) of at most 4 rows, the empty team included,
    at |M| <= 3 with random P and R: every formula of the table agrees with
    the oracle on at least 20 of them, and the empty team comes up at least
    20 times.  routed(D) says whether an outer ``exists p`` body that
    determines p by D belongs to the table's route, which the table's flag
    gives; while such a formula is evaluated, p is extended one value at a
    time, never by every value.  Returns how many nonempty ``_exists``
    calls the route took for p."""
    rule, wide = [], []
    exists, extend = ts.Evaluator._exists, ts.Evaluator._extend

    def exists_spy(self, u, mask, v, body):
        if mask and v in body.determiners:
            rule.append(v)
        return exists(self, u, mask, v, body)

    def extend_spy(self, u, v, value=None):
        if value is None:
            wide.append(v)
        return extend(self, u, v, value)

    monkeypatch.setattr(ts.Evaluator, "_exists", exists_spy)
    monkeypatch.setattr(ts.Evaluator, "_extend", extend_spy)
    sig = ts.Signature({"R": 2, "P": 1})
    formulas = [(ts.parse(text, sig), takes) for text, takes in table]
    for f, takes in formulas:
        assert routed(f.body.determiners.get(f.var)) is takes, str(f)
    rng = random.Random(seed)
    checked = dict.fromkeys(formulas, 0)
    empty = 0
    for _ in range(rounds):
        f, takes = rng.choice(formulas)
        size = rng.choice((1, 2, 3, 3))
        m = ts.Model(size, {
            "P": {(i,) for i in range(size) if rng.random() < 0.5},
            "R": {(i, j) for i in range(size) for j in range(size)
                  if rng.random() < 0.6},
        }, sig)
        rows = list(product(range(size), repeat=2))
        chosen = rng.sample(rows, k=min(len(rows), rng.randrange(0, 5)))
        if _naive_cost(f, len(chosen), size) > 2 * 10 ** 6:
            continue
        t = ts.Team(("x", "y"), chosen)
        wide.clear()
        assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
            (str(f), size, sorted(m.interp["P"]), sorted(m.interp["R"]),
             sorted(t.rows))
        assert not (takes and chosen and "p" in wide), str(f)
        checked[f, takes] += 1
        empty += not chosen
    assert min(checked.values()) >= 20 and empty >= 20
    return rule.count("p")


def test_const_witnesses_against_naive_evaluator(monkeypatch):
    """An existential over a body that forces const(p) tries one value of
    p per witness."""
    assert _check_witnesses(monkeypatch, CONST_WITNESSES, lambda d: d == (),
                            900, 1991) > 200


def test_dep_witnesses_against_naive_evaluator(monkeypatch):
    """An existential over a body that forces dep(D; p) tries one value of
    p per class of rows that agree on D."""
    assert _check_witnesses(monkeypatch, DEP_WITNESSES, lambda d: bool(d),
                            1200, 1992) > 300


# ---------------------------------------------------------------------------
# upward-closure checking


UCONST = ts.parse("forall a forall b (!R(a) | !R(b) | a = b)",
                  ts.Signature({"R": 1}))


def test_false_upward_claim_is_not_trusted():
    """Unary constancy claimed upward closed: the claim fails the check, so
    the search is not pruned by it and every verdict matches the oracle."""
    from teamsem.evaluator import upward_closed

    spec = ts.DependencySpec("uconst", 1, UCONST, claimed_upward_closed="yes")
    reg = ts.EMPTY_REGISTRY.register(spec)
    assert not spec.upward_closed
    assert not upward_closed(ts.parse("D:uconst(x)"), reg)
    f = ts.parse("exists z (D:uconst(z) & z != x)")
    m = ts.Model(3)
    for t in ts.enumerate_teams(m, ("x",)):
        assert ts.evaluate(m, t, f, reg) == naive_eval(m, t, f, reg), sorted(t.rows)
    true_claim = ts.DependencySpec(
        "some", 1, ts.parse("exists x R(x)", ts.Signature({"R": 1})),
        claimed_upward_closed="yes")
    assert true_claim.upward_closed
    # arity 0 ignores the team, so the claim stands as given
    assert ts.DependencySpec("z", 0, ts.TOP, claimed_upward_closed="yes").upward_closed
    assert not ts.DependencySpec("z", 0, ts.TOP).upward_closed


def test_upward_claim_past_the_checkable_size_is_not_trusted():
    """At arity 2 the claim can be checked up to size 3 only.  This notion,
    R nonempty and (R not full, or at most three elements), is upward
    closed up to size 3 and not at size 4, where the split of the full team
    holds only if the claim is ignored."""
    phi = ts.parse(
        "exists a exists b R(a, b) & (exists c exists d !R(c, d) | forall x1 "
        "forall x2 forall x3 forall x4 (x1 = x2 | x1 = x3 | x1 = x4 | x2 = x3 "
        "| x2 = x4 | x3 = x4))", ts.Signature({"R": 2}))
    claimed = ts.DependencySpec("d", 2, phi, claimed_upward_closed="yes")
    assert ts.check_upward_closed(claimed, 3).holds
    assert claimed.upward_closed_on(3) and not claimed.upward_closed_on(4)
    full = ts.Team(("x", "y"), product(range(4), repeat=2))
    split = ts.parse("D:d(x y) | D:d(x y)")
    for spec in (claimed, ts.DependencySpec("d", 2, phi)):
        reg = ts.EMPTY_REGISTRY.register(spec)
        assert ts.evaluate(ts.Model(4), full, split, reg)
    with pytest.raises(ts.AnalysisError, match="up to size 4"):
        ts.nu_bound(ts.parse("D:d(x y)"), 4,
                    registry=ts.EMPTY_REGISTRY.register(claimed))


def test_check_upward_closed():
    sig = ts.Signature({"R": 1})
    total = ts.DependencySpec("tot", 1, ts.parse("forall x R(x)", sig))
    assert ts.check_upward_closed(total, 3).holds
    assert str(ts.check_upward_closed(total, 2)) == \
        "upward closed on all domains up to size 2"
    ne_like = ts.DependencySpec("some", 1, ts.parse("exists x R(x)", sig))
    assert ts.check_upward_closed(ne_like, 3).holds
    constancy = ts.DependencySpec(
        "uconst", 1, ts.parse("forall x forall y (!R(x) | !R(y) | x = y)", sig))
    verdict = ts.check_upward_closed(constancy, 3)
    assert not verdict.holds
    n, r, s = verdict.counterexample
    assert r < s  # proper growth breaks constancy
    assert str(verdict) == ("not upward closed: domain size 2, R=[(0,)] "
                            "satisfies but S=[(0,), (1,)] does not")
    with pytest.raises(ValueError):
        ts.check_upward_closed(ts.DependencySpec("z", 0, ts.TOP), 2)
    binary = ts.DependencySpec(
        "pairs", 2, ts.parse("exists x R(x, x)", ts.Signature({"R": 2})))
    assert ts.check_upward_closed(binary, 3).holds
    with pytest.raises(ts.EnumerationLimit):
        ts.check_upward_closed(binary, 4)


def test_upward_claim_checked_up_to_the_model_size(monkeypatch):
    """A true "yes" claim is checked on the sizes the evaluation uses, not
    on every size up to the cap: at |M| = 2 a three-quantifier definition
    needs the 2 + 4 relations of sizes 1 and 2, not the 1,022 of sizes 1
    to 9."""
    import teamsem.evaluator as evaluator

    calls = []
    tarski = evaluator.tarski_eval
    monkeypatch.setattr(evaluator, "tarski_eval",
                        lambda *args: calls.append(args) or tarski(*args))
    spec = ts.DependencySpec("two_out", 1, ts.parse(
        "forall x forall y forall z (R(x) | R(y) | R(z) | x = y | y = z | x = z)",
        ts.Signature({"R": 1})), claimed_upward_closed="yes")
    reg = ts.EMPTY_REGISTRY.register(spec)
    f = ts.parse("exists z (D:two_out(z) & z != x)")
    m = ts.Model(2)
    for t in ts.enumerate_teams(m, ("x",)):
        assert ts.evaluate(m, t, f, reg) == naive_eval(m, t, f, reg), sorted(t.rows)
    assert len(calls) < 50
    assert spec.upward_closed_on(2)
    calls.clear()
    assert ts.nu_bound(ts.parse("D:two_out(x)"), 2, registry=reg) == 2
    assert not calls  # the size-2 check is cached


def test_wide_team_stays_cheap():
    """Rows are numbered as the search meets them: a 3-row team over 12
    variables at |M| = 4 indexes a dozen rows, never the 4**13 rows of the
    full assignment space."""
    import time

    xs = tuple(f"x{i}" for i in range(1, 13))
    f = ts.parse(f"exists z dep({' '.join(xs)}; z)")
    m = ts.Model(4)
    rng = random.Random(12)
    t = ts.Team(xs, [tuple(rng.randrange(4) for _ in xs) for _ in range(3)])
    start = time.perf_counter()
    got = ts.evaluate(m, t, f)
    assert time.perf_counter() - start < 0.5
    assert got == naive_eval(m, t, f)
    g = ts.parse(f"exists z (dep({' '.join(xs[:6])}; z) & z != x1)")
    assert ts.evaluate(m, t, g) == naive_eval(m, t, g)


# ---------------------------------------------------------------------------
# searches over formulas that are neither upward nor downward closed


def _direct_evals(monkeypatch, name: str, searched) -> list:
    """Record the _eval calls that the named search method makes itself,
    not those nested in another _eval: (the formula searched, which
    searched(*args) picks from the method's arguments, the formula
    evaluated, its team's variables, the verdict)."""
    records, open_searches = [], []  # per open search: [formula, open _evals]
    search, evaluate = getattr(ts.Evaluator, name), ts.Evaluator._eval

    def search_spy(self, *args, **kwargs):
        open_searches.append([searched(*args), 0])
        try:
            return search(self, *args, **kwargs)
        finally:
            open_searches.pop()

    def eval_spy(self, f, u, mask):
        if not open_searches:
            return evaluate(self, f, u, mask)
        top = open_searches[-1]
        direct = top[1] == 0
        top[1] += 1
        try:
            result = evaluate(self, f, u, mask)
        finally:
            top[1] -= 1
        if direct:
            records.append((top[0], f, u.vars, result))
        return result

    monkeypatch.setattr(ts.Evaluator, name, search_spy)
    monkeypatch.setattr(ts.Evaluator, "_eval", eval_spy)
    return records


#: route -> formulas whose searched part (a side of the |, the body of <>
#: or of exists) mixes downward-closed parts with inc or NE
FORCED_ROW_FORMULAS = {
    "single side": ["(dep(x; y) & NE) | x = y", "(dep(x; y) & inc(y; x)) | P(x)",
                    "(const(x) & inc(x; y)) | x != y",
                    "(dep(y; x) & P(x) & NE) | x = y"],
    "possibly": ["<>(dep(x; y) & inc(y; x))", "<>(const(x) & inc(x; y) & P(y))"],
    "generic split": ["(dep(x; y) & NE) | inc(x; y)",
                      "(dep(y; x) & inc(x; y)) | (const(x) & NE)",
                      "(const(y) & NE) | inc(y; x)"],
}


@pytest.mark.parametrize("route", FORCED_ROW_FORMULAS)
def test_forced_row_refutation_against_naive_evaluator(monkeypatch, route):
    """A search for a team between forced rows and an upper bound, over a
    formula that is not downward closed and fails on the upper bound,
    gives up when the formula's downward part fails on the forced rows.
    Random teams over (x, y) of at most 4 rows at |M| <= 3 agree with the
    oracle.  Through a single side of a | beside a first-order side and
    through the general split the refutation fires; <> forces no rows, so
    there it is never asked."""
    sig = ts.Signature({"P": 1})
    formulas = [ts.parse(text, sig) for text in FORCED_ROW_FORMULAS[route]]
    for f in formulas:
        part = f.left if isinstance(f, ts.TensorOr) else f.body
        assert part.downward_part not in (ts.TOP, part), str(part)
    records = _direct_evals(monkeypatch, "_exists_sat", lambda f, *rest: f)
    generic = _spy(monkeypatch, "_generic_split")
    rng = random.Random(2012)
    for _ in range(150):
        f = rng.choice(formulas)
        size = rng.choice((1, 2, 3, 3))
        m = ts.Model(size, {"P": {(i,) for i in range(size) if rng.random() < 0.5}},
                     sig)
        rows = list(product(range(size), repeat=2))
        t = ts.Team(("x", "y"), rng.sample(rows, min(len(rows), rng.randrange(0, 5))))
        assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
            (str(f), size, sorted(m.interp["P"]), sorted(t.rows))
    refuted = [r for searched, g, _, r in records
               if g is searched.downward_part and not r]
    assert bool(refuted) is (route != "possibly")
    assert bool(generic) is (route == "generic split")


#: bodies of exists z whose downward part leaves out a column of the
#: witness universe over (x, y, z)
PROJECTED_PRUNE_BODIES = ["dep(x; z) & inc(y; z)", "dep(x; z) & P(z) & inc(z; y)",
                          "dep(z; x) & NE & inc(x; z)", "const(x) & inc(z; y)"]


def test_projected_witness_prune_against_naive_evaluator(monkeypatch):
    """The witness search of exists carries its partial witness's
    projection onto the downward part's variables and grows it one block
    at a time.  Random teams over (x, y) of at most 4 rows at |M| <= 3
    agree with the oracle, and the prune is asked on teams over fewer
    variables than the witness has."""
    sig = ts.Signature({"P": 1})
    formulas = [ts.Exists("z", ts.parse(text, sig)) for text in PROJECTED_PRUNE_BODIES]
    for f in formulas:
        prune = f.body.downward_part
        assert prune not in (ts.TOP, f.body) and len(prune.free_vars) < 3, str(f)
    records = _direct_evals(monkeypatch, "_exists", lambda u, mask, v, body: body)
    rng = random.Random(2013)
    for _ in range(150):
        f = rng.choice(formulas)
        size = rng.choice((1, 2, 3, 3))
        m = ts.Model(size, {"P": {(i,) for i in range(size) if rng.random() < 0.5}},
                     sig)
        rows = list(product(range(size), repeat=2))
        t = ts.Team(("x", "y"), rng.sample(rows, min(len(rows), rng.randrange(0, 5))))
        assert ts.evaluate(m, t, f) == naive_eval(m, t, f), \
            (str(f), size, sorted(m.interp["P"]), sorted(t.rows))
    projected = [(r, body) for body, g, vs, r in records
                 if g is body.downward_part and vs == g.free_tuple != ("x", "y", "z")]
    assert {r for r, _ in projected} == {True, False}
    assert {body for _, body in projected} == {f.body for f in formulas}


def test_generic_split_refutes_on_the_forced_rows(monkeypatch):
    """A planted false instance of (dep(x; y) & NE) | inc(x; y): the rows
    (0, 1) and (0, 2) are in no inclusion part, as no row has y = 0.  The
    inc side takes its greatest satisfying subteam G, the other eight
    rows, so one search asks the left side for a part containing the rows
    outside G; they break dep(x; y), and the search refutes on them after
    asking the side on its upper bound only.  Without (0, 2) the one row
    left outside G satisfies the left side, and the split holds."""
    f = ts.parse("(dep(x; y) & NE) | inc(x; y)")
    inner = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b] + [(1, 1), (2, 2)]
    t = ts.Team(("x", "y"), [(0, 1), (0, 2)] + inner)
    searches = _spy(monkeypatch, "_exists_sat")
    records = _direct_evals(monkeypatch, "_exists_sat", lambda g, *rest: g)
    assert not ts.evaluate(ts.Model(4), t, f)
    [(searched, u, upper, lower)] = searches
    assert searched is f.left and upper.bit_count() == 10
    assert sorted(u.rows_of(lower)) == [(0, 1), (0, 2)]
    assert [(g, r) for _, g, _, r in records] == [(f.left, False),
                                                 (f.left.downward_part, False)]
    assert ts.evaluate(ts.Model(4), t.with_rows([(0, 1)] + inner), f)
    assert len(searches) == 2


def test_generic_split_starts_each_part_at_its_size_bound(monkeypatch):
    """The general split draws each side's parts from the candidates of
    its size bound up, so a side count_eq(v, 2) is never asked on a part
    of fewer than 2 rows.  30 seeded teams of 6 to 10 rows over (x, y) at
    |M| = 4; those of at most 6 rows agree with the oracle."""
    f = ts.parse("count_eq(x, 2) | count_eq(y, 2)")
    m = ts.Model(4)
    small = []
    evaluate = ts.Evaluator._eval

    def spy(self, g, u, mask):
        if g in (f.left, f.right) and mask.bit_count() < 2:
            small.append((g, u.rows_of(mask)))
        return evaluate(self, g, u, mask)

    monkeypatch.setattr(ts.Evaluator, "_eval", spy)
    generic = _spy(monkeypatch, "_generic_split")
    rng = random.Random(2020)
    rows = list(product(range(4), repeat=2))
    verdicts, checked = set(), 0
    for _ in range(30):
        t = ts.Team(("x", "y"), rng.sample(rows, rng.randint(6, 10)))
        got = ts.evaluate(m, t, f)
        verdicts.add(got)
        if len(t) <= 6:
            assert got == naive_eval(m, t, f), sorted(t.rows)
            checked += 1
    assert small == []
    assert generic and checked and verdicts == {True, False}
