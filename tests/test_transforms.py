"""Rewriter correctness: syntactic shape checks plus oracle sweeps at unit
scale (the full grids run in the acceptance suite)."""

import pytest

import teamsem as ts
from teamsem.syntax import And, Atom, Bracket, ClassicalOr, ContraNeg, Exists, Forall
from corpus import NEG_CORPUS, sweep_equivalent


def has_node(f, cls):
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, cls):
            return True
        for name in ("left", "right", "body"):
            child = getattr(g, name, None)
            if isinstance(child, ts.Formula):
                stack.append(child)
    return False


# ---------------------------------------------------------------------------
# flattening


def test_flatten_shapes():
    f = ts.parse("dep(x; y) & x = y")
    out = ts.flatten(f)
    assert out == And(ts.TOP, ts.parse("x = y"))
    fo = ts.parse("exists z (z = x | z != y)")
    assert ts.flatten(fo) == fo
    assert ts.flatten(ts.NE) == ts.TOP
    for bad in ("~NE", "NE || NE", "NE -> NE", "<>NE", "[T]"):
        with pytest.raises(ts.TransformError):
            ts.flatten(ts.parse(bad))


def test_flatten_is_implied():
    """Satisfaction carries over to the flattening."""
    texts = ["dep(x; y) & x = y", "NE | const(x)", "all(x) & x != y",
             "exists z (dep(z; x) & z != y)", "geq(x, 2) | x = y"]
    for text in texts:
        f = ts.parse(text)
        ff = ts.flatten(f)
        for size in (1, 2, 3):
            m = ts.Model(size)
            for t in ts.enumerate_teams(m, ("x", "y")):
                if ts.evaluate(m, t, f):
                    assert ts.evaluate(m, t, ff), (text, size, sorted(t.rows))


def test_flatten_through_implications_is_implied():
    """An implication with a first-order antecedent flattens to the
    pointwise (not antecedent) | flattened consequent, a chain to one |
    chain, and the source still implies the output."""
    f = ts.parse("x = y -> x != x -> dep(x; y) & NE")
    assert ts.flatten(f) == ts.parse("x != y | x = x | T & T")
    for text in ("x = y -> dep(x; y) | x != y", "x != y -> all(x)",
                 "x = y -> (x != x -> NE) & const(y)"):
        f = ts.parse(text)
        ff = ts.flatten(f)
        assert ff.first_order
        for size in (1, 2, 3):
            m = ts.Model(size)
            for t in ts.enumerate_teams(m, ("x", "y")):
                if ts.evaluate(m, t, f):
                    assert ts.evaluate(m, t, ff), (text, size, sorted(t.rows))
    with pytest.raises(ts.TransformError):
        ts.flatten(ts.parse("x = y -> (NE -> x = y)"))


def test_raise_property_for_upward_closed_formulas():
    """With upward-closed atoms only: a satisfying subteam plus a
    flattening-satisfying superteam forces the superteam to satisfy."""
    texts = ["NE | x = y", "all(x) & x != y", "geq(x, 2) | NE",
             "exists z (all(z) & z = x)", "ncon(x) | x != y"]
    for text in texts:
        f = ts.parse(text)
        ff = ts.flatten(f)
        for size in (1, 2):
            m = ts.Model(size)
            for big in ts.enumerate_teams(m, ("x", "y")):
                if not ts.evaluate(m, big, ff):
                    continue
                import itertools
                rows = sorted(big.rows)
                for k in range(len(rows) + 1):
                    for combo in itertools.combinations(rows, k):
                        small = big.with_rows(combo)
                        if ts.evaluate(m, small, f):
                            assert ts.evaluate(m, big, f), (text, size)
                            break


# ---------------------------------------------------------------------------
# dual negation


def test_dual_negate_clauses():
    sig = ts.Signature({"R": 1})
    assert ts.dual_negate(ts.parse("x = y")) == ts.parse("x != y")
    assert ts.dual_negate(ts.parse("R(x)", sig)) == ts.parse("!R(x)", sig)
    assert ts.dual_negate(ts.parse("exists z (z = x)")) == \
        ts.parse("forall z (z != x)")
    f = ts.parse("exists z (R(z) & (z = x | z != y))", sig)
    assert ts.dual_negate(ts.dual_negate(f)) == f
    with pytest.raises(ts.TransformError):
        ts.dual_negate(ts.NE)


# ---------------------------------------------------------------------------
# restriction


def test_restrict_formula_construction():
    f, theta = ts.parse("NE"), ts.parse("x = y")
    out = ts.restrict_formula(f, theta)
    assert out == ts.parse("x != y | x = y & NE")
    with pytest.raises(ts.TransformError):
        ts.restrict_formula(f, ts.NE)


def test_restrict_formula_semantics():
    for f_text, theta_text in [("NE", "x = y"), ("const(x)", "x != y"),
                               ("all(x)", "exists z (z = x)"),
                               ("dep(x; y)", "x != y")]:
        f, theta = ts.parse(f_text), ts.parse(theta_text)
        out = ts.restrict_formula(f, theta)
        for size in (1, 2, 3):
            m = ts.Model(size)
            for t in ts.enumerate_teams(m, ("x", "y")):
                want = ts.evaluate(m, ts.restrict(m, t, theta), f)
                assert ts.evaluate(m, t, out) == want, (f_text, theta_text)


def test_restrict_formula_top_and_unsatisfiable():
    f = ts.parse("const(x)")
    top_case = ts.restrict_formula(f, ts.parse("x = x"))
    empty_case = ts.restrict_formula(f, ts.parse("x != x"))
    assert sweep_equivalent(top_case, f, ("x",)).equivalent
    assert sweep_equivalent(empty_case, ts.TOP, ("x",)).equivalent


# ---------------------------------------------------------------------------
# whole-team disjunction normal form


def test_dnf_shapes():
    parts = ts.to_classical_dnf(ts.parse("(x = y || x != y) & const(x)"))
    assert parts == [ts.parse("x = y & const(x)"), ts.parse("x != y & const(x)")]
    assert ts.to_classical_dnf(ts.parse("dep(x; y)")) == [ts.parse("dep(x; y)")]
    parts = ts.to_classical_dnf(ts.parse("exists z (z = x || z = y)"))
    assert parts == [ts.parse("exists z (z = x)"), ts.parse("exists z (z = y)")]
    for p in ts.to_classical_dnf(
            ts.parse("(NE || const(x)) | (all(x) || x = y)")):
        assert not has_node(p, ClassicalOr)
    with pytest.raises(ts.TransformError):
        ts.to_classical_dnf(ts.parse("~NE"))


def test_dnf_equivalence():
    texts = ["(NE || const(x)) & x = y", "exists z (NE || z = x)",
             "forall z (z = x || z != x)", "(NE || x = y) | const(x)",
             "(NE || bot) & (x = y || NE)"]
    for text in texts:
        f = ts.parse(text)
        parts = ts.to_classical_dnf(f)
        joined = ts.transforms.classical_or_all(parts)
        assert sweep_equivalent(f, joined).equivalent, text


# ---------------------------------------------------------------------------
# contradictory negation elimination


def test_neg_eliminate_shapes():
    out = ts.neg_eliminate(ts.parse("~NE"))
    assert out == ts.BOT
    for text in NEG_CORPUS:
        out = ts.neg_eliminate(ts.parse(text))
        assert not has_node(out, ContraNeg), text
    with pytest.raises(ts.TransformError):
        ts.neg_eliminate(ts.parse("~const(x)"))
    with pytest.raises(ts.TransformError):
        ts.neg_eliminate(ts.parse("~<>NE"))


def test_neg_eliminate_first_order_case():
    f = ts.parse("~(x = y)")
    out = ts.neg_eliminate(f)
    assert out == ts.parse("x = y | x != y & NE")
    assert sweep_equivalent(f, out, max_model=2).equivalent


def test_neg_eliminate_small_equivalences():
    for text in NEG_CORPUS[:8]:
        f = ts.parse(text)
        out = ts.neg_eliminate(f)
        assert sweep_equivalent(f, out, max_model=2).equivalent, text


def test_double_negation_round_trip():
    for text in ("NE", "x = y", "NE | x = y"):
        f = ts.parse(f"~~({text})")
        out = ts.neg_eliminate(f)
        assert sweep_equivalent(out, ts.parse(text), max_model=2).equivalent


def test_neg_restrict_commute():
    psi, theta = ts.parse("NE"), ts.parse("x = y")
    out = ts.neg_restrict_commute(psi, theta)
    assert out == ts.restrict_formula(ContraNeg(psi), theta)
    lhs = ContraNeg(ts.restrict_formula(psi, theta))
    assert sweep_equivalent(lhs, out, max_model=2).equivalent
    # with theta = T the restriction is the whole team
    out_top = ts.neg_restrict_commute(psi, ts.parse("x = x"))
    assert sweep_equivalent(out_top, ContraNeg(psi), ("x",)).equivalent
    with pytest.raises(ts.TransformError):
        ts.neg_restrict_commute(psi, ts.NE)


def test_neg_restrict_of_ne_means_empty_restriction():
    """(~NE) restricted to theta holds exactly when no row satisfies theta."""
    theta = ts.parse("exists z (z = x & z != y)")
    out = ts.neg_restrict_commute(ts.NE, theta)
    m = ts.Model(3)
    for t in ts.enumerate_teams(m, ("x", "y")):
        want = ts.restrict(m, t, theta).is_empty()
        assert ts.evaluate(m, t, out) == want, sorted(t.rows)


def test_constructions_print_and_reparse():
    for f in (ts.dep_via_neg_const(("v",), ("w",)),
              ts.dep_via_neg_const(("a", "b"), ("c",)),
              ts.counting_formula("co_le", 2, "v"),
              ts.counting_atom_definition("co_neq", 1, "v"),
              ts.compile_unary_dependency(
                  ts.UnaryDepDescription.parse("eq:1 | co_eq:0"), "v")):
        assert ts.parse(ts.pretty(f)) == f


# ---------------------------------------------------------------------------
# the reverse encodings


def test_ne_via_neg():
    out = ts.ne_via_neg()
    assert out == ContraNeg(ts.BOT)
    assert sweep_equivalent(out, ts.NE).equivalent


def test_classical_or_via_neg():
    a, b = ts.parse("const(x)"), ts.parse("x = y")
    out = ts.classical_or_via_neg(a, b)
    assert sweep_equivalent(out, ClassicalOr(a, b), max_model=2).equivalent
    same = ts.classical_or_via_neg(a, a)
    assert sweep_equivalent(same, a, max_model=2).equivalent


def test_ne_via_totality():
    out = ts.ne_via_totality()
    assert out == Forall("q", Atom("all", (("q",),)))
    m = ts.Model(2)
    assert not ts.evaluate(m, ts.Team(("x",)), out)
    assert ts.evaluate(m, ts.Team(("x",), [(0,)]), out)
    assert sweep_equivalent(out, ts.NE).equivalent


def test_dep_via_neg_const_unary():
    out = ts.dep_via_neg_const(("v",), ("w",))
    assert has_node(out, ContraNeg)
    report = sweep_equivalent(out, ts.parse("dep(v; w)"), ("v", "w"),
                              max_model=2)
    assert report.equivalent
    # fresh variables avoid the inputs
    out2 = ts.dep_via_neg_const(("p1",), ("q1",))
    assert sweep_equivalent(out2, ts.parse("dep(p1; q1)"), ("p1", "q1"),
                            max_model=2).equivalent


def test_dep_via_neg_const_empty_and_constant_teams():
    out = ts.dep_via_neg_const(("v",), ("w",))
    m = ts.Model(2)
    assert ts.evaluate(m, ts.Team(("v", "w")), out)  # empty team
    assert ts.evaluate(m, ts.Team(("v", "w"), [(0, 1)]), out)  # constant team


# ---------------------------------------------------------------------------
# counting


def cardinality_truth(kind, k, team, v, size):
    count = len(team.project_rows((v,)))
    return {"le": count <= k, "ge": count >= k,
            "co_le": size - count <= k, "co_ge": size - count >= k}[kind]


def test_counting_formula_semantics():
    for kind in ("le", "ge", "co_le", "co_ge"):
        for k in (0, 1, 2):
            f = ts.counting_formula(kind, k, "v")
            for size in (1, 2, 3):
                m = ts.Model(size)
                for t in ts.enumerate_teams(m, ("v",)):
                    if t.is_empty():
                        continue
                    assert ts.evaluate(m, t, f) == \
                        cardinality_truth(kind, k, t, "v", size), (kind, k, size)


def test_counting_formula_edges():
    # at-least-zero holds everywhere, at-most-zero only on the empty team
    ge0 = ts.counting_formula("ge", 0, "v")
    le0 = ts.counting_formula("le", 0, "v")
    m = ts.Model(2)
    for t in ts.enumerate_teams(m, ("v",)):
        assert ts.evaluate(m, t, ge0)
        assert ts.evaluate(m, t, le0) == t.is_empty()


def test_counting_atom_definitions():
    atoms = {"eq": "count_eq", "neq": "count_neq",
             "co_eq": "cocount_eq", "co_neq": "cocount_neq"}
    for kind, atom in atoms.items():
        for k in (0, 1, 2):
            defn = ts.counting_atom_definition(kind, k, "v")
            target = ts.parse(f"{atom}(v, {k})")
            report = sweep_equivalent(defn, target, ("v",),
                                      team_filter="nonempty")
            assert report.equivalent, (kind, k, report)


# ---------------------------------------------------------------------------
# unary dependency compilation


def test_description_parsing():
    d = ts.UnaryDepDescription.parse("eq:1 & co_eq:0 | neq:2")
    assert d.clauses == (
        (ts.CountingTerm("eq", 1), ts.CountingTerm("co_eq", 0)),
        (ts.CountingTerm("neq", 2),),
    )
    with pytest.raises(ValueError):
        ts.UnaryDepDescription.parse("ge:1")
    with pytest.raises(ValueError):
        ts.UnaryDepDescription(())


def test_compile_unary_dependency_matches_direct_semantics():
    cases = ["eq:1", "co_eq:0", "neq:0", "eq:0 | eq:2", "neq:1 & co_neq:0"]
    for text in cases:
        d = ts.UnaryDepDescription.parse(text)
        compiled = ts.compile_unary_dependency(d, "v")
        sentence = ts.unary_description_sentence(d)
        reg = ts.EMPTY_REGISTRY.register(ts.DependencySpec("target", 1, sentence))
        atom = Atom("custom", (("v",),), name="target")
        report = ts.equivalent(atom, compiled, ("v",), max_model=3,
                               team_filter="nonempty", registry=reg)
        assert report.equivalent, (text, report)


def test_unary_description_sentence_counts():
    # exactly-one-member relation over a 3-element domain
    d = ts.UnaryDepDescription.parse("eq:1")
    sentence = ts.unary_description_sentence(d, relation="P")
    sig = ts.Signature({"P": 1})
    for rel, want in [(set(), False), ({(0,)}, True), ({(0,), (2,)}, False)]:
        m = ts.Model(3, {"P": rel}, sig)
        assert ts.tarski_eval(m, {}, sentence) == want, rel


# ---------------------------------------------------------------------------
# bracket extraction


def test_extract_brackets_shapes():
    f = ts.parse("[exists v1 (v1 = v1)] & NE")
    sentences, core = ts.extract_brackets(f)
    assert sentences == [ts.parse("exists v1 (v1 = v1)")]
    assert core == ts.NE
    assert ts.extract_brackets(ts.parse("dep(x; y)")) == ([], ts.parse("dep(x; y)"))
    # nesting under a quantifier hoists
    g = ts.parse("exists z ([bot] & z = x)")
    sentences, core = ts.extract_brackets(g)
    assert sentences == [ts.BOT]
    assert core == Exists("z", ts.parse("z = x"))
    assert not has_node(core, Bracket)
    with pytest.raises(ts.TransformError):
        ts.extract_brackets(ts.parse("~[T]"))
    with pytest.raises(ts.TransformError):
        ts.extract_brackets(ts.parse("[T] || NE"))


def test_extract_brackets_dnf_handles_classical_or():
    f = ts.parse("([bot] & NE) || const(x)")
    pairs = ts.extract_brackets_dnf(f)
    assert len(pairs) == 2
    assert pairs[0][0] == [ts.BOT] and pairs[1][0] == []


def test_extract_brackets_equivalence():
    texts = ["[exists v1 (v1 = v1)] & NE",
             "exists z ([exists v1 exists v2 (v1 != v2)] & z = x)",
             "forall z ([T] & (z = x | z != x))",
             "([bot] | x = y) & const(x)"]
    for text in texts:
        f = ts.parse(text)
        sentences, core = ts.extract_brackets(f)
        rebuilt = core
        for s in reversed(sentences):
            rebuilt = And(Bracket(s), rebuilt)
        assert sweep_equivalent(f, rebuilt, max_model=2).equivalent, text


def test_rewriters_are_deterministic():
    f = ts.parse("~(exists z (z = x & NE))")
    assert ts.neg_eliminate(f) == ts.neg_eliminate(f)
    assert ts.dep_via_neg_const(("v",), ("w",)) == ts.dep_via_neg_const(("v",), ("w",))
    assert ts.counting_formula("co_le", 2, "v") == ts.counting_formula("co_le", 2, "v")


def test_co_le_bounds_the_domain_by_the_dual_of_at_least():
    """co_le's bracket, "at most k elements", is the dual of "at least k + 1
    elements": the same interned node as the sentence written out, forall
    x1 ... x(k+1) over the equalities of their pairs (x1 != x1 at k = 0)."""
    from teamsem.syntax import Equal, NotEqual, or_all

    for k in range(7):
        xs = [f"x{i}" for i in range(1, k + 2)]
        body = NotEqual("x1", "x1") if k == 0 else or_all(
            Equal(a, b) for i, a in enumerate(xs) for b in xs[i + 1:])
        for x in reversed(xs):
            body = Forall(x, body)
        f = ts.counting_formula("co_le", k, "v")
        assert f is ClassicalOr(Bracket(body), f.right), k
