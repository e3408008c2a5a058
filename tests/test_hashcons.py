"""Hash-consed formula nodes: one object per structure, stored properties
that agree with from-scratch recursive definitions, and pickling and
garbage collection that respect the interning table."""

import gc
import pickle
from itertools import combinations, product
from types import SimpleNamespace

import pytest

import teamsem as ts
from corpus import (BOUND_CORPUS, BRACKET_CORPUS, FO_CORPUS, NEG_CORPUS, SENTENCE_PAIRS,
                    all_teams)
from teamsem.evaluator import union_closed, upward_closed
from teamsem.syntax import (
    _TABLE,
    And,
    Atom,
    Bracket,
    ClassicalOr,
    ContraNeg,
    Equal,
    Exists,
    Forall,
    IntImpl,
    NegativeLiteral,
    NotEqual,
    Possibly,
    PositiveLiteral,
    TensorOr,
)

SIG = ts.Signature({"P": 1, "R": 2})

#: formulas outside the shared corpora: every construct, custom atoms in
#: upward and non-upward positions, repeated custom names
EXTRA = [
    "x = y -> NE",
    "<>(dep(x; y) | NE)",
    "~const(x) || all(x y)",
    "[exists z P(z)] & <>ncon(x)",
    "exists z (inc(x; z) & ind(x; y; z))",
    "forall z (ndep(x; z) | geq(x z, 2))",
    "count_eq(x, 1) & cocount_neq(y, 0)",
    "D:up(x) & NE",
    "D:up(x) | D:down(y)",
    "<>D:down(x) & D:up(y)",
    "exists z (D:down(z) & D:up(x) & D:down(y))",
    "D:up(x) || D:down(x)",
    "~D:up(x) & const(y)",
    "exists z (R(z, x) & const(z)) | !P(y) & x != y",
]

#: constancy under every connective and quantifier, over at most three
#: free variables
CONST_TEXTS = [
    "const(x y) & R(x, z)",
    "forall w (const(x w) & dep(z; y))",
    "exists w (const(x) & const(w) & R(w, y))",
    "exists x (const(x) & x = y) & const(z)",
    "exists x (exists x const(x) & x = y)",
    "const(x) | const(y)",
    "const(x) || const(y)",
    "~const(x) & P(y)",
    "const(x) -> const(y)",
    "<>const(x) & const(y)",
    "forall w (dep(x; w) | const(y)) & const(z) & ncon(y)",
]

UP_SENTENCE = ts.parse("exists z R(z)", ts.Signature({"R": 1}))
REGISTRIES = [
    ts.EMPTY_REGISTRY
    .register(ts.DependencySpec("up", 1, UP_SENTENCE, up_claim))
    .register(ts.DependencySpec("down", 1, UP_SENTENCE, down_claim))
    for up_claim in ("yes", "no") for down_claim in ("yes", "unknown")
]

#: a registry stand-in under which every custom atom is upward closed:
#: ref_up and ref_union under it are the built-in flags
ALL_UP = SimpleNamespace(get=lambda name: SimpleNamespace(claimed_upward_closed="yes"))


def corpus() -> list:
    texts = ([(sig, text) for sig, text in FO_CORPUS + BRACKET_CORPUS]
             + [(ts.EMPTY_SIGNATURE, t) for t in NEG_CORPUS + BOUND_CORPUS]
             + [(ts.EMPTY_SIGNATURE, t) for pair in SENTENCE_PAIRS for t in pair]
             + [(SIG, t) for t in EXTRA + CONST_TEXTS])
    return [ts.parse(text, sig) for sig, text in texts]


def nodes(f) -> list:
    """Every subformula of f, f included."""
    out = [f]
    for value in vars(f).values():
        if isinstance(value, ts.Formula):
            out += nodes(value)
    return out


# ---------------------------------------------------------------------------
# reference definitions, recursive and independent of the stored values


def ref_free(f) -> frozenset:
    match f:
        case PositiveLiteral(_, args) | NegativeLiteral(_, args):
            return frozenset(args)
        case Equal(a, b) | NotEqual(a, b):
            return frozenset((a, b))
        case And(l, r) | TensorOr(l, r) | ClassicalOr(l, r) | IntImpl(l, r):
            return ref_free(l) | ref_free(r)
        case Exists(v, body) | Forall(v, body):
            return ref_free(body) - {v}
        case ContraNeg(body) | Possibly(body):
            return ref_free(body)
        case Bracket():
            return frozenset()
        case Atom(_, parts):
            return frozenset(v for part in parts for v in part)


def ref_fo(f) -> bool:
    match f:
        case PositiveLiteral() | NegativeLiteral() | Equal() | NotEqual():
            return True
        case And(l, r) | TensorOr(l, r):
            return ref_fo(l) and ref_fo(r)
        case Exists(_, body) | Forall(_, body):
            return ref_fo(body)
    return False


def ref_arities(f) -> frozenset:
    match f:
        case PositiveLiteral(rel, args) | NegativeLiteral(rel, args):
            return frozenset({(rel, len(args))})
        case And(l, r) | TensorOr(l, r) | ClassicalOr(l, r) | IntImpl(l, r):
            return ref_arities(l) | ref_arities(r)
        case Exists(_, b) | Forall(_, b) | ContraNeg(b) | Possibly(b) | Bracket(b):
            return ref_arities(b)
    return frozenset()


def ref_down(f) -> bool:
    match f:
        case PositiveLiteral() | NegativeLiteral() | Equal() | NotEqual():
            return True
        case Atom(kind):
            return kind in ("const", "dep")
        case And(l, r) | TensorOr(l, r) | ClassicalOr(l, r):
            return ref_down(l) and ref_down(r)
        case Exists(_, body) | Forall(_, body):
            return ref_down(body)
        case Bracket() | IntImpl():
            return True
    return False


def ref_coherent(f) -> bool:
    if ref_fo(f):
        return True
    match f:
        case Atom(kind):
            return kind in ("const", "dep")
        case And(l, r):
            return ref_coherent(l) and ref_coherent(r)
        case Forall(_, body):
            return ref_coherent(body)
    return False


def ref_forced(f) -> set:
    """Every (v, D) such that f forces dep(D; v), D a sorted tuple."""
    match f:
        case Atom("const", parts):
            return {(x, ()) for x in parts[0]}
        case Atom("dep", (xs, ys)):
            return {(y, tuple(sorted(set(xs)))) for y in ys if y not in xs}
        case And(l, r):
            return ref_forced(l) | ref_forced(r)
        case Exists(v, body) | Forall(v, body):
            return {(w, d) for w, d in ref_forced(body) if w != v and v not in d}
    return set()


def ref_determiners(f) -> dict:
    """v -> the least D, fewest variables first, of ref_forced."""
    out = {}
    for v, d in sorted(ref_forced(f), key=lambda pair: (len(pair[1]), pair[1])):
        out.setdefault(v, d)
    return out


def ref_up(f, registry) -> bool:
    match f:
        case PositiveLiteral() | NegativeLiteral() | Equal() | NotEqual():
            return True
        case Atom(kind, _, _, name):
            if kind == "custom":
                return registry.get(name).claimed_upward_closed == "yes"
            return kind in ("ne", "ncon", "ndep", "geq", "all")
        case And(l, r) | TensorOr(l, r):
            return ref_up(l, registry) and ref_up(r, registry)
        case Exists(_, body) | Forall(_, body):
            return ref_up(body, registry)
        case Bracket() | Possibly():
            return True
    return False


def ref_union(f, registry) -> bool:
    match f:
        case Atom("inc"):
            return True
        case And(l, r) | TensorOr(l, r):
            return ref_union(l, registry) and ref_union(r, registry)
        case Exists(_, body) | Forall(_, body):
            return ref_union(body, registry)
    return ref_up(f, registry)


def ref_custom_names(f) -> tuple:
    """The custom atoms' names, first occurrence first, in a node that is
    union closed given them, through &, | and quantifiers."""
    match f:
        case Atom("custom", _, _, name):
            return (name,)
        case And(l, r) | TensorOr(l, r) if ref_union(f, ALL_UP):
            left = ref_custom_names(l)
            return left + tuple(n for n in ref_custom_names(r) if n not in left)
        case Exists(_, body) | Forall(_, body):
            return ref_custom_names(body)
    return ()


def ref_simp_and(l, r):
    return r if l == ts.TOP else l if r == ts.TOP else And(l, r)


def ref_envelope(f):
    if ref_fo(f):
        return f
    match f:
        case And(l, r):
            return ref_simp_and(ref_envelope(l), ref_envelope(r))
        case TensorOr(l, r) | ClassicalOr(l, r):
            el, er = ref_envelope(l), ref_envelope(r)
            return ts.TOP if ts.TOP in (el, er) else TensorOr(el, er)
        case Exists(v, body) | Forall(v, body):
            e = ref_envelope(body)
            return ts.TOP if e == ts.TOP else type(f)(v, e)
    return ts.TOP


def ref_downward_part(f):
    if ref_down(f):
        return f
    match f:
        case And(l, r):
            return ref_simp_and(ref_downward_part(l), ref_downward_part(r))
        case TensorOr(l, r) | ClassicalOr(l, r):
            dl, dr = ref_downward_part(l), ref_downward_part(r)
            return ts.TOP if ts.TOP in (dl, dr) else type(f)(dl, dr)
        case Exists(v, body) | Forall(v, body):
            d = ref_downward_part(body)
            return ts.TOP if d == ts.TOP else type(f)(v, d)
    return ts.TOP


# ---------------------------------------------------------------------------
# tests


def test_equal_constructions_are_one_object():
    assert Atom("ne") is Atom("ne", (), None, None) is ts.NE
    assert Atom(kind="ne") is Atom("ne", parts=(), name=None) is ts.NE
    assert Atom("geq", (("x",),), 2) is Atom("geq", (("x",),), param=2)
    assert Atom("custom", (("x",),), name="d") is Atom("custom", (("x",),), None, "d")
    eq = Equal("x", "y")
    assert And(eq, ts.NE) is And(Equal("x", "y"), Atom("ne"))
    assert Exists("v", NotEqual("v", "v")) is ts.BOT
    assert ts.parse("T") is ts.TOP
    assert And(eq, ts.NE) is not TensorOr(eq, ts.NE)
    assert And(eq, ts.NE) != And(ts.NE, eq)
    with pytest.raises(TypeError):
        And(eq)
    with pytest.raises(TypeError):
        And(eq, ts.NE, eq)


def test_round_trip_returns_the_same_node():
    for f in corpus():
        sig = SIG if f.arities else ts.EMPTY_SIGNATURE
        assert ts.parse(ts.pretty(f), sig) is f, ts.pretty(f)


def test_stored_hash_and_immutability():
    f = ts.parse("exists z (dep(x; z) & NE) | x = y")
    assert hash(f) == hash(ts.parse(ts.pretty(f)))
    assert len({f, ts.parse("exists z (dep(x; z) & NE) | x = y")}) == 1
    with pytest.raises(AttributeError):
        f.left = ts.NE
    with pytest.raises(AttributeError):
        del f.right


def test_invalid_construction_is_not_interned():
    size = len(_TABLE)
    with pytest.raises(ValueError):
        Equal("x", "Bad")
    with pytest.raises(ValueError):
        Bracket(ts.NE)  # not first-order
    with pytest.raises(ValueError):
        Bracket(PositiveLiteral("R", ("x", "y")))  # free variables
    with pytest.raises(ValueError):
        Atom("geq", (("x",),))
    gc.collect()
    assert len(_TABLE) <= size
    body = ts.parse("exists z R(z, z)", SIG)
    assert Bracket(body) is Bracket(body)
    assert ts.pretty(Bracket(body)) == "[exists z R(z, z)]"
    assert Atom("geq", (("x",),), 0) is ts.parse("geq(x, 0)")


def test_table_shrinks_after_collection():
    gc.collect()
    size = len(_TABLE)
    f = ts.parse("exists qq1 (qq1 != qq2 & ncon(qq3)) || ~dep(qq2; qq3)")
    assert len(_TABLE) > size
    del f
    gc.collect()
    assert len(_TABLE) == size


def test_fields_stay_in_the_instance_dict():
    """vars(node) holds exactly the constructor's fields, in their order,
    before and after the weakenings are read: syntax._children and
    syntax._map rebuild nodes from it, and the benchmark's tracer counts
    nodes by it."""
    eq, body = Equal("x", "y"), ts.parse("exists z R(z, z)", SIG)
    samples = [(PositiveLiteral, ("P", ("x",))), (NegativeLiteral, ("R", ("x", "y"))),
               (Equal, ("x", "y")), (NotEqual, ("y", "x")), (And, (eq, ts.NE)),
               (TensorOr, (ts.NE, eq)), (ClassicalOr, (eq, ts.NE)), (IntImpl, (eq, ts.NE)),
               (Exists, ("z", ts.NE)), (Forall, ("z", eq)), (ContraNeg, (eq,)),
               (Possibly, (ts.NE,)), (Bracket, (body,)),
               (Atom, ("custom", (("x", "y"),), None, "d")), (Atom, ("geq", (("x",),), 2, None))]
    assert {cls for cls, _ in samples} == set(ts.Formula.__subclasses__())
    for cls, args in samples:
        node = cls(*args)
        fields = list(zip(cls.__match_args__, args))
        assert list(vars(node).items()) == fields, cls.__name__
        assert node.envelope.first_order and node.downward_part.downward
        assert list(vars(node).items()) == fields, cls.__name__


def test_pickle_returns_the_interned_node():
    for f in corpus():
        assert pickle.loads(pickle.dumps(f)) is f
    assert pickle.loads(pickle.dumps([ts.NE, ts.TOP])) == [ts.NE, ts.TOP]


def check_stored(node):
    """Every stored property of the node, and both weakenings, equal their
    references."""
    label = ts.pretty(node)
    assert node.free_vars == ref_free(node) == ts.free_variables(node), label
    assert node.free_tuple == tuple(sorted(ref_free(node))), label
    assert node.first_order is ref_fo(node) is ts.is_first_order(node), label
    assert node.arities == ref_arities(node) == ts.syntax.relation_arities(node)
    assert node.downward is ref_down(node), label
    assert node.coherent is ref_coherent(node), label
    assert not node.coherent or node.downward, label
    assert node.determiners == ref_determiners(node), label
    for v, d in node.determiners.items():
        assert v not in d and {v, *d} <= node.free_vars, label
    assert node.up_builtin is ref_up(node, ALL_UP), label
    assert node.union_builtin is ref_union(node, ALL_UP), label
    assert node.custom_names == ref_custom_names(node), label
    assert node.envelope is ref_envelope(node), label
    assert node.downward_part is ref_downward_part(node), label
    assert node.envelope.first_order and node.downward_part.downward, label
    for registry in REGISTRIES:
        assert upward_closed(node, registry) is ref_up(node, registry), label
        assert union_closed(node, registry) is ref_union(node, registry), label


def test_stored_properties_match_references():
    for f in corpus():
        for node in nodes(f):
            check_stored(node)


#: sentences for brackets, atoms of every kind and custom atoms, over x, y, z
LAW_LEAVES = ["[exists a P(a)]", "[forall a exists b (R(a, b) | a = b)]", "NE",
              "dep(x; y)", "dep(x y; z x)", "const(x y)", "inc(x; y)", "ind(x; y; z)",
              "all(x y)", "ncon(x)", "ndep(x; y)", "geq(x y, 2)", "ninc(x; z)",
              "nind(x; y; z)", "count_eq(x, 1)", "count_neq(y, 0)", "cocount_eq(z, 2)",
              "cocount_neq(x, 1)", "D:up(x)", "D:down(y z)", "D:up(z)"]


def test_stored_properties_law():
    """A hypothesis law: on formulas over every constructor, every node's
    stored properties and weakenings, read first at the root, equal the
    recursive references.  Skipped where hypothesis is not installed."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    var = st.sampled_from(["x", "y", "z"])
    leaf = st.one_of(
        st.builds(PositiveLiteral, st.just("P"), st.tuples(var)),
        st.builds(NegativeLiteral, st.just("R"), st.tuples(var, var)),
        st.builds(Equal, var, var), st.builds(NotEqual, var, var),
        st.sampled_from([ts.parse(text, SIG) for text in LAW_LEAVES]))
    formulas = st.recursive(leaf, lambda sub: st.one_of(
        st.builds(lambda cls, l, r: cls(l, r),
                  st.sampled_from([And, TensorOr, ClassicalOr, IntImpl]), sub, sub),
        st.builds(lambda cls, v, body: cls(v, body), st.sampled_from([Exists, Forall]),
                  var, sub),
        st.builds(lambda cls, body: cls(body), st.sampled_from([ContraNeg, Possibly]), sub)),
        max_leaves=6)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(formulas)
    def law(f):
        for node in nodes(f):
            check_stored(node)

    law()


@pytest.mark.parametrize("text, coherent", [
    ("dep(x; y)", True),
    ("const(x)", True),
    ("R(x, y)", True),
    ("dep(x; y) & x != y", True),
    ("forall z dep(x z; y)", True),
    ("exists z dep(x; z)", False),
    ("inc(x; y)", False),
    ("NE", False),
    ("dep(x; y) | dep(x; y)", False),
    ("~dep(x; y)", False),
    ("D:up(x)", False),
])
def test_coherent_examples(text, coherent):
    assert ts.parse(text, SIG).coherent is coherent


def test_coherent_means_two_coherent():
    """A coherent formula holds on the empty team, and on a team exactly
    when it holds on each subteam of at most two rows."""
    model = ts.Model(2, {"P": {(0,)}, "R": {(0, 1), (1, 1)}}, SIG)
    formulas = [ts.parse(t, SIG) for t in (
        "dep(x; y) & x != z", "forall w dep(x w; y) & const(z)",
        "dep(x y; z) & (R(x, y) | P(z))", "forall w (dep(x; y) & R(w, y))")]
    for f in formulas:
        assert f.coherent
        for t in all_teams(model, ("x", "y", "z")):
            small = all(ts.evaluate(model, t.with_rows(pair), f)
                        for k in (0, 1, 2) for pair in combinations(t.rows, k))
            assert ts.evaluate(model, t, f) is small, (str(f), sorted(t.rows))


@pytest.mark.parametrize("text, const_vars", [
    ("const(x y) & R(x, z)", {"x", "y"}),
    ("forall w (const(x w) & dep(z; y))", {"x"}),
    ("exists x (const(x) & x = y) & const(z)", {"z"}),
    ("exists x (exists x const(x) & x = y)", set()),
    ("const(x) | const(y)", set()),
    ("const(x) || const(y)", set()),
    ("~const(x) & P(y)", set()),
    ("const(x) -> const(y)", set()),
    ("<>const(x) & const(y)", {"y"}),
    ("dep(x; y) & const(x)", {"x"}),
])
def test_const_vars_examples(text, const_vars):
    """The variables a formula forces constant are those it determines by
    the empty tuple."""
    dets = ts.parse(text, SIG).determiners
    assert {v for v, d in dets.items() if d == ()} == const_vars


@pytest.mark.parametrize("text, determiners", [
    ("dep(x; y z)", {"y": ("x",), "z": ("x",)}),
    ("dep(x; x)", {}),
    ("dep(y x x; z x)", {"z": ("x", "y")}),
    ("dep(x y; z) & dep(w; z) & dep(y; x)", {"z": ("w",), "x": ("y",)}),
    ("dep(x; y) & const(y)", {"y": ()}),
    ("exists x dep(x; y)", {}),
    ("exists y dep(x; y z)", {"z": ("x",)}),
    ("forall w dep(x; y)", {"y": ("x",)}),
    ("forall w (dep(x w; y) & dep(x; z))", {"z": ("x",)}),
    ("dep(x; y) | dep(x; y)", {}),
    ("dep(x; y) || dep(x; y)", {}),
    ("~dep(x; y)", {}),
    ("dep(x; y) -> dep(x; y)", {}),
    ("<>dep(x; y) & ndep(x; z) & inc(x; y)", {}),
])
def test_determiners_examples(text, determiners):
    assert ts.parse(text, SIG).determiners == determiners


def _model(f, size: int) -> ts.Model:
    """A model of the given size interpreting f's relations: P by 0, R by
    <=, any other relation by every tuple whose first entry is 0."""
    sig = ts.Signature(dict(f.arities))
    interp = {}
    for rel, arity in f.arities:
        tuples = product(range(size), repeat=arity)
        interp[rel] = {t for t in tuples
                       if (t[0] <= t[1] if rel == "R" else t[0] == 0)}
    return ts.Model(size, interp, sig)


def test_const_vars_are_forced():
    """Whenever f.determiners maps v to D, f fails on every team over its
    free variables at |M| <= 2 on which v is not a function of D: two rows
    agree on D and not on v.  With D = () that is v taking two values."""
    checked = dict.fromkeys(("const", "dep"), 0)
    extra = [ts.parse(text, SIG) for text in (
        "dep(x; y z) & R(x, y)", "exists w (dep(x w; y) & w = x)",
        "forall w (dep(y x; z) & P(w))")]
    forced = {node for f in corpus() + extra for node in nodes(f) if node.determiners}
    for node in forced:
        model = _model(node, 2)
        ev = ts.Evaluator(model, REGISTRIES[0])
        rows = list(product(range(2), repeat=len(node.free_tuple)))
        at = {}  # v -> (D, row -> (its D values, its v value))
        for v, d in node.determiners.items():
            cols, col = [node.free_tuple.index(w) for w in d], node.free_tuple.index(v)
            at[v] = d, {row: (tuple(row[i] for i in cols), row[col]) for row in rows}
        for t in all_teams(model, node.free_tuple):
            broken = []
            for v, (d, pair) in at.items():
                graph = {pair[row] for row in t.rows}
                if len(graph) > len(dict(graph)):  # a D value with two v values
                    broken.append(v)
                    checked["dep" if d else "const"] += 1
            if broken:
                assert not ev.evaluate(t, node), (ts.pretty(node), broken, sorted(t.rows))
    assert min(checked.values()) > 1000, checked


def test_union_closed_nodes_are_closed_under_unions():
    """Whenever a node is union closed, the union of any two teams over its
    free variables that satisfy it satisfies it, at |M| <= 2 on nodes of at
    most two free variables."""
    checked = 0
    for node in {node for f in corpus() for node in nodes(f)}:
        if len(node.free_vars) > 2 or not union_closed(node, REGISTRIES[0]):
            continue
        for size in (1, 2):
            model = _model(node, size)
            ev = ts.Evaluator(model, REGISTRIES[0])
            sat = [t for t in all_teams(model, node.free_tuple)
                   if ev.evaluate(t, node)]
            for a, b in combinations(sat, 2):
                assert ev.evaluate(a.with_rows(a.rows | b.rows), node), \
                    (ts.pretty(node), sorted(a.rows), sorted(b.rows))
                checked += 1
    assert checked > 1000


def test_custom_names_follow_upward_positions():
    f = ts.parse("<>D:down(x) & D:up(y) & exists z (D:down(z) | D:up(z))")
    assert f.custom_names == ("up", "down")
    assert ts.parse("D:up(x) || D:down(x)").custom_names == ()


def test_uid_and_sorted_free_variables():
    """Each live node has its own small integer uid (the evaluator's memo
    key) and its free variables as a sorted tuple."""
    by_uid = {}
    for f in corpus():
        for node in nodes(f):
            assert isinstance(node.uid, int)
            assert by_uid.setdefault(node.uid, node) is node, ts.pretty(node)
            assert node.free_tuple == tuple(sorted(ref_free(node)))
