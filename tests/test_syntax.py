"""Parser, printer, and AST invariants."""

import random

import pytest

import teamsem as ts
from teamsem.syntax import (
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
    _tokenize,
    fresh_tuple,
)

SIG = ts.Signature({"R": 2, "P": 1})


def rt(text, sig=SIG):
    f = ts.parse(text, sig)
    again = ts.parse(ts.pretty(f), sig)
    assert again == f, f"round trip changed {text!r}: {ts.pretty(f)!r}"
    return f


def test_infinity_sentence_shape():
    f = rt("exists x forall y exists z (dep(z; y) & z != x)")
    assert f == Exists("x", Forall("y", Exists("z", And(
        Atom("dep", (("z",), ("y",))), NotEqual("z", "x")))))


def test_top_bot_sugar():
    assert ts.parse("T") == Forall("v", Equal("v", "v"))
    assert ts.parse("bot") == Exists("v", NotEqual("v", "v"))
    assert ts.pretty(ts.BOT) == "exists v (v != v)"
    assert ts.pretty(ts.TOP) == "forall v (v = v)"


def test_classical_or_of_atoms():
    f = rt("NE || all(x)")
    assert f == ClassicalOr(ts.NE, Atom("all", (("x",),)))


def test_precedence_chain():
    f = rt("~a = b & c = d | e = f || g = h -> i = j")
    assert isinstance(f, IntImpl)
    assert isinstance(f.left, ClassicalOr)
    assert isinstance(f.left.left, TensorOr)
    assert isinstance(f.left.left.left, And)
    assert f.left.left.left.left == ContraNeg(Equal("a", "b"))


def test_arrow_right_associative():
    f = rt("a = b -> c = d -> e = f")
    assert isinstance(f, IntImpl) and isinstance(f.right, IntImpl)


def test_diamond_and_negation_bind_tightest():
    f = rt("<>x = y & NE")
    assert f == And(Possibly(Equal("x", "y")), ts.NE)


def test_atom_syntax_variants():
    assert ts.parse("dep(x y; w)") == ts.parse("dep(x, y; w)")
    assert ts.parse("const(x,y)") == Atom("const", (("x", "y"),))
    assert ts.parse("geq(x y, 3)") == Atom("geq", (("x", "y"),), param=3)
    assert ts.parse("ind(u; v; w)") == Atom(
        "ind", (("u",), ("v",), ("w",)))
    assert ts.parse("count_eq(v, 2)") == Atom("count_eq", (("v",),), param=2)
    assert ts.parse("D:mine(x, y)") == Atom("custom", (("x", "y"),), name="mine")
    assert ts.parse("D:zero()") == Atom("custom", ((),), name="zero")


def test_literals_and_bang():
    assert rt("R(x, y)", SIG) == PositiveLiteral("R", ("x", "y"))
    assert rt("!R(x, y)", SIG) == NegativeLiteral("R", ("x", "y"))
    with pytest.raises(ts.ParseError):
        ts.parse("!(x = y)", SIG)
    with pytest.raises(ts.ParseError):
        ts.parse("!x = y", SIG)


def test_parse_errors_carry_position():
    with pytest.raises(ts.ParseError) as e:
        ts.parse("x = ", SIG)
    assert e.value.position is not None
    with pytest.raises(ts.ParseError):
        ts.parse("Q(x)", SIG)  # unknown relation
    with pytest.raises(ts.ParseError):
        ts.parse("P(x, y)", SIG)  # arity mismatch
    with pytest.raises(ts.ParseError):
        ts.parse("R(x y", SIG)


def error_at(text):
    with pytest.raises(ts.ParseError) as e:
        ts.parse(text, SIG)
    return str(e.value), e.value.position


def test_tokenizer_errors_and_whitespace():
    """A stray character is named where it stands, whitespace of any kind
    around tokens is skipped, and the end of input sits at len(text)."""
    assert error_at("x = y $") == ("unexpected character '$' (at position 6)", 6)
    for lone in "-<>":
        assert error_at(lone) == (f"unexpected character {lone!r} (at position 0)", 0)
    for text in ("\tx = y", "x\n=\ty", "x = y  \n\t", "\n x\t=\n y \t"):
        assert ts.parse(text) == Equal("x", "y"), repr(text)
    for text in ("", " ", "\t\n  "):
        assert error_at(text) == (
            f"unexpected 'end of input' (at position {len(text)})", len(text))


#: token texts, whitespace and characters that start no token, joined at
#: random by the tokenizer law
TOKEN_TEXTS = ["x", "y2", "abc", "R", "Pq_1", "D:tot", "12", "0", "->", "||", "!=",
               "<>", "&", "|", "~", "(", ")", "[", "]", ";", ",", "=", "!"]
SPACES = [" ", "  ", "\t", "\n", "\r\n", "\u3000"]
STRAYS = ["$", "-", "<", ">", ":", ".", "#", "\u00e9"]


def starts_token(text):
    """Whether a token starts at text[0], read from the token table rather
    than the tokenizer's pattern."""
    c = text[0]
    return (c.isascii() and (c.isalnum() or c in "&|~()[];,=!")
            or text.startswith(("->", "<>")))


def test_tokens_cover_the_text_law():
    """Either every token's text sits at its position with only whitespace
    between, before and after the tokens, or a ParseError names the first
    character at which no token starts.  Skipped where hypothesis is not
    installed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=400)
    @hypothesis.given(st.lists(st.sampled_from(TOKEN_TEXTS + SPACES + STRAYS),
                               max_size=12))
    def law(parts):
        text = "".join(parts)
        try:
            tokens = _tokenize(text)
        except ts.ParseError as e:
            pos = e.position
            assert not text[pos].isspace() and not starts_token(text[pos:])
            assert str(e) == f"unexpected character {text[pos]!r} (at position {pos})"
            _tokenize(text[:pos])  # all before it is tokens and whitespace
            return
        assert tokens[-1] == ("EOF", "", len(text))
        end = 0
        for kind, value, pos in tokens[:-1]:
            assert value and text[pos:pos + len(value)] == value, (text, kind)
            assert text[end:pos].isspace() or end == pos, (text, pos)
            end = pos + len(value)
        assert text[end:].isspace() or end == len(text)

    law()


def test_bracket_requires_sentence():
    rt("[exists z R(z, z)]", SIG)
    with pytest.raises(ts.ParseError):
        ts.parse("[R(x, y)]", SIG)
    with pytest.raises(ValueError):
        Bracket(PositiveLiteral("R", ("x", "y")))
    with pytest.raises(ValueError):
        Bracket(ts.NE)  # not first-order


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("inc", (("x", "y"), ("u",)))  # mismatched sides
    with pytest.raises(ValueError):
        Atom("geq", (("x",),))  # missing parameter
    with pytest.raises(ValueError):
        Atom("geq", (("x",),), param=-1)
    with pytest.raises(ValueError):
        Atom("count_eq", (("x", "y"),), param=1)
    with pytest.raises(ValueError):
        Atom("dep", (("x",),))
    with pytest.raises(ValueError):
        Atom("nosuch", (("x",),))


#: malformed atoms, each a parse error with a position inside the atom
MALFORMED_ATOMS = [
    "geq(x)", "geq(x, 1, 2)", "geq(x; 3)", "dep(x; y, 3)", "ncon(x, 2)",
    "dep(x)", "dep(x; y; z)", "ind(x; y)", "dep(x;)", "const()",
    "inc(x; y z)", "count_eq(x y, 1)", "count_eq(x)", "D:f(x; y)", "D:f(x, 3)",
    "all(exists)", "dep(x; y", "const x",
]


@pytest.mark.parametrize("text", MALFORMED_ATOMS)
def test_malformed_atom_is_parse_error(text):
    source = "NE & " + text
    with pytest.raises(ts.ParseError) as e:
        ts.parse(source, SIG)
    assert len("NE & ") <= e.value.position <= len(source)


def test_free_variables():
    assert ts.free_variables(ts.parse("dep(x; y)")) == {"x", "y"}
    assert ts.free_variables(ts.parse("exists x (x = y)")) == {"y"}
    assert ts.free_variables(ts.parse("[forall x R(x, x)]", SIG)) == set()
    assert ts.free_variables(ts.parse("ind(u; v; w)")) == {"u", "v", "w"}
    assert ts.free_variables(ts.parse("NE")) == set()


def test_fresh_variable():
    assert ts.fresh_variable(set()) == "v1"
    assert ts.fresh_variable({"x", "y"}) not in {"x", "y"}
    assert ts.fresh_variable({"v1", "v2"}) == "v3"
    # growing avoid sets never collide
    avoid = set()
    for _ in range(30):
        v = ts.fresh_variable(avoid)
        assert v not in avoid
        avoid.add(v)
    assert fresh_tuple("p", 3, {"p2"}) == ("p1", "p3", "p4")


def test_construct_coverage():
    """Every operator and atom kind is expressible in the grammar."""
    texts = [
        "R(x, y)", "!R(x, y)", "x = y", "x != y", "x = y | x != y",
        "x = y & x != y", "exists x (x = y)", "forall x (x = y)",
        "x = y || x != y", "~x = y", "x = y -> x != y", "<>x = y",
        "[exists z (z = z)]",
        "const(x)", "dep(x; y)", "inc(x; y)", "ind(u; v; w)", "all(x)",
        "NE", "ncon(x)", "ndep(x; y)", "geq(x, 1)", "ninc(x; y)",
        "nind(u; v; w)", "count_eq(v, 0)", "count_neq(v, 0)",
        "cocount_eq(v, 0)", "cocount_neq(v, 0)", "D:mine(x)",
    ]
    seen = set()
    for text in texts:
        f = rt(text)
        seen.add(type(f).__name__ if not isinstance(f, Atom) else f.kind)
    assert {"PositiveLiteral", "NegativeLiteral", "Equal", "NotEqual",
            "TensorOr", "And", "Exists", "Forall", "ClassicalOr", "ContraNeg",
            "IntImpl", "Possibly", "Bracket"} <= seen
    assert set(ts.syntax._ATOM_SHAPES) | {"custom"} <= seen


def _random_formula(rng, depth, vars_=("x", "y", "z")):
    if depth == 0:
        choices = [
            lambda: Equal(rng.choice(vars_), rng.choice(vars_)),
            lambda: NotEqual(rng.choice(vars_), rng.choice(vars_)),
            lambda: PositiveLiteral("P", (rng.choice(vars_),)),
            lambda: NegativeLiteral("R", (rng.choice(vars_), rng.choice(vars_))),
            lambda: ts.NE,
            lambda: Atom("const", ((rng.choice(vars_),),)),
            lambda: Atom("dep", ((rng.choice(vars_),), (rng.choice(vars_),))),
            lambda: Atom("inc", ((rng.choice(vars_),), (rng.choice(vars_),))),
            lambda: Atom("all", (tuple(rng.sample(vars_, 2)),)),
            lambda: Atom("geq", ((rng.choice(vars_),), ), rng.randrange(4)),
            lambda: Atom("count_eq", ((rng.choice(vars_),),), rng.randrange(3)),
            lambda: Atom("custom", ((rng.choice(vars_),),), name="mine"),
            lambda: Bracket(Exists("w", Equal("w", "w"))),
        ]
        return rng.choice(choices)()
    sub = lambda: _random_formula(rng, depth - 1, vars_)
    choices = [
        lambda: And(sub(), sub()),
        lambda: TensorOr(sub(), sub()),
        lambda: ClassicalOr(sub(), sub()),
        lambda: IntImpl(sub(), sub()),
        lambda: ContraNeg(sub()),
        lambda: Possibly(sub()),
        lambda: Exists(rng.choice(vars_), sub()),
        lambda: Forall(rng.choice(vars_), sub()),
    ]
    return rng.choice(choices)()


def test_round_trip_random_formulas():
    rng = random.Random(20240811)
    for _ in range(400):
        f = _random_formula(rng, rng.randrange(4))
        text = ts.pretty(f)
        assert ts.parse(text, SIG) == f, text


def test_signature_validation():
    with pytest.raises(ValueError):
        ts.Signature({"lower": 1})
    with pytest.raises(ValueError):
        ts.Signature({"NE": 1})
    with pytest.raises(ValueError):
        ts.Signature({"R": -1})
    sig = ts.Signature({"R": 2})
    assert "R" in sig and sig.arity("R") == 2


def test_weakenings_drop_vacuous_quantifiers():
    """A quantifier whose weakened body lacks its variable is that body."""
    assert ts.parse("exists p (const(p) & x = x)").envelope is ts.parse("x = x")
    assert ts.parse("forall p (dep(x; p) & x != y)").downward_part \
        is ts.parse("forall p (dep(x; p) & x != y)")
    assert ts.parse("forall p (NE & x != y)").downward_part is ts.parse("x != y")
