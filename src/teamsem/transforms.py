"""Formula rewriters: flattening, dual negation, restriction, pulling the
whole-team disjunction outward, contradictory-negation elimination, the
definitions of functional dependence / nonemptiness / counting atoms in
terms of weaker atoms, the unary-dependency compiler, and bracket
extraction.

All rewriters are pure and deterministic: generated variable names come
from a fixed prefix sequence threaded through an avoid set seeded with the
input's variables.  They walk formulas with ``syntax._nodes`` and
``syntax._map``, which visit each distinct node once, children before
parents, without recursing.  ``_negate_plain`` alone recurses: its output
grows quadratically with the depth of what it negates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .syntax import (
    And,
    Atom,
    Bracket,
    ClassicalOr,
    ContraNeg,
    Equal,
    Exists,
    Forall,
    Formula,
    IntImpl,
    NE,
    NegativeLiteral,
    NotEqual,
    Possibly,
    PositiveLiteral,
    TensorOr,
    BOT,
    TOP,
    and_all,
    fresh_tuple,
    or_all,
    tuple_not_equal,
    _map,
    _nodes,
    _simp_and,
)


class TransformError(ValueError):
    """The input lies outside the fragment a rewriter is defined on."""


def flatten(f: Formula) -> Formula:
    """Replace every dependency atom (and NE) by T; first-order output.  A
    team satisfies phi -> psi, phi first-order, only if each row that
    satisfies phi satisfies psi, so a chain of these flattens to one ``|``
    chain of the dual negations of the phi and the flattened last psi."""
    def leaf(g: Formula) -> Formula | None:
        if g.first_order:
            return g
        if type(g) is Atom:
            return TOP
        sides = []
        while type(g) is IntImpl and g.left.first_order:
            sides.append(dual_negate(g.left))
            g = g.right
        if sides:
            return or_all([*sides, flatten(g)])
        if type(g) not in (And, TensorOr, Exists, Forall):
            raise TransformError(f"cannot flatten through {type(g).__name__}")

    return _map(f, leaf)


#: first-order construct -> the construct of its dual negation
_DUAL = {PositiveLiteral: NegativeLiteral, NegativeLiteral: PositiveLiteral,
         Equal: NotEqual, NotEqual: Equal, And: TensorOr, TensorOr: And,
         Exists: Forall, Forall: Exists}


def dual_negate(f: Formula) -> Formula:
    """Negation-normal-form negation of a first-order formula; on teams it
    holds exactly when every assignment falsifies the input pointwise."""
    def leaf(g: Formula) -> None:
        if type(g) not in _DUAL:
            raise TransformError(
                f"dual negation needs first-order input, got {type(g).__name__}")

    return _map(f, leaf, lambda g, fields: _DUAL[type(g)](*fields))


def restrict_formula(f: Formula, theta: Formula) -> Formula:
    """The restriction of f to theta: (not theta) | (theta & f).

    A team satisfies it exactly when the theta-rows of the team satisfy f.
    """
    if not theta.first_order:
        raise TransformError("restriction condition must be first-order")
    return TensorOr(dual_negate(theta), And(theta, f))


def to_classical_dnf(f: Formula) -> list[Formula]:
    """Pull every whole-team disjunction to the top; the returned list is
    read as the ||-join of its entries, each entry ||-free."""
    def leaf(g: Formula) -> list[Formula] | None:
        if isinstance(g, (ContraNeg, IntImpl, Possibly)):
            raise TransformError(f"cannot distribute || through {type(g).__name__}")
        if not isinstance(g, (ClassicalOr, And, TensorOr, Exists, Forall)):
            return [g]  # a literal, an atom or a bracket

    def build(g: Formula, fields: list) -> list[Formula]:
        left, right = fields
        if type(g) is ClassicalOr:
            return left + right
        if type(g) in (Exists, Forall):  # left is the bound variable
            return [type(g)(left, b) for b in right]
        return [type(g)(a, b) for a in left for b in right]

    return _map(f, leaf, build)


def classical_or_all(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty join")
    return reduce(ClassicalOr, parts)


# ---------------------------------------------------------------------------
# contradictory negation


#: the constructs negation elimination passes through
_NEG_FRAGMENT = (PositiveLiteral, NegativeLiteral, Equal, NotEqual, And,
                 TensorOr, ClassicalOr, Exists, Forall, ContraNeg)


def neg_eliminate(f: Formula) -> Formula:
    """Rewrite away every contradictory negation, staying equivalent on all
    models and teams.  Input may combine first-order parts, NE, || and ~;
    the output uses first-order parts, NE and || only."""
    for g in _nodes(f):
        if not isinstance(g, _NEG_FRAGMENT) and g is not NE:
            raise TransformError(
                f"negation elimination handles first-order parts, NE, || and ~ "
                f"only; found {type(g).__name__}")
    return _map(f, lambda g: g if g.first_order or g is NE else None,
                lambda g, fields: (_negate(*fields) if type(g) is ContraNeg
                                   else type(g)(*fields)))


def _negate(g: Formula) -> Formula:
    """~g for ~-free g, pushing the negation away case by case.  The
    whole-team disjunction distributes out first; a negated join is the
    conjunction of the negated parts."""
    parts = to_classical_dnf(g)
    return and_all(_negate_plain(p) for p in parts)


def _negate_plain(g: Formula) -> Formula:
    if g.first_order:
        # some row must falsify g
        return restrict_formula(NE, dual_negate(g))
    match g:
        case Atom(kind) if kind == "ne":
            return BOT
        case TensorOr(l, r):
            lf, rf = flatten(l), flatten(r)
            return ClassicalOr(
                ClassicalOr(
                    restrict_formula(_negate_plain(l), lf),
                    restrict_formula(_negate_plain(r), rf),
                ),
                _negate_plain(TensorOr(lf, rf)),
            )
        case And(l, r):
            return ClassicalOr(_negate_plain(l), _negate_plain(r))
        case Exists(v, body):
            bf = flatten(body)
            return ClassicalOr(
                _negate_plain(Exists(v, bf)),
                Forall(v, restrict_formula(_negate_plain(body), bf)),
            )
        case Forall(v, body):
            return Forall(v, _negate_plain(body))
    raise TransformError(f"cannot negate {type(g).__name__}")


def neg_restrict_commute(psi: Formula, theta: Formula) -> Formula:
    """~(psi restricted-to theta) commutes to (~psi) restricted-to theta."""
    if not theta.first_order:
        raise TransformError("restriction condition must be first-order")
    return restrict_formula(ContraNeg(psi), theta)


def classical_or_via_neg(f: Formula, g: Formula) -> Formula:
    """f || g written with contradictory negation and conjunction only."""
    return ContraNeg(And(ContraNeg(f), ContraNeg(g)))


def ne_via_neg() -> Formula:
    """NE written as the contradictory negation of bot."""
    return ContraNeg(BOT)


def dep_via_neg_const(vs: tuple[str, ...], ws: tuple[str, ...]) -> Formula:
    """Functional dependence of ws on vs, written with contradictory
    negation and constancy atoms: no constant tuple p can witness two
    distinct constant values q on the rows where (vs, ws) equals (p, q)."""
    if not vs or not ws:
        raise ValueError("argument tuples must be non-empty")
    avoid = set(vs) | set(ws)
    ps = fresh_tuple("p", len(vs), avoid)
    avoid |= set(ps)
    q1s = fresh_tuple("q", len(ws), avoid)
    avoid |= set(q1s)
    q2s = fresh_tuple("r", len(ws), avoid)
    return ContraNeg(_prefix(Exists, ps + q1s + q2s, and_all([
        Atom("const", (ps,)),
        Atom("const", (q1s,)),
        Atom("const", (q2s,)),
        tuple_not_equal(q1s, q2s),
        ContraNeg(tuple_not_equal(vs + ws, ps + q1s)),
        ContraNeg(tuple_not_equal(vs + ws, ps + q2s)),
    ])))


def ne_via_totality() -> Formula:
    """NE written with a single unary totality atom."""
    return Forall("q", Atom("all", (("q",),)))


# ---------------------------------------------------------------------------
# counting


def _prefix(quantifier, variables: tuple[str, ...], body: Formula) -> Formula:
    """body under one quantifier per variable, the first outermost."""
    for v in reversed(variables):
        body = quantifier(v, body)
    return body


def _distinct(vars_: tuple[str, ...]) -> list[Formula]:
    return [NotEqual(a, b) for i, a in enumerate(vars_) for b in vars_[i + 1:]]


def _at_least_k_elements(k: int) -> Formula:
    """First-order sentence: the domain has at least k elements; its
    ``dual_negate`` says at most k - 1."""
    if k == 0:
        return TOP
    xs = tuple(f"x{i}" for i in range(1, k + 1))
    return _prefix(Exists, xs,
                   and_all(_distinct(xs)) if k > 1 else Equal(xs[0], xs[0]))


def counting_formula(kind: str, k: int, v: str) -> Formula:
    """The four cardinality formulas over constancy, NE and unary totality.

    le/ge bound |X(v)|; co_le/co_ge bound |M minus X(v)|.  The stated
    equivalences hold on non-empty teams.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ps = fresh_tuple("p", k, {v})
    consts = [Atom("const", ((p,),)) for p in ps]
    if kind == "le":
        if k == 0:
            return BOT
        return _prefix(Exists, ps, and_all(consts + [or_all(Equal(v, p) for p in ps)]))
    if kind == "ge":
        if k == 0:
            return TOP
        witnesses = [restrict_formula(NE, Equal(v, p)) for p in ps]
        return _prefix(Exists, ps, and_all(consts + _distinct(ps) + witnesses))
    if kind == "co_le":
        q = fresh_tuple("q", 1, {v, *ps})[0]
        covered = or_all([Equal(q, p) for p in ps] + [Equal(q, v)])
        inner = Exists(q, And(Atom("all", ((q,),)), covered))
        body = _prefix(Exists, ps, and_all(consts + [inner]))
        return ClassicalOr(Bracket(dual_negate(_at_least_k_elements(k + 1))), body)
    if kind == "co_ge":
        small = And(BOT, Bracket(_at_least_k_elements(k)))
        avoided = [NotEqual(v, p) for p in ps]
        body = _prefix(Exists, ps, and_all(consts + _distinct(ps) + avoided))
        return ClassicalOr(small, And(NE, body))
    raise ValueError(f"unknown counting kind {kind!r}")


def counting_atom_definition(kind: str, k: int, v: str) -> Formula:
    """The four counting atoms defined from the cardinality formulas; the
    k = 0 inequality branches use bot for the vacuous lower case."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if kind == "eq":
        return And(counting_formula("le", k, v), counting_formula("ge", k, v))
    if kind == "neq":
        low = BOT if k == 0 else counting_formula("le", k - 1, v)
        return ClassicalOr(low, counting_formula("ge", k + 1, v))
    if kind == "co_eq":
        return And(counting_formula("co_le", k, v), counting_formula("co_ge", k, v))
    if kind == "co_neq":
        low = BOT if k == 0 else counting_formula("co_le", k - 1, v)
        return ClassicalOr(low, counting_formula("co_ge", k + 1, v))
    raise ValueError(f"unknown counting kind {kind!r}")


# ---------------------------------------------------------------------------
# unary dependency compilation


_TERM_KINDS = ("eq", "neq", "co_eq", "co_neq")


@dataclass(frozen=True)
class CountingTerm:
    """One counting condition on a unary relation: exactly k members (eq),
    not exactly k (neq), exactly k non-members (co_eq), or not (co_neq)."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in _TERM_KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")


@dataclass(frozen=True)
class UnaryDepDescription:
    """A unary dependency as a disjunction of conjunctions of counting
    terms on the team's projection."""

    clauses: tuple[tuple[CountingTerm, ...], ...]

    def __post_init__(self):
        if not self.clauses or any(not c for c in self.clauses):
            raise ValueError("need at least one clause, each with a term")

    @classmethod
    def parse(cls, text: str) -> "UnaryDepDescription":
        """Parse 'eq:1 & co_eq:0 | neq:2' style descriptions."""
        clauses = []
        for clause_text in text.split("|"):
            terms = []
            for term_text in clause_text.split("&"):
                m = re.fullmatch(r"\s*(eq|neq|co_eq|co_neq):(\d+)\s*", term_text)
                if not m:
                    raise ValueError(f"bad counting term {term_text.strip()!r}")
                terms.append(CountingTerm(m.group(1), int(m.group(2))))
            clauses.append(tuple(terms))
        return cls(tuple(clauses))


def compile_unary_dependency(d: UnaryDepDescription, v: str) -> Formula:
    """Compile a unary dependency description into constancy, totality and
    whole-team disjunction, one counting-atom definition per term."""
    compiled = [
        and_all(counting_atom_definition(t.kind, t.k, v) for t in clause)
        for clause in d.clauses
    ]
    return classical_or_all(compiled)


def _exactly_k_subjects(k: int, positive: bool, relation: str) -> Formula:
    """FO sentence: exactly k elements are in (or out of) a unary relation."""
    member, other = ((PositiveLiteral, NegativeLiteral) if positive
                     else (NegativeLiteral, PositiveLiteral))
    if k == 0:
        return Forall("y", other(relation, ("y",)))
    xs = tuple(f"x{i}" for i in range(1, k + 1))
    closure = Forall("y", TensorOr(other(relation, ("y",)),
                                   or_all(Equal("y", x) for x in xs)))
    return _prefix(Exists, xs, and_all(
        [member(relation, (x,)) for x in xs] + _distinct(xs) + [closure]))


def unary_description_sentence(d: UnaryDepDescription,
                               relation: str = "R") -> Formula:
    """The description as a defining first-order sentence over one unary
    relation symbol, suitable for registering the dependency directly."""
    def term_sentence(t: CountingTerm) -> Formula:
        base = _exactly_k_subjects(t.k, t.kind in ("eq", "neq"), relation)
        return base if t.kind in ("eq", "co_eq") else dual_negate(base)

    return or_all(
        and_all(term_sentence(t) for t in clause) for clause in d.clauses
    )


# ---------------------------------------------------------------------------
# bracket extraction


def extract_brackets(f: Formula) -> tuple[list[Formula], Formula]:
    """Hoist every bracketed sentence out of f, returning (sentences, core)
    with core bracket-free and the conjunction of the bracket atoms with
    core equivalent to f.

    A whole-team disjunction above a bracket has no such single-conjunction
    form (the disjuncts may demand different sentences); use
    :func:`extract_brackets_dnf` for those.  Each node's stand-in is its
    own (sentences, core), the sentences distinct, in order of first
    occurrence.
    """
    def leaf(g: Formula) -> tuple[list[Formula], Formula] | None:
        match g:
            case Bracket(body):
                return [body], TOP
            case And() | TensorOr() | Exists() | Forall():
                return None
            case ClassicalOr() if any(type(h) is Bracket for h in _nodes(g)):
                raise TransformError(
                    "brackets under || have no single conjunction form; "
                    "use extract_brackets_dnf")
            case ContraNeg() | IntImpl() | Possibly():
                raise TransformError(
                    f"bracket extraction does not handle {type(g).__name__}")
        return [], g

    def build(g: Formula, fields: list) -> tuple[list[Formula], Formula]:
        if type(g) in (Exists, Forall):
            v, (s, c) = fields
            return s, type(g)(v, c)
        (sl, cl), (sr, cr) = fields
        core = _simp_and(cl, cr) if type(g) is And else TensorOr(cl, cr)
        return sl + [s for s in sr if s not in sl], core

    return _map(f, leaf, build)


def extract_brackets_dnf(f: Formula) -> list[tuple[list[Formula], Formula]]:
    """Distribute || to the top and hoist brackets within each disjunct;
    the result reads as the ||-join of conjunction-of-brackets forms."""
    return [extract_brackets(part) for part in to_classical_dnf(f)]
