"""Formula language for lax team semantics: AST, parser, pretty-printer.

Operator precedence, tightest first: prefix ``~``, ``<>`` and quantifiers,
then ``&``, ``|`` (splitting disjunction), ``||`` (whole-team disjunction),
``->`` (right associative intuitionistic implication).  ``!`` spells
negative literals only, so every formula is in negation normal form by
construction; ``~`` is the contradictory negation operator.  ``[ ... ]``
encloses a first-order sentence whose truth is read off the model alone.
``T`` and ``bot`` expand on parsing to ``forall v (v = v)`` and
``exists v (v != v)``.

Formulas are interned (hash-consed): build them only through their
constructors, which return the one live node for each structure, so ``==``
and the hash are identity.  Each node's structural properties are computed
once, by its class's rule when it is first built, and its weakenings when
they are first read (see :class:`Formula`).

Variables match ``[a-z][a-zA-Z0-9_]*`` and relations ``[A-Z][a-zA-Z0-9_]*``.
Dependency atoms group their arguments with ``;``: ``dep(x y; w)``,
``inc(x y; u w)``, ``ind(u; v; w)`` (read: v independent of w given u),
``geq(x y, 3)``, ``count_eq(v, 2)``, and ``D:name(x, y)`` for atoms
registered at evaluation time.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from itertools import count
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping
from weakref import ref


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


_RELATION_NAME = re.compile(r"[A-Z][a-zA-Z0-9_]*\Z")
_VARIABLE_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

#: relation names that would collide with formula syntax
_RESERVED_RELATIONS = frozenset({"T", "NE"})

#: atom kind -> (number of ;-separated groups, takes a numeric parameter)
_ATOM_SHAPES = {
    "const": (1, False),
    "dep": (2, False),
    "inc": (2, False),
    "ind": (3, False),
    "all": (1, False),
    "ne": (0, False),
    "ncon": (1, False),
    "ndep": (2, False),
    "geq": (1, True),
    "ninc": (2, False),
    "nind": (3, False),
    "count_eq": (1, True),
    "count_neq": (1, True),
    "cocount_eq": (1, True),
    "cocount_neq": (1, True),
}

#: kinds whose first (only) group must be a single variable
_SINGLE_VAR_KINDS = frozenset({"count_eq", "count_neq", "cocount_eq", "cocount_neq"})

_ATOM_KEYWORDS = frozenset(_ATOM_SHAPES) - {"ne"}
_KEYWORDS = _ATOM_KEYWORDS | {"exists", "forall", "bot"}


class Signature:
    """Relation name -> arity map describing a relational vocabulary."""

    def __init__(self, relations: Mapping[str, int] | None = None):
        rels = dict(relations or {})
        for name, arity in rels.items():
            if not _RELATION_NAME.match(name):
                raise ValueError(f"bad relation name {name!r}")
            if name in _RESERVED_RELATIONS:
                raise ValueError(f"relation name {name!r} is reserved")
            if not isinstance(arity, int) or arity < 0:
                raise ValueError(f"bad arity for relation {name!r}: {arity!r}")
        self._relations = rels

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def arity(self, name: str) -> int:
        return self._relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def items(self):
        return sorted(self._relations.items())

    def __eq__(self, other):
        return isinstance(other, Signature) and self._relations == other._relations

    def __hash__(self):
        return hash(tuple(sorted(self._relations.items())))

    def __repr__(self):
        inner = ", ".join(f"{n}:{a}" for n, a in self.items())
        return f"Signature({{{inner}}})"


EMPTY_SIGNATURE = Signature()


_UPWARD_KINDS = frozenset({"ne", "ncon", "ndep", "geq", "all"})
_DOWNWARD_KINDS = frozenset({"const", "dep"})

#: (class, field values) -> weak reference to the one live node
_TABLE: dict[tuple, ref] = {}
_UIDS = count()
_setattr = object.__setattr__
#: the stored properties: uid, then what a class's rule computes, in its order
_STORED = ("uid", "free_vars", "free_tuple", "first_order", "arities", "downward",
           "coherent", "determiners", "up_builtin", "union_builtin", "custom_names")


class Formula:
    """An interned, immutable formula node.

    Nodes must be built through their constructors, which look the fields
    up in a weak-value table: structurally equal constructions return the
    same object, so ``==`` is identity and the hash is the node's identity.
    Fields are validated before a new node enters the table.  Every node
    stores, computed once by its class's rule in ``_RULES`` from its fields
    and its children's stored values:

    ``uid``           a small integer, unique among all nodes ever built
    ``free_vars``     the free variables
    ``free_tuple``    the free variables, sorted
    ``first_order``   only literals, &, |, exists and forall occur
    ``arities``       the (relation, arity) pairs of its literals
    ``downward``      satisfaction transfers to every subteam
    ``coherent``      the empty team satisfies it, and a team does iff
                      each of its subteams of at most two rows does:
                      first-order formulas, ``dep``, ``const``, and ``&``
                      and ``forall`` over these
    ``determiners``   v -> the least sorted D it forces ``dep(D; v)`` on, read
                      only: () for ``const``'s variables, the first group for
                      ``dep``'s others, the least under ``&``, the body's but
                      v and each D holding v under ``exists v``, ``forall v``
    ``up_builtin``    satisfaction transfers to envelope-satisfying
                      superteams, given that every custom atom named in
                      ``custom_names`` is upward closed
    ``union_builtin`` unions of satisfying teams satisfy it, given the same:
                      ``inc`` and ``up_builtin`` nodes under &, |, quantifiers
    ``envelope``, ``downward_part``  the weakenings the search prunes with,
                      made on their first read; the slot ``_settled`` keeps
                      what ``Evaluator._settled`` made of a node per variable
    """

    # the fields live in __dict__, the stored properties in slots
    __slots__ = (*_STORED, "_envelope", "_downward_part", "_settled", "__dict__", "__weakref__")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = entry() if (entry := _TABLE.get(key)) is not None else None
        if node is not None:
            return node
        fields = cls.__match_args__
        if len(args) != len(fields):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
        node = object.__new__(cls)
        node.__dict__.update(zip(fields, args))
        node._validate()
        for store, value in zip(_STORES, (next(_UIDS), *_RULES[cls](*args))):
            store(node, value)
        _TABLE[key] = ref(node, lambda r: _TABLE.get(key) is r and _TABLE.pop(key))
        return node

    def _validate(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return pretty(self)

    @property
    def envelope(self) -> Formula:
        """First-order upper bound: every row of a satisfying team satisfies
        it.  The formula itself when first-order; otherwise team-level
        constructs weaken to T at their (monotone) positions."""
        try:
            return self if self.first_order else self._envelope
        except AttributeError:
            return _weakening(self, "envelope")

    @property
    def downward_part(self) -> Formula:
        """Downward-closed weakening: implied by the formula, inherited by
        subteams.  Subtrees that are not downward closed collapse to T; what
        survives (first-order parts, constancy, functional dependence)
        drives the early rejection of partial witnesses."""
        try:
            return self if self.downward else self._downward_part
        except AttributeError:
            return _weakening(self, "downward_part")


class PositiveLiteral(Formula):
    __match_args__ = ("relation", "args")

    def _validate(self):
        _check_relation(self.relation)
        _check_vars(self.args)


class NegativeLiteral(Formula):
    __match_args__ = ("relation", "args")
    _validate = PositiveLiteral._validate


class Equal(Formula):
    __match_args__ = ("left", "right")

    def _validate(self):
        _check_vars((self.left, self.right))


class NotEqual(Formula):
    __match_args__ = ("left", "right")
    _validate = Equal._validate


class TensorOr(Formula):
    """Splitting disjunction: the team divides into two covering parts."""

    __match_args__ = ("left", "right")


class And(Formula):
    __match_args__ = ("left", "right")


class Exists(Formula):
    __match_args__ = ("var", "body")

    def _validate(self):
        _check_vars((self.var,))


class Forall(Formula):
    __match_args__ = ("var", "body")
    _validate = Exists._validate


class ClassicalOr(Formula):
    """Whole-team disjunction: either disjunct holds on the full team."""

    __match_args__ = ("left", "right")


class ContraNeg(Formula):
    """Contradictory negation: holds exactly when the operand fails."""

    __match_args__ = ("body",)


class IntImpl(Formula):
    """Intuitionistic implication, quantifying over all subteams."""

    __match_args__ = ("left", "right")


class Possibly(Formula):
    """Holds when some nonempty subteam satisfies the operand."""

    __match_args__ = ("body",)


class Bracket(Formula):
    """Model-level truth of a first-order sentence, even on the empty team."""

    __match_args__ = ("body",)

    def _validate(self):
        if not self.body.first_order:
            raise ValueError("bracket body must be first-order")
        if self.body.free_vars:
            raise ValueError(
                f"bracket body must be a sentence; free variables {sorted(self.body.free_vars)}"
            )


class Atom(Formula):
    """A dependency atom: built-in kind or a registered custom notion.

    ``parts`` holds the ``;``-separated argument tuples, ``param`` the
    numeric parameter of geq/count kinds, ``name`` the custom atom name.
    """

    __match_args__ = ("kind", "parts", "param", "name")

    def __new__(cls, kind: str, parts: tuple[tuple[str, ...], ...] = (),
                param: int | None = None, name: str | None = None):
        return super().__new__(cls, kind, parts, param, name)

    def _validate(self):
        if self.kind == "custom":
            if not self.name or not _VARIABLE_NAME.match(self.name):
                raise ValueError(f"bad custom atom name {self.name!r}")
            if len(self.parts) != 1:
                raise ValueError("custom atoms take a single argument tuple")
            _check_vars(self.parts[0])
            if self.param is not None:
                raise ValueError("custom atoms take no numeric parameter")
            return
        if self.name is not None:
            raise ValueError("only custom atoms carry a name")
        if self.kind not in _ATOM_SHAPES:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        groups, takes_param = _ATOM_SHAPES[self.kind]
        if len(self.parts) != groups:
            raise ValueError(
                f"{self.kind} expects {groups} argument group(s), got {len(self.parts)}"
            )
        for part in self.parts:
            if not part:
                raise ValueError(f"{self.kind} argument tuples must be non-empty")
            _check_vars(part)
        if takes_param:
            if self.param is None or self.param < 0:
                raise ValueError(f"{self.kind} needs a parameter >= 0")
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no numeric parameter")
        if self.kind in ("inc", "ninc") and len(self.parts[0]) != len(self.parts[1]):
            raise ValueError(f"{self.kind} sides must have equal length")
        if self.kind in _SINGLE_VAR_KINDS and len(self.parts[0]) != 1:
            raise ValueError(f"{self.kind} takes a single variable")


_STORES = tuple(getattr(Formula, name).__set__ for name in _STORED)  # slot setters
_EMPTY: frozenset = frozenset()
_NO_DET = MappingProxyType({})  # the determiners of a node forcing no dep(D; v)


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, sharing an operand when it already is the union."""
    return a if b <= a else b if a <= b else a | b


def _joined(l: Formula, r: Formula) -> tuple[frozenset, tuple[str, ...]]:
    """l's and r's free variables together, as a set and sorted, sharing a
    child's when the union is that child's set."""
    a, b = l.free_vars, r.free_vars
    return ((a, l.free_tuple) if b <= a else (b, r.free_tuple) if a <= b
            else (a | b, tuple(sorted(a | b))))


def _literal(free: frozenset, arities: frozenset) -> tuple:
    return free, tuple(sorted(free)), True, arities, True, True, _NO_DET, True, True, ()


def _splitting(conj: bool, l: Formula, r: Formula) -> tuple:
    """The rule of ``&`` (conj) or ``|``."""
    fo, union = l.first_order and r.first_order, l.union_builtin and r.union_builtin
    names = (() if not union else l.custom_names if not r.custom_names else l.custom_names
             + tuple(n for n in r.custom_names if n not in l.custom_names))
    dets = l.determiners if conj else _NO_DET
    if conj and r.determiners:  # per v the least D, fewest variables first
        dets = MappingProxyType(dict(sorted([*dets.items(), *r.determiners.items()],
                                            key=lambda p: (len(p[1]), p[1]), reverse=True)))
    return (*_joined(l, r), fo, _union(l.arities, r.arities), l.downward and r.downward,
            fo or (conj and l.coherent and r.coherent), dets,
            l.up_builtin and r.up_builtin, union, names)


def _quantifier(universal: bool, v: str, body: Formula) -> tuple:
    """The rule of ``forall`` (universal) or ``exists``."""
    free, fo, dets = body.free_vars - {v}, body.first_order, body.determiners
    if dets:
        dets = MappingProxyType({w: d for w, d in dets.items() if w != v and v not in d})
    return (free, tuple(sorted(free)), fo, body.arities, body.downward,
            fo or (universal and body.coherent), dets, body.up_builtin,
            body.union_builtin, body.custom_names)


def _atom(kind: str, parts: tuple[tuple[str, ...], ...], param, name) -> tuple:
    custom, down = kind == "custom", kind in _DOWNWARD_KINDS
    d = tuple(sorted(set(parts[0]))) if kind == "dep" else ()
    dets = MappingProxyType({y: d for y in parts[-1] if y not in d}) if down else _NO_DET
    free = frozenset(v for part in parts for v in part)
    up = custom or kind in _UPWARD_KINDS
    return (free, tuple(sorted(free)), False, _EMPTY, down, down, dets, up,
            up or kind == "inc", (name,) if custom else ())


#: class -> the rule that computes a new node's _STORED values after uid
_RULES = {
    PositiveLiteral: lambda rel, args: _literal(frozenset(args), frozenset({(rel, len(args))})),
    Equal: lambda a, b: _literal(frozenset((a, b)), _EMPTY),
    And: partial(_splitting, True), TensorOr: partial(_splitting, False),
    ClassicalOr: lambda l, r: (*_joined(l, r), False, _union(l.arities, r.arities),
                               l.downward and r.downward, False, _NO_DET, False, False, ()),
    IntImpl: lambda l, r: (*_joined(l, r), False, _union(l.arities, r.arities), True,
                           False, _NO_DET, False, False, ()),
    Exists: partial(_quantifier, False), Forall: partial(_quantifier, True),
    ContraNeg: lambda b: (b.free_vars, b.free_tuple, False, b.arities, False, False,
                          _NO_DET, False, False, ()),
    Possibly: lambda b: (b.free_vars, b.free_tuple, False, b.arities, False, False,
                         _NO_DET, True, True, ()),
    Bracket: lambda b: (_EMPTY, (), False, b.arities, True, False, _NO_DET, True, True, ()),
    Atom: _atom,
}
_RULES[NegativeLiteral], _RULES[NotEqual] = _RULES[PositiveLiteral], _RULES[Equal]


def _simp_and(l: Formula, r: Formula) -> Formula:
    """l & r with a T conjunct dropped."""
    return r if l is TOP else l if r is TOP else And(l, r)


#: the constructs weakened from their children's weakenings; any other
#: construct that is not its own weakening weakens to T
_WEAKENED_BY_PARTS = (And, TensorOr, ClassicalOr, Exists, Forall)


def _weakening(f: Formula, weakening: str) -> Formula:
    """f's weakening ("envelope" or "downward_part"), made on its first
    read and stored on f and on each node below it that it needs, children
    first, without recursing.  In the first-order envelope ``||`` becomes
    ``|``.  A quantifier whose weakened body lacks its variable free is that
    body: domains are nonempty, and lax semantics is local."""
    slot, own = "_" + weakening, "first_order" if weakening == "envelope" else "downward"

    def known(g: Formula) -> Formula | None:
        if getattr(g, own):  # never stored: refcounting cannot free a cycle
            return g
        if type(g) not in _WEAKENED_BY_PARTS:
            _setattr(g, slot, TOP)
        return getattr(g, slot, None)

    def build(g: Formula, parts: list) -> Formula:
        cls = type(g)
        _setattr(g, slot, _simp_and(*parts) if cls is And else TOP if TOP in parts else
                 parts[1] if cls in (Exists, Forall) and parts[0] not in parts[1].free_vars
                 else (TensorOr if cls is ClassicalOr and own == "first_order" else cls)(*parts))
        return getattr(g, slot)

    return _map(f, known, build)


def _children(f: Formula) -> list[Formula]:
    """f's child nodes, right to left."""
    return [c for c in reversed(f.__dict__.values()) if isinstance(c, Formula)]


def _nodes(f: Formula, stop=None) -> Iterator[Formula]:
    """Each distinct node of f once, children before parents, left to
    right, without recursing; stop(g), if given, is asked parents first,
    once per node, and a true answer skips g's children."""
    seen, done, todo = set(), set(), [f]
    while todo:
        g = todo.pop()
        uid = g.uid
        if uid not in seen:  # first visit: its children go on top of it
            seen.add(uid)
            todo.append(g)
            if stop is None or not stop(g):
                todo += _children(g)
        elif uid not in done:  # second visit, after its children
            done.add(uid)
            yield g


def _map(f: Formula, leaf, build=None) -> Formula:
    """Rebuild f without recursing, once per distinct node: leaf(g), the
    walk's stop (see :func:`_nodes`), returns the node that stands for g
    whole, or None to rebuild g after its children by build(g, fields),
    g's constructor by default, its children's stand-ins among the fields."""
    new: dict[Formula, Formula] = {}

    def stop(g: Formula) -> bool:
        stand = new[g] = leaf(g)
        return stand is not None

    for g in _nodes(f, stop):
        if new[g] is None:
            fields = [new[x] if isinstance(x, Formula) else x
                      for x in g.__dict__.values()]
            new[g] = type(g)(*fields) if build is None else build(g, fields)
    return new[f]


def _check_relation(name: str):
    if not _RELATION_NAME.match(name) or name in _RESERVED_RELATIONS:
        raise ValueError(f"bad relation name {name!r}")


def _check_vars(names: Iterable[str]):
    for v in names:
        if not _VARIABLE_NAME.match(v) or v in _KEYWORDS:
            raise ValueError(f"bad variable name {v!r}")


#: the standard truth/falsity abbreviations
TOP = Forall("v", Equal("v", "v"))
BOT = Exists("v", NotEqual("v", "v"))

NE = Atom("ne")


def and_all(formulas: Iterable[Formula]) -> Formula:
    """Left-nested conjunction; empty input yields T."""
    formulas = list(formulas)
    return reduce(And, formulas) if formulas else TOP


def or_all(formulas: Iterable[Formula]) -> Formula:
    """Left-nested splitting disjunction; empty input yields bot."""
    formulas = list(formulas)
    return reduce(TensorOr, formulas) if formulas else BOT


def tuple_not_equal(left: tuple[str, ...], right: tuple[str, ...]) -> Formula:
    """Componentwise tuple inequality as a disjunction of inequalities."""
    if len(left) != len(right):
        raise ValueError("tuple lengths differ")
    return or_all(NotEqual(a, b) for a, b in zip(left, right))


def free_variables(f: Formula) -> frozenset[str]:
    return f.free_vars


def is_first_order(f: Formula) -> bool:
    """True when f uses only literals, &, |, exists, forall."""
    return f.first_order


def relation_arities(f: Formula) -> frozenset[tuple[str, int]]:
    """All (relation, arity) pairs occurring in literals of f."""
    return f.arities


def fresh_variable(avoid: Iterable[str]) -> str:
    """Deterministically pick an identifier outside the avoid set."""
    taken = set(avoid)
    i = 1
    while f"v{i}" in taken:
        i += 1
    return f"v{i}"


def fresh_tuple(prefix: str, count: int, avoid: Iterable[str]) -> tuple[str, ...]:
    """Deterministic sequence prefix1, prefix2, ... skipping the avoid set."""
    taken = set(avoid)
    out = []
    i = 1
    while len(out) < count:
        name = f"{prefix}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# tokenizer

#: binary operator -> (binding level, loosest first; printed separator)
_BINARY = {IntImpl: (1, " -> "), ClassicalOr: (2, " || "), TensorOr: (3, " | "),
           And: (4, " & ")}
#: operator token -> (class, binding level)
_INFIX = {sep.strip(): (cls, level) for cls, (level, sep) in _BINARY.items()}
#: equality token -> class
_EQUALITIES = {"=": Equal, "!=": NotEqual}


#: one token with the whitespace before it; a character that starts no token
#: begins BAD, which takes the rest of the text and so ends the matches
_TOKEN_RE = re.compile(
    r"""\s*(?:(?P<CUSTOM>D:[a-z][a-zA-Z0-9_]*)
      | (?P<RELNAME>[A-Z][a-zA-Z0-9_]*)
      | (?P<IDENT>[a-z][a-zA-Z0-9_]*)
      | (?P<NUMBER>\d+)
      | (?P<ARROW>->)
      | (?P<OROR>\|\|)
      | (?P<NEQ>!=)
      | (?P<DIAMOND><>)
      | (?P<SYM>[&|~()\[\];,=!])
      | (?P<BAD>\S(?s:.*)))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then EOF at the end.  The matches
    end where the trailing whitespace starts: inside it, each start would
    scan to the end of the text and fail, which is quadratic."""
    tokens = [(kind := m.lastgroup, m[kind], m.start(kind))
              for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip()))]
    if tokens and tokens[-1][0] == "BAD":
        _, bad, pos = tokens[-1]
        raise ParseError(f"unexpected character {bad[0]!r}", pos)
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, signature: Signature):
        self.tokens = tokens
        self.signature = signature
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, value, pos = self.peek()
        if value != text:
            raise ParseError(f"expected {text!r}, found {value or 'end of input'!r}", pos)
        return self.take()

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    def parse(self) -> Formula:
        f = self.formula()
        kind, value, pos = self.peek()
        if kind != "EOF":
            raise ParseError(f"trailing input {value!r}", pos)
        return f

    def formula(self) -> Formula:
        """Operands joined by binary operators that bind as the printer's
        table ``_BINARY`` says, parsed on explicit stacks: an operator first
        applies the pending ones that bind tighter, or as tight unless it is
        ``->``, which nests right.  A ``(`` or ``[`` sets the pending
        operands and operators aside with the prefix before it until its
        closer, so neither a chain nor nested parentheses recurse.  An
        operand that starts with a variable is an equality, read at once."""
        frames = []  # per open ( or [: (prefix, operands, operators, closer, position)
        operands, ops = [], []  # ops[i] (class, level) takes operands[i] on its left
        while True:
            kind, value, _ = self.tokens[self.i]
            if kind == "IDENT" and value not in _KEYWORDS:  # an equality, at once
                prefix, f = (), self.equality()
            else:
                prefix = self.prefix()
                kind, value, pos = self.peek()
                if value in ("(", "["):
                    self.i += 1
                    frames.append((prefix, operands, ops, ")" if value == "(" else "]", pos))
                    operands, ops = [], []
                    continue
                f = self.primary()
            while True:
                for cls, fields in reversed(prefix):
                    f = cls(*fields, f)
                cls, level = _INFIX.get(self.tokens[self.i][1], (None, 0))
                while ops and ops[-1][1] >= level + (cls is IntImpl):
                    f = ops.pop()[0](operands.pop(), f)
                if cls is not None:
                    self.i += 1
                    operands.append(f)
                    ops.append((cls, level))
                    break
                if not frames:
                    return f
                prefix, operands, ops, closer, pos = frames.pop()
                self.expect(closer)
                if closer == "]":
                    try:
                        f = Bracket(f)
                    except ValueError as exc:
                        raise ParseError(str(exc), pos) from None

    def prefix(self) -> list[tuple[type, tuple]]:
        """Prefix operators and quantifiers, read in a loop, as (class,
        leading fields), to apply innermost first."""
        prefix = []
        while True:
            kind, value, _ = self.peek()
            if value in ("~", "<>"):
                self.take()
                prefix.append((ContraNeg if value == "~" else Possibly, ()))
            elif kind == "IDENT" and value in ("exists", "forall"):
                self.take()
                cls = Exists if value == "exists" else Forall
                prefix.append((cls, (self.variable(),)))
            else:
                return prefix

    def variable(self) -> str:
        kind, value, pos = self.take()
        if kind != "IDENT" or value in _KEYWORDS:
            raise ParseError(f"expected a variable, found {value!r}", pos)
        return value

    def primary(self) -> Formula:
        """An operand that is neither parenthesised nor a bracket."""
        kind, value, pos = self.peek()
        if value == "!":
            self.take()
            kind2, value2, pos2 = self.peek()
            if kind2 != "RELNAME":
                raise ParseError("'!' applies only to relation literals", pos2)
            return self.literal(negative=True)
        if kind == "CUSTOM":
            self.take()
            return self.atom("custom", pos, value[2:])
        if kind == "RELNAME":
            if value == "T":
                self.take()
                return TOP
            if value == "NE":
                self.take()
                return NE
            return self.literal(negative=False)
        if kind == "IDENT":
            if value == "bot":
                self.take()
                return BOT
            if value in _ATOM_KEYWORDS:
                self.take()
                return self.atom(value, pos)
            return self.equality()
        raise ParseError(f"unexpected {value or 'end of input'!r}", pos)

    def literal(self, negative: bool) -> Formula:
        kind, name, pos = self.take()
        if name not in self.signature:
            raise ParseError(f"unknown relation {name!r}", pos)
        self.expect("(")
        args = []
        if not self.at(")"):
            args.append(self.variable())
            while self.at(","):
                self.take()
                args.append(self.variable())
        self.expect(")")
        want = self.signature.arity(name)
        if len(args) != want:
            raise ParseError(
                f"relation {name} has arity {want}, got {len(args)} argument(s)", pos
            )
        cls = NegativeLiteral if negative else PositiveLiteral
        return cls(name, tuple(args))

    def equality(self) -> Formula:
        """``x = y`` or ``x != y``, at a variable that is not a keyword."""
        i = self.i
        _, value, pos = self.tokens[i + 1]
        if value not in _EQUALITIES:
            raise ParseError(f"expected '=' or '!=' after variable, found {value!r}", pos)
        self.i = i + 2
        return _EQUALITIES[value](self.tokens[i][1], self.variable())

    def atom(self, kind: str, pos: int, name: str | None = None) -> Formula:
        """'(' ';'-separated groups of variables ')', with ',' or
        juxtaposition between items and an optional number at the very end;
        ``Atom`` checks the shape."""
        self.expect("(")
        groups: list[tuple[str, ...]] = []
        vars_: list[str] = []
        param = None
        while True:
            tok, value, p = self.take()
            if value == ")":
                break
            if value == ",":
                continue
            if param is not None:
                raise ParseError(f"unexpected number in {kind} arguments", pos)
            if value == ";":
                groups.append(tuple(vars_))
                vars_ = []
            elif tok == "NUMBER":
                param = int(value)
            elif tok == "IDENT" and value not in _KEYWORDS:
                vars_.append(value)
            else:
                raise ParseError(f"unexpected {value!r} in atom arguments", p)
        groups.append(tuple(vars_))
        try:
            return Atom(kind, tuple(groups), param, name)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None


def parse(text: str, signature: Signature = EMPTY_SIGNATURE) -> Formula:
    """Parse a formula in the concrete grammar against a signature."""
    return _Parser(_tokenize(text), signature).parse()


# ---------------------------------------------------------------------------
# pretty-printer

#: constructs that print without surrounding parentheses after a quantifier
#: or prefix operator (self-delimiting or unary-level)
_BARE_UNDER_PREFIX = (Exists, Forall, ContraNeg, Possibly, Bracket,
                      PositiveLiteral, NegativeLiteral, Atom)
#: the nodes that print without operands
_LEAVES = (PositiveLiteral, NegativeLiteral, Equal, NotEqual, Atom)
#: the quantifiers and prefix operators, which print before their body
_PREFIXES = (Exists, Forall, ContraNeg, Possibly)


def pretty(f: Formula) -> str:
    """Render a formula; parse(pretty(f)) is structurally equal to f.  A
    node prints its first operand at once and leaves its second, with the
    separator before it, and any closing bracket on an explicit stack, so no
    nesting, along a chain's spine or off it, recurses."""
    out = []
    todo = [("", f, 0)]  # text or (text before, node, context level), last first
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        head, f, ctx = item
        while True:
            cls = type(f)
            if cls in _BINARY:
                level, sep = _BINARY[cls]
                if level < ctx:
                    head += "("
                    todo.append(")")
                if cls is IntImpl:  # -> nests right, the others left
                    todo.append((sep, f.right, level))
                    f, ctx = f.left, level + 1
                    continue
                while type(f) is cls:  # walk down the chain's spine
                    right = f.right
                    todo.append(sep + _pp_leaf(right) if type(right) in _LEAVES
                                else (sep, right, level + 1))
                    f = f.left
                ctx = level
            elif cls is Bracket:
                head += "["
                todo.append("]")
                f, ctx = f.body, 0
            elif cls in _PREFIXES:
                head += (f"exists {f.var} " if cls is Exists else
                         f"forall {f.var} " if cls is Forall else
                         "~" if cls is ContraNeg else "<>")
                f = f.body
                if not isinstance(f, _BARE_UNDER_PREFIX):
                    head += "("
                    todo.append(")")
                    ctx = 0
            else:
                out.append(head + _pp_leaf(f))
                break
    return "".join(out)


def _pp_leaf(f: Formula) -> str:
    match f:
        case PositiveLiteral(rel, args):
            return f"{rel}({', '.join(args)})"
        case NegativeLiteral(rel, args):
            return f"!{rel}({', '.join(args)})"
        case Equal(a, b):
            return f"{a} = {b}"
        case NotEqual(a, b):
            return f"{a} != {b}"
        case Atom():
            return _pp_atom(f)
    raise TypeError(f"not a formula: {f!r}")


def _pp_atom(a: Atom) -> str:
    if a.kind == "ne":
        return "NE"
    groups = ["" if not part else " ".join(part) for part in a.parts]
    inner = "; ".join(groups)
    if a.param is not None:
        inner = f"{inner}, {a.param}" if inner else str(a.param)
    head = f"D:{a.name}" if a.kind == "custom" else a.kind
    return f"{head}({inner})"
