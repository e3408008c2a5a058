"""Finite models, teams of assignments, Tarski evaluation, and exhaustive
enumeration of models and teams.

Domain elements are the integers 0..n-1.  Team columns are kept in sorted
variable order so that team equality is extensional and enumeration orders
are reproducible.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator, Mapping

from .syntax import (
    And,
    Equal,
    Exists,
    Forall,
    Formula,
    NegativeLiteral,
    NotEqual,
    PositiveLiteral,
    Signature,
    TensorOr,
    EMPTY_SIGNATURE,
)


class EnumerationLimit(RuntimeError):
    """An exhaustive sweep would exceed its configured size cap."""


class Model:
    """Finite relational structure over domain {0, ..., size-1}."""

    __slots__ = ("size", "signature", "interp")

    def __init__(self, size: int,
                 interp: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
                 signature: Signature = EMPTY_SIGNATURE):
        if size < 1:
            raise ValueError("model domains are non-empty")
        self.size = size
        self.signature = signature
        filled: dict[str, frozenset[tuple[int, ...]]] = {}
        interp = dict(interp or {})
        for name in interp:
            if name not in signature:
                raise ValueError(f"relation {name!r} not in signature")
        for name in signature.names:
            arity = signature.arity(name)
            tuples = frozenset(tuple(t) for t in interp.get(name, ()))
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {name}")
                if any(not (0 <= e < size) for e in t):
                    raise ValueError(f"tuple {t} outside domain of size {size}")
            filled[name] = tuples
        self.interp = filled

    @property
    def domain(self) -> range:
        return range(self.size)

    def __eq__(self, other):
        return (isinstance(other, Model) and self.size == other.size
                and self.signature == other.signature and self.interp == other.interp)

    def __hash__(self):
        return hash((self.size, self.signature,
                     tuple(sorted((n, r) for n, r in self.interp.items()))))

    def __repr__(self):
        rels = ", ".join(f"{n}={sorted(r)}" for n, r in sorted(self.interp.items()))
        return f"Model(size={self.size}{', ' + rels if rels else ''})"


class Team:
    """A set of assignments sharing the variable domain ``variables``.

    Rows are value tuples aligned with the sorted variable order; equality
    is extensional.
    """

    __slots__ = ("variables", "rows")

    def __init__(self, variables: Iterable[str], rows: Iterable[tuple[int, ...]] = ()):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables in team domain")
        order = tuple(sorted(vs))
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != len(vs):
                raise ValueError(f"row {r} does not match domain {vs}")
        if order != vs:
            perm = [vs.index(v) for v in order]
            rows = [tuple(r[i] for i in perm) for r in rows]
        self.variables = order
        self.rows = frozenset(rows)

    def assignments(self) -> Iterator[dict[str, int]]:
        for row in sorted(self.rows):
            yield dict(zip(self.variables, row))

    def __len__(self):
        return len(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, Team) and self.variables == other.variables
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.variables, self.rows))

    def __repr__(self):
        return f"Team({self.variables}, {sorted(self.rows)})"

    def with_rows(self, rows: Iterable[tuple[int, ...]]) -> "Team":
        t = Team.__new__(Team)
        t.variables = self.variables
        t.rows = frozenset(rows)
        return t

    def column_index(self, v: str) -> int:
        try:
            return self.variables.index(v)
        except ValueError:
            raise ValueError(f"variable {v!r} not in team domain {self.variables}") from None

    def project_rows(self, vs: tuple[str, ...]) -> frozenset[tuple[int, ...]]:
        idx = [self.column_index(v) for v in vs]
        return frozenset(tuple(row[i] for i in idx) for row in self.rows)

    def restrict_vars(self, vs: Iterable[str]) -> "Team":
        """Drop all columns outside vs (rows deduplicate)."""
        keep = tuple(sorted(set(vs)))
        if keep == self.variables:
            return self
        idx = [self.column_index(v) for v in keep]
        t = Team.__new__(Team)
        t.variables = keep
        t.rows = frozenset(tuple(row[i] for i in idx) for row in self.rows)
        return t


def project(team: Team, vs: Iterable[str]) -> frozenset[tuple[int, ...]]:
    """The relation {s(vs) : s in team}."""
    return team.project_rows(tuple(vs))


def _assignment_tuple(s: Mapping[str, int], args: tuple[str, ...]) -> tuple[int, ...]:
    try:
        return tuple(s[v] for v in args)
    except KeyError as exc:
        raise ValueError(f"variable {exc.args[0]!r} not assigned") from None


def tarski_eval(model: Model, s: Mapping[str, int], f: Formula) -> bool:
    """Single-assignment satisfaction for first-order formulas."""
    match f:
        case PositiveLiteral(rel, args):
            if rel not in model.interp:
                raise ValueError(f"relation {rel!r} not interpreted in model")
            return _assignment_tuple(s, args) in model.interp[rel]
        case NegativeLiteral(rel, args):
            if rel not in model.interp:
                raise ValueError(f"relation {rel!r} not interpreted in model")
            return _assignment_tuple(s, args) not in model.interp[rel]
        case Equal(a, b):
            return _assignment_tuple(s, (a,))[0] == _assignment_tuple(s, (b,))[0]
        case NotEqual(a, b):
            return _assignment_tuple(s, (a,))[0] != _assignment_tuple(s, (b,))[0]
        case And(l, r):
            return tarski_eval(model, s, l) and tarski_eval(model, s, r)
        case TensorOr(l, r):
            return tarski_eval(model, s, l) or tarski_eval(model, s, r)
        case Exists(v, body):
            return any(tarski_eval(model, {**s, v: m}, body) for m in model.domain)
        case Forall(v, body):
            return all(tarski_eval(model, {**s, v: m}, body) for m in model.domain)
    raise ValueError(f"not a first-order construct: {type(f).__name__}")


def restrict(model: Model, team: Team, theta: Formula) -> Team:
    """Keep exactly the assignments satisfying a first-order formula."""
    if not theta.first_order:
        raise ValueError("restriction formula must be first-order")
    missing = theta.free_vars - set(team.variables)
    if missing:
        raise ValueError(f"restriction uses variables outside the team: {sorted(missing)}")
    vs = team.variables
    kept = [row for row in team.rows
            if tarski_eval(model, dict(zip(vs, row)), theta)]
    return team.with_rows(kept)


def universal_extend(model: Model, team: Team, v: str) -> Team:
    """The team {s[m/v] : s in team, m in domain}."""
    if v in team.variables:
        i = team.column_index(v)
        rows = {row[:i] + (m,) + row[i + 1:]
                for row in team.rows for m in model.domain}
        return team.with_rows(rows)
    new_vars = tuple(sorted(team.variables + (v,)))
    i = new_vars.index(v)
    rows = {row[:i] + (m,) + row[i:]
            for row in team.rows for m in model.domain}
    t = Team.__new__(Team)
    t.variables = new_vars
    t.rows = frozenset(rows)
    return t


def all_assignment_rows(size: int, width: int) -> list[tuple[int, ...]]:
    """All value rows over a domain of the given size, lexicographically."""
    return list(product(range(size), repeat=width))


#: caps on one size of a sweep: the relation tuples of :func:`enumerate_models`
#: and the assignments of a team of :func:`enumerate_teams`, the second also
#: the model size, as the assignments to one variable
_MODEL_TUPLE_CAP = 16
_TEAM_ROW_CAP = 16


def _check_caps(signature: Signature, size: int, width: int = 0):
    """Raise :class:`EnumerationLimit` unless a sweep may reach the given
    size: model sizes run from 1 to 16, and the models of the signature of
    that size, and the teams over width variables on them, stay within
    their caps.  Every count grows with the size, so a sweep checks its
    largest."""
    if size > _TEAM_ROW_CAP:
        raise EnumerationLimit(
            f"{size} domain elements exceed the cap of {_TEAM_ROW_CAP}")
    count = sum(size ** signature.arity(name) for name in signature.names)
    if count > _MODEL_TUPLE_CAP:
        raise EnumerationLimit(f"{count} relation tuples at size {size} exceed "
                               f"the cap of {_MODEL_TUPLE_CAP}")
    if size ** width > _TEAM_ROW_CAP:
        raise EnumerationLimit(
            f"{size ** width} assignments exceed the cap of {_TEAM_ROW_CAP}")


def _by_rank(items: list) -> Iterator[tuple]:
    """Every subset of items in subset-rank order: the k-th holds items[i]
    for each set bit i of k."""
    count = len(items)
    for mask in range(1 << count):
        yield tuple(items[i] for i in range(count) if mask >> i & 1)


def enumerate_teams(model: Model, variables: Iterable[str]) -> Iterator[Team]:
    """All teams over the given variables, empty team first, in subset-rank
    order over the lexicographic assignment list, at most 16 assignments."""
    vs = tuple(sorted(set(variables)))
    _check_caps(EMPTY_SIGNATURE, model.size, len(vs))
    for rows in _by_rank(all_assignment_rows(model.size, len(vs))):
        yield Team(vs, rows)


def _canonical_interp(model: Model) -> tuple:
    best = None
    names = model.signature.names
    for perm in permutations(range(model.size)):
        image = tuple(
            tuple(sorted(tuple(perm[e] for e in t) for t in model.interp[name]))
            for name in names
        )
        if best is None or image < best:
            best = image
    return best


def enumerate_models(signature: Signature, size: int, *,
                     up_to_isomorphism: bool = False) -> Iterator[Model]:
    """All models of the given size: every interpretation of every relation,
    in subset-rank order per relation.  With ``up_to_isomorphism`` only the
    canonical representative of each isomorphism class is yielded.  Raises
    :class:`EnumerationLimit` when the relations hold more than 16 tuples
    together."""
    if size < 1:
        raise ValueError("model size must be >= 1")
    _check_caps(signature, size)
    names = signature.names
    spaces = [list(_by_rank(all_assignment_rows(size, signature.arity(name))))
              for name in names]
    for combo in product(*spaces):
        model = Model(size, dict(zip(names, combo)), signature)
        if up_to_isomorphism:
            identity = tuple(
                tuple(sorted(model.interp[name])) for name in names
            )
            if identity != _canonical_interp(model):
                continue
        yield model


# ---------------------------------------------------------------------------
# line-oriented text formats (normative for the CLI)


def model_to_text(model: Model) -> str:
    lines = [f"domain {model.size}"]
    for name in model.signature.names:
        lines.append(f"rel {name} arity {model.signature.arity(name)}")
        for t in sorted(model.interp[name]):
            lines.append(" ".join(str(e) for e in t))
        lines.append("end")
    return "\n".join(lines) + "\n"


def parse_model_text(text: str, signature: Signature) -> Model:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("domain "):
        raise ValueError("model file must start with 'domain n'")
    size = int(lines[0].split()[1])
    interp: dict[str, list[tuple[int, ...]]] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if len(parts) != 4 or parts[0] != "rel" or parts[2] != "arity":
            raise ValueError(f"expected 'rel NAME arity k', got {lines[i]!r}")
        name, arity = parts[1], int(parts[3])
        if name not in signature:
            raise ValueError(f"relation {name!r} not declared in the signature")
        if signature.arity(name) != arity:
            raise ValueError(
                f"relation {name} declared with arity {signature.arity(name)}, file says {arity}"
            )
        if name in interp:
            raise ValueError(f"relation {name} given twice")
        i += 1
        tuples = []
        while i < len(lines) and lines[i] != "end":
            tuples.append(tuple(int(x) for x in lines[i].split()))
            i += 1
        if i == len(lines):
            raise ValueError(f"missing 'end' for relation {name}")
        i += 1
        interp[name] = tuples
    return Model(size, interp, signature)


def team_to_text(team: Team) -> str:
    lines = ["vars" + ("".join(" " + v for v in team.variables))]
    for row in sorted(team.rows):
        # '-' stands for the empty assignment of a zero-variable team
        lines.append(" ".join(str(e) for e in row) if row else "-")
    return "\n".join(lines) + "\n"


def parse_team_text(text: str) -> Team:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split()[:1] != ["vars"]:
        raise ValueError("team file must start with 'vars x y ...'")
    vs = tuple(lines[0].split()[1:])
    rows = []
    for ln in lines[1:]:
        if ln == "-":
            rows.append(())
        else:
            rows.append(tuple(int(x) for x in ln.split()))
    for r in rows:
        if len(r) != len(vs):
            raise ValueError(f"row {r} does not match variables {vs}")
    return Team(vs, rows)
