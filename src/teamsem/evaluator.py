"""Lax team-semantics evaluator with a registry of first-order dependency
notions.

Satisfaction follows the lax rules: the splitting disjunction divides the
team into two covering (possibly overlapping) parts, the existential
quantifier assigns each row a nonempty set of witness values, and atoms
read properties of the team's projections.

The four lax rules (``|``, the existential, ``<>`` and ``->``) all ask
whether some team Y between a forced lower bound and an upper bound
satisfies a body.  ``_exists_sat`` is that bounded search and
``_subsets`` the one enumerator of candidate subteams.  Done literally the
search would be hopeless, so it prunes using three structural facts:

  * a team satisfying a formula satisfies its first-order envelope (the
    formula with every team-level construct weakened to T), so the upper
    bound shrinks to the rows passing the envelope pointwise;
  * formulas built from upward-closed atoms transfer upward to any
    envelope-satisfying superteam, so the largest candidate decides;
  * formulas built from downward-closed atoms transfer to subteams, so the
    smallest candidates decide and a failing partial witness is discarded.

A custom atom counts as upward closed only once its claim passes
:func:`check_upward_closed`.  The test suite cross-checks all of this
against a literal rule-by-rule evaluator that enumerates splits and choice
functions outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping

from .structures import (EnumerationLimit, Model, Team, restrict, tarski_eval,
                         universal_extend)
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
    NegativeLiteral,
    NotEqual,
    Possibly,
    PositiveLiteral,
    Signature,
    TensorOr,
    TOP,
    _ATOM_SHAPES,
)


class EvalError(ValueError):
    """Evaluation hit a malformed input: unknown variables, unregistered
    custom atoms, or a non-first-order formula where one is required."""


_RESERVED_ATOM_NAMES = frozenset(_ATOM_SHAPES) | {"custom"}

#: negated atom kind -> the positive kind whose kernel it fails
_NEGATES = {"ncon": "const", "ndep": "dep", "ninc": "inc", "nind": "ind",
            "count_neq": "count_eq", "cocount_neq": "cocount_eq"}

#: relation-space cap of :func:`check_upward_closed`
_TUPLE_CAP = 9


@dataclass(frozen=True)
class DependencySpec:
    """A dependency notion given by a defining first-order sentence over a
    single relation symbol R of the declared arity.

    A ``claimed_upward_closed="yes"`` claim is checked before the search
    prunes with it; see :attr:`upward_closed`.
    """

    name: str
    arity: int
    definition: Formula
    claimed_upward_closed: str = "unknown"

    def __post_init__(self):
        if self.name in _RESERVED_ATOM_NAMES:
            raise ValueError(f"{self.name!r} collides with a built-in atom")
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if self.claimed_upward_closed not in ("yes", "no", "unknown"):
            raise ValueError("claimed_upward_closed must be yes/no/unknown")
        if not self.definition.first_order:
            raise ValueError("defining sentence must be first-order")
        if self.definition.free_vars:
            raise ValueError("defining sentence must have no free variables")
        for rel, arity in self.definition.arities:
            if rel != "R":
                raise ValueError(f"defining sentence may only use R, found {rel}")
            if arity != self.arity:
                raise ValueError(
                    f"R used with arity {arity}, expected {self.arity}"
                )
        if self.arity == 0 and self.definition.arities:
            raise ValueError("0-ary notions are sentences over the empty signature")

    @cached_property
    def upward_closed(self) -> bool:
        """A "yes" claim that :func:`check_upward_closed` confirms on every
        domain size whose relation space fits its default cap of 9 tuples
        (up to 9 at arity 1, 3 at arity 2, 2 at arity 3, 1 beyond).  A
        failing claim is ignored, so the search runs unpruned.  0-ary
        notions ignore the team, so their claim stands as given."""
        if self.claimed_upward_closed != "yes" or self.arity == 0:
            return self.claimed_upward_closed == "yes"
        size = max(n for n in range(1, _TUPLE_CAP + 1)
                   if n ** self.arity <= _TUPLE_CAP)
        return check_upward_closed(self, size).holds


class Registry:
    """Immutable name -> DependencySpec table; register() returns a copy."""

    def __init__(self, specs: Mapping[str, DependencySpec] | None = None):
        self._specs = dict(specs or {})

    def register(self, spec: DependencySpec) -> "Registry":
        if spec.name in self._specs:
            raise ValueError(f"dependency {spec.name!r} already registered")
        out = dict(self._specs)
        out[spec.name] = spec
        return Registry(out)

    def get(self, name: str) -> DependencySpec:
        try:
            return self._specs[name]
        except KeyError:
            raise EvalError(f"unregistered dependency {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._specs))


EMPTY_REGISTRY = Registry()


def register(registry: Registry, spec: DependencySpec) -> Registry:
    return registry.register(spec)


# ---------------------------------------------------------------------------
# structural fragments used by the search pruning


def upward_closed(f: Formula, registry: Registry) -> bool:
    """Satisfaction transfers to envelope-satisfying superteams: built-in
    constructs by their kind, custom atoms by their checked claim."""
    return f.up_builtin and all(
        registry.get(n).upward_closed for n in f.custom_names)


def _subsets(rows: Iterable[tuple[int, ...]], least: int = 0,
             most: int | None = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Subsets of the sorted rows with least to most members, smaller sizes
    first and combination order within a size."""
    rows = sorted(rows)
    top = len(rows) if most is None else min(most, len(rows))
    for size in range(least, top + 1):
        yield from combinations(rows, size)


class Evaluator:
    """One lax-semantics evaluation context: fixed model and registry, with
    memoization keyed on (subformula, team)."""

    def __init__(self, model: Model, registry: Registry | None = None):
        self.model = model
        self.registry = registry or EMPTY_REGISTRY
        self._memo: dict[tuple[Formula, Team], bool] = {}
        self._restrict_memo: dict[tuple[Formula, Team], Team] = {}
        self._bracket_memo: dict[Formula, bool] = {}

    # -- public entry points

    def evaluate(self, team: Team, f: Formula) -> bool:
        missing = f.free_vars - set(team.variables)
        if missing:
            raise EvalError(f"free variables outside the team domain: {sorted(missing)}")
        return self._eval(team, f)

    def satisfying_subteams(self, team: Team, f: Formula) -> frozenset[Team]:
        """All subteams of the given team that satisfy f."""
        self.evaluate(team, f)  # validates variables up front
        subteams = map(team.with_rows, _subsets(team.rows))
        return frozenset(sub for sub in subteams if self._eval(sub, f))

    # -- dispatch

    def _eval(self, team: Team, f: Formula) -> bool:
        team = team.restrict_vars(f.free_vars)  # locality
        key = (f, team)
        result = self._memo.get(key)
        if result is not None:
            return result
        cls = type(f)
        if cls is not And and cls is not ClassicalOr:
            result = self._memo[key] = self._eval_raw(team, f)
            return result
        # a left-nested & or || chain: walk down its spine to the first node
        # with a verdict, then fold back up, one memo entry per spine node
        spine = [key]
        f = f.left
        while type(f) is cls:
            sub = (f, team.restrict_vars(f.free_vars))
            result = self._memo.get(sub)
            if result is not None:
                break
            spine.append(sub)
            f = f.left
        else:
            result = self._eval(team, f)
        for node, sub_team in reversed(spine):
            if result == (cls is And):  # the left operand does not decide
                result = self._eval(sub_team, node.right)
            self._memo[node, sub_team] = result
        return result

    def _eval_raw(self, team: Team, f: Formula) -> bool:
        match f:
            case PositiveLiteral() | NegativeLiteral() | Equal() | NotEqual():
                return len(self._restrict(team, f)) == len(team.rows)
            case TensorOr(l, r):
                return self._tensor_or(team, l, r)
            case ContraNeg(body):
                return not self._eval(team, body)
            case IntImpl(l, r):
                return all(
                    not self._eval(sub, l) or self._eval(sub, r)
                    for sub in map(team.with_rows, _subsets(team.rows))
                )
            case Possibly(body):
                return self._exists_sat(body, team, frozenset(), nonempty=True)
            case Exists(v, body):
                return self._exists(team, v, body)
            case Forall(v, body):
                return self._eval(universal_extend(self.model, team, v), body)
            case Bracket(body):
                return self._bracket(body)
            case Atom():
                return self._atom(team, f)
        raise EvalError(f"cannot evaluate {type(f).__name__}")

    # -- atoms

    def _atom(self, team: Team, a: Atom) -> bool:
        base = _NEGATES.get(a.kind)
        if base is not None:  # a witnessed failure of the base kind
            return not self._kernel(team, base, a)
        return self._kernel(team, a.kind, a)

    def _kernel(self, team: Team, kind: str, a: Atom) -> bool:
        """Whether the team satisfies the positive atom kind over a's
        arguments."""
        match kind:
            case "ne":
                return bool(team.rows)
            case "const":
                return len(team.project_rows(a.parts[0])) <= 1
            case "all":
                vs = a.parts[0]
                return len(team.project_rows(vs)) == self.model.size ** len(vs)
            case "geq":
                return len(team.project_rows(a.parts[0])) >= a.param
            case "count_eq":
                return len(team.project_rows(a.parts[0])) == a.param
            case "cocount_eq":
                return self.model.size - len(team.project_rows(a.parts[0])) == a.param
            case "dep":  # exits early: comparing projection sizes is slower
                vs, ws = a.parts
                vi = [team.column_index(v) for v in vs]
                wi = [team.column_index(w) for w in ws]
                seen: dict[tuple[int, ...], tuple[int, ...]] = {}
                for row in team.rows:
                    val = tuple(row[i] for i in wi)
                    if seen.setdefault(tuple(row[i] for i in vi), val) != val:
                        return False
                return True
            case "inc":
                return team.project_rows(a.parts[0]) <= team.project_rows(a.parts[1])
            case "ind":  # every u v and u w seen together make a u v w row
                us, vs, ws = a.parts
                k = len(us)
                by_u: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
                for uw in team.project_rows(us + ws):
                    by_u.setdefault(uw[:k], []).append(uw[k:])
                full = team.project_rows(us + vs + ws)
                return all(uv + w in full for uv in team.project_rows(us + vs)
                           for w in by_u[uv[:k]])
            case "custom":
                return self._custom(team, a)
        raise EvalError(f"unknown atom kind {a.kind!r}")

    def _custom(self, team: Team, a: Atom) -> bool:
        spec = self.registry.get(a.name)
        if len(a.parts[0]) != spec.arity:
            raise EvalError(
                f"{a.name} has arity {spec.arity}, used with {len(a.parts[0])} argument(s)"
            )
        if spec.arity == 0:  # a sentence with no relation: the team is ignored
            return self._bracket(spec.definition)
        relation = team.project_rows(a.parts[0])
        sig = Signature({"R": spec.arity})
        struct = Model(self.model.size, {"R": relation}, sig)
        return tarski_eval(struct, {}, spec.definition)

    def _bracket(self, body: Formula) -> bool:
        hit = self._bracket_memo.get(body)
        if hit is None:
            hit = tarski_eval(self.model, {}, body)
            self._bracket_memo[body] = hit
        return hit

    # -- helpers

    def _restrict(self, team: Team, theta: Formula) -> Team:
        key = (theta, team)
        hit = self._restrict_memo.get(key)
        if hit is None:
            hit = self._restrict_memo[key] = restrict(self.model, team, theta)
        return hit

    # -- splitting disjunction

    def _tensor_or(self, team: Team, left: Formula, right: Formula) -> bool:
        ml = self._restrict(team, left.envelope)
        mr = self._restrict(team, right.envelope)
        if not (ml.rows | mr.rows) >= team.rows:
            return False
        fo_l, fo_r = left.first_order, right.first_order
        if fo_l and fo_r:
            return True
        if fo_l:
            return self._exists_sat(right, mr, team.rows - ml.rows)
        if fo_r:
            return self._exists_sat(left, ml, team.rows - mr.rows)
        if upward_closed(right, self.registry):
            return self._eval(mr, right) and self._exists_sat(
                left, ml, team.rows - mr.rows)
        if upward_closed(left, self.registry):
            return self._eval(ml, left) and self._exists_sat(
                right, mr, team.rows - ml.rows)
        if left.downward and right.downward:
            return self._down_split(team, left, right, ml, mr)
        # generic: the right part must contain every row the left envelope
        # rejects; enumerate its optional extras, then close the left part
        if self._eval(ml, left) and self._eval(mr, right):
            return True
        forced = team.rows - ml.rows
        for extra in _subsets(ml.rows & mr.rows):
            z = team.with_rows(forced.union(extra))
            if self._eval(z, right) and self._exists_sat(
                    left, ml, team.rows - z.rows):
                return True
        return False

    def _down_split(self, team: Team, left: Formula, right: Formula,
                    ml: Team, mr: Team) -> bool:
        """Both sides downward closed: a partition suffices, assign rows one
        at a time and reject as soon as a side fails."""
        rows = sorted(team.rows)

        def assign(i: int, ls: frozenset, rs: frozenset) -> bool:
            if i == len(rows):
                return True
            row = rows[i]
            if row in ml.rows:
                nls = ls | {row}
                if self._eval(team.with_rows(nls), left) and assign(i + 1, nls, rs):
                    return True
            if row in mr.rows:
                nrs = rs | {row}
                if self._eval(team.with_rows(nrs), right) and assign(i + 1, ls, nrs):
                    return True
            return False

        empty = frozenset()
        return (self._eval(team.with_rows(empty), left)
                and self._eval(team.with_rows(empty), right)
                and assign(0, empty, empty))

    def _exists_sat(self, f: Formula, upper: Team, lower: frozenset,
                    nonempty: bool = False) -> bool:
        """Is there a team Y with lower <= Y <= upper satisfying f, and
        with Y nonempty when asked?"""
        upper = self._restrict(upper, f.envelope)
        if not lower <= upper.rows or (nonempty and upper.is_empty()):
            return False
        if f.first_order:
            return True
        if upward_closed(f, self.registry):
            return self._eval(upper, f)
        least = 1 if nonempty and not lower else 0
        if f.downward:  # the smallest candidates decide
            most = least
        elif self._eval(upper, f):
            return True
        else:
            most = None
        return any(self._eval(upper.with_rows(lower.union(extra)), f)
                   for extra in _subsets(upper.rows - lower, least, most))

    # -- lax existential quantification

    def _exists(self, team: Team, v: str, body: Formula) -> bool:
        """Lax witness search: a satisfying Y inside the universal extension
        must hit the extension block of every original row."""
        extended = universal_extend(self.model, team, v)
        allowed = self._restrict(extended, body.envelope)

        # group the extension by the originating row: v is bound here, so
        # it is not a column of the team and dropping it gives that row
        i = extended.column_index(v)
        blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = {
            row: [] for row in team.rows}
        for row in allowed.rows:
            blocks[row[:i] + row[i + 1:]].append(row)
        if any(not rows for rows in blocks.values()):
            return False
        if body.first_order:
            return True
        if upward_closed(body, self.registry):
            return self._eval(allowed, body)
        if self._eval(allowed, body):
            return True  # the full allowed extension is itself a witness

        return self._exists_dfs(extended, body,
                                [rows for _, rows in sorted(blocks.items())])

    def _exists_dfs(self, extended: Team, body: Formula,
                    blocks: list[list[tuple[int, ...]]]) -> bool:
        """Choose a nonempty subset per block, rejecting any prefix whose
        downward-closed part already fails.  A downward-closed body is its
        own downward part, and one row per block suffices for it."""
        prune = body.downward_part
        most = 1 if body.downward else None

        def walk(i: int, acc: frozenset) -> bool:
            if i == len(blocks):
                return self._eval(extended.with_rows(acc), body)
            for chosen in _subsets(blocks[i], 1, most):
                nxt = acc.union(chosen)
                if prune is not TOP and not self._eval(extended.with_rows(nxt), prune):
                    continue
                if walk(i + 1, nxt):
                    return True
            return False

        return walk(0, frozenset())


def evaluate(model: Model, team: Team, f: Formula,
             registry: Registry | None = None) -> bool:
    """Lax team-semantics satisfaction of f by the team in the model."""
    return Evaluator(model, registry).evaluate(team, f)


def satisfying_subteams(model: Model, team: Team, f: Formula,
                        registry: Registry | None = None) -> frozenset[Team]:
    """All subteams Y of the team with the model satisfying f on Y."""
    return Evaluator(model, registry).satisfying_subteams(team, f)


@dataclass(frozen=True)
class UpwardClosedVerdict:
    holds: bool
    max_size: int
    counterexample: tuple[int, frozenset, frozenset] | None = None

    def __str__(self):
        if self.holds:
            return f"upward closed on all domains up to size {self.max_size}"
        n, r, s = self.counterexample
        return (f"not upward closed: domain size {n}, "
                f"R={sorted(r)} satisfies but S={sorted(s)} does not")


def check_upward_closed(spec: DependencySpec, max_size: int,
                        tuple_limit: int = _TUPLE_CAP) -> UpwardClosedVerdict:
    """Exhaustively test R subset-of S preservation up to a domain size.

    Growing a relation one tuple at a time reaches every superset, so
    closure under single-tuple extensions is checked instead of all pairs.
    """
    if spec.arity < 1:
        raise ValueError("upward closure concerns arities >= 1")
    sig = Signature({"R": spec.arity})
    for n in range(1, max_size + 1):
        space = list(product(range(n), repeat=spec.arity))
        if len(space) > tuple_limit:
            raise EnumerationLimit(
                f"{len(space)} tuples exceed the cap of {tuple_limit}"
            )
        count = len(space)
        sat = {}
        for mask in range(1 << count):
            rel = frozenset(space[i] for i in range(count) if mask >> i & 1)
            sat[rel] = tarski_eval(Model(n, {"R": rel}, sig), {}, spec.definition)
        for rel, ok in sat.items():
            if not ok:
                continue
            for extra in space:
                if extra in rel:
                    continue
                grown = rel | {extra}
                if not sat[grown]:
                    return UpwardClosedVerdict(False, max_size, (n, rel, grown))
    return UpwardClosedVerdict(True, max_size)
