"""Lax team-semantics evaluator with a registry of first-order dependency
notions.

Satisfaction follows the lax rules: the splitting disjunction divides the
team into two covering (possibly overlapping) parts, the existential
quantifier assigns each row a nonempty set of witness values, and atoms
read properties of the team's projections.

The four lax rules (``|``, the existential, ``<>`` and ``->``) all ask
whether some team Y between a forced lower bound and an upper bound
satisfies a body.  ``_exists_sat`` is that bounded search, and every
search draws such Y from one stream, ``_satisfying``.  Done literally the
search would be hopeless, so it prunes using nine structural facts:

  * first-order formulas are flat: a team satisfies one iff each row does,
    so every first-order node is decided by restriction (a first-order
    ``&`` chain is still decided in the loop of a tree of ``&``, ``||``
    and ``~``);
  * a team satisfying a formula satisfies its first-order envelope (the
    formula with every team-level construct weakened to T), so the upper
    bound shrinks to the rows passing the envelope pointwise, and the
    subteam enumerations try only subteams of those rows;
  * formulas built from upward-closed atoms transfer upward to any
    envelope-satisfying superteam, so the largest candidate decides, and
    such a side of a ``|`` chain takes every row its envelope admits;
  * formulas built from downward-closed atoms transfer to subteams, so the
    smallest candidates decide and a failing partial witness is discarded;
  * every formula implies its downward part (the formula with every
    construct that is not downward closed weakened to T), which subteams
    inherit: a search for a team between forced rows and an upper bound,
    over a formula that fails on the upper bound, has no solution if the
    downward part fails on the forced rows, and a partial witness of the
    existential whose downward part fails is dropped, checked on the
    witness's projection onto the downward part's variables, which grows
    by the projection of one block's chosen part per step;
  * first-order formulas, ``dep`` and ``const``, and ``&`` and ``forall``
    over these are 2-coherent: a team satisfies one iff every subteam of at
    most two rows does (J. Kontinen, "Coherence and computational
    complexity of quantifier-free dependence logic formulas", Studia Logica
    2013), so a ``|`` chain of such sides is decided by colouring the rows
    with the sides under pairwise conflicts, read once per distinct side
    from per-side value classes: none for a first-order part, the union
    under ``&``, and under ``dep(D; W)`` the rows that agree on D but not
    on D and W (``const(W)`` is D = ()); only a ``forall`` over a body that
    is not first order is evaluated pair by pair;
  * a body forcing ``dep(D; v)`` makes v a Skolem function of D (J.
    Väänänen, *Dependence Logic*, 2007): ``exists v`` holds on a nonempty
    X iff the body holds on X[F/v] for some F from X's D values to M, one
    value per class of rows, not a set per row; ``const(v)`` is D = ();
  * a team satisfying a formula has at least as many rows as its size
    bound (``Evaluator._least``): an atom's :func:`witness_size`, the
    larger side's under ``&`` and ``|``, the smaller under ``||``, the
    body's over |M|, rounded up, under a quantifier, and at least 1 under
    ``<>``; the subteam enumerations start at that size;
  * union-closed formulas (first-order and upward-closed ones, ``inc``, and
    ``&``, ``|``, ``exists`` and ``forall`` over these) have a greatest
    satisfying subteam G of any team, or none, a greatest fixpoint (P.
    Galliani and L. Hella, "Inclusion logic and fixed point logic", CSL
    2013): such a node holds iff its G is the team, which decides such
    quantifiers; such ``|`` sides take their G; searches look inside G.

Every backtracking search runs on one driver, ``_depth_first``, which
keeps one generator per level on a list, so a team of many rows does not
recurse.  Each search is a step function that extends a partial witness
by one piece: a row to a side of a downward ``|`` split, a part of a block
per row or a value per class of rows for the existential, a part per side
of a general split, or a side per row in the colouring of a coherent split,
``_colour``; a row or class with no option fails it at once.  A step
can end the whole search, as the colouring's final choices do, by
setting a flag that the steps below it check when they resume.

A custom atom counts as upward closed only once its claim passes
:func:`check_upward_closed` on the domain sizes in use.  The test suite
cross-checks all of this against a literal rule-by-rule evaluator that
enumerates splits and choice functions outright.

Inside an :class:`Evaluator` a team is an integer bit mask.  Per sorted
variable tuple, the evaluator numbers the rows it meets on first sight, so
a team over many variables costs its own rows, never all |M|**k.  By
locality a node is evaluated on the team over its own free variables, so
verdicts are memoized per (node uid, mask); a tree of ``&``, ``||`` and
``~``, nested any way, is decided in one loop over an explicit stack.
Restricting by a first-order formula is an AND with the rows known to
satisfy it, and only rows not yet tested go to ``tarski_eval`` (a sentence
goes once per evaluator); projection, universal extension and X[a/v]
are unions of per-row images.  Atoms read the set of value tuples a team
takes on an argument tuple as a mask in the evaluator's universe of
tuples of that arity, the union of per-row images (projections are also
cached per mask, value masks are not): ``inc`` is a subset test of two
masks, ``dep`` and ``ind`` compare counts, and a custom atom is decided
once per relation.  :class:`Team` values appear only at the public
methods, and candidate subteams are always tried in combination order
over the sorted rows, whatever the numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping

from .structures import (_TEAM_ROW_CAP, EnumerationLimit, Model, Team,
                         enumerate_models, tarski_eval)
from .syntax import (
    And,
    Atom,
    Bracket,
    ClassicalOr,
    ContraNeg,
    Exists,
    Forall,
    Formula,
    IntImpl,
    Possibly,
    Signature,
    TensorOr,
    TOP,
    _ATOM_SHAPES,
    _nodes,
)


class EvalError(ValueError):
    """Evaluation hit a malformed input: unknown variables, unregistered
    custom atoms, or a non-first-order formula where one is required."""


_RESERVED_ATOM_NAMES = frozenset(_ATOM_SHAPES) | {"custom"}

#: negated atom kind -> the positive kind whose kernel it fails
_NEGATES = {"ncon": "const", "ndep": "dep", "ninc": "inc", "nind": "ind",
            "count_neq": "count_eq", "cocount_neq": "cocount_eq"}

#: the connectives whose trees ``Evaluator._eval`` decides without recursing
_CHAINED = (And, ClassicalOr, ContraNeg)

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

    @property
    def upward_closed(self) -> bool:
        """The claim as checked on every size up to the cap; see
        :meth:`upward_closed_on`."""
        return self.upward_closed_on(None)

    def upward_closed_on(self, size: int | None) -> bool:
        """Whether the search may prune with the claim on domains of the
        given size: a "yes" claim that :func:`check_upward_closed` confirms
        on sizes 1 to size.  The check reaches the largest size whose
        relation space fits its cap of 9 tuples (9 at arity 1, 3 at arity 2,
        2 at arity 3, 1 beyond), the size taken when size is None; past it
        the claim cannot be checked and is not trusted.  A claim that is not
        trusted is ignored, so the search runs unpruned.  0-ary notions
        ignore the team, so their claim stands as given.  Cached per size."""
        if self.claimed_upward_closed != "yes" or self.arity == 0:
            return self.claimed_upward_closed == "yes"
        top = max(n for n in range(1, _TUPLE_CAP + 1)
                  if n ** self.arity <= _TUPLE_CAP)
        size = top if size is None else size
        if size > top:
            return False
        holds = self._checked.get(size)
        if holds is None:
            holds = self._checked[size] = check_upward_closed(self, size).holds
        return holds

    @cached_property
    def _checked(self) -> dict[int, bool]:
        """size -> whether the claim passed check_upward_closed up to it"""
        return {}


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


EMPTY_REGISTRY = Registry()


# ---------------------------------------------------------------------------
# structural fragments used by the search pruning


def upward_closed(f: Formula, registry: Registry, size: int | None = None) -> bool:
    """Satisfaction transfers to envelope-satisfying superteams: built-in
    constructs by their kind, custom atoms by their claim as checked on
    domains up to the given size (see :meth:`DependencySpec.upward_closed_on`)."""
    return f.up_builtin and all(
        registry.get(n).upward_closed_on(size) for n in f.custom_names)


def union_closed(f: Formula, registry: Registry, size: int | None = None) -> bool:
    """The union of two satisfying teams satisfies f: built-in constructs
    by their kind, custom atoms as for :func:`upward_closed`."""
    return f.union_builtin and all(
        registry.get(n).upward_closed_on(size) for n in f.custom_names)


def witness_size(atom: Atom, size: int) -> int:
    """The fewest rows of a team satisfying the atom at domain size: 1 for
    ``NE``, 2 for ``ncon`` and ``ndep``, the parameter of ``geq`` and
    ``count_eq``, size**k for ``all`` over k variables, else 0.  Those that
    are upward closed hold on that many rows of any team they hold on."""
    if atom.kind == "all":
        return size ** len(atom.parts[0])
    return {"ne": 1, "ncon": 2, "ndep": 2, "geq": atom.param,
            "count_eq": atom.param}.get(atom.kind, 0)


def _subsets(items: Iterable, least: int = 0, most: int | None = None,
             key=None) -> Iterator[tuple]:
    """Subsets of the items sorted by key, with least to most members,
    smaller sizes first and combination order within a size."""
    items = sorted(items, key=key)
    top = len(items) if most is None else min(most, len(items))
    for size in range(least, top + 1):
        yield from combinations(items, size)


def _bits(mask: int) -> list[int]:
    """The set bits of mask as powers of two, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _image(mask: int, image: list[int]) -> int:
    """The union of the images of mask's bits, image[i] that of bit i."""
    out = 0
    while mask:
        low = mask & -mask
        out |= image[low.bit_length() - 1]
        mask ^= low
    return out


def _meets(mask: int, image: list[int], sub: int) -> int:
    """The bits of mask whose images meet sub, image[i] that of bit i."""
    return sum(bit for bit in _bits(mask) if image[bit.bit_length() - 1] & sub)


def _depth_first(root, depth: int, step, done) -> bool:
    """Whether some path of depth steps from root ends in a state done
    accepts: step(level, state) yields the states one level further, in the
    order to try them, and never None.  One generator per level sits on a
    list, so a deep search does not recurse; a step that changes a shared
    state in place undoes the change when it is resumed.  A step can also
    fail the whole search: it sets a flag that every step checks when it
    resumes, after its undo, and returns if set, so the stack unwinds to
    the root and the search returns False."""
    stack = [iter((root,))]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
        elif len(stack) <= depth:
            stack.append(step(len(stack) - 1, state))
        elif done(state):
            return True
    return False


def _twins(copies: dict[Formula, int]) -> list[int]:
    """The masks of copies (see :meth:`Evaluator._split_plan`) of the sides
    that have more than one."""
    return [same for same in copies.values() if same & (same - 1)]


def _first_copy(options: int, used: int, twins: list[int]) -> int:
    """The options (bit i for side i) less every unused copy in a mask of
    twins but the first: empty parts for copies of one formula are alike."""
    for twin in twins:
        fresh = options & twin & ~used
        options ^= fresh & (fresh - 1)
    return options


def _colour(rows: int, allowed: dict[int, int], conflict: dict[int, list[int]],
            links: dict[int, int], twins: list[int]) -> bool:
    """Whether each of the rows (a mask) can take one of its allowed sides
    (bit i for side i) with no two rows that conflict on a side both taking
    it.  A backtracking search in DSATUR order (Brélaz 1979: the row with
    the fewest sides left next, then the one with the most conflicts) with
    forward checking: giving a row a side takes that side from the rows in
    conflict with it there.  Of the copies in one mask of twins, only the
    first that no coloured row has taken is tried (:func:`_first_copy`).  A
    choice made while every uncoloured row keeps all its allowed sides is
    final: the coloured rows no longer constrain the rest, so if the rest
    has no colouring neither has the whole.  With two sides this
    makes the search polynomial, as 2-SAT is.  Each step of
    :func:`_depth_first` colours one row; its state is the mask of the
    sides given so far, and a final choice that runs out of sides sets the
    flag that fails the search."""
    uncoloured = {row: allowed[row] for row in _bits(rows)}  # -> open sides
    trail = []  # (row, its open sides before a change), to undo
    stuck = []  # nonempty once a final choice has run out of sides

    def give(level: int, used: int) -> Iterator[int]:
        final = all(uncoloured[row] == allowed[row] for row in uncoloured)
        row = min(uncoloured, key=lambda r: (uncoloured[r].bit_count(),
                                             -links[r].bit_count()))
        mark = len(trail)
        for side in _bits(_first_copy(uncoloured[row], used, twins)):
            trail.append((row, uncoloured.pop(row)))
            for other in _bits(conflict[row][side.bit_length() - 1]):
                sides = uncoloured.get(other, 0)
                if sides & side:
                    trail.append((other, sides))
                    uncoloured[other] = sides ^ side
                    if sides == side:
                        break  # other has no side left
            else:
                yield used | side
            while len(trail) > mark:
                other, sides = trail.pop()
                uncoloured[other] = sides
            if stuck:
                return
        if final:
            stuck.append(row)

    return _depth_first(0, rows.bit_count(), give, lambda used: True)


class _Universe:
    """The rows over one sorted variable tuple that an evaluator has met,
    numbered on first sight; a team over these variables is the bit mask
    of its rows' numbers.  The universe of the value tuples of arity k has
    the key k for its variables.  The maps to other universes fill lazily."""

    __slots__ = ("vars", "rows", "index", "sat", "proj", "vals", "ext")

    def __init__(self, variables: tuple[str, ...] | int):
        self.vars = variables
        self.rows: list[tuple[int, ...]] = []  # bit -> row
        self.index: dict[tuple[int, ...], int] = {}  # row -> bit
        #: first-order formula uid -> [rows tested, rows satisfying]
        self.sat: dict[int, list[int]] = {}
        #: fewer variables -> their _pick map, into their universe
        self.proj: dict[tuple[str, ...], tuple] = {}
        #: argument tuple -> its _pick map, into the value tuples of its arity
        self.vals: dict[tuple[str, ...], tuple] = {}
        #: (new variable, its value or None for every value) -> (the wider
        #: universe, bit -> mask of the row's extensions)
        self.ext: dict[tuple[str, int | None], tuple[_Universe, list[int]]] = {}

    def mask(self, rows: Iterable[tuple[int, ...]]) -> int:
        index = self.index
        mask = 0
        for row in rows:
            bit = index.get(row)
            if bit is None:
                bit = index[row] = len(self.rows)
                self.rows.append(row)
            mask |= 1 << bit
        return mask

    def row_of(self, bit: int) -> tuple[int, ...]:
        return self.rows[bit.bit_length() - 1]

    def rows_of(self, mask: int) -> list[tuple[int, ...]]:
        return [self.rows[bit.bit_length() - 1] for bit in _bits(mask)]

    def submasks(self, mask: int, least: int = 0,
                 most: int | None = None) -> Iterator[int]:
        """The sub-masks with least to most rows, smaller first and in
        combination order over the sorted rows within a size."""
        return map(sum, _subsets(_bits(mask), least, most, self.row_of))


class Evaluator:
    """One lax-semantics evaluation context: fixed model and registry, with
    teams as masks and memoization keyed on (node uid, mask)."""

    def __init__(self, model: Model, registry: Registry | None = None):
        self.model = model
        self.registry = registry or EMPTY_REGISTRY
        self._universes: dict[tuple[str, ...] | int, _Universe] = {}
        self._memo: dict[tuple[int, int], bool] = {}
        #: | node uid -> its _split_plan
        self._plans: dict[int, tuple] = {}
        self._sizes: dict[int, int] = {}
        #: (node uid, mask) -> the node's greatest satisfying subteam, or None
        self._greatest: dict[tuple[int, int], int | None] = {}
        #: (arity, value mask) -> (the relation as a Model, custom atom
        #: name -> its verdict there)
        self._relations: dict[tuple[int, int], tuple[Model, dict[str, bool]]] = {}

    # -- public entry points: Team values in and out

    def evaluate(self, team: Team, f: Formula) -> bool:
        return self._eval(f, *self._team(team, f))

    def satisfying_subteams(self, team: Team, f: Formula) -> frozenset[Team]:
        """All subteams of the given team that satisfy f."""
        return frozenset(self._satisfying_teams(team, f))

    def first_satisfying_subteam(self, team: Team, f: Formula) -> Team | None:
        """The first subteam satisfying f, smaller sizes first and in
        combination order over the sorted rows within a size, or None."""
        return next(self._satisfying_teams(team, f), None)

    def _satisfying_teams(self, team: Team, f: Formula,
                          cell: tuple[_Universe, int] | None = None) -> Iterator[Team]:
        """The subteams satisfying f, as :meth:`_satisfying` yields them, of
        the team, or of its (universe, mask) cell if given."""
        u, mask = cell or self._team(team, f)
        for sub in self._satisfying(f, u, self._top(f, u, mask)):
            yield team.with_rows(u.rows_of(sub))

    def _top(self, f: Formula, u: _Universe, upper: int) -> int | None:
        """The rows of upper that a subteam satisfying f can hold: f's
        envelope rows, cut to G(f) if f is union closed (None if no G)."""
        top = self._restrict(u, upper, f.envelope)
        closed = union_closed(f, self.registry, self.model.size)
        return self._largest(f, u, top) if closed else top

    def _satisfying(self, f: Formula, u: _Universe, top: int | None, lower: int = 0,
                    least: int = 0, most: int | None = None) -> Iterator[int]:
        """The teams Y with lower <= Y <= top (see :meth:`_top`) that
        satisfy f, in the order of :meth:`_Universe.submasks` over the rows
        added to lower, from least, or f's size bound less |lower|, to most
        of them; none if lower fails f's downward part, as every Y would."""
        if top is None or lower & ~top or lower and f.downward_part is not TOP \
                and not self._eval(f.downward_part, u, lower):
            return
        for extra in u.submasks(top & ~lower,
                                max(least, self._least(f) - lower.bit_count()), most):
            if self._eval(f, u, lower | extra):
                yield lower | extra

    def _least(self, f: Formula) -> int:
        """f's size bound at the model size (0 where no rule applies), per node."""
        sizes = self._sizes
        if f.uid not in sizes:
            for g in _nodes(f):
                k = 0
                match g:
                    case Atom():
                        k = witness_size(g, self.model.size)
                    case And(l, r) | TensorOr(l, r) | ClassicalOr(l, r):
                        pick = min if type(g) is ClassicalOr else max
                        k = pick(sizes[l.uid], sizes[r.uid])
                    case Exists(_, body) | Forall(_, body):
                        k = -(-sizes[body.uid] // self.model.size)
                    case Possibly(body):
                        k = max(1, sizes[body.uid])
                sizes[g.uid] = k
        return sizes[f.uid]

    def _team(self, team: Team, f: Formula) -> tuple[_Universe, int]:
        missing = f.free_vars - set(team.variables)
        if missing:
            raise EvalError(f"free variables outside the team domain: {sorted(missing)}")
        u = self._universe(team.variables)
        return u, u.mask(team.rows)

    # -- masks

    def _universe(self, variables: tuple[str, ...] | int) -> _Universe:
        u = self._universes.get(variables)
        if u is None:
            u = self._universes[variables] = _Universe(variables)
        return u

    def _pick(self, u: _Universe, mask: int, table: dict, cols: tuple[str, ...],
              target: tuple[str, ...] | int) -> tuple[_Universe, int]:
        """The image of the team under row -> its values at cols, in the
        universe keyed target: per row as u's rows appear, in the map at
        table[cols], and per mask once if the table is u.proj, which saves
        hard_check a tenth of its time.  Value masks are not cached per mask:
        the atom memo already catches a repeated (atom, mask) pair."""
        hit = table.get(cols)
        done = None if hit is None else hit[3]
        out = None if done is None else done.get(mask)
        if out is not None:
            return hit[0], out
        target, _, image, done = self._map(u, table, cols, target)
        out = _image(mask, image)
        if done is not None:
            done[mask] = out
        return target, out

    def _map(self, u: _Universe, table: dict, cols: tuple[str, ...],
             target: tuple[str, ...] | int) -> tuple:
        """table[cols], made on first use: (the universe keyed target, the
        places of cols in u's rows, bit -> the row's bit there for every
        row of u, the images per mask if table is u.proj, else None)."""
        hit = table.get(cols)
        if hit is None:
            hit = table[cols] = (self._universe(target),
                                 [u.vars.index(v) for v in cols], [],
                                 {} if table is u.proj else None)
        target, idx, image, _ = hit
        if len(image) < len(u.rows):
            image += [target.mask((tuple(row[i] for i in idx),))
                      for row in u.rows[len(image):]]
        return hit

    def _project(self, u: _Universe, mask: int,
                 variables: tuple[str, ...]) -> tuple[_Universe, int]:
        """The team restricted to some of its variables."""
        if variables == u.vars:
            return u, mask
        return self._pick(u, mask, u.proj, variables, variables)

    def _columns(self, u: _Universe, mask: int, cols: tuple[str, ...]) -> int:
        """The value tuples the team takes on cols, variables of the team in
        any order and possibly repeated, as a mask in the universe of the
        value tuples of their arity, which every team of the evaluator
        shares."""
        return self._pick(u, mask, u.vals, cols, len(cols))[1]

    def _extend(self, u: _Universe, v: str,
                value: int | None = None) -> tuple[_Universe, list[int]]:
        """The universe over u's variables and v (not one of them), and
        each of u's rows' extensions by every value of v, or by the one
        value given, as masks there; filled as u's rows appear."""
        hit = u.ext.get((v, value))
        if hit is None:
            hit = u.ext[v, value] = (self._universe(tuple(sorted(u.vars + (v,)))), [])
        wide, image = hit
        if len(image) < len(u.rows):
            i = wide.vars.index(v)
            values = self.model.domain if value is None else (value,)
            image += [wide.mask(row[:i] + (m,) + row[i:] for m in values)
                      for row in u.rows[len(image):]]
        return wide, image

    def _restrict(self, u: _Universe, mask: int, theta: Formula) -> int:
        """The rows of the team that satisfy the first-order theta; each
        row is sent to tarski_eval once per theta, and a sentence is
        decided once, by :meth:`_sentence`."""
        entry = u.sat.get(theta.uid)
        if entry is None:
            entry = u.sat[theta.uid] = [0, 0]
        fresh = mask & ~entry[0]
        if fresh:
            if u.vars and not theta.free_vars:
                good = fresh if self._sentence(theta) else 0
            else:
                model, vs = self.model, u.vars
                good = 0
                for bit in _bits(fresh):
                    if tarski_eval(model, dict(zip(vs, u.row_of(bit))), theta):
                        good |= bit
            entry[0] |= fresh
            entry[1] |= good
        return mask & entry[1]

    # -- dispatch

    def _eval(self, f: Formula, u: _Universe, mask: int) -> bool:
        if u.vars != f.free_tuple:  # locality
            u, mask = self._project(u, mask, f.free_tuple)
        key = (f.uid, mask)
        result = self._memo.get(key)
        if result is not None:
            return result
        if type(f) not in _CHAINED:
            result = self._memo[key] = self._eval_raw(f, u, mask)
            return result
        # a tree of &, || and ~: node g asks its operand i (~ its body; &
        # and || the left, then the right unless the left decides g), whose
        # verdict comes from the memo, from _eval_raw if the operand is
        # outside the tree, or else from the operand's own questions while
        # g waits on the stack; a verdict, negated under ~, answers g, and
        # g's verdict the node below it, one memo entry per node
        memo = self._memo
        stack = []  # the nodes below g, as (node, its team, operand index)
        g, i = f, 0
        while True:
            operand = g.right if i else g.body if type(g) is ContraNeg else g.left
            sub_u, sub = self._project(u, mask, operand.free_tuple)
            key = (operand.uid, sub)
            result = memo.get(key)
            if result is None:
                if type(operand) in _CHAINED:
                    stack.append((g, u, mask, i))
                    g, u, mask, i = operand, sub_u, sub, 0
                    continue
                result = memo[key] = self._eval_raw(operand, sub_u, sub)
            while True:
                if type(g) is ContraNeg:
                    result = not result
                elif not i and result == (type(g) is And):  # not decided
                    i = 1
                    break
                memo[g.uid, mask] = result
                if not stack:
                    return result
                g, u, mask, i = stack.pop()

    def _eval_raw(self, f: Formula, u: _Universe, mask: int) -> bool:
        if f.first_order:  # flat: the team satisfies f iff each row does
            return self._restrict(u, mask, f) == mask
        match f:
            case Atom():
                return self._atom(u, mask, f)
            case Exists() | Forall() if union_closed(f, self.registry,
                                                     self.model.size):
                return self._largest(f, u, mask) == mask
            case TensorOr():
                return self._tensor_or(u, mask, f)
            case IntImpl(l, r):  # every subteam satisfying l satisfies r
                if mask.bit_count() > _TEAM_ROW_CAP:
                    raise EvalError(f"-> on a team of {mask.bit_count()} rows "
                                    f"exceeds the cap of {_TEAM_ROW_CAP}")
                return all(self._eval(r, u, sub)
                           for sub in self._satisfying(l, u, self._top(l, u, mask)))
            case Possibly(body):
                return self._exists_sat(body, u, mask, 0, nonempty=True)
            case Exists(v, body):
                return self._exists(u, mask, v, body)
            case Forall(v, body):
                wide, image = self._extend(u, v)
                return self._eval(body, wide, _image(mask, image))
            case Bracket(body):
                return self._sentence(body)
        raise EvalError(f"cannot evaluate {type(f).__name__}")

    # -- atoms

    def _atom(self, u: _Universe, mask: int, a: Atom) -> bool:
        base = _NEGATES.get(a.kind)
        if base is not None:  # a witnessed failure of the base kind
            return not self._kernel(u, mask, base, a)
        return self._kernel(u, mask, a.kind, a)

    def _kernel(self, u: _Universe, mask: int, kind: str, a: Atom) -> bool:
        """Whether the team satisfies the positive atom kind over a's
        arguments.  The team's variables are the atom's, so a kind with one
        argument tuple, or ``dep`` and ``ind`` on all of theirs, take as many
        values as the team has rows."""
        match kind:
            case "ne":
                return mask != 0
            case "const":
                return mask.bit_count() <= 1
            case "all":
                return mask.bit_count() == self.model.size ** len(a.parts[0])
            case "geq":
                return mask.bit_count() >= a.param
            case "count_eq":
                return mask.bit_count() == a.param
            case "cocount_eq":
                return self.model.size - mask.bit_count() == a.param
            case "dep":  # as many v values as rows: one w value per v value
                values = self._columns(u, mask, a.parts[0])
                return values.bit_count() == mask.bit_count()
            case "inc":
                return not (self._columns(u, mask, a.parts[0])
                            & ~self._columns(u, mask, a.parts[1]))
            case "ind":  # per u value: its v values times its w values
                us, vs, ws = a.parts
                counts: dict[tuple[int, ...], list[int]] = {}  # u value -> [#v, #w]
                for j, cols in enumerate((us + vs, us + ws)):
                    values = self._universe(len(cols))  # decode the few value tuples
                    for t in values.rows_of(self._columns(u, mask, cols)):
                        counts.setdefault(t[:len(us)], [0, 0])[j] += 1
                return mask.bit_count() == sum(m * n for m, n in counts.values())
            case "custom":
                return self._custom(u, mask, a)
        raise EvalError(f"unknown atom kind {a.kind!r}")

    def _custom(self, u: _Universe, mask: int, a: Atom) -> bool:
        spec = self.registry.get(a.name)
        if len(a.parts[0]) != spec.arity:
            raise EvalError(
                f"{a.name} has arity {spec.arity}, used with {len(a.parts[0])} argument(s)"
            )
        if spec.arity == 0:  # a sentence with no relation: the team is ignored
            return self._sentence(spec.definition)
        key = spec.arity, self._columns(u, mask, a.parts[0])
        if key not in self._relations:
            relation = self._universe(spec.arity).rows_of(key[1])
            sig = Signature({"R": spec.arity})
            self._relations[key] = Model(self.model.size, {"R": relation}, sig), {}
        struct, verdicts = self._relations[key]
        if a.name not in verdicts:
            verdicts[a.name] = tarski_eval(struct, {}, spec.definition)
        return verdicts[a.name]

    def _sentence(self, body: Formula) -> bool:
        """Whether the model satisfies the first-order sentence: the one row
        over no variables restricted by it, so it is decided once, whichever
        team asks."""
        u = self._universe(())
        row = u.mask(((),))
        return self._restrict(u, row, body) == row

    # -- splitting disjunction

    def _tensor_or(self, u: _Universe, mask: int, f: TensorOr) -> bool:
        """The one rule for a ``|`` chain that is not first order, nested
        either way: each side takes only rows its envelope admits; a
        union-closed side, first-order ones included, takes its G of them,
        and the other sides cover the rest (with none, the G must)."""
        plan = self._plans.get(f.uid)
        if plan is None:
            plan = self._plans[f.uid] = self._split_plan(f)
        flat, rest, how, copies = plan
        admitted, reach = [], 0
        for side in flat + rest:
            part = self._restrict(u, mask, side.envelope)
            admitted.append(part)
            reach |= part
        if reach != mask:
            return False
        covered = 0
        for side, part in zip(flat, admitted):
            part = self._largest(side, u, part)
            if part is None:
                return False
            covered |= part
        if not rest:
            return covered == mask
        todo = mask & ~covered
        admitted = admitted[len(flat):]
        if len(rest) == 1:
            return self._exists_sat(rest[0], u, admitted[0], todo)
        if how == "coherent":
            return self._coherent_split(u, todo, rest, copies)
        if how == "downward":
            return self._down_split(u, todo, rest, copies)
        for side, part in zip(rest, admitted):
            if not self._eval(side, u, part):
                return self._generic_split(u, todo, rest, admitted)
        return True  # every side holds on all the rows it admits

    def _split_plan(self, f: TensorOr) -> tuple:
        """The sides of the ``|`` chain at f (a first-order ``|`` is one
        flat side), left to right: the flat ones, union closed at the model
        size; the rest; how the rest split: "coherent", "downward" (if each
        is so) or "split"; and each distinct side of the rest -> the mask
        of its copies there (bit i for side i).  Made once per node."""
        flat, rest, todo = [], [], [f]
        while todo:
            g = todo.pop()
            if type(g) is TensorOr and not g.first_order:
                todo += (g.right, g.left)
            elif union_closed(g, self.registry, self.model.size):
                flat.append(g)
            else:
                rest.append(g)
        how = ("coherent" if all(side.coherent for side in rest) else
               "downward" if all(side.downward for side in rest) else "split")
        copies: dict[Formula, int] = {}
        for i, side in enumerate(rest):
            copies[side] = copies.get(side, 0) | 1 << i
        return tuple(flat), tuple(rest), how, copies

    def _coherent_split(self, u: _Universe, mask: int, sides: tuple[Formula, ...],
                        copies: dict[Formula, int]) -> bool:
        """Every side coherent: a part satisfies its side iff each of its
        rows and pairs of rows does, and a partition suffices, so the split
        gives each row one of the sides that hold on it alone (side i as
        bit i; each distinct side, see :meth:`_split_plan`, is asked once
        for all its copies) such that no two rows that fail a side together
        both get it.  Those conflicts come once per distinct side, from
        :meth:`_conflicts` on the rows that hold it alone, and its copies
        share them.  Rows in conflict with no other row take any allowed
        side; :func:`_colour` colours each connected group of the others on
        its own."""
        allowed = {}  # row -> the sides that hold on it alone
        for row in _bits(mask):
            held = 0
            for side, same in copies.items():
                if self._eval(side, u, row):
                    held |= same
            if not held:
                return False
            allowed[row] = held
        if not mask & (mask - 1):  # no two rows to conflict
            return True
        #: row -> per side, the rows it fails that side with
        conflict = {row: [0] * len(sides) for row in allowed}
        links = dict.fromkeys(allowed, 0)  # row -> the rows it conflicts with
        for side, same in copies.items():
            rows = [row for row in allowed if allowed[row] & same]
            if len(rows) < 2:
                continue
            places = [bit.bit_length() - 1 for bit in _bits(same)]
            for row, clash in zip(rows, self._conflicts(side, u, rows)):
                if clash:
                    links[row] |= clash
                    for i in places:
                        conflict[row][i] = clash
        twins, todo = _twins(copies), mask
        while todo:
            group = reach = todo & -todo
            while reach:
                new = 0
                for row in _bits(reach):
                    new |= links[row]
                reach = new & ~group
                group |= reach
            todo &= ~group
            if group & (group - 1) and not _colour(
                    group, allowed, conflict, links, twins):
                return False
        return True

    def _conflicts(self, f: Formula, u: _Universe, rows: list[int]) -> list[int]:
        """Per row of rows (bits of u, each holding the coherent f alone),
        the rows among them it fails f with, read from f's structure: a
        first-order part gives none, since each row holds it; ``&`` joins
        its parts' conflicts; ``dep(D; W)``, with ``const(W)`` as D = (),
        gives the rows that agree on D but not on D and W.  An atom groups
        the rows by the bits of two maps (:meth:`_map`) that evaluating it
        on each row alone has filled: the rows' projections onto its
        variables, and their D values there.  Any other part, a ``forall``
        over a body that is not first order, is evaluated on each pair of
        rows."""
        out, todo = [0] * len(rows), [f]
        while todo:
            g = todo.pop()
            if type(g) is Atom:  # dep(D; W), or const(W) as D = ()
                sub_u, subs = u, rows  # the rows over g's variables
                if g.free_tuple != u.vars:
                    sub_u, _, onto, _ = self._map(u, u.proj, g.free_tuple,
                                                  g.free_tuple)
                    subs = [onto[row.bit_length() - 1] for row in rows]
                dom = g.parts[0] if g.kind == "dep" else ()
                image = self._map(sub_u, sub_u.vals, dom, len(dom))[2]
                keys = [image[sub.bit_length() - 1] for sub in subs]  # D values
                group, same = {}, {}  # a D value, a row over g's variables -> rows
                for row, key, sub in zip(rows, keys, subs):
                    group[key] = group.get(key, 0) | row
                    same[sub] = same.get(sub, 0) | row
                for j, (key, sub) in enumerate(zip(keys, subs)):
                    out[j] |= group[key] & ~same[sub]
            elif type(g) is And:
                todo += (g.left, g.right)
            elif not g.first_order:
                for (i, a), (j, b) in combinations(enumerate(rows), 2):
                    if not self._eval(g, u, a | b):
                        out[i] |= b
                        out[j] |= a
        return out

    def _down_split(self, u: _Universe, mask: int, sides: tuple[Formula, ...],
                    copies: dict[Formula, int]) -> bool:
        """Every side downward closed but not every one coherent: a side is
        an ``exists``, a ``->``, a ``||``, a bracket, or a ``&`` or
        ``forall`` over one of these or over a ``|``.  A partition
        suffices: give the rows, in sorted order, one at a time to a side
        that holds on the row alone and on its partial team with the row,
        and reject as soon as none does.  A first pass asks each row's
        distinct sides (see :meth:`_split_plan`) until one holds, so a row
        that fails every side fails the split before the search; a row's
        other sides are asked when the search tries them.  Of the copies of
        a side that hold no row yet, only the first is tried.  Each step of
        :func:`_depth_first` places one row in the shared list of parts;
        its state is the mask of the sides holding a row."""
        order = sorted(_bits(mask), key=u.row_of)
        if not (all(any(self._eval(side, u, bit) for side in copies) for bit in order)
                and all(self._eval(side, u, 0) for side in copies)):
            return False
        parts, twins, every = [0] * len(sides), _twins(copies), (1 << len(sides)) - 1

        def place(i: int, used: int) -> Iterator[int]:
            bit = order[i]
            for side in _bits(_first_copy(every, used, twins)):
                j = side.bit_length() - 1
                part = parts[j]
                if self._eval(sides[j], u, bit) and self._eval(sides[j], u, part | bit):
                    parts[j] = part | bit
                    yield used | side
                    parts[j] = part

        return _depth_first(0, len(order), place, lambda used: True)

    def _generic_split(self, u: _Universe, mask: int, sides: tuple[Formula, ...],
                       admitted: list[int]) -> bool:
        """Two or more sides cover the team, side j within admitted[j]: the
        last side takes each part it holds on (:meth:`_satisfying`) that
        contains the rows no earlier side admits; the earlier sides cover
        the rest alike, the first by :meth:`_exists_sat`.  Each step of
        :func:`_depth_first` gives one side, last first, its part."""
        before = [0]  # j -> the rows sides 0 to j - 1 admit
        for part in admitted:
            before.append(before[-1] | part)
        last = len(sides) - 1

        def parts(level: int, need: int) -> Iterator[int]:
            """What sides 0 to j - 1 must cover after side j = last - level
            takes a part."""
            j = last - level
            for part in self._satisfying(sides[j], u, admitted[j], need & ~before[j]):
                yield need & ~part

        return _depth_first(
            mask, last, parts,
            lambda need: self._exists_sat(sides[0], u, admitted[0], need))

    def _exists_sat(self, f: Formula, u: _Universe, upper: int, lower: int,
                    nonempty: bool = False) -> bool:
        """Is there a team Y with lower <= Y <= upper satisfying f, and
        with Y nonempty when asked?  Y lies inside f's top (see
        :meth:`_top`); a downward-closed f is decided by the smallest
        candidates of :meth:`_satisfying`, any other f holds if it holds on
        its top, which a union-closed f, holding on its G, always does, and
        else the candidates are tried in turn."""
        top = self._top(f, u, upper)
        if top is None or lower & ~top or (nonempty and not top):
            return False
        if not f.downward and self._eval(f, u, top):
            return True
        least = 1 if nonempty and not lower else 0
        most = least if f.downward else None  # the smallest candidates decide
        return next(self._satisfying(f, u, top, lower, least, most), None) is not None

    # -- greatest satisfying subteams

    def _largest(self, f: Formula, u: _Universe, mask: int) -> int | None:
        """G(f, team) for a union-closed f, or None if no subteam satisfies
        f: the rows passing a first-order f; the envelope rows if an
        upward-closed non-quantifier f (``up_builtin``) holds there; else
        f's rule, memoized with f's verdict true on G per (uid, mask) over
        f's free variables and lifted to the team, its nested rules waiting
        on one list, so a nest of quantifiers does not recurse."""
        frames, found = [], None
        while True:
            if f is not None and f.up_builtin and (
                    f.first_order or type(f) not in (Exists, Forall)):
                found = self._restrict(u, mask, f.envelope)
                if not (f.first_order or self._eval(f, u, found)):
                    found = None
            elif f is not None:  # start f's rule on the team over its variables
                sub_u, sub = self._project(u, mask, f.free_tuple)
                frames.append((self._rule(f, sub_u, sub), f, u, mask, (f.uid, sub)))
                found = None
            if not frames:
                return found
            rule, f, u, mask, key = frames[-1]
            try:
                f, u, mask = rule.send(found)
            except StopIteration as stop:
                frames.pop()
                found = self._greatest[key] = stop.value
                if found is not None:
                    self._memo[key[0], found] = True  # f holds on its G
                    if u.vars != f.free_tuple:
                        found = _meets(mask, u.proj[f.free_tuple][2], found)
                f = None

    def _rule(self, f: Formula, u: _Universe, mask: int):
        """G(f) on a team over f's free variables, yielding (node, universe,
        mask) per G it needs: under ``inc``, ``&`` and ``forall``, the team
        less the rows that break f, until none does; under ``|`` the sides'
        G joined; under ``exists`` the rows whose block meets the body's G."""
        if (f.uid, mask) in self._greatest:
            return self._greatest[f.uid, mask]
        match f:
            case Atom(parts=(left, right)):  # inc
                while True:
                    missing = (self._columns(u, mask, left)
                               & ~self._columns(u, mask, right))
                    if not missing:
                        return mask
                    mask &= ~_meets(mask, u.vals[left][2], missing)
            case TensorOr(l, r):
                left = yield l, u, mask
                right = None if left is None else (yield r, u, mask)
                return None if right is None else left | right
            case And(l, r):
                while True:
                    last = mask
                    mask = yield l, u, mask
                    if mask is None:
                        return None
                    mask = yield r, u, mask
                    if mask is None or mask == last:
                        return mask
            case Exists(v, body):
                wide, image = self._extend(u, v)
                found = yield body, wide, _image(mask, image)
                return None if found is None else _meets(mask, image, found)
            case Forall(v, body):
                wide, image = self._extend(u, v)
                while True:
                    found = yield body, wide, _image(mask, image)
                    if found is None:
                        return None
                    drop = _meets(mask, image, ~found)  # blocks leaving found
                    if not drop:
                        return mask
                    mask ^= drop

    # -- lax existential quantification

    def _exists(self, u: _Universe, mask: int, v: str, body: Formula) -> bool:
        """Lax witness search: a satisfying Y inside the universal extension
        must hit the extension block of every original row.  The body is
        neither first order nor union closed.  If it forces ``dep(D; v)`` and
        the team is nonempty, each step of :func:`_depth_first` extends the
        rows of the next D value, in sorted order, by one value that the
        envelope admits on all of them, values drawn as needed, since each
        widens the universe by all of u's rows; one class, as for
        ``const(v)``, is tried here.  Else, unless the full allowed extension
        decides, each step chooses a nonempty part of the next row's allowed
        block, rows in sorted order, one row for a downward body.  A class or
        row with no option fails at once; a partial witness is dropped once
        the downward part fails on its projection, which the state carries."""
        det = body.determiners.get(v) if mask else None
        if det is not None:
            if det:  # order: the rows of each D value, values sorted
                at, classes = [u.vars.index(w) for w in det], {}
                for bit in _bits(mask):
                    key = tuple(map(u.row_of(bit).__getitem__, at))
                    classes[key] = classes.get(key, 0) | bit
                order = [classes[key] for key in sorted(classes)]
            if not det or len(order) == 1:  # a nest adds no _depth_first frames
                for a in self.model.domain:
                    wide, image = self._extend(u, v, a)
                    y = _image(mask, image)
                    if (self._restrict(wide, y, body.envelope) == y
                            and self._eval(body, wide, y)):
                        return True
                return False
            wide = self._universe(tuple(sorted(u.vars + (v,))))
        else:
            wide, image = self._extend(u, v)
            allowed = self._restrict(wide, _image(mask, image), body.envelope)
            order = [image[bit.bit_length() - 1] & allowed  # blocks
                     for bit in sorted(_bits(mask), key=u.row_of)]
        prune, most = body.downward_part, 1 if body.downward else None

        def parts(i: int) -> Iterator[int]:  # the options of step i, lazily
            if det is None:
                return wide.submasks(order[i], 1, most)
            ys = (_image(order[i], self._extend(u, v, a)[1]) for a in self.model.domain)
            return (y for y in ys if self._restrict(wide, y, body.envelope) == y)

        if not all(next(parts(i), 0) for i in range(len(order))):
            return False
        if det is None and self._eval(body, wide, allowed):
            return True

        def choose(i: int, state: tuple[int, int]) -> Iterator[tuple[int, int]]:
            acc, seen = state  # the partial witness, its projection for prune
            for chosen in parts(i):
                if prune is TOP:
                    yield acc | chosen, 0
                    continue
                pu, part = self._project(wide, chosen, prune.free_tuple)
                if self._eval(prune, pu, seen | part):
                    yield acc | chosen, seen | part

        return _depth_first((0, 0), len(order), choose,
                            lambda state: self._eval(body, wide, state[0]))


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


def check_upward_closed(spec: DependencySpec, max_size: int) -> UpwardClosedVerdict:
    """Exhaustively test R subset-of S preservation up to a domain size,
    whose relation space may hold at most 9 tuples.

    Growing a relation one tuple at a time reaches every superset, so
    closure under single-tuple extensions is checked instead of all pairs.
    """
    if spec.arity < 1:
        raise ValueError("upward closure concerns arities >= 1")
    if max_size ** spec.arity > _TUPLE_CAP:
        raise EnumerationLimit(
            f"{max_size ** spec.arity} tuples exceed the cap of {_TUPLE_CAP}")
    sig = Signature({"R": spec.arity})
    for n in range(1, max_size + 1):
        sat = {model.interp["R"]: tarski_eval(model, {}, spec.definition)
               for model in enumerate_models(sig, n)}
        space = list(product(range(n), repeat=spec.arity))
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
