"""Boundedness analysis and the brute-force equivalence oracle.

A formula over upward-closed atoms admits small satisfying subteams: each
atom occurrence contributes its own witness bound, and the occurrence-
weighted sum bounds the whole formula.  This module computes those bounds,
verifies them empirically by exhaustive sweeps, extracts minimal witnesses,
and builds the totality-arity separation witness.  The ``equivalent``
sweep doubles as the correctness oracle for every rewriter.  Both sweeps
run over one driver, ``_cells``, which checks the model and team caps for
the largest size before the first cell and decides each cell from its
subset-rank mask.  ``equivalent`` decides one cell per orbit of a model's
automorphisms, on models of at most ``_ORBIT_SIZE_CAP`` elements: the
language has no constants, so renaming a team's values by an automorphism
keeps every verdict.  ``check_boundedness`` decides every cell, one fresh
witness re-check each.  ``cli._sweep`` keeps a loop of its own that
decides every cell: the benchmark counts its coverage on the names ``cli``
enumerates with, and ``model_sweep``'s harness share, which grows as the
sweep gets faster, is close to its limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .evaluator import (EMPTY_REGISTRY, Evaluator, Registry, evaluate,
                        upward_closed, witness_size)
from .structures import (
    _TEAM_ROW_CAP,
    Model,
    Team,
    _automorphisms,
    _check_caps,
    _permuted_masks,
    all_assignment_rows,
    enumerate_models,
    enumerate_teams,
    model_to_text,
    team_to_text,
)
from .syntax import (
    And,
    Atom,
    ClassicalOr,
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
    _nodes,
)


class AnalysisError(ValueError):
    """Input outside the analyzable fragment, or a sweep cap exceeded."""


#: closed-form bounds: ("const", c) -> c, ("lin", c) -> c*n, ("pow", k) -> n**k
Bound = tuple[str, int]

#: largest domain size :func:`hierarchy_witness` tries
_MAX_DOMAIN = 8

#: largest model whose automorphisms (of 4! = 24 permutations) sweeps use
_ORBIT_SIZE_CAP = 4

#: most rows of the full team :func:`hierarchy_witness` searches: 3**3,
#: which the size bound of ``all`` decides with one candidate
_HIERARCHY_ROW_CAP = 27


def bound_value(bound: Bound, n: int) -> int:
    form, c = bound
    if form == "const":
        return c
    if form == "lin":
        return c * n
    if form == "pow":
        return n ** c
    raise AnalysisError(f"unknown bound form {form!r}")


class GammaTable:
    """Witness-size bounds per atom at a domain size n.  Defaults: an
    upward-closed built-in atom needs its ``evaluator.witness_size``, a
    k-ary custom atom whose upward-closure claim is confirmed n**k rows;
    first-order literals and constancy contribute nothing.  ``overrides``
    maps atom kinds or custom names to replacement bounds."""

    def __init__(self, overrides: dict[str, Bound] | None = None):
        self.overrides = dict(overrides or {})

    def bound_for(self, atom: Atom, registry: Registry, size: int) -> int:
        """The atom's bound at domain size; a custom atom's upward-closure
        claim must be checked on domains up to size."""
        custom = atom.kind == "custom"
        key = atom.name if custom else atom.kind
        if key in self.overrides:
            return bound_value(self.overrides[key], size)
        # constancy is not upward closed, but its witness size is 0
        if not (atom.kind == "const" or upward_closed(atom, registry, size)):
            raise AnalysisError(
                f"custom atom {atom.name!r} has no bound override and no "
                f"upward-closure claim that check_upward_closed confirms "
                f"up to size {size} (relation spaces of at most 9 tuples)" if custom
                else f"atom {atom.kind} is not upward closed and has no bound override")
        return size ** registry.get(atom.name).arity if custom else witness_size(atom, size)


def nu_bound(f: Formula, n: int, gamma: GammaTable | None = None,
             registry: Registry | None = None) -> int:
    """Occurrence-weighted witness bound: the sum over all dependency-atom
    occurrences of their individual bounds at domain size n, folded over
    f's distinct nodes (an atom's bound, else the sum of its children's)."""
    gamma = gamma or GammaTable()
    registry = registry or EMPTY_REGISTRY
    nu: dict[int, int] = {}  # node uid -> its bound
    for g in _nodes(f):
        match g:
            case Atom():
                nu[g.uid] = gamma.bound_for(g, registry, n)
            case And(l, r) | TensorOr(l, r) | ClassicalOr(l, r):
                nu[g.uid] = nu[l.uid] + nu[r.uid]
            case Exists(_, body) | Forall(_, body):
                nu[g.uid] = nu[body.uid]
            case PositiveLiteral() | NegativeLiteral() | Equal() | NotEqual():
                nu[g.uid] = 0
            case _:
                raise AnalysisError(f"{type(g).__name__} is outside the bounded fragment")
    return nu[f.uid]


def _cells(signature: Signature, max_model: int, variables: tuple[str, ...],
           team_filter: str, registry: Registry | None, orbits: bool = False):
    """Every cell of a sweep, as (evaluator, universe, mask, team): one fresh
    evaluator per model up to max_model, which numbers the rows over the
    sorted variables in the order whose subsets ``enumerate_teams`` yields
    by rank, so the k-th team is mask k; and the teams the filter keeps,
    still built because the benchmark counts coverage on this module's
    ``enumerate_teams``.  With ``orbits``, of a model of at most
    ``_ORBIT_SIZE_CAP`` elements only the cells whose mask no automorphism
    (:func:`structures._automorphisms`, applied to the mask by its byte
    maps) sends to a smaller mask: the least of each orbit, which comes
    first in the sweep.  The caps are checked for max_model on the call."""
    if max_model < 1:
        raise AnalysisError(f"max_model must be >= 1, got {max_model}")
    _check_caps(signature, max_model, len(variables))

    def cells():
        for size in range(1, max_model + 1):
            for model in enumerate_models(signature, size):
                ev = Evaluator(model, registry)
                u = ev._universe(variables)
                u.mask(all_assignment_rows(size, len(variables)))
                tables = ()  # the automorphisms but the identity, as mask maps
                if orbits and size <= _ORBIT_SIZE_CAP:
                    maps = _permuted_masks(size, len(variables))[1]
                    tables = [maps[i] for i in _automorphisms(model)[1:]]
                for mask, team in enumerate(enumerate_teams(model, variables)):
                    if team_filter == "all" or mask:
                        for low, high in tables:
                            if low[mask & 255] | high[mask >> 8] < mask:
                                break
                        else:
                            yield ev, u, mask, team
    return cells()


def minimal_satisfying_subteam(model: Model, team: Team, f: Formula,
                               registry: Registry | None = None,
                               cap: int = _TEAM_ROW_CAP) -> Team | None:
    """A minimum-cardinality subteam satisfying f, or None when none does
    (ties broken by enumeration order over sorted rows)."""
    if len(team) > cap:
        raise AnalysisError(f"team of size {len(team)} exceeds the cap of {cap}")
    return _first_witness(Evaluator(model, registry), team, f)


def _first_witness(ev: Evaluator, team: Team, f: Formula, cell=None) -> Team | None:
    """ev's first satisfying subteam (see
    :meth:`Evaluator.first_satisfying_subteam`) of the team, or of its
    (universe, mask) cell, re-validated with fresh state, or None."""
    witness = next(ev._satisfying_teams(team, f, cell), None)
    if witness is not None and not evaluate(ev.model, witness, f, ev.registry):
        raise AnalysisError("unstable evaluation result")
    return witness


@dataclass(frozen=True)
class BoundReport:
    formula: Formula
    model_size: int
    team_size: int
    nu_value: int
    witness_size: int
    holds: bool

    def __str__(self):
        cmp, flag = ("<=", "ok") if self.holds else (">", "VIOLATION")
        return (f"|M|={self.model_size} |X|={self.team_size}: "
                f"witness {self.witness_size} {cmp} nu {self.nu_value} [{flag}]")


def check_boundedness(f: Formula, max_model: int,
                      gamma: GammaTable | None = None,
                      registry: Registry | None = None,
                      nus: dict[int, int] | None = None) -> list[BoundReport]:
    """Sweep every empty-signature model up to max_model and every
    satisfying team over the formula's free variables, reporting whether a
    witness subteam within each size's bound, put in nus if given, exists."""
    gamma = gamma or GammaTable()
    registry = registry or EMPTY_REGISTRY
    if f.arities:
        raise AnalysisError("boundedness sweeps cover empty-signature models only")
    cells = _cells(EMPTY_SIGNATURE, max_model, f.free_tuple, "all", registry)
    # rejects atoms outside the fragment before any sweep
    nus = {} if nus is None else nus
    nus.update((n, nu_bound(f, n, gamma, registry)) for n in range(1, max_model + 1))
    reports = []
    for ev, u, mask, team in cells:
        if not ev._eval(f, u, mask):
            continue
        # every candidate comes before the team in the enumeration, so the
        # sweep's memo already holds its verdict
        witness = _first_witness(ev, team, f, (u, mask))
        wsize = len(witness) if witness is not None else len(team)
        nu = nus[ev.model.size]
        reports.append(BoundReport(f, ev.model.size, len(team), nu, wsize,
                                   witness is not None and wsize <= nu))
    return reports


@dataclass(frozen=True)
class HierarchyReport:
    """Separation witness: on the found domain size, the full team over
    arity-many variables satisfies the wide totality atom but admits no
    witness within the bound available to the narrower arity."""

    wide_arity: int
    narrow_arity: int
    occurrences: int
    domain_size: int
    team_size: int
    narrow_bound: int
    witness_size: int
    exceeds: bool

    def __str__(self):
        cmp = ">" if self.exceeds else "<="
        return (f"n={self.domain_size}: minimal totality witness "
                f"{self.witness_size} {cmp} {self.narrow_bound} "
                f"= {self.occurrences}*n^{self.narrow_arity}")


def hierarchy_witness(wide_arity: int, narrow_arity: int,
                      occurrences: int) -> HierarchyReport:
    """Build the totality-arity separation witness: the least domain size n
    with n**wide > occurrences * n**narrow, the full team over wide-arity
    variables, and its exact minimal satisfying subteam."""
    if not wide_arity > narrow_arity >= 1:
        raise AnalysisError("need wide_arity > narrow_arity >= 1")
    if occurrences < 1:
        raise AnalysisError("occurrence count must be >= 1")
    if wide_arity > _HIERARCHY_ROW_CAP:  # n >= 2, so n**wide_arity > wide_arity
        raise AnalysisError(f"witness team of size 2**{wide_arity} or more "
                            f"exceeds the cap of {_HIERARCHY_ROW_CAP}")
    n = next((n for n in range(1, _MAX_DOMAIN + 1)
              if n ** wide_arity > occurrences * n ** narrow_arity), None)
    if n is None:
        raise AnalysisError(f"no domain size up to {_MAX_DOMAIN} separates the bounds")
    team_size = n ** wide_arity
    if team_size > _HIERARCHY_ROW_CAP:
        raise AnalysisError(f"witness team of size {team_size} exceeds "
                            f"the cap of {_HIERARCHY_ROW_CAP}")
    model = Model(n)
    variables = tuple(f"w{i}" for i in range(1, wide_arity + 1))
    full = Team(variables, product(range(n), repeat=wide_arity))
    atom = Atom("all", (variables,))
    ev = Evaluator(model)
    if not ev.evaluate(full, atom):
        raise AnalysisError("full team unexpectedly fails the totality atom")
    witness = _first_witness(ev, full, atom)
    narrow_bound = occurrences * n ** narrow_arity
    wsize = len(witness)
    return HierarchyReport(wide_arity, narrow_arity, occurrences, n,
                           team_size, narrow_bound, wsize, wsize > narrow_bound)


@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    max_model: int
    team_filter: str
    counter_model: Model | None = None
    counter_team: Team | None = None
    left_value: bool | None = None

    def __str__(self):
        if self.equivalent:
            return (f"equivalent (models up to size {self.max_model}, "
                    f"{self.team_filter} teams)")
        return (f"counterexample at |M|={self.counter_model.size}, "
                f"|X|={len(self.counter_team)}: left is {self.left_value}")

    def to_text(self) -> str:
        if self.equivalent:
            return str(self) + "\n"
        return (str(self) + "\n" + model_to_text(self.counter_model)
                + team_to_text(self.counter_team))


def equivalent(f: Formula, g: Formula, variables: Iterable[str],
               signature: Signature = EMPTY_SIGNATURE, max_model: int = 3,
               team_filter: str = "all",
               registry: Registry | None = None) -> EquivReport:
    """Exhaustively compare two formulas over all models of the signature up
    to max_model and all teams over the given variables; the first
    disagreement (re-checked from scratch) becomes the counterexample.  Of
    each orbit of teams under a model's automorphisms only the least mask
    is decided: the verdicts agree across an orbit, so it disagrees iff its
    least mask does, and that mask comes first, so the counterexample, or
    an ``EvalError``, is the one deciding every team would meet."""
    if team_filter not in ("all", "nonempty"):
        raise AnalysisError("team_filter must be 'all' or 'nonempty'")
    variables = tuple(sorted(set(variables)))
    for h in (f, g):
        extra = h.free_vars - set(variables)
        if extra:
            raise AnalysisError(f"free variables {sorted(extra)} not swept")
    for ev, u, mask, team in _cells(signature, max_model, variables,
                                    team_filter, registry, orbits=True):
        if ev._eval(f, u, mask) != ev._eval(g, u, mask):
            # revalidate with fresh state before reporting
            a = evaluate(ev.model, team, f, registry)
            if a == evaluate(ev.model, team, g, registry):
                raise AnalysisError("unstable evaluation result")
            return EquivReport(False, max_model, team_filter, ev.model, team, a)
    return EquivReport(True, max_model, team_filter)
