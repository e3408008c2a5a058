"""Seeded job lists for the four benchmark workloads, with reference verdicts
that do not come from the evaluator.

A *job* is one user-level call: one ``equivalent`` sweep, one ``cli.main``
command, one model sweep of one formula, one hard instance or one witness
search.  A *cell* is one (model, team, formula) verdict the job decides.

Every job carries its own check.  References are planted answers (hard
instances), the paper's theorems (rewriters are equivalent to their
sources, witness bounds hold, the closed-form hierarchy numbers), pointwise
``tarski_eval`` for first-order cells, direct set computations on the rows
for atom-only formulas, and a seeded sample cross-checked with the literal
oracle in ``tests/naive.py`` under a cost bound.  Sweeps are also checked
for coverage: the models and teams the program enumerated must match their
closed-form counts, so a sweep that skips cells fails rather than speeds up.

The job list depends only on the workload name and the seed.  Hardness of
the ``hard_check`` instances is bounded by their generator parameters, never
by observed run time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable

import teamsem as ts
from teamsem import analysis, cli
from teamsem.syntax import (
    And,
    Atom,
    ClassicalOr,
    ContraNeg,
    Equal,
    Exists,
    Forall,
    NegativeLiteral,
    NotEqual,
    PositiveLiteral,
    TensorOr,
)

R2 = ts.Signature({"R": 2})
P1 = ts.Signature({"P": 1})

#: the literal oracle is exponential everywhere; cells above this bound on
#: its work are left to the other references
NAIVE_COST_CAP = 300_000


@dataclass
class Job:
    """One timed call.  ``run`` returns the program's output; ``check``
    returns None when it matches the reference, else a text that reproduces
    the mismatch; ``cells`` gives the number of verdicts decided."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    cells: Callable[[object], int]
    data: str = ""  # inputs not named in the label, for the job-list digest


def _const(n: int) -> Callable[[object], int]:
    return lambda _out: n


@dataclass
class Swept:
    """A sweep's output with the models and teams the program enumerated for
    it, to be compared with closed-form counts."""

    out: object
    models: int
    teams: int


@contextlib.contextmanager
def _counting(module):
    """Count the items that ``module`` draws from its ``enumerate_models``
    and ``enumerate_teams`` names while the block runs."""
    seen = {"models": 0, "teams": 0}
    originals = {name: getattr(module, name)
                 for name in ("enumerate_models", "enumerate_teams")}

    def counted(key, enumerate_):
        def wrapper(*args, **kwargs):
            for item in enumerate_(*args, **kwargs):
                seen[key] += 1
                yield item
        return wrapper

    module.enumerate_models = counted("models", originals["enumerate_models"])
    module.enumerate_teams = counted("teams", originals["enumerate_teams"])
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def _coverage(label: str, swept: Swept, models: int, teams: int) -> str | None:
    if (swept.models, swept.teams) == (models, teams):
        return None
    return (f"{label}: swept {swept.models} models and {swept.teams} teams, "
            f"expected {models} and {teams}")


def _repro(f, model, team, sig=ts.EMPTY_SIGNATURE, note="") -> str:
    """A mismatch as text that ``teamsem eval`` can replay."""
    rels = "".join(f" --rel {n}:{sig.arity(n)}" for n in sig.names)
    return (f"{note}\nformula: {ts.pretty(f)}\n"
            f"replay: teamsem eval '{ts.pretty(f)}' --model m.txt --team t.txt{rels}\n"
            f"--- m.txt\n{ts.model_to_text(model)}--- t.txt\n{ts.team_to_text(team)}")


def _models_count(sig: ts.Signature, n: int) -> int:
    total = 1
    for name in sig.names:
        total *= 2 ** (n ** sig.arity(name))
    return total


def _sweep_models(sig, max_model) -> int:
    return sum(_models_count(sig, n) for n in range(1, max_model + 1))


def _sweep_pairs(sig, max_model, nvars, nonempty=False) -> int:
    """(model, team) pairs of an exhaustive sweep over all teams."""
    return sum(_models_count(sig, n) * (2 ** (n ** nvars) - (1 if nonempty else 0))
               for n in range(1, max_model + 1))


#: unlabelled binary relations (directed graphs with loops) on 1, 2, 3
#: points: the models of R:2 up to isomorphism (OEIS A000595)
R2_CLASSES = {1: 2, 2: 10, 3: 104}


# ---------------------------------------------------------------------------
# direct semantics used as references


def _naive_cost(f, rows: int, n: int) -> int:
    """Upper bound on the literal oracle's work for one cell."""
    match f:
        case Exists(_, b):
            return (2 ** n - 1) ** max(rows, 1) * _naive_cost(b, min(rows * n, 9), n)
        case Forall(_, b):
            return _naive_cost(b, min(rows * n, 9), n)
        case TensorOr(l, r) | ts.IntImpl(l, r):
            return 4 ** rows * (_naive_cost(l, rows, n) + _naive_cost(r, rows, n))
        case ts.Possibly(b) | ContraNeg(b):
            return 2 ** rows * _naive_cost(b, rows, n)
        case And(l, r) | ClassicalOr(l, r):
            return _naive_cost(l, rows, n) + _naive_cost(r, rows, n)
        case _:
            return max(rows, 1) ** 2


def naive_check(model, team, f, got: bool, sig=ts.EMPTY_SIGNATURE,
                registry=None) -> str | None:
    """Cross-check one verdict with the literal oracle when it is cheap."""
    from naive import naive_eval  # tests/naive.py, put on sys.path by the worker

    if _naive_cost(f, len(team), model.size) > NAIVE_COST_CAP:
        return None
    want = naive_eval(model, team, f, registry)
    if want != got:
        return _repro(f, model, team, sig, f"naive oracle says {want}, evaluator {got}")
    return None


def _fo_rows(model, f, variables) -> frozenset:
    """Rows over the variables whose assignment satisfies f (Tarski)."""
    return frozenset(
        row for row in product(range(model.size), repeat=len(variables))
        if ts.tarski_eval(model, dict(zip(variables, row)), f))


def _proj(rows, idx) -> set:
    return {tuple(r[i] for i in idx) for r in rows}


def _upward_holds(spec, rows, n) -> bool:
    """Atom-only upward formulas given as [(kind, column indices, k)]; on
    upward-closed atoms the split ``|`` holds exactly when both sides hold
    on the whole team, so the spec is a plain conjunction."""
    for kind, idx, k in spec:
        size = len(_proj(rows, idx))
        if kind == "ne" and not rows:
            return False
        if kind == "ncon" and size < 2:
            return False
        if kind == "geq" and size < k:
            return False
        if kind == "all" and size != n ** len(idx):
            return False
    return True


# ---------------------------------------------------------------------------
# random formula generators
#
# ``shape`` draws the skeleton (operators, quantifiers, atom kinds), which
# sets the cost; it is seeded by the job's index, so every seed gets the same
# skeletons.  ``pick`` draws the variables and comes from the workload seed.


def shape_rng(workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}-{index}")


def _fo_formula(shape, pick, rels: dict, scope: list, budget: int, qdepth: int):
    if budget <= 1:
        if rels and shape.random() < 0.5:
            name = shape.choice(sorted(rels))
            args = tuple(pick.choice(scope) for _ in range(rels[name]))
            cls = PositiveLiteral if shape.random() < 0.6 else NegativeLiteral
            return cls(name, args)
        a, b = pick.choice(scope), pick.choice(scope)
        return (Equal if shape.random() < 0.5 else NotEqual)(a, b)
    op = shape.choice(("and", "or", "q") if qdepth < 2 else ("and", "or"))
    if op == "q":
        v = ("z", "w")[qdepth]
        body = _fo_formula(shape, pick, rels, scope + [v], budget - 1, qdepth + 1)
        return (Exists if shape.random() < 0.5 else Forall)(v, body)
    left = shape.randint(1, budget - 1)
    l = _fo_formula(shape, pick, rels, scope, left, qdepth)
    r = _fo_formula(shape, pick, rels, scope, budget - left, qdepth)
    return (And if op == "and" else TensorOr)(l, r)


def _team_formula(shape, pick, scope: list, budget: int, qdepth: int, bounded: bool,
                  relation: str = "P"):
    """Dependency formulas over x, y (and bound z), with literals of a unary
    or binary ``relation``.  ``bounded`` keeps to the witness-bounded
    fragment: constancy and upward-closed atoms."""
    if budget <= 1:
        v = pick.choice(scope)
        w = pick.choice([u for u in scope if u != v] or scope)
        if bounded:
            atoms = [ts.NE, Atom("const", ((v,),)), Atom("all", ((v,),)),
                     Atom("geq", ((v,),), 2), Atom("ncon", ((v,),)),
                     Atom("ndep", ((v,), (w,)))]
        else:
            atoms = [ts.NE, Atom("const", ((v,),)), Atom("dep", ((v,), (w,))),
                     Atom("inc", ((v,), (w,))), Atom("ncon", ((v,),)),
                     Equal(v, w), NotEqual(v, w),
                     PositiveLiteral(relation, (v,) if relation == "P" else (v, w))]
        return shape.choice(atoms)
    ops = ["and", "or"] + (["q"] if qdepth < 1 else []) + (["cor"] if bounded else [])
    op = shape.choice(ops)
    if op == "q":
        body = _team_formula(shape, pick, scope + ["z"], budget - 1, qdepth + 1, bounded,
                             relation)
        return (Exists if shape.random() < 0.5 else Forall)("z", body)
    left = shape.randint(1, budget - 1)
    l = _team_formula(shape, pick, scope, left, qdepth, bounded, relation)
    r = _team_formula(shape, pick, scope, budget - left, qdepth, bounded, relation)
    return {"and": And, "or": TensorOr, "cor": ClassicalOr}[op](l, r)


# ---------------------------------------------------------------------------
# rewrite_equiv


def _equiv_job(kind, label, make, variables, sig=ts.EMPTY_SIGNATURE,
               max_model=3, team_filter="all", registry=None) -> Job:
    """``make`` builds (source, rewritten) inside the timed call, so the
    transforms layer is measured with the sweep."""

    def run():
        f, g = make()
        with _counting(analysis) as seen:
            report = ts.equivalent(f, g, variables, sig, max_model, team_filter, registry)
        return Swept(report, seen["models"], seen["teams"])

    def check(swept):
        if not swept.out.equivalent:
            return f"{label}: rewriter not equivalent to its source\n{swept.out.to_text()}"
        return _coverage(label, swept, _sweep_models(sig, max_model),
                         _sweep_pairs(sig, max_model, len(variables)))

    cells = 2 * _sweep_pairs(sig, max_model, len(variables), team_filter == "nonempty")
    return Job(kind, label, run, check, _const(cells))


def _chain_job(rng, length: int) -> Job:
    """Parse, print and evaluate one ``&`` chain of equality literals with a
    planted verdict: every literal holds on the team, except possibly one."""
    size = 3
    variables = ("x", "y", "z")
    rows = rng.sample(list(product(range(size), repeat=3)), 1 + length % 6)
    model = ts.Model(size)
    team = ts.Team(variables, rows)
    true_lits, false_lits = [], []
    for a in variables:
        for b in variables:
            for op, cmp in (("=", lambda p, q: p == q), ("!=", lambda p, q: p != q)):
                ia, ib = variables.index(a), variables.index(b)
                holds = all(cmp(r[ia], r[ib]) for r in rows)
                (true_lits if holds else false_lits).append(f"{a} {op} {b}")
    lits = [rng.choice(true_lits) for _ in range(length)]
    want = True
    if false_lits and rng.random() < 0.5:
        lits[rng.randrange(length)] = rng.choice(false_lits)
        want = False
    text = " & ".join(lits)

    def run():
        f = ts.parse(text)
        printed = ts.pretty(f)
        return f, printed, ts.pretty(ts.parse(printed)), ts.evaluate(model, team, f)

    def check(out):
        f, printed, reprinted, got = out
        if printed != text or reprinted != text:
            return f"chain of {length}: parse/pretty round trip changed the formula"
        if got != want:
            return _repro(f, model, team, note=f"planted {want}, evaluator {got}")
        # the literal oracle recurses once per conjunct: sample the short ones
        return naive_check(model, team, f, got) if length <= 100 else None

    return Job("chain", f"chain len={length} rows={len(rows)} want={want}",
               run, check, _const(1), f"{sorted(rows)} {text}")


#: unary dependency descriptions: every term kind, k up to 2, one or two
#: clauses of one or two terms
UNARY_DESCRIPTIONS = (
    "eq:1", "co_eq:0", "neq:0", "co_neq:2", "eq:0 | eq:2", "neq:1 & co_neq:0",
    "co_eq:1 | eq:1", "neq:2 & neq:0", "co_eq:2 | neq:1", "eq:1 | co_eq:0",
    "co_neq:1 & eq:2", "eq:2 & co_eq:1 | neq:0",
)

#: shapes of the negation-elimination inputs; the slots A, B, C hold NE or a
#: literal over x, y, and Z NE or a literal that mentions z
NEG_SHAPES = (
    "~(A)", "~~A", "~(A | B)", "~(A & B)", "~(A || B)", "~~(A | B)",
    "~(A | B) & C", "~(A & B) | C", "~(A || B) || C", "A || ~(B & C)",
    "exists z ~(Z)", "forall z ~(Z | A)", "~(exists z (Z & A))",
    "~(forall z (Z | B))", "~(A | ~B)", "~(~A & B)", "exists z (Z | ~(A))",
    "~((A & B) | C)", "~(A | (B || C))", "~~(A & ~B)",
)
NEG_LITERALS = ("x = y", "x != y", "y = x", "y != x", "x = x")
NEG_Z_LITERALS = ("z = x", "z != y", "z = y", "x != z")


def _neg_input(rng, index: int):
    """Which slots hold NE follows the index (NE drives the cost); the seed
    draws the literals."""
    text = NEG_SHAPES[index % len(NEG_SHAPES)]
    for k, slot in enumerate("ABC"):
        leaf = "NE" if (index + k) % 3 == 0 else rng.choice(NEG_LITERALS)
        text = text.replace(slot, f"({leaf})")
    leaf = "NE" if index % 4 == 0 else rng.choice(NEG_Z_LITERALS)
    return ts.parse(text.replace("Z", f"({leaf})"))


def rewrite_equiv(rng: random.Random) -> list[Job]:
    jobs = []
    # shapes and sizes are fixed grids; the seed draws the contents
    for i in range(30):
        jobs.append(_chain_job(rng, 20 + 280 * i // 29))
    for i in range(40):
        # |M| <= 2: on three-element domains the eliminated forms of
        # negated splits take seconds each, which would swamp the sweep
        f = _neg_input(rng, i)
        jobs.append(_equiv_job(
            "negelim", f"negelim {ts.pretty(f)}",
            lambda f=f: (f, ts.neg_eliminate(f)), ("x", "y"), max_model=2))
    for text in UNARY_DESCRIPTIONS:

        def make(text=text):
            d = ts.UnaryDepDescription.parse(text)
            return (Atom("custom", (("v",),), name="target"),
                    ts.compile_unary_dependency(d, "v"))

        reg = ts.EMPTY_REGISTRY.register(ts.DependencySpec(
            "target", 1, ts.unary_description_sentence(ts.UnaryDepDescription.parse(text))))
        jobs.append(_equiv_job("unary", f"compile-unary {text}", make, ("v",),
                               team_filter="nonempty", registry=reg))
    for kind, atom in (("eq", "count_eq"), ("neq", "count_neq"),
                       ("co_eq", "cocount_eq"), ("co_neq", "cocount_neq")):
        for k in (0, 1, 2):
            jobs.append(_equiv_job(
                "countdef", f"countdef {kind} {k}",
                lambda kind=kind, k=k, atom=atom: (
                    ts.counting_atom_definition(kind, k, "v"),
                    ts.parse(f"{atom}(v, {k})")),
                ("v", "w"), team_filter="nonempty"))
    rng.shuffle(jobs)
    jobs.append(_equiv_job("nedef", "nedef", lambda: (ts.ne_via_totality(), ts.NE),
                           ("x", "y")))
    jobs.append(_equiv_job("depdef", "depdef v w",
                           lambda: (ts.dep_via_neg_const(("v",), ("w",)),
                                    ts.parse("dep(v; w)")),
                           ("v", "w"), team_filter="nonempty"))
    return jobs


# ---------------------------------------------------------------------------
# model_sweep


def _team_sample(rng, size: int, count: int) -> list[tuple]:
    """A fixed seeded sample of row sets over (x, y) at one domain size."""
    universe = list(product(range(size), repeat=2))
    return [tuple(sorted(rng.sample(universe, i % (len(universe) + 1))))
            for i in range(count)]


def _sweep_job(rng, sig, f, label, iso: bool, sampled: int) -> Job:
    """Evaluate f on every model of the signature up to size 3 and on the
    teams over (x, y): all of them up to size 2, a seeded sample at size 3.
    One evaluator per model, as an equivalence sweep uses it."""
    variables = ("x", "y")
    sample3 = _team_sample(rng, 3, sampled)

    def teams(model):
        if model.size < 3:
            return ts.enumerate_teams(model, variables)
        return (ts.Team(variables, rows) for rows in sample3)

    def run():
        verdicts = []  # per size, per model, per team
        for size in (1, 2, 3):
            verdicts.append([])
            for model in ts.enumerate_models(sig, size, up_to_isomorphism=iso):
                ev = ts.Evaluator(model)
                verdicts[-1].append([ev.evaluate(team, f) for team in teams(model)])
        return verdicts

    def reference(model):
        if isinstance(f, (And, ClassicalOr)) and isinstance(f.left, ts.Bracket):
            sentence = ts.tarski_eval(model, {}, f.left.body)
            sat = _fo_rows(model, f.right, variables)
            if isinstance(f, And):
                return lambda rows: sentence and rows <= sat
            return lambda rows: sentence or rows <= sat
        sat = _fo_rows(model, f, variables)
        return lambda rows: rows <= sat

    def check(verdicts):
        for size, per_model in zip((1, 2, 3), verdicts):
            models = list(ts.enumerate_models(sig, size, up_to_isomorphism=iso))
            expected = R2_CLASSES[size] if iso else _models_count(sig, size)
            if len(per_model) != expected or len(set(models)) != expected:
                return (f"{label}: |M|={size} swept {len(per_model)} models "
                        f"({len(set(models))} distinct), expected {expected}")
            for model, got_all in zip(models, per_model):
                team_list = list(teams(model))
                expected = 2 ** (size * size) if size < 3 else len(sample3)
                distinct = len({t.rows for t in team_list}) if size < 3 else expected
                if len(got_all) != expected or distinct != expected:
                    return (f"{label}: |M|={size} swept {len(got_all)} teams "
                            f"({distinct} distinct), expected {expected}")
                want = reference(model)
                for team, got in zip(team_list, got_all):
                    if got != want(team.rows):
                        return _repro(f, model, team, sig,
                                      f"pointwise Tarski says {not got}, evaluator {got}")
        # a seeded handful of cells also goes to the literal oracle
        picker = random.Random(label)
        target = picker.randrange(_models_count(sig, 2))
        model = next(m for k, m in enumerate(ts.enumerate_models(sig, 2))
                     if k == target)
        for team in picker.sample(list(ts.enumerate_teams(model, variables)), 3):
            bad = naive_check(model, team, f, ts.evaluate(model, team, f), sig)
            if bad:
                return bad
        return None

    def cells(verdicts):
        return sum(len(v) for per_model in verdicts for v in per_model)

    return Job("sweep", label, run, check, cells, repr(sample3))


def _cli_job(rng, index: int) -> Job:
    """One in-process ``teamsem transform NAME ... --verify N`` command.  The
    verifier sweeps the teams over the free variables, so the cost grows
    fourfold with each one: the seed's variables are drawn again (up to 20
    times) until both x and y occur, as far as the shape has room for them."""
    for _ in range(20):
        job, nvars = _cli_draw(rng, index)
        if nvars == 2:
            break
    return job


def _cli_draw(rng, index: int) -> tuple[Job, int]:
    name = ("flatten", "dualneg", "restrict")[index % 3]
    sig, rel = (P1, "P:1") if index % 2 == 0 else (R2, "R:2")
    shape = shape_rng("cli", index)
    if name == "dualneg":
        f = _fo_formula(shape, rng, {sig.names[0]: sig.arity(sig.names[0])}, ["x", "y"],
                        2 + index % 4, 0)
        args = [ts.pretty(f)]
        free, compared = ts.free_variables(f), 1
    else:
        f = _team_formula(shape, rng, ["x", "y"], 2 + index % 3, 0, bounded=False,
                          relation=sig.names[0])
        args = [ts.pretty(f)]
        free, compared = ts.free_variables(f), 2
        if name == "restrict":
            theta = _fo_formula(shape, rng, {}, ["x", "y"], 1 + index % 2, 0)
            args.append(ts.pretty(theta))
            free |= ts.free_variables(theta)
    # the verifier sweeps the teams over the free variables of the input
    # (and of the restricting formula), which its output keeps
    verify, nvars = 2, len(free)
    argv = ["transform", name, *args, "--verify", str(verify), "--rel", rel]
    label = "teamsem " + " ".join(argv)

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), _counting(cli) as seen:
            code = cli.main(argv)
        return Swept((code, out.getvalue()), seen["models"], seen["teams"])

    def check(swept):
        code, text = swept.out
        if code != 0 or "verified" not in text:
            return f"{label} exited {code}:\n{text}"
        return _coverage(label, swept, _sweep_models(sig, verify),
                         _sweep_pairs(sig, verify, nvars))

    cells = compared * _sweep_pairs(sig, verify, nvars)
    return Job("cli", label, run, check, _const(cells)), nvars


def _bracket_formula(shape, pick, rels, index: int):
    sentence = _fo_formula(shape, pick, rels, ["z"], 1 + index % 3, 1)
    sentence = Exists("z", sentence) if shape.random() < 0.5 else Forall("z", sentence)
    body = _fo_formula(shape, pick, rels, ["x", "y"], 1 + index // 3 % 3, 0)
    return (And if shape.random() < 0.5 else ClassicalOr)(ts.Bracket(sentence), body)


def model_sweep(rng: random.Random) -> list[Job]:
    jobs = []
    for i in range(36):
        sig = R2 if i % 2 else P1
        rels = {sig.names[0]: sig.arity(sig.names[0])}
        shape = shape_rng("sweep", i)
        if i % 4 == 3:
            f = _bracket_formula(shape, rng, rels, i // 4)
        else:
            f = _fo_formula(shape, rng, rels, ["x", "y"], 2 + i // 2 % 4, 0)
        iso = sig is R2 and i % 8 in (1, 5)
        sampled = 4 if sig is R2 else 24
        label = f"sweep {'iso ' if iso else ''}{ts.pretty(f)} over {sig}"
        jobs.append(_sweep_job(rng, sig, f, label, iso, sampled))
    for i in range(60):
        jobs.append(_cli_job(rng, i))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# hard_check


def _dep_disjunction(k: int):
    f = Atom("dep", (("x", "y"), ("z",)))
    out = f
    for _ in range(k - 1):
        out = TensorOr(out, f)
    return out


def _depk_instance(rng, k: int, n: int, nkeys: int, want: bool, before: int):
    """A team over (x, y, z) for the k-fold split of dep(x y; z): it holds
    exactly when every key (x, y) has at most k values of z.  Good keys take
    1, 2, ..., k values in turn; a false instance gives the key at sorted
    position ``before`` k+1 values.  The split search backtracks over the
    rows of the keys before it, so ``before`` sets the cost."""
    keys = sorted(rng.sample(list(product(range(n), repeat=2)), nkeys))
    rows = []
    for i, key in enumerate(keys):
        count = k + 1 if not want and i == before else 1 + i % k
        rows.extend(key + (v,) for v in rng.sample(range(n), count))
    return ts.Team(("x", "y", "z"), rows)


def _exdep_instance(rng, n: int, nrows: int, xs_count: int):
    """exists z (dep(x; z) & inc(y; z)) over (w, x, y): a function of x must
    cover every y value, so it holds exactly when |X(x)| >= |X(y)|.  Rows
    use exactly ``xs_count`` values of x and every value of y."""
    nrows = min(nrows, n * n * xs_count)
    xs = rng.sample(range(n), xs_count)
    rows = {(rng.randrange(n), xs[y % xs_count], y) for y in range(n)}
    pool = [r for r in product(range(n), repeat=3) if r[1] in xs and r not in rows]
    rows |= set(rng.sample(pool, nrows - len(rows)))
    return ts.Team(("w", "x", "y"), rows)


def _max_inclusion_part(rows):
    """Largest subteam satisfying inc(x; y) (inclusion is union closed)."""
    part = set(rows)
    while True:
        ys = {r[1] for r in part}
        keep = {r for r in part if r[0] in ys}
        if keep == part:
            return part
        part = keep


def _split_verdict(rows) -> bool:
    """(dep(x; y) & NE) | inc(x; y): the rows outside the largest inclusion
    part must go left, and dep is downward closed, so the split holds
    exactly when those rows are functional (or any row can go left)."""
    if not rows:
        return False
    rest = set(rows) - _max_inclusion_part(rows)
    return len(_proj(rest, (0,))) == len(rest)


def _split_instance(rng, n: int, nrows: int, want: bool):
    universe = list(product(range(n), repeat=2))
    while True:
        rows = rng.sample(universe, nrows)
        if _split_verdict(rows) == want:
            return ts.Team(("x", "y"), rows)


def _instance_job(family: str, f, model, team, want: bool, label: str) -> Job:
    def run():
        return ts.evaluate(model, team, f)

    def check(got):
        if got != want:
            return _repro(f, model, team, note=f"planted {want}, evaluator {got}")
        if len(team) <= 6:
            return naive_check(model, team, f, got)
        return None

    return Job(family, label, run, check, _const(1), repr(sorted(team.rows)))


GENERIC_SPLIT = ts.parse("(dep(x; y) & NE) | inc(x; y)")
EXDEP = ts.parse("exists z (dep(x; z) & inc(y; z))")


def hard_check(rng: random.Random) -> list[Job]:
    """Parameter grids fix the hardness; the seed fixes the rows."""
    jobs = []
    for i in range(40):
        want, n = i % 2 == 0, (4, 5)[i // 2 % 2]
        before = (3, 5, 7, 9, 10)[i // 4 % 5]
        team = _depk_instance(rng, 2, n, 12, want, before)
        jobs.append(_instance_job(
            "depk2", _dep_disjunction(2), ts.Model(n), team, want,
            f"dep2 n={n} rows={len(team)} before={before} want={want}"))
    for i in range(30):
        want = i % 2 == 0
        before = (0, 1, 2, 3, 4)[i // 2 % 5]
        team = _depk_instance(rng, 3, 4, 6, want, before)
        jobs.append(_instance_job(
            "depk3", _dep_disjunction(3), ts.Model(4), team, want,
            f"dep3 rows={len(team)} before={before} want={want}"))
    for i in range(30):
        nrows = (12, 18, 24)[i % 3]
        xs_count = (4, 1, 2, 4, 3, 4)[i // 3 % 6]
        team = _exdep_instance(rng, 4, nrows, xs_count)
        want = len(_proj(team.rows, (1,))) >= len(_proj(team.rows, (2,)))
        jobs.append(_instance_job("exdep", EXDEP, ts.Model(4), team, want,
                                  f"exdep rows={len(team)} xs={xs_count}"))
    for i in range(30):
        want, nrows = i % 2 == 0, (8, 9, 10)[i // 2 % 3]
        team = _split_instance(rng, 4, nrows, want)
        jobs.append(_instance_job("split", GENERIC_SPLIT, ts.Model(4), team, want,
                                  f"split rows={nrows} want={want}"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# witness_search

#: upward-closed atom formulas over (x, y) with their direct semantics as
#: [(kind, team column indices, parameter)]; x is column 0, y column 1
WITNESS_TEMPLATES = (
    ("geq(x, {k})", [("geq", (0,), "k")]),
    ("geq(x y, {k2})", [("geq", (0, 1), "k2")]),
    ("ncon(x) | geq(y, {k})", [("ncon", (0,), 0), ("geq", (1,), "k")]),
    ("NE & geq(x y, {k2})", [("ne", (), 0), ("geq", (0, 1), "k2")]),
    ("all(x)", [("all", (0,), 0)]),
    ("geq(x, {k}) | geq(y, {k})", [("geq", (0,), "k"), ("geq", (1,), "k")]),
    ("all(y) | ncon(x)", [("all", (1,), 0), ("ncon", (0,), 0)]),
    ("ndep(x; y) & geq(x, 2)", None),
)


def _first_witness(rows, holds):
    """The reference search: (position, subteam rows) of the first
    satisfying candidate in the documented order, sizes ascending and
    combinations of the sorted rows within a size."""
    position = 0
    ordered = sorted(rows)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            position += 1
            if holds(combo):
                return position, frozenset(combo)
    return position, None


def _ndep_holds(combo) -> bool:
    seen = {}
    return any(seen.setdefault(r[0], r[1]) != r[1] for r in combo)


def _minwit_job(rng, i: int) -> Job:
    n = (3, 4)[i % 2]
    universe = list(product(range(n), repeat=2))
    nrows = min(len(universe), (8, 10, 12, 14, 16)[i // 2 % 5])
    template, spec = WITNESS_TEMPLATES[i % len(WITNESS_TEMPLATES)]
    k = min(n, 2 + i // len(WITNESS_TEMPLATES) % 3)
    k2 = k + 2
    text = template.format(k=k, k2=k2)
    if spec is None:
        def holds(combo):
            return _ndep_holds(combo) and len(_proj(combo, (0,))) >= 2
    else:
        spec = [(kind, idx, {"k": k, "k2": k2}.get(p, p)) for kind, idx, p in spec]

        def holds(combo):
            return _upward_holds(spec, combo, n)
    rows = rng.sample(universe, nrows)
    while not holds(rows):
        rows = rng.sample(universe, nrows)
    model, team, f = ts.Model(n), ts.Team(("x", "y"), rows), ts.parse(text)
    reference = functools.cache(lambda: _first_witness(rows, holds))

    def run():
        return ts.minimal_satisfying_subteam(model, team, f)

    def check(got):
        want = reference()[1]
        if (got.rows if got is not None else None) != want:
            return _repro(f, model, team,
                          note=f"minimal witness {sorted(want)} expected, got {got}")
        return naive_check(model, got, f, True)

    def cells(_got):
        # candidates evaluated up to the witness, plus its re-validation
        return reference()[0] + 1

    return Job("minwit", f"minwit n={n} rows={nrows} {text}", run, check, cells,
               repr(sorted(rows)))


def _bounds_job(rng, index: int) -> Job:
    f = _team_formula(shape_rng("bounds", index), rng, ["x", "y"], 2 + index % 3, 0,
                      bounded=True)
    nfree = len(ts.free_variables(f))

    def run():
        return ts.check_boundedness(f, max_model=2)

    def check(reports):
        bad = [str(r) for r in reports if not r.holds]
        return f"witness bound fails for {ts.pretty(f)}: {bad[0]}" if bad else None

    teams = sum(2 ** (n ** nfree) for n in (1, 2))
    return Job("bounds", f"bounds {ts.pretty(f)}", run, check, _const(teams))


def _hierarchy_job(q: int) -> Job:
    n = q + 1  # least n with n**2 > q * n

    def run():
        return ts.hierarchy_witness(2, 1, q)

    def check(rep):
        got = (rep.domain_size, rep.team_size, rep.witness_size,
               rep.narrow_bound, rep.exceeds)
        want = (n, n * n, n * n, q * n, True)
        return None if got == want else f"hierarchy(2,1,{q}): {got} != {want}"

    # the full team is the last of its 2**(n*n) candidate subteams; plus the
    # check of the full team and the re-validation of the witness
    return Job("hierarchy", f"hierarchy 2 1 {q}", run, check,
               _const(2 ** (n * n) + 2))


def witness_search(rng: random.Random) -> list[Job]:
    jobs = [_minwit_job(rng, i) for i in range(96)]
    jobs += [_bounds_job(rng, i) for i in range(24)]
    rng.shuffle(jobs)
    jobs += [_hierarchy_job(q) for q in (1, 2, 3)]
    return jobs


WORKLOADS = {
    "rewrite_equiv": rewrite_equiv,
    "model_sweep": model_sweep,
    "hard_check": hard_check,
    "witness_search": witness_search,
}


# ---------------------------------------------------------------------------
# known defects, probed outside the timed workloads


def defects(rng: random.Random) -> list[Job]:
    """Jobs that hit the two known defects of the program: ``&`` chains whose
    lengths cross the depth where evaluation overflows the Python stack, and
    a custom atom falsely claimed upward closed (unary constancy), whose
    pruned search disagrees with the literal oracle."""
    jobs = [_chain_job(rng, 200 + 40 * i) for i in range(16)]
    uconst = ts.DependencySpec(
        "uconst", 1, ts.parse("forall a forall b (!R(a) | !R(b) | a = b)",
                              ts.Signature({"R": 1})),
        claimed_upward_closed="yes")
    registry = ts.EMPTY_REGISTRY.register(uconst)
    f = ts.parse("exists z (D:uconst(z) & z != x)")
    model = ts.Model(3)
    for team in ts.enumerate_teams(model, ("x",)):
        def run(team=team):
            return ts.evaluate(model, team, f, registry)

        def check(got, team=team):
            from naive import naive_eval

            want = naive_eval(model, team, f, registry)
            if got == want:
                return None
            return _repro(f, model, team, note=(
                f"naive oracle says {want}, evaluator {got} (uconst claimed upward "
                f"closed; add --dep 'uconst=1:forall a forall b (!R(a) | !R(b) | a = b)')"))

        jobs.append(Job("uconst", f"uconst team={sorted(team.rows)}", run, check,
                        _const(1)))
    return jobs


PROBES = {"defects": defects}
