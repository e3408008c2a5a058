"""Command-line front end: eval, parse, transform, equiv, bounds.

Exit codes: 0 for true/equivalent/all-hold, 1 for false/counterexample/
violation, 2 for any usage, parse, or evaluation error.  Formulas are
single shell arguments; ``@path`` reads one from a file.  A transform takes
exactly the arguments ``_TRANSFORMS`` lists for it, and model sizes
(``--verify``, ``--max-model``) run from 1 to 16: anything else is a usage
error.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import analysis, transforms
from .evaluator import (EMPTY_REGISTRY, DependencySpec, EvalError, Evaluator,
                        Registry, evaluate)
from .structures import (
    EnumerationLimit,
    Team,
    _check_caps,
    enumerate_models,
    enumerate_teams,
    model_to_text,
    parse_model_text,
    parse_team_text,
    restrict,
    tarski_eval,
    team_to_text,
)
from .syntax import (
    NE,
    And,
    Atom,
    Bracket,
    Formula,
    ParseError,
    Signature,
    parse,
    pretty,
)
from .transforms import TransformError, UnaryDepDescription


class CliError(Exception):
    pass


def _read_formula_arg(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _signature(rel_args: list[str] | None) -> Signature:
    rels = {}
    for item in rel_args or []:
        m = re.fullmatch(r"([A-Z][a-zA-Z0-9_]*):(\d+)", item)
        if not m:
            raise CliError(f"bad --rel {item!r}; expected NAME:ARITY")
        if m.group(1) in rels:
            raise CliError(f"--rel {m.group(1)} given twice")
        rels[m.group(1)] = int(m.group(2))
    return Signature(rels)


def _registry(dep_args: list[str] | None) -> Registry:
    reg = EMPTY_REGISTRY
    for item in dep_args or []:
        m = re.fullmatch(r"([a-z][a-zA-Z0-9_]*)=(\d+):(.*)", item, re.DOTALL)
        if not m:
            raise CliError(f"bad --dep {item!r}; expected name=ARITY:SENTENCE")
        name, arity, text = m.group(1), int(m.group(2)), m.group(3)
        dsig = Signature({"R": arity}) if arity > 0 else Signature()
        spec = DependencySpec(name, arity, parse(text, dsig))
        reg = reg.register(spec)
    return reg


def _gamma(gamma_args: list[str] | None) -> analysis.GammaTable:
    overrides = {}
    for item in gamma_args or []:
        m = re.fullmatch(r"([a-zA-Z_][a-zA-Z0-9_]*)=(n|const:|lin:)(\d+)", item)
        if not m:
            raise CliError(
                f"bad --gamma {item!r}; expected NAME=nK or NAME=const:C or NAME=lin:C"
            )
        name = m.group(1)
        if name in overrides:
            raise CliError(f"--gamma {name} given twice")
        form = {"n": "pow", "const:": "const", "lin:": "lin"}[m.group(2)]
        overrides[name] = (form, int(m.group(3)))
    return analysis.GammaTable(overrides)


def _sentence_team() -> Team:
    return Team((), [()])


def cmd_eval(args) -> int:
    sig = _signature(args.rel)
    reg = _registry(args.dep)
    formula = parse(_read_formula_arg(args.formula), sig)
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_model_text(fh.read(), sig)
    if args.team:
        with open(args.team, "r", encoding="utf-8") as fh:
            team = parse_team_text(fh.read())
        outside = {e for row in team.rows for e in row} - set(model.domain)
        if outside:
            raise CliError(f"team values outside the domain of size "
                           f"{model.size}: {sorted(outside)}")
    else:
        if formula.free_vars:
            raise CliError("formula has free variables; give --team")
        team = _sentence_team()
    result = evaluate(model, team, formula, reg)
    print("true" if result else "false")
    return 0 if result else 1


def cmd_parse(args) -> int:
    sig = _signature(args.rel)
    _registry(args.dep)  # unused here, but a bad --dep is an error as elsewhere
    formula = parse(_read_formula_arg(args.formula), sig)
    rendered = pretty(formula)
    if parse(rendered, sig) != formula:
        print("round-trip failed", file=sys.stderr)
        return 2
    print(rendered)
    return 0


#: transform name -> the arguments it takes
_TRANSFORMS = {
    "flatten": "FORMULA", "dualneg": "FORMULA", "restrict": "FORMULA THETA",
    "dnf": "FORMULA", "negelim": "FORMULA", "depdef": "VARS VARS", "nedef": "",
    "countdef": "KIND K VAR", "compile-unary": "DESCRIPTION VAR",
    "brackets": "FORMULA",
}


def _split_tuple(text: str) -> tuple[str, ...]:
    parts = tuple(x for x in re.split(r"[,\s]+", text.strip()) if x)
    if not parts:
        raise CliError("empty variable tuple")
    return parts


def _run_transform(args, sig: Signature, reg: Registry):
    """Run the named rewriter on its arguments.  Returns the lines to print
    and ``verify(max_model, team_filter)``, which checks the output on every
    model and team of the sweep and returns an ``analysis.EquivReport``."""
    name, arg = args.name, args.args
    usage = _TRANSFORMS[name]
    if len(arg) != len(usage.split()):
        raise CliError(f"usage: transform {name} {usage}".rstrip()
                       + f" ({len(arg)} argument(s) given)")
    f = parse(_read_formula_arg(arg[0]), sig) if usage.startswith("FORMULA") else None

    def same_as(source: Formula, out: Formula, only: str | None = None,
                registry: Registry = reg):
        """out is equivalent to source, on ``only`` teams when given."""
        return lambda max_model, team_filter: analysis.equivalent(
            source, out, sorted(source.free_vars | out.free_vars), sig,
            max_model, only or team_filter, registry)

    def swept(out: Formula, want):
        """out takes the value ``want(ev, model, team)`` asks for."""
        return lambda max_model, team_filter: _sweep(
            out, want, sorted(f.free_vars | out.free_vars), sig, reg,
            max_model, team_filter)

    if name == "flatten":  # the source implies the output
        out = transforms.flatten(f)
        return [pretty(out)], swept(out, lambda ev, model, team:
                                    True if ev.evaluate(team, f) else None)
    if name == "dualneg":  # the output is the pointwise negation of the source
        out = transforms.dual_negate(f)
        return [pretty(out)], swept(out, lambda ev, model, team: all(
            not tarski_eval(model, s, f) for s in team.assignments()))
    if name == "restrict":  # the output agrees with the source on the restriction
        theta = parse(_read_formula_arg(arg[1]), sig)
        out = transforms.restrict_formula(f, theta)
        return [pretty(out)], swept(out, lambda ev, model, team: ev.evaluate(
            restrict(model, team, theta), f))
    if name == "dnf":
        parts = transforms.to_classical_dnf(f)
        return ([pretty(p) for p in parts],
                same_as(f, transforms.classical_or_all(parts)))
    if name == "negelim":
        out = transforms.neg_eliminate(f)
        return [pretty(out)], same_as(f, out)
    if name == "depdef":
        vs, ws = map(_split_tuple, arg)
        out = transforms.dep_via_neg_const(vs, ws)
        return [pretty(out)], same_as(Atom("dep", (vs, ws)), out)
    if name == "nedef":
        out = transforms.ne_via_totality()
        return [pretty(out)], same_as(NE, out)
    if name == "countdef":
        kind, k, v = arg
        try:
            k = int(k)
        except ValueError:
            raise CliError(f"countdef: K must be an integer, got {k!r}") from None
        atom_kinds = {"eq": "count_eq", "neq": "count_neq",
                      "co_eq": "cocount_eq", "co_neq": "cocount_neq"}
        if kind in atom_kinds:
            out = transforms.counting_atom_definition(kind, k, v)
            return [pretty(out)], same_as(Atom(atom_kinds[kind], ((v,),), k),
                                          out, "nonempty")
        if kind not in ("le", "ge", "co_le", "co_ge"):
            raise CliError(
                "countdef kinds: le ge co_le co_ge eq neq co_eq co_neq")
        out = transforms.counting_formula(kind, k, v)

        def counted(ev, model, team):  # the bound the output states
            count = len(team.project_rows((v,)))
            return {"le": count <= k, "ge": count >= k,
                    "co_le": model.size - count <= k,
                    "co_ge": model.size - count >= k}[kind]
        return [pretty(out)], lambda max_model, team_filter: _sweep(
            out, counted, (v,), Signature(), reg, max_model, "nonempty")
    if name == "compile-unary":
        desc, v = UnaryDepDescription.parse(arg[0]), arg[1]
        out = transforms.compile_unary_dependency(desc, v)
        sentence = transforms.unary_description_sentence(desc)
        target = EMPTY_REGISTRY.register(DependencySpec("target", 1, sentence))
        return [pretty(out)], same_as(Atom("custom", ((v,),), name="target"), out,
                                      "nonempty", target)
    # brackets
    sentences, core = transforms.extract_brackets(f)
    joined = core
    for s in reversed(sentences):
        joined = And(Bracket(s), joined)
    return [f"[{pretty(s)}]" for s in sentences] + [pretty(core)], same_as(f, joined)


def _sweep(out, want, variables, sig, reg, max_model,
           team_filter) -> analysis.EquivReport:
    """Check ``out`` on every model up to max_model and every team passing
    the filter against ``want(ev, model, team)``: the value out must take,
    or None when either value is fine.  One evaluator serves each model."""
    _check_caps(sig, max_model, len(variables))
    for size in range(1, max_model + 1):
        for model in enumerate_models(sig, size):
            ev = Evaluator(model, reg)
            for team in enumerate_teams(model, variables):
                if team_filter == "nonempty" and team.is_empty():
                    continue
                expected = want(ev, model, team)
                if expected is not None and ev.evaluate(team, out) != expected:
                    return analysis.EquivReport(False, max_model, team_filter,
                                                model, team, expected)
    return analysis.EquivReport(True, max_model, team_filter)


def cmd_transform(args) -> int:
    sig = _signature(args.rel)
    reg = _registry(args.dep)
    if args.verify is not None and args.verify < 1:
        raise CliError(f"--verify needs a model size >= 1, got {args.verify}")
    lines, verify = _run_transform(args, sig, reg)
    for line in lines:
        print(line)
    if args.verify is None:
        return 0
    report = verify(args.verify, "nonempty" if args.nonempty_teams else "all")
    if report.equivalent:
        print(f"verified ({report.team_filter} teams, |M|<={args.verify})")
        return 0
    print(report.to_text(), end="")
    return 1


def cmd_equiv(args) -> int:
    sig = _signature(args.rel)
    reg = _registry(args.dep)
    f = parse(_read_formula_arg(args.left), sig)
    g = parse(_read_formula_arg(args.right), sig)
    variables = _split_tuple(args.vars) if args.vars else sorted(
        f.free_vars | g.free_vars)
    report = analysis.equivalent(
        f, g, variables, sig, args.max_model,
        "nonempty" if args.nonempty_teams else "all", reg)
    print(report.to_text(), end="")
    if not report.equivalent and args.out:
        with open(args.out + ".model", "w", encoding="utf-8") as fh:
            fh.write(model_to_text(report.counter_model))
        with open(args.out + ".team", "w", encoding="utf-8") as fh:
            fh.write(team_to_text(report.counter_team))
    return 0 if report.equivalent else 1


def cmd_bounds_check(args) -> int:
    sig = _signature(args.rel)
    reg = _registry(args.dep)
    gamma = _gamma(args.gamma)
    f = parse(_read_formula_arg(args.formula), sig)
    nus: dict[int, int] = {}
    reports = analysis.check_boundedness(f, args.max_model, gamma, reg, nus)
    for size, nu in nus.items():
        print(f"nu(|M|={size}) = {nu}")
    bad = [r for r in reports if not r.holds]
    for r in bad:
        print(r)
    print(f"checked {len(reports)} satisfying team(s): "
          + ("all hold" if not bad else f"{len(bad)} violation(s)"))
    return 0 if not bad else 1


def cmd_bounds_hierarchy(args) -> int:
    report = analysis.hierarchy_witness(args.wide, args.narrow, args.q)
    print(report)
    return 0 if report.exceeds else 1


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--rel", action="append", metavar="NAME:ARITY",
                   help="declare a relation (repeatable)")
    p.add_argument("--dep", action="append", metavar="name=ARITY:SENTENCE",
                   help="register a custom dependency notion (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="teamsem",
        description="evaluate, transform, and brute-force-compare formulas "
                    "under lax team semantics on finite models",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a model and team")
    p.add_argument("formula")
    p.add_argument("--model", required=True)
    p.add_argument("--team", help="team file; omitted: the one-empty-assignment team")
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    p.add_argument("formula")
    _add_common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("transform", help="run a formula rewriter")
    p.add_argument("name", choices=_TRANSFORMS)
    p.add_argument("args", nargs="*")
    p.add_argument("--verify", type=int, metavar="N",
                   help="oracle-check the output on models up to size N")
    p.add_argument("--nonempty-teams", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("equiv", help="exhaustively compare two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--vars", help="comma-separated team variables")
    p.add_argument("--max-model", type=int, default=3)
    p.add_argument("--nonempty-teams", action="store_true")
    p.add_argument("--out", metavar="PREFIX",
                   help="write counterexample PREFIX.model / PREFIX.team")
    _add_common(p)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("bounds", help="witness-size bounds and the arity hierarchy")
    bsub = p.add_subparsers(dest="mode", required=True)
    pc = bsub.add_parser("check", help="verify the witness bound by sweep")
    pc.add_argument("formula")
    pc.add_argument("--max-model", type=int, default=2)
    pc.add_argument("--gamma", action="append", metavar="NAME=nK|const:C|lin:C")
    _add_common(pc)
    pc.set_defaults(fn=cmd_bounds_check)
    ph = bsub.add_parser("hierarchy", help="build the totality separation witness")
    ph.add_argument("wide", type=int)
    ph.add_argument("narrow", type=int)
    ph.add_argument("q", type=int)
    ph.set_defaults(fn=cmd_bounds_hierarchy)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ParseError, TransformError, analysis.AnalysisError,
            EvalError, EnumerationLimit, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
