"""Command-line front end.

Subcommands take a problem file (see docs/problemfile.md) and write the
requested derivation to stdout or --out, as plain text, LaTeX, or JSON.
The library returns plain values; every format, JSON included, is written here.
Exit codes: 0 on success (a diagnosed non-regular reduction is success),
1 on domain errors, 2 on usage errors.  Output is byte-deterministic for
fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import List, Optional

from .symcore import JetContext, ParseError, VarjetError, expr_to_json, render
from .jetcalc import EquationSystem, prolong
from .variational import LagrangianDensity, euler_lagrange, legendre_form
from .pdham import (
    DerivedContext,
    constraints,
    elh_system,
    energy_density,
    hessian,
    momentum_shift,
    reduce_lagrangian,
)
from .numeric import load_grid, residual
from .problemfile import Problem, load_problem

FORMATS = ("plain", "latex", "json")


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _render(e, ctx: JetContext, fmt: str) -> str:
    """An expression as output text; JSON outputs carry its plain rendering."""
    return render(e, ctx, "plain" if fmt == "json" else fmt)


def _system_text(system: EquationSystem, fmt: str) -> str:
    if fmt == "json":
        return _json_dump(system.to_json_dict())
    lines = [f"{label}: {render(res, system.context, fmt)} = 0"
             for label, res in system.equations]
    return "\n".join(lines) if lines else "(empty system)"


def _el_system(lag: LagrangianDensity, ctx: JetContext) -> EquationSystem:
    """The Euler-Lagrange equations as a system over ctx, one row per dependent."""
    source = euler_lagrange(lag)
    return EquationSystem(ctx, tuple(
        (f"el:{ctx.dependents[a]}", source.component(a)) for a in range(ctx.m)))


def _sampling(args, problem: Problem) -> dict:
    """Samples and seed of the Hessian rank: the command line's, else the problem file's."""
    return {"samples": args.rank_samples or problem.rank_samples,
            "seed": args.seed if args.seed is not None else problem.seed}


def cmd_el(args, problem: Problem, lag: LagrangianDensity) -> str:
    ctx = lag.context
    source = euler_lagrange(lag)
    if args.format == "json":
        return _json_dump([{"alpha": alpha + 1, "I": [k + 1 for k in index],
                            "coeff": render(source.coefficient(alpha, index), ctx, "plain")}
                           for alpha, index in source.support()])
    return "\n".join(
        f"{render(source.component(alpha), ctx, args.format)} = 0"
        for alpha in range(ctx.m))


def cmd_legendre(args, problem: Problem, lag: LagrangianDensity) -> str:
    ctx, fmt = lag.context, args.format
    theta = legendre_form(lag)
    entries = []
    for alpha, index, i in theta.support():
        coeff = _render(theta.coefficient(alpha, index, i), ctx, fmt)
        entries.append(
            {"alpha": alpha + 1, "I": [k + 1 for k in index], "i": i + 1, "coeff": coeff}
            if fmt == "json" else
            f"theta[{ctx.dependents[alpha]};{ctx.index_word(index)}.{ctx.independents[i]}]"
            f" = {coeff}")
    if fmt == "json":
        return _json_dump(entries)
    return "\n".join(entries) or "(zero form)"


def cmd_elh(args, problem: Problem, lag: LagrangianDensity) -> str:
    return _system_text(elh_system(lag), args.format)


def cmd_constraints(args, problem: Problem, lag: LagrangianDensity) -> str:
    return _system_text(constraints(lag), args.format)


def cmd_hessian(args, problem: Problem, lag: LagrangianDensity) -> str:
    matrix, report = hessian(lag, **_sampling(args, problem))
    rows = [[_render(e, lag.context, args.format) for e in row] for row in matrix.entries]
    if args.format == "json":
        return _json_dump({**dataclasses.asdict(report), "matrix": rows})
    lines = [f"dim {report.dim}  rank {report.rank}  "
             f"regular {'yes' if report.regular else 'no'}  "
             f"rank_constant {'yes' if report.rank_constant else 'no'}"]
    return "\n".join(lines + ["[ " + ", ".join(row) + " ]" for row in rows])


def cmd_energy(args, problem: Problem, lag: LagrangianDensity) -> str:
    energy = energy_density(lag)
    if args.format == "json":
        return _json_dump(expr_to_json(energy, lag.context))
    return render(energy, lag.context, args.format)


def cmd_reduce(args, problem: Problem, lag: LagrangianDensity) -> str:
    red = reduce_lagrangian(lag, **_sampling(args, problem))
    ctx, fmt = lag.context, args.format
    p_coords = [ctx.name(c) for c in red.p_coordinates]
    p0_coords = [ctx.name(c) for c in red.p0_coordinates]
    substitutions = [(ctx.name(c), _render(e, ctx, fmt)) for c, e in
                     sorted(red.substitutions.items(), key=lambda t: t[0].sort_key())]
    energy_p, hamiltonian = (None if e is None else _render(e, ctx, fmt)
                             for e in (red.energy_on_constraint, red.hamiltonian))
    if fmt == "json":
        payload = {
            "diagnosis": red.diagnosis,
            "regular": red.diagnosis == "regular",
            "hessian": dataclasses.asdict(red.hessian_report),
            "p_coords": p_coords,
            "p0_coords": p0_coords,
            "substitutions": dict(substitutions),
            "E_on_P": energy_p,
            "H": hamiltonian,
            "equations": [] if red.system_hdw is None
                         else red.system_hdw.to_json_dict()["equations"],
            "equations_P": [] if red.system_constraint is None
                           else red.system_constraint.to_json_dict()["equations"],
        }
        if red.offending:
            payload["offending"] = list(red.offending)
        return _json_dump(payload)
    lines = [f"diagnosis: {red.diagnosis}",
             "P coordinates:  " + " ".join(p_coords),
             "P0 coordinates: " + " ".join(p0_coords)]
    lines += [f"eliminate {name} = {text}" for name, text in substitutions]
    for head, text in (("E|_P", energy_p), ("H", hamiltonian)):
        if text is not None:
            lines.append(f"{head} = {text}")
    for head, system in (("equations on P:", red.system_constraint),
                         ("HDW equations:", red.system_hdw)):
        if system is not None:
            lines += [head, _system_text(system, fmt)]
    if red.offending:
        lines.append("offending rows: " + ", ".join(red.offending))
    return "\n".join(lines)


def cmd_shift(args, problem: Problem, lag: LagrangianDensity) -> str:
    shifted = momentum_shift(elh_system(lag), problem.rho(lag.context, args.rho))
    return _system_text(shifted, args.format)


def cmd_prolong(args, problem: Problem, lag: LagrangianDensity) -> str:
    # the requested level is explicit, so lift the jet-order bound by exactly
    # that much; the library-level default stays strict
    ctx = lag.context.extended(lag.context.max_order + args.level)
    if args.system:
        with open(args.system, "r", encoding="utf-8") as fh:
            system = EquationSystem.from_json_dict(json.load(fh), ctx)
    else:
        system = _el_system(lag, ctx)
    return _system_text(prolong(system, args.level), args.format)


def cmd_check_solution(args, problem: Problem, lag: LagrangianDensity) -> str:
    ctx = lag.context
    grid = load_grid(args.grid)
    momentum_fields = load_grid(args.momenta) if args.momenta else None
    # every system but el reads momenta, given as fields or by the Legendre form
    theta = None if args.system == "el" else legendre_form(lag)
    if args.system == "el":
        system = _el_system(lag, ctx)
    elif args.system == "constraints":
        dc = DerivedContext(ctx, lag.level)
        rows = tuple((lab, dc.embed(res)) for lab, res in constraints(lag).equations)
        system = EquationSystem(dc.ctx, rows, derived=dc)
    elif args.system == "elh":
        system = elh_system(lag)
    else:  # hdw
        red = reduce_lagrangian(lag, **_sampling(args, problem))
        if red.system_hdw is None:
            raise VarjetError(f"reduction did not produce HDW equations ({red.diagnosis})")
        system = red.system_hdw
    report = residual(system, grid, momentum_fields=momentum_fields, legendre=theta)
    if args.format == "json":
        return _json_dump({"system": args.system,
                           "equations": [{"label": k, "max_abs": v}
                                         for k, v in report.items()]})
    width = max((len(k) for k in report), default=0)
    return "\n".join(f"{k.ljust(width)}  {v:.6e}" for k, v in report.items()) \
        or "(empty system)"


_COMMANDS = {
    "el": cmd_el,
    "legendre": cmd_legendre,
    "elh": cmd_elh,
    "constraints": cmd_constraints,
    "hessian": cmd_hessian,
    "reduce": cmd_reduce,
    "energy": cmd_energy,
    "shift": cmd_shift,
    "prolong": cmd_prolong,
    "check-solution": cmd_check_solution,
}


def _int_at_least(low: int):
    """The argparse type of an integer option whose values start at low."""
    def bounded(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return bounded


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call;
    parse_args keeps no state in it, and callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="varjet",
        description="Derive Euler-Lagrange, Legendre, ELH, constraint, and "
                    "Hamilton-de Donder-Weyl data from a polynomial Lagrangian density.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("problem", help="problem file")
        p.add_argument("--format", choices=FORMATS, default="plain")
        p.add_argument("--order", type=_int_at_least(1), default=None,
                       help="override the declared density order l+1")
        if name in ("hessian", "reduce", "check-solution"):
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--rank-samples", type=_int_at_least(1), default=None)
        if name == "check-solution":
            p.add_argument("--grid", required=True, help="grid file (see docs/gridfile.md)")
            p.add_argument("--momenta", default=None, help="grid file with momentum fields")
            p.add_argument("--system", default="el",
                           choices=("el", "constraints", "elh", "hdw"))
        if name == "shift":
            p.add_argument("--rho", default=None,
                           help="';'-separated shift components, one per independent")
        if name == "prolong":
            p.add_argument("--level", type=_int_at_least(0), default=1)
            p.add_argument("--system", default=None, help="equation-system JSON file")
        p.add_argument("--out", default=None, help="write output to a file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check-solution" and args.momenta and args.system == "el":
        parser.error("--momenta is read only by --system constraints, elh and hdw")
    try:
        problem = load_problem(args.problem)
        text = _COMMANDS[args.command](args, problem, problem.lagrangian(args.order))
    except OSError as exc:
        print(f"varjet: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"varjet: parse error: {exc}", file=sys.stderr)
        return 1
    except VarjetError as exc:
        print(f"varjet: {exc}", file=sys.stderr)
        return 1
    _emit(args, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
