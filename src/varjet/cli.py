"""Command-line front end.

Subcommands take a problem file (see docs/problemfile.md) and write the
requested derivation to stdout or --out, as plain text, LaTeX, or JSON.
The library returns plain values and reads no JSON; the one JSON it writes
is an expression's (symcore.render), which ``energy`` prints indented.
Every other JSON output is written here.
Exit codes: 0 on success (a diagnosed non-regular reduction is success),
1 on domain errors, 2 on usage errors.  Output is byte-deterministic for
fixed inputs.  The density, its order and the run's settings (the Hessian
rank's seed, the shift components) are the problem file's alone; no option
restates them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import List, Optional

from .symcore import INDEPENDENT, JetContext, VarjetError, render
from .jetcalc import EquationSystem, prolong
from .variational import LagrangianDensity, euler_lagrange, legendre_form
from .pdham import (constraints, elh_system, energy_density, hessian, momentum_shift,
                    reduce_lagrangian)
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


def _equations_json(system: EquationSystem) -> List[dict]:
    return [{"label": label, "residual": render(res, system.context, "plain")}
            for label, res in system.equations]


def _system_text(system: EquationSystem, fmt: str) -> str:
    ctx = system.context
    if fmt == "json":
        # the unknowns: every coordinate the rows read but the independents,
        # and the fiber of a mixed system
        unknowns = {c for _, res in system.equations for c in res.coordinates()
                    if c.kind != INDEPENDENT}
        unknowns.update(system.fiber)
        return _json_dump({
            "unknowns": [ctx.name(c) for c in sorted(unknowns)],
            "equations": _equations_json(system)})
    lines = [f"{label}: {render(res, ctx, fmt)} = 0" for label, res in system.equations]
    return "\n".join(lines) if lines else "(empty system)"


def _el_system(lag: LagrangianDensity) -> EquationSystem:
    """The Euler-Lagrange equations as a system, one row per dependent."""
    ctx = lag.context
    return EquationSystem(ctx, tuple(
        (f"el:{ctx.dependents[a]}", e) for a, e in enumerate(euler_lagrange(lag))))


def cmd_el(args, problem: Problem, lag: LagrangianDensity) -> str:
    ctx = lag.context
    source = euler_lagrange(lag)
    if args.format == "json":
        return _json_dump([{"alpha": alpha + 1, "I": [], "coeff": render(e, ctx, "plain")}
                           for alpha, e in enumerate(source) if not e.is_zero()])
    return "\n".join(f"{render(e, ctx, args.format)} = 0" for e in source)


def cmd_legendre(args, problem: Problem, lag: LagrangianDensity) -> str:
    ctx, theta = lag.context, legendre_form(lag)
    if args.format == "json":
        return _json_dump([{"alpha": p.alpha + 1, "I": [k + 1 for k in p.index], "i": p.i + 1,
                            "coeff": render(e, ctx, "plain")} for p, e in theta.items()])
    return "\n".join(
        f"theta[{ctx.dependents[p.alpha]};{ctx.index_word(p.index)}.{ctx.independents[p.i]}]"
        f" = {render(e, ctx, args.format)}" for p, e in theta.items()) or "(zero form)"


def cmd_elh(args, problem: Problem, lag: LagrangianDensity) -> str:
    return _system_text(elh_system(lag), args.format)


def cmd_constraints(args, problem: Problem, lag: LagrangianDensity) -> str:
    return _system_text(constraints(lag), args.format)


def cmd_hessian(args, problem: Problem, lag: LagrangianDensity) -> str:
    matrix, report = hessian(lag, seed=problem.seed)
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
        return _json_dump(json.loads(render(energy, lag.context, "json")))
    return render(energy, lag.context, args.format)


def cmd_reduce(args, problem: Problem, lag: LagrangianDensity) -> str:
    red = reduce_lagrangian(lag)
    ctx, fmt = lag.context, args.format
    names = "latex" if fmt == "latex" else "plain"
    p_coords = [ctx.spell(c, 1, names) for c in red.p_coordinates]
    p0_coords = [ctx.spell(c, 1, names) for c in red.p0_coordinates]
    substitutions = [(ctx.spell(c, 1, names), _render(e, ctx, fmt))
                     for c, e in sorted(red.substitutions.items())]
    # the restricted energy is the Hamiltonian, and the HDW rows are the rows
    # on P: JSON carries each once, and the plain and LaTeX texts print each
    # rendering twice, only because the plain bytes are pinned (ROADMAP item 8)
    hamiltonian = None if red.hamiltonian is None else _render(red.hamiltonian, ctx, fmt)
    system = red.system_hdw
    if fmt == "json":
        report = hessian(lag, seed=problem.seed)[1]
        payload = {
            "diagnosis": red.diagnosis,
            "regular": red.diagnosis == "regular",
            "hessian": dataclasses.asdict(report),
            "p_coords": p_coords,
            "p0_coords": p0_coords,
            "substitutions": dict(substitutions),
            "H": hamiltonian,
            "equations": [] if system is None else _equations_json(system),
        }
        if red.offending:
            payload["offending"] = list(red.offending)
        return _json_dump(payload)
    lines = [f"diagnosis: {red.diagnosis}",
             "P coordinates:  " + " ".join(p_coords),
             "P0 coordinates: " + " ".join(p0_coords)]
    lines += [f"eliminate {name} = {text}" for name, text in substitutions]
    if hamiltonian is not None:
        lines += [f"E|_P = {hamiltonian}", f"H = {hamiltonian}"]
    if system is not None:
        text = _system_text(system, fmt)
        lines += ["equations on P:", text, "HDW equations:", text]
    if red.offending:
        lines.append("offending rows: " + ", ".join(red.offending))
    return "\n".join(lines)


def cmd_shift(args, problem: Problem, lag: LagrangianDensity) -> str:
    system = elh_system(lag)
    rho, where = problem.rho()
    try:
        shifted = momentum_shift(system, rho)
    except VarjetError as exc:  # a refused component is placed where rho was read
        raise VarjetError(f"{where}: {exc}") from None
    return _system_text(shifted, args.format)


def cmd_prolong(args, problem: Problem, lag: LagrangianDensity) -> str:
    return _system_text(prolong(_el_system(lag), args.level), args.format)


def cmd_check_solution(args, problem: Problem, lag: LagrangianDensity) -> str:
    # numpy loads only for the one subcommand that reads grids
    from .numeric import load_grid, residual
    grid = load_grid(args.grid)
    momentum_fields = load_grid(args.momenta) if args.momenta else None
    # every system but el reads momenta, given as fields or by the Legendre form
    theta = None if args.system == "el" else legendre_form(lag)
    if args.system == "el":
        system = _el_system(lag)
    elif args.system == "constraints":
        # the rows over the ELH fiber, whose jets of order l+1 set the stencil margins
        system = dataclasses.replace(elh_system(lag), equations=constraints(lag).equations)
    elif args.system == "elh":
        system = elh_system(lag)
    else:  # hdw
        red = reduce_lagrangian(lag)
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


def _level(text: str) -> int:
    """The argparse type of ``prolong --level``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
        if name == "check-solution":
            p.add_argument("--grid", required=True, help="grid file (see docs/gridfile.md)")
            p.add_argument("--momenta", default=None, help="grid file with momentum fields")
            p.add_argument("--system", default="el",
                           choices=("el", "constraints", "elh", "hdw"))
        if name == "prolong":
            p.add_argument("--level", type=_level, default=1)
        p.add_argument("--out", default=None, help="write output to a file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check-solution" and args.momenta and args.system == "el":
        parser.error("--momenta is read only by --system constraints, elh and hdw")
    try:
        problem = load_problem(args.problem)
        _emit(args, _COMMANDS[args.command](args, problem, problem.density))
    except (OSError, VarjetError) as exc:
        print(f"varjet: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
