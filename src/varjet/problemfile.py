"""Flat key-value problem files describing a variational problem.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Recognized keys: independents, dependents (space- or comma-separated names),
lagrangian (expression), order (declared order l+1), and the run's
settings seed and rho (one expression per independent variable,
';'-separated).  The file is the one place of every setting: the command
line restates none of them.  No key bounds the jet order: the density and
its declared order fix which jets each construction reads.  The reader
checks the file's own syntax alone.  The name rules are JetContext's
checks, the density's own rules (the least order, the multiindex budget, no
momenta or comma-derivatives) LagrangianDensity's and the rho count
momentum_shift's; their errors are placed on the file's lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .symcore import ContextError, Expr, JetContext, VarjetError, WrongDomainError, parse
from .variational import LagrangianDensity

_KNOWN_KEYS = {"independents", "dependents", "lagrangian", "order", "seed", "rho"}


@dataclass
class Problem:
    density: LagrangianDensity  # validated once, at the file's order
    seed: int
    # the file's rho: its ';'-separated shift components, parsed on use,
    # where they are ("<file>, line N") and their column there; without
    # the key, (None, "<file>", 0)
    rho_source: Tuple[Optional[str], str, int]

    def rho(self) -> Tuple[List[Expr], str]:
        """The file's shift components and the line they were read from.
        Every error names that line, a parse error its column there; an empty
        value is one empty component.  momentum_shift counts them."""
        source, where, column = self.rho_source
        if source is None:
            raise VarjetError(f"{where}: problem file declares no rho components (key: rho)")
        parts = source.split(";")
        starts = itertools.accumulate((len(part) + 1 for part in parts), initial=column)
        return [_parse_value(part, self.density.context, where, start)
                for part, start in zip(parts, starts)], where


def _parse_value(text: str, context: JetContext, where: str, column: int) -> Expr:
    """parse(text) for a value at the 1-based column of the line named by
    where ("<file>, line N"), with its errors placed there."""
    try:
        return parse(text, context)
    except VarjetError as exc:  # only the parser's errors carry a position
        if not hasattr(exc, "pos"):
            raise VarjetError(f"{where}: {exc}") from None
        raise VarjetError(f"{where}, column {column + exc.pos}: {exc.message}") from None


def parse_problem_text(text: str, source: str = "<problem>") -> Problem:
    entries: Dict[str, Tuple[str, int, int]] = {}  # key -> (value, line, value's column)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise VarjetError(f"{source}, line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise VarjetError(f"{source}, line {lineno}: unknown key {key!r}")
        if key in entries:
            raise VarjetError(f"{source}, line {lineno}: duplicate key {key!r}")
        after = raw[raw.index("=") + 1:]
        entries[key] = (value.strip(), lineno, len(raw) - len(after.lstrip()) + 1)

    for required in ("independents", "dependents", "lagrangian"):
        if required not in entries:
            raise VarjetError(f"{source}: missing required key {required!r}")

    def fail(key: str, message: str):
        raise VarjetError(f"{source}, line {entries[key][1]}: {message}")

    def names(key: str) -> Tuple[str, ...]:
        return tuple(entries[key][0].replace(",", " ").split())

    def integer(key: str, default: Optional[int]) -> Optional[int]:
        if key not in entries:
            return default
        try:
            return int(entries[key][0])
        except ValueError:
            fail(key, f"{key} expects an integer, got {entries[key][0]!r}")

    try:  # the context's name rules, each error on the line of the names it refuses
        context = JetContext(names("independents"), names("dependents"))
    except ContextError as exc:
        fail(exc.field, str(exc))
    order = integer("order", None)
    seed = integer("seed", 0)
    lagrangian, lineno, column = entries["lagrangian"]
    L = _parse_value(lagrangian, context, f"{source}, line {lineno}", column)
    try:  # an absent order is None, which the density infers
        density = LagrangianDensity(context, L, order=order)
    except WrongDomainError as exc:
        fail("lagrangian", str(exc))
    except VarjetError as exc:  # the order's rules
        fail("order" if "order" in entries else "lagrangian", str(exc))
    rho_source = (None, source, 0)
    if "rho" in entries:
        rho_text, rho_line, rho_column = entries["rho"]
        rho_source = (rho_text, f"{source}, line {rho_line}", rho_column)
    return Problem(density=density, seed=seed, rho_source=rho_source)


def load_problem(path: str) -> Problem:
    """The problem file at path; a byte that is not UTF-8 is reported on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object: data after the mark; count lines as parse_problem_text does
        line = len((exc.object[:exc.start] + b".").decode("utf-8").splitlines())
        raise VarjetError(f"{path}, line {line}: byte 0x{exc.object[exc.start]:02x} is not "
                          f"valid UTF-8 ({exc.reason})") from None
    return parse_problem_text(text, source=path)
