"""Flat key-value problem files describing a variational problem.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Recognized keys: independents, dependents (space- or comma-separated names),
lagrangian (expression), order (declared order l+1), and the options
max_order, auto_extend, seed, rank_samples, rho (one expression per
independent variable, ';'-separated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .symcore import _NAME_RE, Expr, JetContext, VarjetError, parse
from .variational import LagrangianDensity

_KNOWN_KEYS = {"independents", "dependents", "lagrangian", "order",
               "max_order", "auto_extend", "seed", "rank_samples", "rho"}


@dataclass
class Problem:
    independents: Tuple[str, ...]
    dependents: Tuple[str, ...]
    density: Expr  # parsed once: an Expr names coordinates by index, not by name
    order: int
    max_order: int
    auto_extend: bool = False
    seed: int = 0
    rank_samples: int = 5
    rho_text: str = ""  # ';'-separated shift components, parsed on use

    def lagrangian(self, order_override: Optional[int] = None) -> LagrangianDensity:
        order = order_override if order_override is not None else self.order
        ctx = JetContext(self.independents, self.dependents,
                         max_order=max(self.max_order, 2 * order),
                         auto_extend=self.auto_extend)
        return LagrangianDensity(ctx, self.density, order=order)

    def rho(self, ctx: JetContext, text: Optional[str]) -> List[Expr]:
        """The shift components, one per independent: text's if given, else the file's."""
        text = text or self.rho_text
        if not text:
            raise VarjetError("problem file declares no rho components (key: rho)")
        parts = [part.strip() for part in text.split(";")]
        if len(parts) != len(self.independents):
            raise VarjetError(
                f"rho needs {len(self.independents)} ';'-separated components, got {len(parts)}")
        return [parse(part, ctx) for part in parts]


def parse_problem_text(text: str, source: str = "<problem>") -> Problem:
    entries: Dict[str, Tuple[str, int]] = {}  # key -> (value, line number)
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
        entries[key] = (value.strip(), lineno)

    for required in ("independents", "dependents", "lagrangian"):
        if required not in entries:
            raise VarjetError(f"{source}: missing required key {required!r}")

    def fail(key: str, message: str):
        raise VarjetError(f"{source}, line {entries[key][1]}: {message}")

    def names(key: str) -> Tuple[str, ...]:
        out = tuple(tok for tok in entries[key][0].replace(",", " ").split() if tok)
        if not out:
            fail(key, f"{key} lists no names")
        for k, name in enumerate(out):
            if not _NAME_RE.match(name):
                fail(key, f"invalid name {name!r}")
            if name in out[:k]:
                fail(key, f"name {name!r} is declared twice")
        return out

    def integer(key: str, default: int) -> int:
        if key not in entries:
            return default
        try:
            return int(entries[key][0])
        except ValueError:
            fail(key, f"{key} expects an integer, got {entries[key][0]!r}")

    def boolean(key: str) -> bool:
        if key not in entries:
            return False
        lowered = entries[key][0].lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        fail(key, f"{key} expects a boolean, got {entries[key][0]!r}")

    independents = names("independents")
    dependents = names("dependents")
    for name in dependents:
        if name in independents:
            fail("dependents",
                 f"name {name!r} is declared both as an independent and as a dependent")
    order = integer("order", 0)
    max_order = integer("max_order", 0)
    auto_extend = boolean("auto_extend")
    seed = integer("seed", 0)
    rank_samples = integer("rank_samples", 5)
    if "order" in entries and order < 1:
        fail("order", "order must be >= 1")
    if max_order < 0:
        fail("max_order", "max_order must be >= 0")
    if rank_samples < 1:
        fail("rank_samples", "rank_samples must be >= 1")
    # parsed without an order bound (Problem.lagrangian's context carries it);
    # infer the declared order from the density when absent
    density = parse(entries["lagrangian"][0],
                    JetContext(independents, dependents, auto_extend=True))
    minimal = max(1, density.max_jet_order())
    if order == 0:
        order = minimal
    elif order < minimal:
        fail("order", f"declared order {order} below the density order {minimal}")
    return Problem(
        independents=independents,
        dependents=dependents,
        density=density,
        order=order,
        max_order=max_order or max(4, 2 * order),
        auto_extend=auto_extend,
        seed=seed,
        rank_samples=rank_samples,
        rho_text=entries["rho"][0] if "rho" in entries else "",
    )


def load_problem(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_text(fh.read(), source=path)
