"""Total derivatives and prolongation of equation systems on jet coordinates.

The jth total derivative acts on jet-side expressions as
D_j = d/dx^j + u_{Ij}^a d/du_I^a; iterated total derivatives are indexed by a
multiindex and commute, so composition order is irrelevant.  Momenta and
comma-derivatives are outside its domain; mixed_total_derivative takes each
to its comma-derivative, as along a section of the mixed fiber.  Systems are
plain values: every one is built from a density, and cli writes their text
and JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .multiindex import MultiIndex, multiindices_up_to
from .symcore import (
    INDEPENDENT,
    JET,
    CoordinateId,
    Expr,
    JetContext,
    Monomial,
    Term,
    VarjetError,
    WrongDomainError,
)


# The most entries the multiindices of length <= L over n indices,
# n*C(n+L, n+1), may hold for a construction to enumerate them: about twice
# those of KdV's ELH system at order 400 (2.2e7 entries, 35 s and 243 MB),
# while an order that would only hang or overflow (10^6 for n = 1: 5e11) is refused.
MAX_MULTIINDEX_ENTRIES = 5 * 10**7


def refuse_long_multiindices(n: int, length: int, what: str) -> None:
    """Refuse the ``what`` length whose multiindices over n indices hold too many entries."""
    if n * math.comb(n + length, n + 1) > MAX_MULTIINDEX_ENTRIES:
        raise VarjetError(f"{what} {length} is too high: the multiindices up to it would "
                          f"hold more than {MAX_MULTIINDEX_ENTRIES} entries")


def total_derivative(e: Expr, i: int) -> Expr:
    """D_i e for a jet-side expression; raises the jet order by at most one.

    One pass over the terms: in each, every factor (x^i)^p gives
    p (x^i)^(p-1) and every factor (u_I^a)^p gives p (u_I^a)^(p-1) u_{Ii}^a,
    and all the new terms are normalised together.  i is checked against no
    context: JetContext.refuse refuses a jet along an independent that does
    not exist where render, EquationSystem or LagrangianDensity reads it.
    """
    return _derivative(e, i, False)


def mixed_total_derivative(e: Expr, i: int) -> Expr:
    """D_i e on the mixed fiber, along a section: as total_derivative, and
    every factor c^p of a momentum or a comma-derivative c gives
    p c^(p-1) c,_i."""
    return _derivative(e, i, True)


def _derivative(e: Expr, i: int, mixed: bool) -> Expr:
    if i < 0:
        raise VarjetError(f"independent index must be >= 0, got {i}")
    lifted: Dict[CoordinateId, CoordinateId] = {}  # u_I^a -> u_{Ii}^a, c -> c,_i
    out: List[Term] = []
    for mono, coeff in e.terms:
        for k, (c, p) in enumerate(mono):
            kind = c.kind
            if kind == INDEPENDENT:
                if c.i == i:
                    lowered = mono[:k] + ((c, p - 1),) + mono[k + 1:] if p > 1 \
                        else mono[:k] + mono[k + 1:]
                    out.append((lowered, coeff * p if p > 1 else coeff))
                continue
            d = lifted.get(c)
            if d is None:
                if kind == JET:
                    d = CoordinateId.jet(c.alpha, c.index.with_index(i))
                elif mixed:
                    d = CoordinateId.comma(c, i)
                else:
                    raise WrongDomainError(
                        "total_derivative acts on jet-side expressions; momenta or "
                        "comma-derivatives present (see mixed_total_derivative)")
                lifted[c] = d
            out.append((_lifted(mono, k, d), coeff * p if p > 1 else coeff))
    return Expr(out)


def _lifted(mono: Monomial, k: int, d: CoordinateId) -> Monomial:
    """mono with the exponent of its k-th factor lowered by one and that of d,
    a coordinate sorting after the k-th, raised by one."""
    c, p = mono[k]
    head = mono[:k] + ((c, p - 1),) if p > 1 else mono[:k]
    for j in range(k + 1, len(mono)):
        cj, q = mono[j]
        if cj >= d:
            if cj == d:
                return head + mono[k + 1:j] + ((cj, q + 1),) + mono[j + 1:]
            return head + mono[k + 1:j] + ((d, 1),) + mono[j:]
    return head + mono[k + 1:] + ((d, 1),)


def iterated_total_derivative(e: Expr, J: MultiIndex) -> Expr:
    """D_J e; the empty multiindex is the identity.  As in total_derivative,
    the entries of J are not checked against a context."""
    out = e
    for i in J:
        out = total_derivative(out, i)
    return out


@dataclass(frozen=True)
class EquationSystem:
    """Named residual-form equations over a shared context.

    Each equation is (label, residual Expr) read as residual = 0.  A mixed
    first-order system (pdham) also carries its ``fiber``, the jets and
    momenta it is a system for, in ascending order, and its momentum
    ``level``; its rows read those coordinates and their first
    comma-derivatives.  Any other system carries an empty fiber.  A row or
    fiber coordinate outside the context is refused, naming its row.
    """

    context: JetContext
    equations: Tuple[Tuple[str, Expr], ...]
    fiber: Tuple[CoordinateId, ...] = ()
    level: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "fiber", tuple(self.fiber))
        labels = [lab for lab, _ in self.equations]
        if len(set(labels)) != len(labels):
            raise VarjetError("equation labels must be unique")
        # each distinct coordinate of the rows and the fiber is checked once;
        # the rows are walked one by one only to name the refused one's row
        ctx = self.context
        read = {c for _, res in self.equations for mono, _ in res.terms for c, _ in mono}
        if not all(map(ctx.admits, read.union(self.fiber))):
            for label, res in self.equations:
                ctx.refuse(res.coordinates(), f"the system's row {label!r} reads")
            ctx.refuse(self.fiber, "the system's fiber holds")


def prolong(system: EquationSystem, level: int) -> EquationSystem:
    """Augment the system with D_J of every equation, |J| <= level.

    Labels of new rows carry the differentiation word; level 0 returns the
    system itself, and a negative level is refused.  The system must be
    jet-side: total_derivative refuses momenta and comma-derivatives.
    """
    if level < 0:
        raise VarjetError(f"level must be >= 0, got {level}")
    ctx = system.context
    refuse_long_multiindices(ctx.n, level, "level")
    if level == 0:
        return system
    indices = multiindices_up_to(ctx.n, level)
    equations = []
    for label, res in system.equations:
        for J in indices:
            word = ctx.index_word(J)
            new_label = label if not word else f"{label}|{word}"
            equations.append((new_label, iterated_total_derivative(res, J)))
    return EquationSystem(ctx, tuple(equations))
