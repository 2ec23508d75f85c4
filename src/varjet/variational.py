"""Variational operators: source forms, vertical differentials, Legendre forms.

Everything is represented through local coordinate coefficients.  A Cartan-
valued top form has one coefficient per (dependent, multiindex); a Legendre
form has one per (dependent, multiindex, direction).  The central algebraic
fact is the first variation identity

    euler_lagrange(L) - vertical_differential(L) = horizontal_d(theta),

which the canonical Legendre form construction satisfies exactly by design
and re-verifies on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

from .multiindex import EMPTY, MultiIndex, multiindices, multiindices_up_to
from .symcore import (
    JET,
    MOMENTUM,
    CoordinateId,
    Expr,
    JetContext,
    VarjetError,
    WrongDomainError,
)
from .jetcalc import iterated_total_derivative, total_derivative


@dataclass(frozen=True)
class LagrangianDensity:
    """The coefficient L of a Lagrangian density L d^n x, with its declared order.

    ``order`` is the declared order l+1.  It defaults to the smallest order
    admitting L (at least one) and may be overridden upward: the momentum-side
    constructions are order-sensitive, so treating a first-order density as
    second order is meaningful and allowed.
    """

    context: JetContext
    L: Expr
    order: int = 0

    def __post_init__(self):
        minimal = max(1, self.L.max_jet_order())
        if self.order == 0:
            object.__setattr__(self, "order", minimal)
        if self.order < minimal:
            raise VarjetError(
                f"declared order {self.order} below the minimal order {minimal} of the density")
        for c in self.L.coordinates():
            if c.kind == MOMENTUM:
                raise WrongDomainError("a Lagrangian density is jet-side; momenta present")

    @property
    def level(self) -> int:
        """l, i.e. declared order minus one."""
        return self.order - 1


class CartanValuedForm:
    """Finitely supported coefficient map (alpha, I) -> Expr.

    Represents contact-form-valued top forms such as the vertical differential
    of a density or an Euler-Lagrange source form; absent keys are zero.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context: JetContext,
                 coeffs: Mapping[Tuple[int, MultiIndex], Expr] = ()):
        self.context = context
        self.coeffs: Dict[Tuple[int, MultiIndex], Expr] = {
            key: e for key, e in dict(coeffs).items() if not e.is_zero()}

    def coefficient(self, alpha: int, index: MultiIndex) -> Expr:
        return self.coeffs.get((alpha, index), Expr.zero())

    def support(self) -> List[Tuple[int, MultiIndex]]:
        return sorted(self.coeffs, key=lambda k: (k[0], k[1].sort_key()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "CartanValuedForm") -> "CartanValuedForm":
        acc = dict(self.coeffs)
        for key, e in other.coeffs.items():
            acc[key] = acc.get(key, Expr.zero()) + e
        return CartanValuedForm(self.context, acc)

    def __sub__(self, other: "CartanValuedForm") -> "CartanValuedForm":
        return self + other.scale(-1)

    def scale(self, k) -> "CartanValuedForm":
        return CartanValuedForm(self.context,
                                {key: e.scale(k) for key, e in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, CartanValuedForm) and self.coeffs == other.coeffs


class SourceForm(CartanValuedForm):
    """A Cartan-valued form supported only on |I| = 0 (membership checked)."""

    def __init__(self, context, coeffs=()):
        super().__init__(context, coeffs)
        for alpha, index in self.coeffs:
            if len(index) != 0:
                raise VarjetError("a source form has coefficients only at |I| = 0")

    def component(self, alpha: int) -> Expr:
        return self.coefficient(alpha, EMPTY)


class LegendreForm:
    """Coefficient map (alpha, I, i) -> Expr with |I| <= order (the form's order l)."""

    __slots__ = ("context", "order", "coeffs")

    def __init__(self, context: JetContext, order: int,
                 coeffs: Mapping[Tuple[int, MultiIndex, int], Expr] = ()):
        self.context = context
        self.order = order
        self.coeffs: Dict[Tuple[int, MultiIndex, int], Expr] = {}
        for (alpha, index, i), e in dict(coeffs).items():
            if len(index) > order:
                raise VarjetError(f"Legendre form of order {order} cannot carry |I| = {len(index)}")
            if not e.is_zero():
                self.coeffs[(alpha, index, i)] = e

    def coefficient(self, alpha: int, index: MultiIndex, i: int) -> Expr:
        return self.coeffs.get((alpha, index, i), Expr.zero())

    def support(self):
        return sorted(self.coeffs, key=lambda k: (k[0], k[1].sort_key(), k[2]))

    def __sub__(self, other: "LegendreForm") -> "LegendreForm":
        acc = dict(self.coeffs)
        for key, e in other.coeffs.items():
            acc[key] = acc.get(key, Expr.zero()) - e
        return LegendreForm(self.context, max(self.order, other.order), acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, LegendreForm) and self.coeffs == other.coeffs


def euler_lagrange(lag: LagrangianDensity) -> SourceForm:
    """The source form with components (-1)^|I| D_I (dL/du_I^a), summed over
    unordered multiindices counted once each."""
    ctx = lag.context
    work = ctx.extended(2 * lag.order) if not ctx.auto_extend else ctx
    components: Dict[Tuple[int, MultiIndex], Expr] = {}
    for alpha in range(ctx.m):
        parts = []
        for I in multiindices_up_to(ctx.n, lag.order):
            part = lag.L.partial(CoordinateId.jet(alpha, I))
            if part.is_zero():
                continue
            term = iterated_total_derivative(part, I, work)
            parts.append(term if len(I) % 2 == 0 else -term)
        components[(alpha, EMPTY)] = Expr.sum(parts)
    return SourceForm(ctx, components)


def vertical_differential(lag: LagrangianDensity) -> CartanValuedForm:
    """d^V of the density: coefficient dL/du_I^a at (a, I)."""
    ctx = lag.context
    coeffs: Dict[Tuple[int, MultiIndex], Expr] = {}
    for c in lag.L.coordinates():
        if c.kind == JET:
            coeffs[(c.alpha, c.index)] = lag.L.partial(c)
    return CartanValuedForm(ctx, coeffs)


def horizontal_d_legendre(theta: LegendreForm) -> CartanValuedForm:
    """Horizontal differential of a Legendre-type form.

    The coefficient at (a, I) is -sum_i D_i theta_a^{I.i} minus the contraction
    sum of theta_a^{J.i} over the distinct pairs (J, i) with Ji = I, each
    counted once.
    """
    ctx = theta.context
    top = max([e.max_jet_order() for e in theta.coeffs.values()] + [ctx.max_order])
    work = ctx if ctx.auto_extend else ctx.extended(top + 1)
    parts: Dict[Tuple[int, MultiIndex], List[Expr]] = {}
    for (alpha, index, i), coeff in theta.coeffs.items():
        for c in coeff.coordinates():
            if c.kind == MOMENTUM:
                raise WrongDomainError("Legendre form coefficients are jet-side expressions")
        parts.setdefault((alpha, index), []).append(-total_derivative(coeff, i, work))
        parts.setdefault((alpha, index.with_index(i)), []).append(-coeff)
    return CartanValuedForm(ctx, {key: Expr.sum(terms) for key, terms in parts.items()})


def legendre_form(lag: LagrangianDensity) -> LegendreForm:
    """Canonical Legendre form of order l for a density of order l+1.

    Top-down recursion: at each level k = l+1 .. 1 the component equation

        sum over (J, i) with Ji = I of theta_a^{J.i}
            = dL/du_I^a - sum_i D_i theta_a^{I.i}    (|I| = k)

    is solved by the symmetric distribution theta_a^{J.i} := (I[i]/|I|) * RHS.
    Each (J, i) determines I = Ji uniquely, so the assignment is well defined.
    The first variation identity is then verified exactly; failure is an
    internal error, never silent.
    """
    ctx = lag.context
    work = ctx.extended(2 * lag.order) if not ctx.auto_extend else ctx
    l = lag.level
    coeffs: Dict[Tuple[int, MultiIndex, int], Expr] = {}
    for k in range(lag.order, 0, -1):
        for alpha in range(ctx.m):
            for I in multiindices(ctx.n, k):
                rhs = Expr.sum([lag.L.partial(CoordinateId.jet(alpha, I))] + [
                    -total_derivative(coeffs[(alpha, I, i)], i, work)
                    for i in range(ctx.n) if (alpha, I, i) in coeffs])
                if rhs.is_zero():
                    continue
                size = len(I)
                for J, i, mult in I.removals():
                    coeffs[(alpha, J, i)] = rhs.scale(Fraction(mult, size))
    theta = LegendreForm(ctx, l, coeffs)

    identity = horizontal_d_legendre(theta) + vertical_differential(lag)
    if identity != euler_lagrange(lag):
        raise AssertionError(
            "internal error: canonical Legendre form violates the first variation identity")
    return theta
