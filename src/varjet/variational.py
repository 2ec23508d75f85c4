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
from typing import Dict, List, Mapping, Set, Tuple

from .multiindex import EMPTY, MultiIndex
from .symcore import (
    JET,
    MOMENTUM,
    Expr,
    JetContext,
    Q,
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

    def __eq__(self, other) -> bool:
        return isinstance(other, LegendreForm) and self.coeffs == other.coeffs


def euler_lagrange(lag: LagrangianDensity) -> SourceForm:
    """The source form with components (-1)^|I| D_I (dL/du_I^a), summed over
    the jets u_I^a of L (unordered multiindices, each once), read from one
    gradient of L."""
    ctx = lag.context
    parts: Dict[int, List[Expr]] = {alpha: [] for alpha in range(ctx.m)}
    for c, part in lag.L.gradient().items():
        if c.kind == JET:
            term = iterated_total_derivative(part, c.index)
            parts[c.alpha].append(term if len(c.index) % 2 == 0 else -term)
    return SourceForm(ctx, {(alpha, EMPTY): Expr.sum(terms) for alpha, terms in parts.items()})


def vertical_differential(lag: LagrangianDensity) -> CartanValuedForm:
    """d^V of the density: coefficient dL/du_I^a at (a, I), the jet entries of L's gradient."""
    return CartanValuedForm(lag.context, {(c.alpha, c.index): part
                                          for c, part in lag.L.gradient().items()
                                          if c.kind == JET})


def horizontal_d_legendre(theta: LegendreForm) -> CartanValuedForm:
    """Horizontal differential of a Legendre-type form.

    The coefficient at (a, I) is -sum_i D_i theta_a^{I.i} minus the contraction
    sum of theta_a^{J.i} over the distinct pairs (J, i) with Ji = I, each
    counted once.
    """
    ctx = theta.context
    parts: Dict[Tuple[int, MultiIndex], List[Expr]] = {}
    for (alpha, index, i), coeff in theta.coeffs.items():
        for c in coeff.coordinates():
            if c.kind == MOMENTUM:
                raise WrongDomainError("Legendre form coefficients are jet-side expressions")
        parts.setdefault((alpha, index), []).append(-total_derivative(coeff, i))
        parts.setdefault((alpha, index.with_index(i)), []).append(-coeff)
    return CartanValuedForm(ctx, {key: Expr.sum(terms) for key, terms in parts.items()})


def legendre_form(lag: LagrangianDensity) -> LegendreForm:
    """Canonical Legendre form of order l for a density of order l+1.

    Top-down recursion: at each level k = l+1 .. 1 the component equation

        sum over (J, i) with Ji = I of theta_a^{J.i}
            = dL/du_I^a - sum_i D_i theta_a^{I.i}    (|I| = k)

    is solved by the symmetric distribution theta_a^{J.i} := (I[i]/|I|) * RHS.
    Each (J, i) determines I = Ji uniquely, so the assignment is well defined.
    The partials are those of d^V L, one gradient of L, and each level visits
    only the (a, I) where L has a jet or the level above wrote a coefficient:
    the RHS is zero everywhere else, also at every level above L's highest jet.
    The first variation identity is then verified exactly; failure is an
    internal error, never silent.
    """
    ctx = lag.context
    d_v = vertical_differential(lag)
    coeffs: Dict[Tuple[int, MultiIndex, int], Expr] = {}
    # (a, I) by |I|: the jets of L, and each (a, J) the level above writes to
    reached: Dict[int, Set[Tuple[int, MultiIndex]]] = {}
    for alpha, I in d_v.coeffs:
        reached.setdefault(len(I), set()).add((alpha, I))
    for k in range(max(reached, default=0), 0, -1):
        for alpha, I in reached.get(k, ()):
            rhs = Expr.sum([d_v.coefficient(alpha, I)] + [
                -total_derivative(coeffs[(alpha, I, i)], i)
                for i in range(ctx.n) if (alpha, I, i) in coeffs])
            if rhs.is_zero():
                continue
            for J, i, mult in I.removals():
                coeffs[(alpha, J, i)] = rhs.scale(Q(mult, k))
                reached.setdefault(k - 1, set()).add((alpha, J))
    theta = LegendreForm(ctx, lag.level, coeffs)

    if horizontal_d_legendre(theta) + d_v != euler_lagrange(lag):
        raise AssertionError(
            "internal error: canonical Legendre form violates the first variation identity")
    return theta
