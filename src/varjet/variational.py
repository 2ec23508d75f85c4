"""Variational operators: Euler-Lagrange, vertical differentials, Legendre forms.

Every result is a plain value of local coefficients: the source form is one
E_a(L) per dependent; d^V L and the horizontal differential of a Legendre
form map each jet u_I^a to its coefficient; a Legendre form maps each
momentum p_a^{I.i} to theta_a^{I.i}(u).  A map holds no zero coefficient.
The first variation identity

    horizontal_d(theta) + vertical_differential(L) = euler_lagrange(L),

the right side on the zero jets u^a, holds for the canonical Legendre form
by construction and is re-verified on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .symcore import (
    JET,
    CoordinateId,
    Expr,
    JetContext,
    Q,
    VarjetError,
)
from .jetcalc import iterated_total_derivative, refuse_long_multiindices, total_derivative


@dataclass(frozen=True)
class LagrangianDensity:
    """The coefficient L of a Lagrangian density L d^n x, with its declared order.

    ``order`` is the declared order l+1.  None, the default, means the smallest
    order admitting L (at least one); it may be overridden upward: the momentum-side
    constructions are order-sensitive, so treating a first-order density as
    second order is meaningful and allowed.  The constructions enumerate the
    multiindices up to the order, so an order with too many is refused here.
    """

    context: JetContext
    L: Expr
    order: Optional[int] = None

    def __post_init__(self):
        self.context.refuse(self.L.coordinates(), "the density reads", jet_side=True)
        minimal = max(1, self.L.max_jet_order())
        if self.order is None:
            object.__setattr__(self, "order", minimal)
        if self.order < minimal:
            raise VarjetError(
                f"declared order {self.order} below the minimal order {minimal} of the density")
        refuse_long_multiindices(self.context.n, self.order, "order")

    @property
    def level(self) -> int:
        """l, i.e. declared order minus one."""
        return self.order - 1


def _collect(pairs: Iterable[Tuple[CoordinateId, Expr]]) -> Dict[CoordinateId, Expr]:
    """The sum of the Exprs paired with each coordinate (a lone one as it is), zero sums absent."""
    parts: Dict[CoordinateId, List[Expr]] = {}
    for c, e in pairs:
        parts.setdefault(c, []).append(e)
    sums = {c: terms[0] if len(terms) == 1 else Expr.sum(terms) for c, terms in parts.items()}
    return {c: e for c, e in sums.items() if not e.is_zero()}


def euler_lagrange(lag: LagrangianDensity) -> Tuple[Expr, ...]:
    """E_a(L) for each dependent a: (-1)^|I| D_I (dL/du_I^a), summed over
    the jets u_I^a of L (unordered multiindices, each once), read from one
    gradient of L."""
    parts: List[List[Expr]] = [[] for _ in range(lag.context.m)]
    for c, part in lag.L.gradient().items():
        if c.kind == JET:
            term = iterated_total_derivative(part, c.index)
            parts[c.alpha].append(term if len(c.index) % 2 == 0 else -term)
    return tuple(map(Expr.sum, parts))


def vertical_differential(lag: LagrangianDensity) -> Dict[CoordinateId, Expr]:
    """d^V of the density: coefficient dL/du_I^a at each jet u_I^a of L, the
    jet entries of L's gradient."""
    return {c: part for c, part in lag.L.gradient().items() if c.kind == JET}


def horizontal_d_legendre(theta: Mapping[CoordinateId, Expr]) -> Dict[CoordinateId, Expr]:
    """Horizontal differential of a Legendre-type form (keyed by momenta), keyed by jets.

    The coefficient at u_I^a is -sum_i D_i theta_a^{I.i} minus the contraction
    sum of theta_a^{J.i} over the distinct pairs (J, i) with Ji = I, each
    counted once.  The coefficients are jet-side: total_derivative refuses a
    momentum or a comma-derivative.
    """
    def pairs():
        for p, coeff in theta.items():
            yield CoordinateId.jet(p.alpha, p.index), -total_derivative(coeff, p.i)
            yield CoordinateId.jet(p.alpha, p.index.with_index(p.i)), -coeff
    return _collect(pairs())


def legendre_form(lag: LagrangianDensity) -> Dict[CoordinateId, Expr]:
    """Canonical Legendre form of order l for a density of order l+1: the
    momentum p_a^{I.i} (|I| <= l) to theta_a^{I.i}, in ascending coordinate
    order.

    Top-down recursion: at each level k = l+1 .. 1 the component equation

        sum over (J, i) with Ji = I of theta_a^{J.i}
            = dL/du_I^a - sum_i D_i theta_a^{I.i}    (|I| = k)

    is solved by the symmetric distribution theta_a^{J.i} := (I[i]/|I|) * RHS.
    Each (J, i) determines I = Ji uniquely, so the assignment is well defined.
    The partials are those of d^V L, one gradient of L, and each level visits
    only the jets u_I^a of L and those the level above wrote a coefficient
    for: the RHS is zero everywhere else, also at every level above L's
    highest jet.  The first variation identity is then verified exactly;
    failure is an internal error, never silent.
    """
    d_v = vertical_differential(lag)
    theta: Dict[CoordinateId, Expr] = {}
    # jets u_I^a by |I|: the jets of L, and each u_J^a the level above writes to
    reached: Dict[int, Set[CoordinateId]] = {}
    for jet in d_v:
        reached.setdefault(len(jet.index), set()).add(jet)
    for k in range(max(reached, default=0), 0, -1):
        for jet in reached.get(k, ()):
            alpha, I = jet.alpha, jet.index
            above = [CoordinateId.momentum(alpha, I, i) for i in range(lag.context.n)]
            rhs = Expr.sum([d_v.get(jet, Expr.zero())] + [
                -total_derivative(theta[p], p.i) for p in above if p in theta])
            if rhs.is_zero():
                continue
            for J, i, mult in I.removals():
                theta[CoordinateId.momentum(alpha, J, i)] = rhs.scale(Q(mult, k))
                reached.setdefault(k - 1, set()).add(CoordinateId.jet(alpha, J))
    theta = {p: theta[p] for p in sorted(theta)}

    source = _collect((CoordinateId.jet(alpha), e) for alpha, e in enumerate(euler_lagrange(lag)))
    if _collect([*horizontal_d_legendre(theta).items(), *d_v.items()]) != source:
        raise AssertionError(
            "internal error: canonical Legendre form violates the first variation identity")
    return theta
