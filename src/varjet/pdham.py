"""Momentum-side constructions: ELH systems, constraints, Hessian, reduction, HDW.

The mixed first-order systems live in the density's own context.  Each
carries its fiber: for ELH, all jet coordinates u_I^a with |I| <= l+1 and
all momenta p_a^{I.i} with |I| <= l.  Its rows read those coordinates and
their comma-derivatives c,_i, coordinates of the same context that sort
right after c.

The momentum equations carry the contraction term over all distinct (J, i)
with Ji = I (each counted once), at every level |I| <= l+1; at |I| = l+1 the
divergence term is absent, which turns those rows into the algebraic
constraints cutting out the constraint manifold.  Reduction solves the
constraints for top jets where possible, then the leftover pure-momentum
relations for dependent momenta (both by symcore.eliminate, the one exact
elimination, which also gives the Hessian its rank), restricts the energy
density, and emits the Hamilton-de Donder-Weyl equation system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .multiindex import MultiIndex, multiindices, multiindices_up_to
from .symcore import (
    JET,
    MOMENTUM,
    CoordinateId,
    Expr,
    JetContext,
    Q,
    VarjetError,
    WrongDomainError,
    eliminate,
)
from .jetcalc import EquationSystem, mixed_total_derivative
from .variational import LagrangianDensity


# how many random points hessian samples the rank at
RANK_SAMPLES = 5


def _momentum_label(ctx: JetContext, alpha: int, I: MultiIndex) -> str:
    return f"mom:{ctx.dependents[alpha]}:{ctx.index_word(I)}"


def _contact_label(ctx: JetContext, alpha: int, I: MultiIndex, i: int) -> str:
    return f"contact:{ctx.dependents[alpha]}:{ctx.index_word(I)}:{ctx.independents[i]}"


def _momentum_residual(gradient: Dict[CoordinateId, Expr], alpha: int, I: MultiIndex) -> Expr:
    """dL/du_I^a - sum_{Ji=I} p_a^{J.i}, in the base context, from L's gradient."""
    return Expr.sum([gradient.get(CoordinateId.jet(alpha, I), Expr.zero())] + [
        -Expr.coord(CoordinateId.momentum(alpha, J, i)) for J, i, _mult in I.removals()])


def elh_system(lag: LagrangianDensity) -> EquationSystem:
    """The mixed first-order system at the density's level l.

    Momentum rows (residual orientation dL/du_I - contraction - divergence):

        d_a^I L - sum_{Ji=I} p_a^{J.i} - sum_i (p_a^{I.i}),_i = 0,   |I| <= l+1,

    with the divergence absent at |I| = l+1 (the algebraic constraint rows),
    and contact rows (u_I),_i - u_{Ii} = 0 for |I| <= l.
    """
    ctx = lag.context
    l = lag.level
    comma = CoordinateId.comma
    gradient = lag.L.gradient()
    rows: List[Tuple[str, Expr]] = []
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l + 1):
            parts = [_momentum_residual(gradient, alpha, I)]
            if len(I) <= l:
                parts += [-Expr.coord(comma(CoordinateId.momentum(alpha, I, i), i))
                          for i in range(ctx.n)]
            rows.append((_momentum_label(ctx, alpha, I), Expr.sum(parts)))
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l):
            for i in range(ctx.n):
                res = Expr.coord(comma(CoordinateId.jet(alpha, I), i)) \
                    - Expr.coord(CoordinateId.jet(alpha, I.with_index(i)))
                rows.append((_contact_label(ctx, alpha, I, i), res))
    return EquationSystem(ctx, tuple(rows), fiber=ctx.jets_up_to(l + 1) + ctx.momenta_up_to(l),
                          level=l)


def constraints(lag: LagrangianDensity) -> EquationSystem:
    """The algebraic rows cutting out the constraint manifold:
    dL/du_I^a - sum_{Ji=I} p_a^{J.i} = 0 for |I| = l+1, in the base context."""
    ctx = lag.context
    gradient = lag.L.gradient()
    rows = tuple((f"constraint:{ctx.dependents[alpha]}:{ctx.index_word(I)}",
                  _momentum_residual(gradient, alpha, I))
                 for alpha in range(ctx.m) for I in multiindices(ctx.n, lag.level + 1))
    return EquationSystem(ctx, rows)


@dataclass(frozen=True)
class HessianMatrix:
    """Symbolic matrix of second partials in the top-order jets."""

    index: Tuple[Tuple[int, MultiIndex], ...]
    entries: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class RankReport:
    dim: int
    rank: int
    regular: bool
    rank_constant: bool
    ranks: Tuple[int, ...]
    samples: int
    seed: int


def _symmetric(upper: List[list]) -> List[list]:
    """The square symmetric matrix whose row r on and above the diagonal is upper[r]."""
    n = len(upper)
    return [[upper[r][c - r] if c >= r else upper[c][r - c] for c in range(n)]
            for r in range(n)]


def _value_at(e: Expr, point: Dict[CoordinateId, Expr]) -> Optional[Q]:
    """The value of e at the point, or None if the point leaves a coordinate of e free."""
    value = e.constant_value()
    return e.substitute(point).constant_value() if value is None else value


def hessian(lag: LagrangianDensity, *, seed: int = 0) -> Tuple[HessianMatrix, RankReport]:
    """The Hessian in the jets of order l+1, with a sampled exact-rank report.

    The rank is computed by exact elimination after evaluating the jet
    coordinates at random rational points; the report carries the maximum
    observed rank and whether it stayed constant across the RANK_SAMPLES
    points (the verdict is probabilistic, the points fixed by the seed).  A
    Hessian free of coordinates takes one value everywhere: it is evaluated
    and eliminated once, and that rank is reported for every sample.  The
    matrix is symmetric: each entry on or above the diagonal is built and
    evaluated once per sample, from the gradient in the top jets, and mirrored.
    """
    ctx = lag.context
    l = lag.level
    idx = [(alpha, I) for alpha in range(ctx.m) for I in multiindices(ctx.n, l + 1)]
    tops = [CoordinateId.jet(alpha, I) for alpha, I in idx]
    first = lag.L.gradient()
    zero = Expr.zero()
    second = [first.get(top, zero).gradient() for top in tops]
    upper = [[second[r].get(tops[c], zero) for c in range(r, len(tops))]
             for r in range(len(tops))]
    matrix = HessianMatrix(tuple(idx), tuple(map(tuple, _symmetric(upper))))

    coords = sorted({c for row in upper for e in row for c in e.coordinates()})
    rng = random.Random(seed)
    ranks = []
    for _ in range(RANK_SAMPLES if coords else 1):
        point = {c: Expr.number(Q(rng.randint(-9, 9), rng.randint(1, 9)))
                 for c in coords}
        values = [[_value_at(e, point) for e in row] for row in upper]
        if any(v is None for row in values for v in row):
            raise AssertionError("internal error: Hessian entry failed to evaluate")
        rows = {r: dict(enumerate(row)) for r, row in enumerate(_symmetric(values))}
        ranks.append(len(eliminate(rows, range(len(idx)))[0]))
    if not coords:
        ranks *= RANK_SAMPLES
    rank = max(ranks)
    report = RankReport(dim=len(idx), rank=rank, regular=(rank == len(idx)),
                        rank_constant=(len(set(ranks)) == 1), ranks=tuple(ranks),
                        samples=RANK_SAMPLES, seed=seed)
    return matrix, report


def _pairings(ctx: JetContext, level: int) -> List[Expr]:
    """The products p_a^{I.i} u_{Ii}^a for |I| <= level (none below 0)."""
    return [Expr.coord(CoordinateId.momentum(alpha, I, i))
            * Expr.coord(CoordinateId.jet(alpha, I.with_index(i)))
            for alpha in range(ctx.m)
            for I in multiindices_up_to(ctx.n, level)
            for i in range(ctx.n)]


def energy_density(lag: LagrangianDensity) -> Expr:
    """E_l = sum_{|I|<=l} p_a^{I.i} u_{Ii}^a - L, in the base context.

    The `energy` subcommand is its only CLI caller: `reduce_lagrangian`
    restricts an equal form of it (see there).
    """
    return Expr.sum([-lag.L] + _pairings(lag.context, lag.level))


def comma_images(images: Mapping[CoordinateId, Expr], n: int) -> Dict[CoordinateId, Expr]:
    """The substitution that sends each coordinate c that ``images`` binds to
    its image and each c,_j (j < n) to D_j of that image, taken by
    mixed_total_derivative: a jet u_I goes to u_{Ij}, and a momentum or a
    comma-derivative x to x,_j."""
    out = dict(images)
    for c, image in images.items():
        for j in range(n):
            out[CoordinateId.comma(c, j)] = mixed_total_derivative(image, j)
    return out


def momentum_shift(system: EquationSystem, rho: Sequence[Expr]) -> EquationSystem:
    """Image of a mixed system under the momentum-shift automorphism of d^V rho.

    rho = (rho^1 .. rho^n) is jet-side, of order <= l and in the system's
    context (JetContext.refuse); the shift substitutes p_a^{I.i} ->
    p_a^{I.i} - d_a^I rho^i throughout (comma-derivatives of momenta pick up
    the corresponding total derivative) and renormalizes.  With this
    orientation the system of L + sum_i D_i rho^i coincides row by row with
    the shifted system of L.
    """
    if not system.fiber:
        raise VarjetError("momentum_shift needs a mixed system, which carries its fiber")
    ctx, l = system.context, system.level
    if len(rho) != ctx.n:
        raise VarjetError(f"need one shift component per independent variable ({ctx.n}), "
                          f"got {len(rho)}")
    for r in rho:
        ctx.refuse(r.coordinates(), "a shift component reads", jet_side=True)
        if r.max_jet_order() > l:
            raise VarjetError(
                f"shift component order {r.max_jet_order()} too high for momentum level {l}")
    fiber = set(system.fiber)
    images: Dict[CoordinateId, Expr] = {}
    for i, r in enumerate(rho):
        for c, theta in r.gradient().items():
            if c.kind != JET:
                continue
            pm = CoordinateId.momentum(c.alpha, c.index, i)
            if pm not in fiber:  # eliminated by a reduction
                raise WrongDomainError(f"momentum {ctx.name(pm)} is not part of the fiber")
            images[pm] = Expr.coord(pm) - theta
    mapping = comma_images(images, ctx.n)
    rows = tuple((label, res.substitute(mapping)) for label, res in system.equations)
    return EquationSystem(ctx, rows, fiber=system.fiber, level=l)


@dataclass(frozen=True)
class ReducedSystem:
    """Outcome of the constraint reduction.

    ``substitutions`` eliminates top jets solved from the constraints and the
    dependent momenta from the leftover pure-momentum relations; eliminated
    coordinates appear in no reduced residual and not in the restricted
    energy.  ``system_hdw`` is the Hamilton-de Donder-Weyl system on the
    projected coordinates P0 (its rows read no surviving top jet, so they are
    the system on the constraint manifold P as well); ``hamiltonian`` is the
    restricted energy read as a function there.
    """

    diagnosis: str
    p_coordinates: Tuple[CoordinateId, ...]
    p0_coordinates: Tuple[CoordinateId, ...]
    substitutions: Dict[CoordinateId, Expr]
    hamiltonian: Optional[Expr]
    system_hdw: Optional[EquationSystem]
    offending: Tuple[str, ...] = ()


def _linear_rows(rows: Mapping[str, Expr], columns: set) -> Optional[Dict[str, Dict]]:
    """Each row as {column: its coefficient}, the terms free of the columns
    under None, or None when a term has degree 2 or more in the columns."""
    out = {}
    for label, res in rows.items():
        parts: Dict[Optional[CoordinateId], list] = {}
        for mono, coeff in res.terms:
            hits = [k for k, (c, _) in enumerate(mono) if c in columns]
            if len(hits) > 1 or hits and mono[hits[0]][1] > 1:
                return None
            k = hits[0] if hits else len(mono)  # past the end: the whole monomial stays
            column = mono[k][0] if hits else None
            parts.setdefault(column, []).append((mono[:k] + mono[k + 1:], coeff))
        out[label] = {c: Expr(terms) for c, terms in parts.items()}
    return out


def _row_expr(row: Mapping[Optional[CoordinateId], Expr]) -> Expr:
    """sum(column * entry) over a row of _linear_rows, its None entry read as itself."""
    return Expr.sum([e if c is None else Expr.coord(c) * e for c, e in row.items()])


def _restricted_energy(lag: LagrangianDensity, tops: Sequence[CoordinateId],
                       subs: Dict[CoordinateId, Expr]) -> Expr:
    """E_l under subs, from its form modulo the constraint rows (see reduce_lagrangian)."""
    top_set = set(tops)

    def free(e: Expr) -> Expr:
        """The terms of e free of top jets."""
        return Expr([t for t in e.terms if top_set.isdisjoint([c for c, _ in t[0]])])

    # L0 = free(L), and b_K = free(dL/du_K) is the coefficient of u_K in the
    # terms of L of degree one in the top jets
    gradient = lag.L.gradient()
    parts = [Expr.sum([-free(lag.L)] + _pairings(lag.context, lag.level - 1)).substitute(subs)]
    # each factor P_K - b_K, the momenta free of top jets, is substituted on
    # its own and multiplied by the image of u_K
    for K in tops:
        factor = -free(_momentum_residual(gradient, K.alpha, K.index))
        parts.append(factor.substitute(subs).scale(Q(1, 2)) * subs.get(K, Expr.coord(K)))
    return Expr.sum(parts)


def reduce_lagrangian(lag: LagrangianDensity) -> ReducedSystem:
    """Two-stage reduction of the constraint rows by ``symcore.eliminate``.

    The rows are affine in the top jets and linear in the momenta, with
    coefficients in the lower jets and x.  Stage 1 solves them for top jets
    with nonzero rational coefficients; rows left over must be free of jet
    coordinates.  Stage 2 solves each of those for a dependent momentum
    (largest first, so the surviving momenta are the canonically smallest).
    It cannot fail: a row left by stage 1 keeps -1 on each momentum of its
    own P_K, which no other row reads.  The restricted energy must then be
    free of top jets; it becomes the Hamiltonian on the projected
    coordinates, where the HDW system is emitted.

    The restricted energy is read by Euler's identity, without expanding the
    part of L quadratic in the top jets u_K (|K| = l+1) under the solutions.
    The constraint rows are affine in the u_K, so L has degree at most 2 in
    them: L = L0 + sum_K b_K u_K + L2, with L0 and b_K free of top jets and
    L2 homogeneous of degree 2, so that sum_K u_K dL2/du_K = 2 L2.  With
    P_K = sum_{Ji=K} p^{J.i} the constraint row of K is
    C_K = b_K + dL2/du_K - P_K, and the pairings at |I| = l are
    sum_K P_K u_K.  Hence

        E_l = sum_{|I|<l} p^{I.i} u_{Ii} - L0 + 1/2 sum_K (P_K - b_K) u_K
              - 1/2 sum_K u_K C_K.

    Every constraint row substitutes to 0 under the final solutions, so the
    last sum drops and the rest under the solutions is the same Expr as the
    substituted E_l.  Each P_K - b_K has a few terms: its image times the
    solution for u_K is one product, and one sum gathers the products.

    Once both stages succeed the restricted energy reads no top jet, so its
    check ("restricted energy retains top jets") is a guard no density
    reaches: dE_l/du_K = -C_K, and the solutions read no top jet but the
    surviving ones (stage 2's, from rows free of jets, read no jet), so by
    the chain rule its partial in a surviving top jet is a combination of
    substituted constraint rows, each 0.
    """
    ctx = lag.context
    l = lag.level
    tops_ordered = [c for c in ctx.jets_up_to(l + 1) if len(c.index) == l + 1]
    tops = set(tops_ordered)
    rows = _linear_rows(dict(constraints(lag).equations), tops)
    if rows is None:
        return ReducedSystem("irreducible: nonlinear constraints", (), (), {}, None, None)

    solutions, left = eliminate(rows, tops_ordered)
    subs = {c: _row_expr(solution) for c, solution in solutions.items()}
    left = {label: _row_expr(row) for label, row in left.items()}
    offending = tuple(label for label, res in left.items()
                      if any(c.kind == JET for c in res.coordinates()))
    if offending:
        return ReducedSystem("Assumption 1 check failed", (), (), subs, None, None, offending)
    if left:
        momenta = set(ctx.momenta_up_to(l))
        solutions, left = eliminate(_linear_rows(left, momenta), sorted(momenta, reverse=True),
                                    _linear_rows(subs, momenta))
        if left:
            raise AssertionError("internal error: a constraint row has no momentum to solve for")
        subs = {c: _row_expr(solution) for c, solution in solutions.items()}

    energy_p = _restricted_energy(lag, tops_ordered, subs)
    if any(c in tops for c in energy_p.coordinates()):
        return ReducedSystem("Assumption 1 check failed", (), (), subs, None, None,
                             ("restricted energy retains top jets",))

    surviving_tops = [c for c in tops_ordered if c not in subs]
    lower_jets = ctx.jets_up_to(l)
    surviving_momenta = [c for c in ctx.momenta_up_to(l) if c not in subs]
    independents = [CoordinateId.independent(i) for i in range(ctx.n)]
    p0_fiber = sorted(lower_jets + surviving_momenta)
    p_fiber = sorted(p0_fiber + surviving_tops)

    system_hdw = EquationSystem(ctx, _reduced_rows(lag, subs, energy_p), fiber=p0_fiber, level=l)
    regular = not surviving_tops and not any(c.kind == MOMENTUM for c in subs)
    diagnosis = "regular" if regular else "reducible"
    return ReducedSystem(
        diagnosis, tuple(independents + p_fiber), tuple(independents + p0_fiber),
        subs, energy_p, system_hdw)


def _reduced_rows(lag: LagrangianDensity, subs: Dict[CoordinateId, Expr],
                  energy_p: Expr) -> Tuple[Tuple[str, Expr], ...]:
    """PD-Hamilton rows of the restricted system on P0, the lower jets and the
    surviving momenta."""
    ctx = lag.context
    l = lag.level
    comma = CoordinateId.comma
    zero = Expr.zero()
    d_energy = energy_p.gradient()
    solved = {pm: phi for pm, phi in subs.items() if pm.kind == MOMENTUM}
    gradients = {pm: phi.gradient() for pm, phi in solved.items()}
    # p,_i of an eliminated momentum is D_i of its solution, which reads
    # surviving momenta only; a surviving one's is its own comma-derivative
    images = comma_images(solved, ctx.n)
    rows: List[Tuple[str, Expr]] = []
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l):
            commas = [comma(CoordinateId.momentum(alpha, I, i), i) for i in range(ctx.n)]
            res = Expr.sum([-d_energy.get(CoordinateId.jet(alpha, I), zero)]
                           + [-images.get(c, Expr.coord(c)) for c in commas])
            if not res.is_zero():
                rows.append((_momentum_label(ctx, alpha, I), res))
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l):
            for j in range(ctx.n):
                pm = CoordinateId.momentum(alpha, I, j)
                if pm in solved:
                    continue
                parts = [Expr.coord(comma(CoordinateId.jet(alpha, I), j))]
                for other, gradient in gradients.items():
                    weight = gradient.get(pm)
                    if weight is not None:
                        parts.append(weight * Expr.coord(
                            comma(CoordinateId.jet(other.alpha, other.index), other.i)))
                parts.append(-d_energy.get(pm, zero))
                res = Expr.sum(parts)
                if not res.is_zero():
                    rows.append((_contact_label(ctx, alpha, I, j), res))
    return tuple(rows)
