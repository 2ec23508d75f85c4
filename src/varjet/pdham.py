"""Momentum-side constructions: ELH systems, constraints, Hessian, reduction, HDW.

The mixed first-order systems live in the density's own context.  Each
carries its fiber, in canonical order: for ELH (``_elh_fiber``), the jets
u_I^a with |I| <= l+1 and the momenta p_a^{I.i} with |I| <= l, as
JetContext's ``jets_up_to`` and ``momenta_up_to`` list them.  Its rows read
those coordinates and their comma-derivatives c,_i, coordinates of the same
context that sort right after c.  Each row list walks one such list: ELH and
HDW have a momentum row per jet and a contact row per momentum of the fiber,
and the constraints and the Hessian walk the top jets (``_top_jets``).

The momentum equations carry the contraction term over all distinct (J, i)
with Ji = I (each counted once), at every level |I| <= l+1; at |I| = l+1 the
divergence term is absent, which turns those rows into the algebraic
constraints cutting out the constraint manifold.  Reduction solves the
constraints for top jets where possible, then the leftover pure-momentum
relations for dependent momenta (both by symcore.eliminate, the one exact
elimination, which also gives the Hessian its rank), restricts the energy
density, and emits the Hamilton-de Donder-Weyl equation system.  Each
constraint row is built once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .multiindex import MultiIndex
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


def _top_jets(lag: LagrangianDensity) -> List[CoordinateId]:
    """The jets u_K^a with |K| = l+1, in the order of ``jets_up_to(l+1)``."""
    top = lag.level + 1
    return [c for c in lag.context.jets_up_to(top) if len(c.index) == top]


def _elh_fiber(lag: LagrangianDensity) -> List[CoordinateId]:
    """The jets u_I^a with |I| <= l+1, then the momenta p_a^{I.i} with |I| <= l."""
    return lag.context.jets_up_to(lag.level + 1) + lag.context.momenta_up_to(lag.level)


def _row_label(ctx: JetContext, c: CoordinateId) -> str:
    """The label of the row of a fiber coordinate: mom:a:I for the jet u_I^a,
    contact:a:I:i for the momentum p_a^{I.i} (the contact row of u_I,_i)."""
    word = f"{ctx.dependents[c.alpha]}:{ctx.index_word(c.index)}"
    return f"mom:{word}" if c.kind == JET else f"contact:{word}:{ctx.independents[c.i]}"


def _momentum_residual(gradient: Dict[CoordinateId, Expr], u: CoordinateId) -> Expr:
    """dL/du_I^a - sum_{Ji=I} p_a^{J.i}, in the base context, from L's gradient."""
    return Expr.sum([gradient.get(u, Expr.zero())] + [
        -Expr.coord(CoordinateId.momentum(u.alpha, J, i)) for J, i, _mult in u.index.removals()])


def elh_system(lag: LagrangianDensity) -> EquationSystem:
    """The mixed first-order system at the density's level l.

    Momentum rows (residual orientation dL/du_I - contraction - divergence),
    one per jet of the fiber:

        d_a^I L - sum_{Ji=I} p_a^{J.i} - sum_i (p_a^{I.i}),_i = 0,   |I| <= l+1,

    with the divergence absent at |I| = l+1 (the algebraic constraint rows),
    and contact rows (u_I),_i - u_{Ii} = 0, one per momentum p_I.i of the fiber.
    """
    ctx = lag.context
    l = lag.level
    comma = CoordinateId.comma
    gradient = lag.L.gradient()
    fiber = _elh_fiber(lag)
    rows: List[Tuple[str, Expr]] = []
    for c in fiber:
        if c.kind == JET:
            parts = [_momentum_residual(gradient, c)]
            if len(c.index) <= l:
                parts += [-Expr.coord(comma(CoordinateId.momentum(c.alpha, c.index, i), i))
                          for i in range(ctx.n)]
            res = Expr.sum(parts)
        else:
            res = Expr.coord(comma(CoordinateId.jet(c.alpha, c.index), c.i)) \
                - Expr.coord(CoordinateId.jet(c.alpha, c.index.with_index(c.i)))
        rows.append((_row_label(ctx, c), res))
    return EquationSystem(ctx, tuple(rows), fiber=fiber, level=l)


def constraints(lag: LagrangianDensity) -> EquationSystem:
    """The algebraic rows cutting out the constraint manifold:
    dL/du_I^a - sum_{Ji=I} p_a^{J.i} = 0 for |I| = l+1, in the base context."""
    ctx = lag.context
    gradient = lag.L.gradient()
    rows = tuple((f"constraint:{ctx.dependents[u.alpha]}:{ctx.index_word(u.index)}",
                  _momentum_residual(gradient, u)) for u in _top_jets(lag))
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
    tops = _top_jets(lag)
    idx = [(u.alpha, u.index) for u in tops]
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
    return [Expr.coord(p) * Expr.coord(CoordinateId.jet(p.alpha, p.index.with_index(p.i)))
            for p in ctx.momenta_up_to(level)]


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


def _restricted_energy(lag: LagrangianDensity, factors: Mapping[CoordinateId, Expr],
                       subs: Dict[CoordinateId, Expr]) -> Expr:
    """E_l under subs, from its form modulo the constraint rows (see
    reduce_lagrangian), with factors[K] = b_K - P_K for each top jet K."""
    L0 = Expr([t for t in lag.L.terms if factors.keys().isdisjoint([c for c, _ in t[0]])])
    parts = [Expr.sum([-L0] + _pairings(lag.context, lag.level - 1)).substitute(subs)]
    # each factor is substituted on its own and multiplied by the image of u_K
    parts += [factor.substitute(subs).scale(Q(-1, 2)) * subs.get(K, Expr.coord(K))
              for K, factor in factors.items()]
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
    coordinates P0, where the HDW system is emitted.  P is the ELH fiber less
    the eliminated coordinates, and P0 is P less its top jets.

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
    substituted E_l.  Each b_K - P_K is the part of C_K free of top jets, as
    stage 1 splits it off the row: its image times the solution for u_K is
    one product, and one sum gathers the products.

    Once both stages succeed the restricted energy reads no top jet, so its
    check ("restricted energy retains top jets") is a guard no density
    reaches: dE_l/du_K = -C_K, and the solutions read no top jet but the
    surviving ones (stage 2's, from rows free of jets, read no jet), so by
    the chain rule its partial in a surviving top jet is a combination of
    substituted constraint rows, each 0.
    """
    ctx = lag.context
    tops = _top_jets(lag)
    top_set = set(tops)
    rows = _linear_rows(dict(constraints(lag).equations), top_set)
    if rows is None:
        return ReducedSystem("irreducible: nonlinear constraints", (), (), {}, None, None)
    # b_K - P_K, read before eliminate, which keeps its rows as given anyway
    factors = {K: row[None] for K, row in zip(tops, rows.values())}

    solutions, left = eliminate(rows, tops)
    subs = {c: _row_expr(solution) for c, solution in solutions.items()}
    left = {label: _row_expr(row) for label, row in left.items()}
    offending = tuple(label for label, res in left.items()
                      if any(c.kind == JET for c in res.coordinates()))
    if offending:
        return ReducedSystem("Assumption 1 check failed", (), (), subs, None, None, offending)
    if left:
        momenta = set(ctx.momenta_up_to(lag.level))
        solutions, left = eliminate(_linear_rows(left, momenta), sorted(momenta, reverse=True),
                                    _linear_rows(subs, momenta))
        if left:
            raise AssertionError("internal error: a constraint row has no momentum to solve for")
        subs = {c: _row_expr(solution) for c, solution in solutions.items()}

    energy_p = _restricted_energy(lag, factors, subs)
    if any(c in top_set for c in energy_p.coordinates()):
        return ReducedSystem("Assumption 1 check failed", (), (), subs, None, None,
                             ("restricted energy retains top jets",))

    p_fiber = [c for c in _elh_fiber(lag) if c not in subs]
    p0_fiber = [c for c in p_fiber if c not in top_set]
    independents = tuple(CoordinateId.independent(i) for i in range(ctx.n))
    system_hdw = EquationSystem(ctx, _reduced_rows(ctx, subs, energy_p, p0_fiber),
                                fiber=p0_fiber, level=lag.level)
    diagnosis = "regular" if subs.keys() == top_set else "reducible"
    return ReducedSystem(diagnosis, independents + tuple(p_fiber),
                         independents + tuple(p0_fiber), subs, energy_p, system_hdw)


def _reduced_rows(ctx: JetContext, subs: Dict[CoordinateId, Expr], energy_p: Expr,
                  p0_fiber: Sequence[CoordinateId]) -> Tuple[Tuple[str, Expr], ...]:
    """PD-Hamilton rows of the restricted system on P0: a momentum row per
    lower jet and a contact row per surviving momentum."""
    comma = CoordinateId.comma
    zero = Expr.zero()
    d_energy = energy_p.gradient()
    solved = {pm: phi for pm, phi in subs.items() if pm.kind == MOMENTUM}
    gradients = {pm: phi.gradient() for pm, phi in solved.items()}
    # p,_i of an eliminated momentum is D_i of its solution, which reads
    # surviving momenta only; a surviving one's is its own comma-derivative
    images = comma_images(solved, ctx.n)
    rows: List[Tuple[str, Expr]] = []
    for c in p0_fiber:
        if c.kind == JET:
            commas = [comma(CoordinateId.momentum(c.alpha, c.index, i), i) for i in range(ctx.n)]
            res = Expr.sum([-d_energy.get(c, zero)]
                           + [-images.get(pc, Expr.coord(pc)) for pc in commas])
        else:
            # the chain rule through each eliminated momentum that reads c
            parts = [gradient[c] * Expr.coord(comma(CoordinateId.jet(o.alpha, o.index), o.i))
                     for o, gradient in gradients.items() if c in gradient]
            res = Expr.sum([Expr.coord(comma(CoordinateId.jet(c.alpha, c.index), c.i))]
                           + parts + [-d_energy.get(c, zero)])
        if not res.is_zero():
            rows.append((_row_label(ctx, c), res))
    return tuple(rows)
