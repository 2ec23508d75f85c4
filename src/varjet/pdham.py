"""Momentum-side constructions: ELH systems, constraints, Hessian, reduction, HDW.

The mixed first-order systems live in a *derived* first-order context whose
dependents are all jet coordinates u_I^a with |I| <= l+1 and all momenta
p_a^{I.i} with |I| <= l; comma-derivatives are the first jets of that context.

The momentum equations carry the contraction term over all distinct (J, i)
with Ji = I (each counted once), at every level |I| <= l+1; at |I| = l+1 the
divergence term is absent, which turns those rows into the algebraic
constraints cutting out the constraint manifold.  Reduction solves the
constraints for top jets where possible (exact linear algebra over rational
coefficients), eliminates dependent momenta from the leftover pure-momentum
relations, restricts the energy density, and emits the reduced and the
Hamilton-de Donder-Weyl equation systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .multiindex import EMPTY, MultiIndex, multiindices, multiindices_up_to
from .symcore import (
    INDEPENDENT,
    JET,
    MOMENTUM,
    CoordinateId,
    Expr,
    JetContext,
    VarjetError,
    WrongDomainError,
    render,
    row_echelon,
)
from .jetcalc import EquationSystem, total_derivative
from .variational import LagrangianDensity


class DegenerateLagrangianError(VarjetError):
    pass


class DerivedContext:
    """First-order context over an explicit list of base fiber coordinates.

    Dependents are the given jets and momenta of the base context (their base
    names become opaque dependent names, rendered comma-style); ``embed`` maps
    a base expression into it, ``dep``/``comma`` give the zero-jet and the
    formal first derivative of a fiber coordinate.
    """

    def __init__(self, base: JetContext, level: int,
                 fiber: Optional[Sequence[CoordinateId]] = None):
        self.base = base
        self.level = level
        if fiber is None:
            fiber = base.jets_up_to(level + 1) + base.momenta_up_to(level)
        self.fiber: Tuple[CoordinateId, ...] = tuple(fiber)
        self._alpha: Dict[CoordinateId, int] = {c: k for k, c in enumerate(self.fiber)}
        self.ctx = JetContext(
            independents=base.independents,
            dependents=tuple(base.name(c) for c in self.fiber),
            max_order=1,
            auto_extend=base.auto_extend,
            jet_style="comma",
        )

    def contains(self, c: CoordinateId) -> bool:
        return c in self._alpha

    def dep(self, c: CoordinateId) -> CoordinateId:
        return CoordinateId.jet(self._alpha[c], EMPTY)

    def comma(self, c: CoordinateId, i: int) -> CoordinateId:
        return CoordinateId.jet(self._alpha[c], MultiIndex.of(i))

    def base_coordinate(self, alpha: int) -> CoordinateId:
        return self.fiber[alpha]

    def embed(self, e: Expr) -> Expr:
        """Base expression (jets and momenta of the fiber) -> derived expression."""
        mapping: Dict[CoordinateId, Expr] = {}
        for c in e.coordinates():
            if c.kind == INDEPENDENT:
                continue
            if c not in self._alpha:
                raise WrongDomainError(
                    f"coordinate {self.base.name(c)} is not part of the derived fiber")
            mapping[c] = Expr.coord(self.dep(c))
        return e.substitute(mapping)


def _momentum_label(ctx: JetContext, alpha: int, I: MultiIndex) -> str:
    return f"mom:{ctx.dependents[alpha]}:{ctx.index_word(I)}"


def _contact_label(ctx: JetContext, alpha: int, I: MultiIndex, i: int) -> str:
    return f"contact:{ctx.dependents[alpha]}:{ctx.index_word(I)}:{ctx.independents[i]}"


def _momentum_residual(lag: LagrangianDensity, alpha: int, I: MultiIndex) -> Expr:
    """dL/du_I^a - sum_{Ji=I} p_a^{J.i}, in the base context."""
    return Expr.sum([lag.L.partial(CoordinateId.jet(alpha, I))] + [
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
    dc = DerivedContext(ctx, l)
    rows: List[Tuple[str, Expr]] = []
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l + 1):
            parts = [dc.embed(_momentum_residual(lag, alpha, I))]
            if len(I) <= l:
                parts += [-Expr.coord(dc.comma(CoordinateId.momentum(alpha, I, i), i))
                          for i in range(ctx.n)]
            rows.append((_momentum_label(ctx, alpha, I), Expr.sum(parts)))
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l):
            for i in range(ctx.n):
                res = Expr.coord(dc.comma(CoordinateId.jet(alpha, I), i)) \
                    - Expr.coord(dc.dep(CoordinateId.jet(alpha, I.with_index(i))))
                rows.append((_contact_label(ctx, alpha, I, i), res))
    return EquationSystem(dc.ctx, tuple(rows), derived=dc)


def constraints(lag: LagrangianDensity) -> EquationSystem:
    """The algebraic rows cutting out the constraint manifold:
    dL/du_I^a - sum_{Ji=I} p_a^{J.i} = 0 for |I| = l+1, in the base context."""
    ctx = lag.context
    rows = tuple((f"constraint:{ctx.dependents[alpha]}:{ctx.index_word(I)}",
                  _momentum_residual(lag, alpha, I))
                 for alpha in range(ctx.m) for I in multiindices(ctx.n, lag.level + 1))
    return EquationSystem(ctx, rows)


@dataclass(frozen=True)
class HessianMatrix:
    """Symbolic matrix of second partials in the top-order jets."""

    index: Tuple[Tuple[int, MultiIndex], ...]
    entries: Tuple[Tuple[Expr, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.index)


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


def hessian(lag: LagrangianDensity, *, samples: int = 5,
            seed: int = 0) -> Tuple[HessianMatrix, RankReport]:
    """The Hessian in the jets of order l+1, with a sampled exact-rank report.

    The rank is computed by exact elimination after evaluating the jet
    coordinates at random rational points; the report carries the maximum
    observed rank and whether it stayed constant across samples (the verdict
    is probabilistic, repetitions and seed configurable).  The matrix is
    symmetric: each entry on or above the diagonal is built and evaluated
    once, from the gradient in the top jets, and mirrored.
    """
    ctx = lag.context
    l = lag.level
    idx = [(alpha, I) for alpha in range(ctx.m) for I in multiindices(ctx.n, l + 1)]
    tops = [CoordinateId.jet(alpha, I) for alpha, I in idx]
    gradient = [lag.L.partial(top) for top in tops]
    upper = [[gradient[r].partial(tops[c]) for c in range(r, len(tops))]
             for r in range(len(tops))]
    matrix = HessianMatrix(tuple(idx), tuple(map(tuple, _symmetric(upper))))

    coords = sorted({c for row in upper for e in row for c in e.coordinates()},
                    key=lambda c: c.sort_key())
    rng = random.Random(seed)
    ranks = []
    for _ in range(max(1, samples)):
        point = {c: Expr.number(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for c in coords}
        values = [[e.substitute(point).constant_value() for e in row] for row in upper]
        if any(v is None for row in values for v in row):
            raise AssertionError("internal error: Hessian entry failed to evaluate")
        ranks.append(len(row_echelon(_symmetric(values))[1]))
    rank = max(ranks)
    report = RankReport(dim=len(idx), rank=rank, regular=(rank == len(idx)),
                        rank_constant=(len(set(ranks)) == 1), ranks=tuple(ranks),
                        samples=max(1, samples), seed=seed)
    return matrix, report


def energy_density(lag: LagrangianDensity) -> Expr:
    """E_l = sum_{|I|<=l} p_a^{I.i} u_{Ii}^a - L, in the base context."""
    ctx = lag.context
    l = lag.level
    pairings = [Expr.coord(CoordinateId.momentum(alpha, I, i))
                * Expr.coord(CoordinateId.jet(alpha, I.with_index(i)))
                for alpha in range(ctx.m)
                for I in multiindices_up_to(ctx.n, l)
                for i in range(ctx.n)]
    return Expr.sum([-lag.L] + pairings)


def momentum_shift(system: EquationSystem, rho: Sequence[Expr]) -> EquationSystem:
    """Image of a mixed system under the momentum-shift automorphism of d^V rho.

    rho = (rho^1 .. rho^n) is jet-side of order <= l; the shift substitutes
    p_a^{I.i} -> p_a^{I.i} - d_a^I rho^i throughout (comma-derivatives of
    momenta pick up the corresponding total derivative) and renormalizes.
    With this orientation the system of L + sum_i D_i rho^i coincides row by
    row with the shifted system of L.
    """
    dc: DerivedContext = system.derived
    if dc is None:
        raise VarjetError("momentum_shift needs a system generated with a derived context")
    base = dc.base
    if len(rho) != base.n:
        raise VarjetError(f"need one shift component per independent variable ({base.n})")
    l = dc.level
    for r in rho:
        for c in r.coordinates():
            if c.kind == MOMENTUM:
                raise WrongDomainError("shift components are jet-side expressions")
        if r.max_jet_order() > l:
            raise VarjetError(
                f"shift component order {r.max_jet_order()} too high for momentum level {l}")
    work = base if base.auto_extend else base.extended(max(base.max_order, l + 1) + 1)
    mapping: Dict[CoordinateId, Expr] = {}
    for alpha in range(base.m):
        for I in multiindices_up_to(base.n, l):
            for i in range(base.n):
                theta = rho[i].partial(CoordinateId.jet(alpha, I))
                if theta.is_zero():
                    continue
                pm = CoordinateId.momentum(alpha, I, i)
                mapping[dc.dep(pm)] = Expr.coord(dc.dep(pm)) - dc.embed(theta)
                for j in range(base.n):
                    mapping[dc.comma(pm, j)] = Expr.coord(dc.comma(pm, j)) \
                        - dc.embed(total_derivative(theta, j, work))
    rows = tuple((label, res.substitute(mapping)) for label, res in system.equations)
    return EquationSystem(dc.ctx, rows, derived=dc)


@dataclass(frozen=True)
class ReducedSystem:
    """Outcome of the constraint reduction.

    ``substitutions`` eliminates top jets solved from the constraints and the
    dependent momenta from the leftover pure-momentum relations; eliminated
    coordinates appear in no reduced residual and not in the restricted
    energy.  ``system_constraint`` is the equation system on the constraint
    manifold, ``system_hdw`` the same formulas on the projected coordinates;
    ``hamiltonian`` is the restricted energy read as a function there.
    """

    diagnosis: str
    hessian_report: RankReport
    p_coordinates: Tuple[CoordinateId, ...]
    p0_coordinates: Tuple[CoordinateId, ...]
    substitutions: Dict[CoordinateId, Expr]
    energy_on_constraint: Optional[Expr]
    hamiltonian: Optional[Expr]
    system_constraint: Optional[EquationSystem]
    system_hdw: Optional[EquationSystem]
    offending: Tuple[str, ...] = ()


def _is_affine_in(res: Expr, tops: set) -> bool:
    for mono, _ in res.terms:
        if sum(e for c, e in mono if c in tops) > 1:
            return False
    return True


def _pivot(res: Expr, candidates) -> Optional[Tuple[CoordinateId, Fraction]]:
    """The first candidate whose coefficient in res is a nonzero rational, with it."""
    for c in candidates:
        coeff = res.coefficient_of(c).constant_value()
        if coeff:
            return c, coeff
    return None


def reduce_lagrangian(lag: LagrangianDensity, *, samples: int = 5,
                      seed: int = 0) -> ReducedSystem:
    """Two-stage reduction of the constraint rows.

    Stage 1 solves constraint rows for top jets wherever a top jet carries a
    nonzero rational coefficient (exact elimination, deterministic order);
    rows left over must be free of jet coordinates.  Stage 2 eliminates one
    dependent momentum per leftover row (largest admissible pivot first, so
    the surviving momenta are the canonically smallest).  The restricted
    energy must then be free of top jets; it becomes the Hamiltonian on the
    projected coordinates and both reduced equation systems are emitted.
    """
    ctx = lag.context
    l = lag.level
    _, report = hessian(lag, samples=samples, seed=seed)
    energy = energy_density(lag)
    cons = constraints(lag)
    tops_ordered = [c for c in ctx.jets_up_to(l + 1) if len(c.index) == l + 1]
    tops = set(tops_ordered)

    def partial_result(diagnosis: str, offending=()) -> ReducedSystem:
        return ReducedSystem(diagnosis, report, (), (), dict(subs),
                             None, None, None, None, tuple(offending))

    subs: Dict[CoordinateId, Expr] = {}
    if not all(_is_affine_in(res, tops) for _, res in cons.equations):
        return partial_result("irreducible: nonlinear constraints")

    def eliminate(coord: CoordinateId, coeff: Fraction, res: Expr,
                  rows: List[Tuple[str, Expr]]) -> List[Tuple[str, Expr]]:
        """Solve res = 0 for coord; substitute it into rows (returned) and earlier solutions."""
        solved = res.substitute({coord: Expr.zero()}).scale(Fraction(-1) / coeff)
        subs[coord] = solved
        rows = [(lb, r.substitute({coord: solved})) for lb, r in rows]
        for key in list(subs):
            subs[key] = subs[key].substitute({coord: solved})
        return rows

    # stage 1: solve rows for top jets with rational coefficients, rescanning
    # from the first row after each elimination
    pending: List[Tuple[str, Expr]] = list(cons.equations)
    k = 0
    while k < len(pending):
        pivot = _pivot(pending[k][1], [jet for jet in tops_ordered if jet not in subs])
        if pivot is None:
            k += 1
        else:
            pending = eliminate(*pivot, pending[k][1], pending[:k] + pending[k + 1:])
            k = 0

    leftovers = [(lb, r) for lb, r in pending if not r.is_zero()]
    offending = [lb for lb, r in leftovers
                 if any(c.kind == JET for c in r.coordinates())]
    if offending:
        return partial_result("Assumption 1 check failed", offending)

    # stage 2: eliminate dependent momenta from the pure-momentum relations
    while leftovers:
        label, res = leftovers.pop(0)
        pivot = _pivot(res, [c for c in reversed(res.coordinates()) if c.kind == MOMENTUM])
        if pivot is None:
            if res.constant_value() is not None:
                raise DegenerateLagrangianError(
                    f"inconsistent constraint row {label!r}: "
                    f"{render(res, ctx, 'plain')} = 0")
            return partial_result("Assumption 1 check failed", [label])
        leftovers = [(lb, r) for lb, r in eliminate(*pivot, res, leftovers) if not r.is_zero()]

    energy_p = energy.substitute(subs)
    if any(c in tops for c in energy_p.coordinates()):
        return partial_result("Assumption 1 check failed",
                              ["restricted energy retains top jets"])

    surviving_tops = [c for c in tops_ordered if c not in subs]
    lower_jets = ctx.jets_up_to(l)
    surviving_momenta = [c for c in ctx.momenta_up_to(l) if c not in subs]
    independents = [CoordinateId.independent(i) for i in range(ctx.n)]
    p0_fiber = sorted(lower_jets + surviving_momenta, key=lambda c: c.sort_key())
    p_fiber = sorted(p0_fiber + surviving_tops, key=lambda c: c.sort_key())

    # the rows read P0 coordinates only; P's fiber lists P0 first, so the
    # rows built on P0 are rows on P unchanged
    dc_hdw = DerivedContext(ctx, l, p0_fiber)
    rows = _reduced_rows(lag, subs, energy_p, dc_hdw)
    system_hdw = EquationSystem(dc_hdw.ctx, rows, derived=dc_hdw)
    dc_p = DerivedContext(ctx, l, p0_fiber + surviving_tops)
    system_p = EquationSystem(dc_p.ctx, rows, derived=dc_p)
    regular = not surviving_tops and not any(c.kind == MOMENTUM for c in subs)
    diagnosis = "regular" if regular else "reducible"
    return ReducedSystem(
        diagnosis, report,
        tuple(independents + p_fiber), tuple(independents + p0_fiber),
        subs, energy_p, energy_p, system_p, system_hdw)


def _comma_image(dc: DerivedContext, subs: Dict[CoordinateId, Expr],
                 pm: CoordinateId, i: int) -> Expr:
    """Formal i-derivative of a (possibly eliminated) momentum on the reduced space."""
    if dc.contains(pm):
        return Expr.coord(dc.comma(pm, i))
    phi = subs[pm]
    return Expr.sum([dc.embed(phi.partial(CoordinateId.independent(i)))] + [
        dc.embed(phi.partial(c)) * Expr.coord(dc.comma(c, i))
        for c in phi.coordinates() if c.kind != INDEPENDENT])


def _reduced_rows(lag: LagrangianDensity, subs: Dict[CoordinateId, Expr],
                  energy_p: Expr, dc: DerivedContext) -> Tuple[Tuple[str, Expr], ...]:
    """PD-Hamilton rows of the restricted system on the given fiber coordinates."""
    ctx = lag.context
    l = lag.level
    rows: List[Tuple[str, Expr]] = []
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l):
            jet = CoordinateId.jet(alpha, I)
            res = Expr.sum([-dc.embed(energy_p.partial(jet))] + [
                -_comma_image(dc, subs, CoordinateId.momentum(alpha, I, i), i)
                for i in range(ctx.n)])
            if not res.is_zero():
                rows.append((_momentum_label(ctx, alpha, I), res))
    eliminated = [(pm, phi) for pm, phi in subs.items() if pm.kind == MOMENTUM]
    for alpha in range(ctx.m):
        for I in multiindices_up_to(ctx.n, l):
            for j in range(ctx.n):
                pm = CoordinateId.momentum(alpha, I, j)
                if not dc.contains(pm):
                    continue
                parts = [Expr.coord(dc.comma(CoordinateId.jet(alpha, I), j))]
                for other, phi in eliminated:
                    weight = phi.partial(pm)
                    if not weight.is_zero():
                        parts.append(dc.embed(weight) * Expr.coord(
                            dc.comma(CoordinateId.jet(other.alpha, other.index), other.i)))
                parts.append(-dc.embed(energy_p.partial(pm)))
                res = Expr.sum(parts)
                if not res.is_zero():
                    rows.append((_contact_label(ctx, alpha, I, j), res))
    return tuple(rows)

