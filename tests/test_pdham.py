"""ELH systems, constraints, Hessian reports, energy, shift, reduction."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import KDV_L, jet_pool, random_expr, random_lagrangian
from varjet import cli
from varjet.jetcalc import EquationSystem, total_derivative
from varjet.multiindex import EMPTY, MultiIndex, multiindices_up_to
from varjet.pdham import (
    DerivedContext,
    constraints,
    elh_system,
    energy_density,
    hessian,
    momentum_shift,
    reduce_lagrangian,
)
from varjet.symcore import (
    CoordinateId,
    Expr,
    JetContext,
    VarjetError,
    parse,
    render,
    row_echelon,
)
from varjet.variational import LagrangianDensity, legendre_form


def rows_by_label(system):
    return dict(system.equations)


def canon(system):
    return system.canonical_residual_set()


def expected_rows(dc, texts):
    """Parse expected residual strings in the derived context, as a sign-blind multiset."""
    return Counter(parse(t, dc.ctx).sign_normalized() for t in texts)


# -- ELH ---------------------------------------------------------------------

def test_elh_mechanics_free_particle():
    ctx = JetContext(("t",), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    system = elh_system(lag)
    assert canon(system) == expected_rows(system.derived, [
        "p_.t,_t", "u_t - p_.t", "u,_t - u_t"])


def test_elh_zero_lagrangian():
    ctx = JetContext(("x",), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    system = elh_system(lag)
    assert canon(system) == expected_rows(system.derived, [
        "p_.x,_x", "p_.x", "u,_x - u_x"])


def test_elh_kdv_full_system(kdv):
    """All twelve scalar rows at l = 1.  The |I| = 1 momentum rows carry the
    level-0 contraction terms (p_.t, p_.x): the general formula forces them,
    as do Legendre transport and the divergence-shift equivalence."""
    system = elh_system(kdv)
    assert len(system.equations) == 12
    assert canon(system) == expected_rows(system.derived, [
        "p_.t,_t + p_.x,_x",
        "p_t.t,_t + p_t.x,_x + 1/2*u_x + p_.t",
        "p_x.t,_t + p_x.x,_x - 3*u_x^2 + 1/2*u_t + p_.x",
        "p_t.t",
        "p_t.x + p_x.t",
        "p_x.x - u_xx",
        "u,_t - u_t",
        "u,_x - u_x",
        "u_t,_t - u_tt",
        "u_t,_x - u_tx",
        "u_x,_t - u_tx",
        "u_x,_x - u_xx",
    ])


def test_elh_constraint_rows_match_constraints_randomized():
    # the |I| = l+1 rows of the mixed system are exactly the constraint rows
    rng = random.Random(43)
    for _ in range(25):
        lag = random_lagrangian(rng, max_order=2)
        system = elh_system(lag)
        dc = system.derived
        for lab, res in constraints(lag).equations:
            assert system_row(system, f"mom:{lab.split(':', 1)[1]}") == dc.embed(res)


def system_row(system, label):
    for lab, res in system.equations:
        if lab == label:
            return res
    raise KeyError(label)


# -- constraints --------------------------------------------------------------

def test_constraints_kdv(kdv, ctx_tx):
    cons = constraints(kdv)
    got = canon(cons)
    assert got == Counter(parse(t, ctx_tx).sign_normalized() for t in [
        "p_t.t", "p_t.x + p_x.t", "p_x.x - u_xx"])


def test_constraints_wave_first_order():
    ctx = JetContext(("t", "x"), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx))
    cons = constraints(lag)
    assert canon(cons) == Counter(parse(t, ctx).sign_normalized() for t in [
        "p_.t - u_t", "p_.x + u_x"])


def test_constraints_zero_lagrangian():
    ctx = JetContext(("t", "x"), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    cons = constraints(lag)
    assert canon(cons) == Counter(parse(t, ctx).sign_normalized() for t in [
        "p_.t", "p_.x"])


def test_top_level_legendre_agreement_randomized():
    # substituting the canonical Legendre coefficients for the momenta kills
    # the constraint rows exactly
    rng = random.Random(47)
    for _ in range(20):
        lag = random_lagrangian(rng, max_order=3)
        theta = legendre_form(lag)
        cons = constraints(lag)
        binding = {
            CoordinateId.momentum(alpha, index, i): theta.coefficient(alpha, index, i)
            for alpha in range(lag.context.m)
            for index in multiindices_up_to(lag.context.n, lag.level)
            for i in range(lag.context.n)}
        for _, res in cons.equations:
            assert res.substitute(binding) == Expr.zero()


# -- Hessian -------------------------------------------------------------------

def test_hessian_kdv(kdv):
    matrix, report = hessian(kdv, samples=5, seed=0)
    assert report.dim == 3 and report.rank == 1 and not report.regular
    assert report.rank_constant
    # single nonzero entry at the (u_xx, u_xx) diagonal position
    nonzero = {(r, c) for r, row in enumerate(matrix.entries)
               for c, e in enumerate(row) if not e.is_zero()}
    xx = matrix.index.index((0, MultiIndex.of(1, 1)))
    assert nonzero == {(xx, xx)}
    assert matrix.entries[xx][xx] == Expr.number(1)


def test_hessian_regular_1x1():
    ctx = JetContext(("x",), ("u",), max_order=4)
    lag = LagrangianDensity(ctx, parse("1/2*u_xx^2", ctx))
    _, report = hessian(lag)
    assert report.dim == 1 and report.rank == 1 and report.regular


def test_hessian_linear_in_top_jets():
    ctx = JetContext(("t", "x"), ("u",), max_order=4)
    lag = LagrangianDensity(ctx, parse("u*u_tt + u_x*u_tx", ctx), order=2)
    _, report = hessian(lag)
    assert report.rank == 0 and not report.regular


def test_hessian_symmetry_randomized():
    rng = random.Random(53)
    for _ in range(20):
        lag = random_lagrangian(rng)
        matrix, _ = hessian(lag, samples=1)
        dim = matrix.dim
        for r in range(dim):
            for c in range(dim):
                assert matrix.entries[r][c] == matrix.entries[c][r]


def test_hessian_seed_determinism(kdv):
    _, r1 = hessian(kdv, samples=5, seed=42)
    _, r2 = hessian(kdv, samples=5, seed=42)
    assert r1 == r2


def test_hessian_matches_double_partials_randomized():
    # the mirrored upper triangle is the matrix of second partials, and the
    # sampled ranks are those of the full matrix at the same random points
    rng = random.Random(89)
    for _ in range(40):
        n, m, order = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        ctx = JetContext(("t", "x", "y")[:n], ("u", "v")[:m], max_order=2 * order + 2)
        pool = jet_pool(ctx, order, include_independents=False)
        tops = [c for c in pool if len(c.index) == order]
        L = random_expr(rng, tops + pool, max_monomials=6)
        lag = LagrangianDensity(ctx, L, order=order)
        seed = rng.randint(0, 99)
        matrix, report = hessian(lag, samples=3, seed=seed)
        assert [CoordinateId.jet(a, I) for a, I in matrix.index] == tops
        assert matrix.entries == tuple(tuple(L.partial(r).partial(c) for c in tops)
                                       for r in tops)
        coords = sorted({c for row in matrix.entries for e in row for c in e.coordinates()},
                        key=lambda c: c.sort_key())
        draws = random.Random(seed)
        ranks = []
        for _ in range(3):
            point = {c: Expr.number(Fraction(draws.randint(-9, 9), draws.randint(1, 9)))
                     for c in coords}
            ranks.append(len(row_echelon([[e.substitute(point).constant_value() for e in row]
                                          for row in matrix.entries])[1]))
        assert report.ranks == tuple(ranks)


# -- energy density -------------------------------------------------------------

def test_energy_kdv(kdv, ctx_tx):
    assert energy_density(kdv) == parse(
        "p_.t*u_t + p_.x*u_x + p_t.t*u_tt + (p_t.x + p_x.t)*u_tx + p_x.x*u_xx"
        " - u_x^3 + 1/2*u_x*u_t - 1/2*u_xx^2", ctx_tx)


def test_energy_zero_lagrangian():
    ctx = JetContext(("x",), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    assert energy_density(lag) == parse("p_.x*u_x", ctx)


def test_energy_mechanics():
    ctx = JetContext(("t",), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    assert energy_density(lag) == parse("p_.t*u_t - 1/2*u_t^2", ctx)


# -- momentum shift --------------------------------------------------------------

def test_shift_identity(kdv):
    system = elh_system(kdv)
    shifted = momentum_shift(system, [Expr.zero(), Expr.zero()])
    assert shifted.equations == system.equations


def test_shift_mechanics_constant():
    # rho = c*u with c = 3: both derivation paths agree row by row
    ctx = JetContext(("t",), ("u",), max_order=2)
    L = parse("1/2*u_t^2", ctx)
    rho = [parse("3*u", ctx)]
    div = total_derivative(rho[0], 0, ctx)
    direct = elh_system(LagrangianDensity(ctx, L + div, order=1))
    shifted = momentum_shift(elh_system(LagrangianDensity(ctx, L)), rho)
    assert canon(direct) == canon(shifted)


def test_shift_kdv_x_divergence(kdv, ctx_tx):
    rho = [Expr.zero(), parse("u^2", ctx_tx)]
    div = total_derivative(rho[1], 1, ctx_tx)
    direct = elh_system(LagrangianDensity(ctx_tx, kdv.L + div, order=2))
    shifted = momentum_shift(elh_system(kdv), rho)
    assert canon(direct) == canon(shifted)


def test_shift_equivalence_randomized():
    rng = random.Random(59)
    for _ in range(30):
        lag = random_lagrangian(rng, max_order=2)
        ctx = lag.context
        l = lag.level
        pool = jet_pool(ctx, l, include_independents=False)
        rho = [random_expr(rng, pool, max_monomials=2, max_exp=2) for _ in range(ctx.n)]
        work = ctx.extended(2 * lag.order + 2)
        div = Expr.zero()
        for i in range(ctx.n):
            div = div + total_derivative(rho[i], i, work)
        direct = elh_system(
            LagrangianDensity(ctx, lag.L + div, order=max(lag.order, div.max_jet_order())))
        shifted = momentum_shift(elh_system(lag), rho)
        assert canon(direct) == canon(shifted)


def test_shift_rho_order_too_high(kdv, ctx_tx):
    with pytest.raises(VarjetError):
        momentum_shift(elh_system(kdv), [Expr.zero(), parse("u_xx", ctx_tx)])


# -- reduction --------------------------------------------------------------------

def test_reduce_kdv(kdv, ctx_tx):
    red = reduce_lagrangian(kdv)
    assert red.diagnosis == "reducible"
    names = [ctx_tx.name(c) for c in red.p_coordinates]
    assert names == ["t", "x", "u", "u_t", "u_x", "u_tt", "u_tx",
                     "p_.t", "p_.x", "p_t.x", "p_x.x"]
    assert [ctx_tx.name(c) for c in red.p0_coordinates] == \
        ["t", "x", "u", "u_t", "u_x", "p_.t", "p_.x", "p_t.x", "p_x.x"]
    subs = {ctx_tx.name(c): e for c, e in red.substitutions.items()}
    assert subs["u_xx"] == parse("p_x.x", ctx_tx)
    assert subs["p_t.t"] == Expr.zero()
    assert subs["p_x.t"] == parse("-p_t.x", ctx_tx)
    assert red.energy_on_constraint == parse(
        "p_.t*u_t + p_.x*u_x + 1/2*p_x.x^2 - u_x^3 + 1/2*u_x*u_t", ctx_tx)
    expected = [
        "p_.t,_t + p_.x,_x",
        "p_t.x,_x + 1/2*u_x + p_.t",
        "p_t.x,_t - p_x.x,_x + 3*u_x^2 - 1/2*u_t - p_.x",
        "u,_t - u_t",
        "u,_x - u_x",
        "u_t,_x - u_x,_t",
        "u_x,_x - p_x.x",
    ]
    assert canon(red.system_constraint) == expected_rows(red.system_constraint.derived, expected)
    # the projected system has the same coordinate formulas
    assert canon(red.system_hdw) == expected_rows(red.system_hdw.derived, expected)


def test_reduce_wave_hand_legendre_oracle():
    # hand oracle: p^t = u_t, p^x = -u_x, H = (p^t)^2/2 - (p^x)^2/2
    ctx = JetContext(("t", "x"), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx))
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "regular"
    assert red.hamiltonian == parse("1/2*p_.t^2 - 1/2*p_.x^2", ctx)
    assert canon(red.system_hdw) == expected_rows(red.system_hdw.derived, [
        "u,_t - p_.t", "u,_x + p_.x", "p_.t,_t + p_.x,_x"])
    assert red.p_coordinates == red.p0_coordinates


def test_reduce_regular_first_order_consistency():
    # dH/dp_.i reproduces the constraint solve for the top jets
    ctx = JetContext(("t", "x"), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx))
    red = reduce_lagrangian(lag)
    for i, name in enumerate(ctx.independents):
        jet = CoordinateId.jet(0, MultiIndex.of(i))
        momentum = CoordinateId.momentum(0, EMPTY, i)
        assert red.hamiltonian.partial(momentum) == red.substitutions[jet]


def test_reduce_regular_display_randomized():
    # for regular first-order densities the HDW rows are exactly
    # u,_i = dH/dp_.i and sum_i p_.i,_i = -dH/du
    from fractions import Fraction
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(1, 2)
        names = ("t", "x")[:n]
        ctx = JetContext(names, ("u",), max_order=2)
        L = Expr.zero()
        for i in range(n):
            jet = Expr.coord(CoordinateId.jet(0, MultiIndex.of(i)))
            L = L + jet * jet * Fraction(rng.choice([1, 2, 3]), 2)
            L = L + jet * Expr.coord(CoordinateId.jet(0, EMPTY)).scale(rng.randint(-2, 2))
        L = L + Expr.coord(CoordinateId.jet(0, EMPTY)).scale(rng.randint(-3, 3))
        red = reduce_lagrangian(LagrangianDensity(ctx, L, order=1))
        assert red.diagnosis == "regular"
        dc = red.system_hdw.derived
        H = red.hamiltonian
        rows = dict(red.system_hdw.equations)
        divergence = Expr.zero()
        for i in range(n):
            momentum = CoordinateId.momentum(0, EMPTY, i)
            expected = Expr.coord(dc.comma(CoordinateId.jet(0, EMPTY), i)) \
                - dc.embed(H.partial(momentum))
            assert rows[f"contact:u::{names[i]}"] == expected
            divergence = divergence + Expr.coord(dc.comma(momentum, i))
        assert rows["mom:u:"] == -dc.embed(H.partial(CoordinateId.jet(0, EMPTY))) \
            - divergence


def test_reduce_zero_lagrangian():
    ctx = JetContext(("t", "x"), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "reducible"
    assert red.hamiltonian == Expr.zero()
    # all level-0 momenta are constrained away
    assert {ctx.name(c) for c in red.substitutions} == {"p_.t", "p_.x"}
    assert red.system_hdw.equations == ()


def test_reduce_mechanics():
    ctx = JetContext(("t",), ("u",), max_order=2)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "regular"
    assert red.hamiltonian == parse("1/2*p_.t^2", ctx)
    assert canon(red.system_hdw) == expected_rows(red.system_hdw.derived, [
        "u,_t - p_.t", "p_.t,_t"])


def test_reduce_nonlinear_constraints_diagnosed():
    ctx = JetContext(("x",), ("u",), max_order=4)
    lag = LagrangianDensity(ctx, parse("1/4*u_xx^4", ctx))
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "irreducible: nonlinear constraints"
    assert red.system_hdw is None and red.hamiltonian is None


def test_reduce_jet_dependent_momentum_row_diagnosed():
    # dL/du_tx = u_x stays in the leftover pool and is not jet-free
    ctx = JetContext(("t", "x"), ("u",), max_order=4)
    lag = LagrangianDensity(ctx, parse("u_x*u_tx", ctx), order=2)
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "Assumption 1 check failed"
    assert red.offending


def test_reduction_soundness_randomized():
    rng = random.Random(61)
    done = 0
    for _ in range(60):
        lag = random_lagrangian(rng, max_order=2, max_degree=2)
        red = reduce_lagrangian(lag, samples=2)
        if red.system_hdw is None:
            continue
        done += 1
        energy = energy_density(lag)
        restricted = energy.substitute(red.substitutions)
        assert restricted == red.energy_on_constraint
        eliminated = set(red.substitutions)
        for c in red.energy_on_constraint.coordinates():
            assert c not in eliminated
        for _, res in red.system_hdw.equations:
            for c in res.coordinates():
                if c.kind == "jet" and len(c.index) == 0:
                    base = red.system_hdw.derived.base_coordinate(c.alpha)
                    assert base not in eliminated
    assert done >= 10


def test_reduced_rows_on_p_and_p0_agree(kdv):
    # the rows on the constraint manifold P read P0 coordinates only, under
    # the same derived indices in both contexts, so the two systems agree
    rng = random.Random(67)
    reduced = [reduce_lagrangian(kdv)]
    for _ in range(60):
        reduced.append(reduce_lagrangian(random_lagrangian(rng, max_degree=2), samples=2))
    reduced = [red for red in reduced if red.system_hdw is not None]
    assert len(reduced) >= 10
    for red in reduced:
        p, p0 = red.system_constraint, red.system_hdw
        assert p.equations == p0.equations
        assert set(p.derived.fiber) == {c for c in red.p_coordinates if c.kind != "independent"}
        assert set(p0.derived.fiber) == {c for c in red.p0_coordinates
                                         if c.kind != "independent"}
        for _, res in p.equations:
            for c in res.coordinates():
                if c.kind != "independent":
                    assert p.derived.base_coordinate(c.alpha) == \
                        p0.derived.base_coordinate(c.alpha)


def test_reduced_json_shape(capsys, tmp_path):
    path = tmp_path / "kdv.problem"
    path.write_text(f"independents = t x\ndependents = u\nlagrangian = {KDV_L}\norder = 2\n")
    assert cli.main(["reduce", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagnosis"] == "reducible"
    assert data["substitutions"]["p_x.t"] == "-p_t.x"
    assert len(data["equations"]) == 7
