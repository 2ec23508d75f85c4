"""Euler-Lagrange operator, vertical differential, Legendre-form construction."""

import random

import pytest

from conftest import KDV_EL, KDV_L, jet_pool, random_expr, random_lagrangian
from varjet.jetcalc import total_derivative
from varjet.multiindex import EMPTY, MultiIndex
from varjet.symcore import CoordinateId, Expr, JetContext, VarjetError, parse, render
from varjet.variational import (
    CartanValuedForm,
    LagrangianDensity,
    LegendreForm,
    SourceForm,
    euler_lagrange,
    horizontal_d_legendre,
    legendre_form,
    vertical_differential,
)


def test_euler_lagrange_kdv(kdv, ctx_tx):
    E = euler_lagrange(kdv)
    assert E.component(0) == parse(KDV_EL, ctx_tx)


def test_euler_lagrange_matches_sympy_euler_equations():
    # an independent oracle: sympy.calculus.euler.euler_equations on the same
    # densities, each jet u_I^a read as a derivative of the function u^a
    sympy = pytest.importorskip("sympy")
    from sympy.calculus.euler import euler_equations
    rng = random.Random(97)
    for _ in range(12):
        lag = random_lagrangian(rng, max_n=3, max_order=3, max_degree=3)
        ctx = lag.context
        xs = sympy.symbols(ctx.independents)
        fs = [sympy.Function(name)(*xs) for name in ctx.dependents]

        def to_sympy(e: Expr):
            def atom(c: CoordinateId):
                if c.kind == "independent":
                    return xs[c.i]
                return sympy.Derivative(fs[c.alpha], *[xs[i] for i in c.index]) \
                    if len(c.index) else fs[c.alpha]
            return sympy.Add(*[sympy.Rational(k.numerator, k.denominator)
                               * sympy.Mul(*[atom(c) ** p for c, p in mono])
                               for mono, k in e.terms])

        source = euler_lagrange(lag)
        for alpha, f in enumerate(fs):
            # sympy drops an equation that is identically zero, so each
            # function's equation is asked for on its own
            equations = euler_equations(to_sympy(lag.L), [f], xs)
            want = equations[0].lhs if equations else 0
            assert sympy.expand(to_sympy(source.component(alpha)) - want) == 0, \
                (render(lag.L, ctx, "plain"), ctx.dependents[alpha])


def test_euler_lagrange_single_ibp(ctx_1d):
    lag = LagrangianDensity(ctx_1d, parse("1/2*u_x^2", ctx_1d))
    assert euler_lagrange(lag).component(0) == parse("-u_xx", ctx_1d)


def test_euler_lagrange_exact_divergence(ctx_1d):
    # 2 u u_x = D_x(u^2) has trivial variation
    lag = LagrangianDensity(ctx_1d, parse("2*u*u_x", ctx_1d))
    assert euler_lagrange(lag).component(0) == Expr.zero()


def test_source_form_support_checked(ctx_tx):
    with pytest.raises(VarjetError):
        SourceForm(ctx_tx, {(0, MultiIndex.of(1)): parse("u", ctx_tx)})


def test_vertical_differential_kdv(kdv, ctx_tx):
    dV = vertical_differential(kdv)
    assert dV.coefficient(0, MultiIndex.of(1)) == parse("3*u_x^2 - 1/2*u_t", ctx_tx)
    assert dV.coefficient(0, MultiIndex.of(1, 1)) == parse("u_xx", ctx_tx)
    assert dV.coefficient(0, MultiIndex.of(0)) == parse("-1/2*u_x", ctx_tx)
    assert dV.coefficient(0, MultiIndex.of(0, 0)) == Expr.zero()


def test_vertical_differential_constant(ctx_tx):
    lag = LagrangianDensity(ctx_tx, Expr.number(3), order=1)
    assert vertical_differential(lag).is_zero()


def test_horizontal_d_single_component(ctx_tx):
    # theta with sole coefficient f(x, t) at (u, empty, x)
    f = parse("t*x^2", ctx_tx)
    theta = LegendreForm(ctx_tx, 0, {(0, EMPTY, 1): f})
    dbar = horizontal_d_legendre(theta)
    assert dbar.coefficient(0, EMPTY) == -total_derivative(f, 1, ctx_tx)
    assert dbar.coefficient(0, MultiIndex.of(1)) == -f


def test_horizontal_d_zero_form(ctx_tx):
    assert horizontal_d_legendre(LegendreForm(ctx_tx, 1, {})).is_zero()


def test_horizontal_d_closes_first_variation_for_kdv(kdv, ctx_tx):
    theta = legendre_form(kdv)
    got = horizontal_d_legendre(theta)
    expected = euler_lagrange(kdv) - vertical_differential(kdv)
    assert got == expected


def test_legendre_form_mechanics():
    ctx = JetContext(("t",), ("u",), max_order=3)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    theta = legendre_form(lag)
    assert theta.coefficient(0, EMPTY, 0) == parse("u_t", ctx)
    assert list(theta.support()) == [(0, EMPTY, 0)]
    assert euler_lagrange(lag).component(0) == parse("-u_tt", ctx)


def test_legendre_form_second_order_1d():
    # hand oracle (two integrations by parts): L = u_xx^2/2 gives
    # theta^{(x).x} = u_xx, theta^{().x} = -u_xxx, E = u_xxxx
    ctx = JetContext(("x",), ("u",), max_order=4)
    lag = LagrangianDensity(ctx, parse("1/2*u_xx^2", ctx))
    theta = legendre_form(lag)
    assert theta.coefficient(0, MultiIndex.of(0), 0) == parse("u_xx", ctx)
    assert theta.coefficient(0, EMPTY, 0) == parse("-u_xxx", ctx)
    assert euler_lagrange(lag).component(0) == parse("u_xxxx", ctx)


def test_legendre_form_kdv_top_level(kdv, ctx_tx):
    theta = legendre_form(kdv)
    assert theta.order == 1
    t, x = 0, 1
    assert theta.coefficient(0, MultiIndex.of(x), x) == parse("u_xx", ctx_tx)
    assert theta.coefficient(0, MultiIndex.of(t), t) == Expr.zero()
    assert theta.coefficient(0, MultiIndex.of(t), x) \
        + theta.coefficient(0, MultiIndex.of(x), t) == Expr.zero()
    # lower level from the recursion, checked against the identity
    assert theta.coefficient(0, EMPTY, t) == parse("-1/2*u_x", ctx_tx)
    assert theta.coefficient(0, EMPTY, x) == parse("3*u_x^2 - 1/2*u_t - u_xxx", ctx_tx)


def test_first_variation_identity_random():
    rng = random.Random(23)
    for _ in range(40):
        lag = random_lagrangian(rng)
        theta = legendre_form(lag)  # re-verifies the identity internally
        assert theta.order == lag.order - 1
        lhs = horizontal_d_legendre(theta) + vertical_differential(lag)
        assert lhs == euler_lagrange(lag)


def test_divergence_invariance_random():
    rng = random.Random(29)
    for _ in range(40):
        lag = random_lagrangian(rng, max_order=2)
        ctx = lag.context
        pool = jet_pool(ctx, lag.order - 1, include_independents=False)
        div = Expr.zero()
        for i in range(ctx.n):
            div = div + total_derivative(random_expr(rng, pool, max_monomials=3),
                                         i, ctx.extended(2 * lag.order))
        shifted = LagrangianDensity(ctx, lag.L + div,
                                    order=max(lag.order, div.max_jet_order()))
        assert euler_lagrange(shifted) == euler_lagrange(lag)


def test_euler_lagrange_linearity():
    rng = random.Random(31)
    for _ in range(25):
        l1 = random_lagrangian(rng, max_n=2, max_m=1, max_order=2)
        ctx = l1.context
        pool = jet_pool(ctx, l1.order, include_independents=False)
        L2 = random_expr(rng, pool, max_monomials=3)
        l2 = LagrangianDensity(ctx, L2, order=max(l1.order, 1, L2.max_jet_order()))
        combo = LagrangianDensity(ctx, l1.L.scale(3) + l2.L.scale(-2),
                                  order=max(l1.order, l2.order))
        lhs = euler_lagrange(combo).component(0)
        rhs = euler_lagrange(l1).component(0).scale(3) \
            + euler_lagrange(l2).component(0).scale(-2)
        assert lhs == rhs


def test_legendre_difference_shares_source_form():
    rng = random.Random(37)
    for _ in range(20):
        lag = random_lagrangian(rng, max_order=2, max_m=1)
        ctx = lag.context
        pool = jet_pool(ctx, lag.order - 1, include_independents=False)
        div = Expr.zero()
        for i in range(ctx.n):
            div = div + total_derivative(random_expr(rng, pool, max_monomials=2),
                                         i, ctx.extended(2 * lag.order + 1))
        lag2 = LagrangianDensity(ctx, lag.L + div,
                                 order=max(lag.order, div.max_jet_order()))
        theta1 = legendre_form(lag)
        theta2 = legendre_form(lag2)
        lhs = horizontal_d_legendre(theta2) + vertical_differential(lag2)
        rhs = horizontal_d_legendre(theta1) + vertical_differential(lag)
        assert lhs == rhs


def test_source_form_support_only_order_zero():
    rng = random.Random(41)
    for _ in range(20):
        lag = random_lagrangian(rng)
        for alpha, index in euler_lagrange(lag).support():
            assert len(index) == 0


def test_declared_order_propagates(ctx_1d):
    lag = LagrangianDensity(ctx_1d, parse("1/2*u_x^2", ctx_1d), order=2)
    theta = legendre_form(lag)
    assert theta.order == 1
    # first-order density treated as second order still closes the identity
    assert horizontal_d_legendre(theta) + vertical_differential(lag) == euler_lagrange(lag)
    with pytest.raises(VarjetError):
        LagrangianDensity(ctx_1d, parse("1/2*u_xx^2", ctx_1d), order=1)


def test_random_lagrangian_names_only_coordinates_its_context_renders():
    # the helper draws jets along the independents its context declares
    rng = random.Random(97)
    drawn = [random_lagrangian(rng, max_n=3) for _ in range(50)]
    assert {lag.context.n for lag in drawn} == {1, 2, 3}
    for lag in drawn:
        ctx = lag.context
        assert all(max(c.index.entries, default=-1) < ctx.n for c in lag.L.coordinates())
        assert parse(render(lag.L, ctx), ctx) == lag.L
