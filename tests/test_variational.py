"""Euler-Lagrange operator, vertical differential, Legendre-form construction."""

import itertools
import os
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (KDV_EL, KDV_L, homotopy_lagrangian, jet_pool, prolonged_fiber_map,
                      random_expr, random_fiber_map, random_lagrangian)
from varjet.jetcalc import total_derivative
from varjet.multiindex import MultiIndex
from varjet.problemfile import load_problem
from varjet.symcore import (CoordinateId, Expr, JetContext, VarjetError, WrongDomainError, parse,
                            render)
from varjet import variational
from varjet.variational import (
    LagrangianDensity,
    euler_lagrange,
    horizontal_d_legendre,
    legendre_form,
    vertical_differential,
)


def plus(*maps):
    """The sum of coefficient maps, zero entries dropped."""
    out = {}
    for coeffs in maps:
        for c, e in coeffs.items():
            out[c] = out.get(c, Expr.zero()) + e
    return {c: e for c, e in out.items() if not e.is_zero()}


def source(lag):
    """E(L) as a map on the zero jets u^a, zero entries dropped."""
    return plus({CoordinateId.jet(alpha): e for alpha, e in enumerate(euler_lagrange(lag))})


def jet(*index):
    return CoordinateId.jet(0, MultiIndex(index))


def momentum(i, *index):
    return CoordinateId.momentum(0, MultiIndex(index), i)


def test_euler_lagrange_kdv(kdv, ctx_tx):
    assert euler_lagrange(kdv) == (parse(KDV_EL, ctx_tx),)


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

        components = euler_lagrange(lag)
        for alpha, f in enumerate(fs):
            # sympy drops an equation that is identically zero, so each
            # function's equation is asked for on its own
            equations = euler_equations(to_sympy(lag.L), [f], xs)
            want = equations[0].lhs if equations else 0
            assert sympy.expand(to_sympy(components[alpha]) - want) == 0, \
                (render(lag.L, ctx, "plain"), ctx.dependents[alpha])


def test_euler_lagrange_of_the_homotopy_density_is_unchanged():
    # a second oracle, without sympy: L_h = sum_a u^a int_0^1 E_a(t*u) dt
    # is another density of the same equations, at about twice the order,
    # so E(L_h) == E(L) exactly; on the sample problems and on three random
    # densities of each (n, m, order) shape of the benchmark's ladder
    problems = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
    lags = [load_problem(os.path.join(problems, name)).density
            for name in sorted(os.listdir(problems))]
    kdv = homotopy_lagrangian(lags[1])
    assert render(kdv.L, kdv.context) == "1/2*u*u_tx - 2*u*u_x*u_xx + 1/2*u*u_xxxx"
    rng = random.Random(37)
    lags += [random_lagrangian(rng, max_monomials=8, shape=shape)
             for _ in range(3) for shape in itertools.product((2, 3, 4), (1, 2), (2, 3))]
    start = time.perf_counter()
    for lag in lags:
        homotopy = homotopy_lagrangian(lag)
        assert euler_lagrange(homotopy) == euler_lagrange(lag), render(lag.L, lag.context)
    assert time.perf_counter() - start < 10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([None, *itertools.product((2, 3, 4), (1, 2), (2, 3))]))
def test_euler_lagrange_is_covariant_under_fiber_maps(seed, shape):
    # the operator is coordinate free on the fibers: for u = phi(x, v),
    # E(L o phi) = (dphi/dv)^T . E(L) o phi, both sides pulled back along the
    # prolongation u_I -> D_I phi by one substitution, which reads the jets
    # of L at powers of 2 and above; on random densities and on the shapes
    # (n, m, order) of the benchmark's ladder
    rng = random.Random(seed)
    lag = random_lagrangian(rng, shape=shape)
    ctx, phi = lag.context, random_fiber_map(rng, lag.context)
    pulled = LagrangianDensity(
        ctx, lag.L.substitute(prolonged_fiber_map(phi, lag.L.coordinates())), order=lag.order)
    E = euler_lagrange(lag)
    images = prolonged_fiber_map(phi, {c for e in E for c in e.coordinates()})
    E_phi = [e.substitute(images) for e in E]
    jacobian = [phi_a.gradient() for phi_a in phi]
    assert euler_lagrange(pulled) == tuple(
        Expr.sum([jacobian[a].get(CoordinateId.jet(b), Expr.zero()) * E_phi[a]
                  for a in range(ctx.m)]) for b in range(ctx.m))


def test_euler_lagrange_single_ibp(ctx_1d):
    lag = LagrangianDensity(ctx_1d, parse("1/2*u_x^2", ctx_1d))
    assert euler_lagrange(lag) == (parse("-u_xx", ctx_1d),)


def test_euler_lagrange_exact_divergence(ctx_1d):
    # 2 u u_x = D_x(u^2) has trivial variation
    lag = LagrangianDensity(ctx_1d, parse("2*u*u_x", ctx_1d))
    assert euler_lagrange(lag) == (Expr.zero(),)


def test_euler_lagrange_has_one_component_per_dependent():
    # a dependent the density does not name still has its (zero) component
    ctx = JetContext(("t", "x"), ("u", "v"))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    assert euler_lagrange(lag) == (parse("-u_tt", ctx), Expr.zero())
    rng = random.Random(41)
    for _ in range(20):
        lag = random_lagrangian(rng)
        assert len(euler_lagrange(lag)) == lag.context.m


def _outside(c):
    return VarjetError, f"the density reads {c!r}, which is outside its context"


@pytest.mark.parametrize("c, refusal", [
    (c, _outside(c)) for c in (CoordinateId.jet(3, MultiIndex((0,))),
                               CoordinateId.jet(0, MultiIndex((0, 2))),
                               CoordinateId.independent(2), CoordinateId.jet(-1))] + [
    # u,_t is in the context, but a density is jet-side: euler_lagrange of
    # u_x^2 + u,_t read it as a constant and gave -2*u_xx
    (CoordinateId.comma(CoordinateId.jet(0), 0),
     (WrongDomainError, "the density reads u,_t, a comma-derivative, which is not jet-side")),
], ids=["dependent", "index_entry", "independent", "negative_dependent", "comma"])
def test_density_refuses_a_coordinate_outside_its_context(ctx_tx, c, refusal):
    # a density of (t, x; u) reading u^3_t was accepted, and euler_lagrange
    # then raised IndexError
    error, message = refusal
    L = parse("u_x^2", ctx_tx) + Expr.coord(c)
    with pytest.raises(error) as info:
        LagrangianDensity(ctx_tx, L)
    assert str(info.value) == message


def test_vertical_differential_kdv(kdv, ctx_tx):
    # keyed by the jets of L, u_tt absent
    assert vertical_differential(kdv) == {
        jet(1): parse("3*u_x^2 - 1/2*u_t", ctx_tx),
        jet(1, 1): parse("u_xx", ctx_tx),
        jet(0): parse("-1/2*u_x", ctx_tx)}


def test_vertical_differential_constant(ctx_tx):
    lag = LagrangianDensity(ctx_tx, Expr.number(3), order=1)
    assert vertical_differential(lag) == {}


def test_horizontal_d_single_component(ctx_tx):
    # theta with sole coefficient f(x, t) at (u, empty, x)
    f = parse("t*x^2", ctx_tx)
    assert horizontal_d_legendre({momentum(1): f}) == {
        jet(): -total_derivative(f, 1), jet(1): -f}


@pytest.mark.parametrize("coeff", ["u_x*p_.t", "u_x*u,_t"], ids=["momentum", "comma"])
def test_horizontal_d_refuses_coefficients_that_are_not_jet_side(ctx_tx, coeff):
    # total_derivative, which every coefficient goes through, is the check
    with pytest.raises(WrongDomainError, match="^total_derivative acts on jet-side expressions"):
        horizontal_d_legendre({momentum(1): parse(coeff, ctx_tx)})


def test_horizontal_d_zero_form(ctx_tx):
    assert horizontal_d_legendre({}) == {}


def test_horizontal_d_closes_first_variation_for_kdv(kdv, ctx_tx):
    # dbar theta = E(L) - d^V L, compared as maps over the jets
    minus_d_v = {c: -e for c, e in vertical_differential(kdv).items()}
    assert horizontal_d_legendre(legendre_form(kdv)) == plus(source(kdv), minus_d_v)


def test_first_variation_check_fires(kdv, monkeypatch):
    # a horizontal differential missing one coefficient breaks the identity,
    # and legendre_form refuses to return the form
    exact = horizontal_d_legendre

    def dropping(theta):
        dbar = exact(theta)
        del dbar[max(dbar)]
        return dbar

    monkeypatch.setattr(variational, "horizontal_d_legendre", dropping)
    with pytest.raises(AssertionError, match="first variation identity"):
        legendre_form(kdv)


def test_legendre_form_mechanics():
    ctx = JetContext(("t",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    assert legendre_form(lag) == {momentum(0): parse("u_t", ctx)}
    assert euler_lagrange(lag) == (parse("-u_tt", ctx),)


def test_legendre_form_second_order_1d():
    # hand oracle (two integrations by parts): L = u_xx^2/2 gives
    # theta^{(x).x} = u_xx, theta^{().x} = -u_xxx, E = u_xxxx
    ctx = JetContext(("x",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_xx^2", ctx))
    theta = legendre_form(lag)
    assert list(theta.items()) == [(momentum(0), parse("-u_xxx", ctx)),
                                   (momentum(0, 0), parse("u_xx", ctx))]
    assert euler_lagrange(lag) == (parse("u_xxxx", ctx),)


def test_legendre_form_kdv_top_level(kdv, ctx_tx):
    theta = legendre_form(kdv)
    assert max(len(p.index) for p in theta) == 1
    t, x = 0, 1
    zero = Expr.zero()
    assert theta[momentum(x, x)] == parse("u_xx", ctx_tx)
    assert momentum(t, t) not in theta
    assert theta.get(momentum(x, t), zero) + theta.get(momentum(t, x), zero) == zero
    # lower level from the recursion, checked against the identity
    assert theta[momentum(t)] == parse("-1/2*u_x", ctx_tx)
    assert theta[momentum(x)] == parse("3*u_x^2 - 1/2*u_t - u_xxx", ctx_tx)


def test_first_variation_identity_random():
    rng = random.Random(23)
    for _ in range(40):
        lag = random_lagrangian(rng)
        theta = legendre_form(lag)  # re-verifies the identity internally
        assert all(len(p.index) <= lag.level for p in theta)
        assert list(theta) == sorted(theta)
        assert plus(horizontal_d_legendre(theta), vertical_differential(lag)) == source(lag)


def test_divergence_invariance_random():
    rng = random.Random(29)
    for _ in range(40):
        lag = random_lagrangian(rng, max_order=2)
        ctx = lag.context
        pool = jet_pool(ctx, lag.order - 1, include_independents=False)
        div = Expr.zero()
        for i in range(ctx.n):
            div = div + total_derivative(random_expr(rng, pool, max_monomials=3), i)
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
        lhs = euler_lagrange(combo)[0]
        rhs = euler_lagrange(l1)[0].scale(3) + euler_lagrange(l2)[0].scale(-2)
        assert lhs == rhs


def test_legendre_difference_shares_source_form():
    rng = random.Random(37)
    for _ in range(20):
        lag = random_lagrangian(rng, max_order=2, max_m=1)
        ctx = lag.context
        pool = jet_pool(ctx, lag.order - 1, include_independents=False)
        div = Expr.zero()
        for i in range(ctx.n):
            div = div + total_derivative(random_expr(rng, pool, max_monomials=2), i)
        lag2 = LagrangianDensity(ctx, lag.L + div,
                                 order=max(lag.order, div.max_jet_order()))
        lhs = plus(horizontal_d_legendre(legendre_form(lag2)), vertical_differential(lag2))
        rhs = plus(horizontal_d_legendre(legendre_form(lag)), vertical_differential(lag))
        assert lhs == rhs


def test_declared_order_propagates(ctx_1d):
    lag = LagrangianDensity(ctx_1d, parse("1/2*u_x^2", ctx_1d), order=2)
    theta = legendre_form(lag)
    assert all(len(p.index) <= 1 for p in theta)
    # first-order density treated as second order still closes the identity
    assert plus(horizontal_d_legendre(theta), vertical_differential(lag)) == source(lag)
    with pytest.raises(VarjetError):
        LagrangianDensity(ctx_1d, parse("1/2*u_xx^2", ctx_1d), order=1)


def test_declared_order_is_bounded_by_its_multiindex_entries(ctx_1d, ctx_tx):
    # n = 1: order 10^6 is 10^6 + 1 multiindices but 5e11 entries; KdV at
    # order 400 and the free particle at order 3000 stay under the bound
    L = parse("1/2*u_x^2", ctx_1d)
    with pytest.raises(VarjetError, match=r"^order 1000000 is too high"):
        LagrangianDensity(ctx_1d, L, order=10**6)
    assert LagrangianDensity(ctx_1d, L, order=3000).level == 2999
    assert LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=400).level == 399


def test_random_lagrangian_names_only_coordinates_its_context_renders():
    # the helper draws jets along the independents its context declares
    rng = random.Random(97)
    drawn = [random_lagrangian(rng, max_n=3) for _ in range(50)]
    assert {lag.context.n for lag in drawn} == {1, 2, 3}
    for lag in drawn:
        ctx = lag.context
        assert all(max(c.index, default=-1) < ctx.n for c in lag.L.coordinates())
        assert parse(render(lag.L, ctx), ctx) == lag.L
