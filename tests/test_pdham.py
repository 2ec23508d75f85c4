"""ELH systems, constraints, Hessian reports, energy, shift, reduction."""

import importlib.util
import itertools
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import (KDV_L, canon, homotopy_lagrangian, jet_pool, pullback, random_expr,
                      random_gauge, random_lagrangian, reference_partial, signless)
from varjet import cli, pdham
from varjet.jetcalc import EquationSystem, total_derivative
from varjet.multiindex import EMPTY, MultiIndex, multiindices, multiindices_up_to
from varjet.pdham import (
    comma_images,
    RankReport,
    constraints,
    elh_system,
    energy_density,
    hessian,
    momentum_shift,
    reduce_lagrangian,
)
from varjet.symcore import (
    COMMA,
    MOMENTUM,
    CoordinateId,
    Expr,
    JetContext,
    VarjetError,
    WrongDomainError,
    eliminate,
    parse,
    render,
)
from varjet.problemfile import load_problem, parse_problem_text
from varjet.variational import LagrangianDensity, euler_lagrange, legendre_form

PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def rows_by_label(system):
    return dict(system.equations)


def expected_rows(system, texts):
    """Read expected mixed rows in the system's context, as a sign-blind multiset."""
    return Counter(signless(parse(t, system.context)) for t in texts)


# -- ELH ---------------------------------------------------------------------

def test_elh_mechanics_free_particle():
    ctx = JetContext(("t",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    system = elh_system(lag)
    assert canon(system) == expected_rows(system, [
        "p_.t,_t", "u_t - p_.t", "u,_t - u_t"])


def test_elh_zero_lagrangian():
    ctx = JetContext(("x",), ("u",))
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    system = elh_system(lag)
    assert canon(system) == expected_rows(system, [
        "p_.x,_x", "p_.x", "u,_x - u_x"])


def test_elh_kdv_full_system(kdv):
    """All twelve scalar rows at l = 1.  The |I| = 1 momentum rows carry the
    level-0 contraction terms (p_.t, p_.x): the general formula forces them,
    as do Legendre transport and the divergence-shift equivalence."""
    system = elh_system(kdv)
    assert len(system.equations) == 12
    assert canon(system) == expected_rows(system, [
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
        for lab, res in constraints(lag).equations:
            assert system_row(system, f"mom:{lab.split(':', 1)[1]}") == res


def system_row(system, label):
    for lab, res in system.equations:
        if lab == label:
            return res
    raise KeyError(label)


# -- constraints --------------------------------------------------------------

def test_constraints_kdv(kdv, ctx_tx):
    cons = constraints(kdv)
    got = canon(cons)
    assert got == Counter(signless(parse(t, ctx_tx)) for t in [
        "p_t.t", "p_t.x + p_x.t", "p_x.x - u_xx"])


def test_constraints_wave_first_order():
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx))
    cons = constraints(lag)
    assert canon(cons) == Counter(signless(parse(t, ctx)) for t in [
        "p_.t - u_t", "p_.x + u_x"])


def test_constraints_zero_lagrangian():
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    cons = constraints(lag)
    assert canon(cons) == Counter(signless(parse(t, ctx)) for t in [
        "p_.t", "p_.x"])


def test_top_level_legendre_agreement_randomized():
    # substituting the canonical Legendre coefficients for the momenta kills
    # the constraint rows exactly: what is left is -p for each momentum p the
    # form does not carry, whose coefficient is zero
    rng = random.Random(47)
    for _ in range(20):
        lag = random_lagrangian(rng, max_order=3)
        theta = legendre_form(lag)
        for _, res in constraints(lag).equations:
            absent = [c for c in res.coordinates() if c.kind == MOMENTUM and c not in theta]
            assert res.substitute(theta) == -Expr.sum(map(Expr.coord, absent))


# -- Hessian -------------------------------------------------------------------

def test_hessian_kdv(kdv):
    matrix, report = hessian(kdv, seed=0)
    assert report.dim == 3 and report.rank == 1 and not report.regular
    assert report.rank_constant
    # single nonzero entry at the (u_xx, u_xx) diagonal position
    nonzero = {(r, c) for r, row in enumerate(matrix.entries)
               for c, e in enumerate(row) if not e.is_zero()}
    xx = matrix.index.index((0, MultiIndex((1, 1))))
    assert nonzero == {(xx, xx)}
    assert matrix.entries[xx][xx] == Expr.number(1)


def test_hessian_regular_1x1():
    ctx = JetContext(("x",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_xx^2", ctx))
    _, report = hessian(lag)
    assert report.dim == 1 and report.rank == 1 and report.regular


def test_hessian_linear_in_top_jets():
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, parse("u*u_tt + u_x*u_tx", ctx), order=2)
    _, report = hessian(lag)
    assert report.rank == 0 and not report.regular


def test_hessian_symmetry_randomized():
    rng = random.Random(53)
    for _ in range(20):
        lag = random_lagrangian(rng)
        matrix, _ = hessian(lag)
        dim = len(matrix.index)
        for r in range(dim):
            for c in range(dim):
                assert matrix.entries[r][c] == matrix.entries[c][r]


def test_hessian_seed_determinism(kdv):
    _, r1 = hessian(kdv, seed=42)
    _, r2 = hessian(kdv, seed=42)
    assert r1 == r2


def test_hessian_matches_double_partials_randomized():
    # the mirrored upper triangle is the matrix of second partials, and the
    # sampled ranks are sympy's ranks of the full matrix at the same random
    # points
    sympy = pytest.importorskip("sympy")
    rng = random.Random(89)
    for _ in range(40):
        n, m, order = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        ctx = JetContext(("t", "x", "y")[:n], ("u", "v")[:m])
        pool = jet_pool(ctx, order, include_independents=False)
        tops = [c for c in pool if len(c.index) == order]
        L = random_expr(rng, tops + pool, max_monomials=6)
        lag = LagrangianDensity(ctx, L, order=order)
        seed = rng.randint(0, 99)
        matrix, report = hessian(lag, seed=seed)
        assert [CoordinateId.jet(a, I) for a, I in matrix.index] == tops
        assert matrix.entries == tuple(
            tuple(reference_partial(reference_partial(L, r), c) for c in tops) for r in tops)
        coords = sorted({c for row in matrix.entries for e in row for c in e.coordinates()})
        draws = random.Random(seed)
        ranks = []
        for _ in range(pdham.RANK_SAMPLES):
            point = {c: Expr.number(Fraction(draws.randint(-9, 9), draws.randint(1, 9)))
                     for c in coords}
            values = [[e.substitute(point).constant_value() for e in row]
                      for row in matrix.entries]
            ranks.append(sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                                       for row in values]).rank())
        assert report.ranks == tuple(ranks)


def test_constant_hessian_is_eliminated_once(monkeypatch, kdv):
    # the kdv Hessian is constant: each of the 6 entries on and above the
    # diagonal of the 3x3 matrix is evaluated once, not once per sample, the
    # matrix is eliminated once and its rank reported once per sample
    calls, evaluated = [], []
    value_at = pdham._value_at

    def counted(rows, order):
        calls.append(rows)
        return eliminate(rows, order)

    def counted_value(e, point):
        evaluated.append(e)
        return value_at(e, point)

    monkeypatch.setattr(pdham, "eliminate", counted)
    monkeypatch.setattr(pdham, "_value_at", counted_value)
    _, report = hessian(kdv, seed=3)
    assert len(calls) == 1
    assert len(evaluated) == 6
    assert report == RankReport(dim=3, rank=1, regular=False, rank_constant=True,
                                ranks=(1,) * 5, samples=5, seed=3)


# -- energy density -------------------------------------------------------------

def test_energy_kdv(kdv, ctx_tx):
    assert energy_density(kdv) == parse(
        "p_.t*u_t + p_.x*u_x + p_t.t*u_tt + (p_t.x + p_x.t)*u_tx + p_x.x*u_xx"
        " - u_x^3 + 1/2*u_x*u_t - 1/2*u_xx^2", ctx_tx)


def test_energy_zero_lagrangian():
    ctx = JetContext(("x",), ("u",))
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    assert energy_density(lag) == parse("p_.x*u_x", ctx)


def test_energy_mechanics():
    ctx = JetContext(("t",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    assert energy_density(lag) == parse("p_.t*u_t - 1/2*u_t^2", ctx)


# -- momentum shift --------------------------------------------------------------

def test_shift_identity(kdv):
    system = elh_system(kdv)
    shifted = momentum_shift(system, [Expr.zero(), Expr.zero()])
    assert shifted.equations == system.equations


def test_shift_mechanics_constant():
    # rho = c*u with c = 3: both derivation paths agree row by row
    ctx = JetContext(("t",), ("u",))
    L = parse("1/2*u_t^2", ctx)
    rho = [parse("3*u", ctx)]
    div = total_derivative(rho[0], 0)
    direct = elh_system(LagrangianDensity(ctx, L + div, order=1))
    shifted = momentum_shift(elh_system(LagrangianDensity(ctx, L)), rho)
    assert canon(direct) == canon(shifted)


def test_shift_kdv_x_divergence(kdv, ctx_tx):
    rho = [Expr.zero(), parse("u^2", ctx_tx)]
    div = total_derivative(rho[1], 1)
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
        div = Expr.zero()
        for i in range(ctx.n):
            div = div + total_derivative(rho[i], i)
        direct = elh_system(
            LagrangianDensity(ctx, lag.L + div, order=max(lag.order, div.max_jet_order())))
        shifted = momentum_shift(elh_system(lag), rho)
        assert canon(direct) == canon(shifted)


def test_shift_rho_order_too_high(kdv, ctx_tx):
    with pytest.raises(VarjetError):
        momentum_shift(elh_system(kdv), [Expr.zero(), parse("u_xx", ctx_tx)])


def test_shift_needs_a_mixed_system_and_one_component_per_independent(kdv, ctx_tx):
    el = EquationSystem(ctx_tx, (("el:u", euler_lagrange(kdv)[0]),))
    with pytest.raises(VarjetError, match="^momentum_shift needs a mixed system, which "
                                          "carries its fiber$"):
        momentum_shift(el, [Expr.zero(), Expr.zero()])
    for count in (1, 3):
        with pytest.raises(VarjetError, match=r"^need one shift component per independent "
                                              rf"variable \(2\), got {count}$"):
            momentum_shift(elh_system(kdv), [Expr.zero()] * count)


_U, _P = CoordinateId.jet(0), CoordinateId.momentum(0, EMPTY, 0)


@pytest.mark.parametrize("c, refusal", [
    (_P, (WrongDomainError, "a shift component reads p_.t, a momentum, which is not jet-side")),
    (CoordinateId.comma(_U, 0),
     (WrongDomainError, "a shift component reads u,_t, a comma-derivative, which is not "
                        "jet-side")),
    (CoordinateId.comma(_P, 1),
     (WrongDomainError, "a shift component reads p_.t,_x, a comma-derivative, which is not "
                        "jet-side")),
] + [(c, (VarjetError, f"a shift component reads {c!r}, which is outside its context"))
     for c in (CoordinateId.jet(0, MultiIndex((5,))), CoordinateId.jet(3),
               CoordinateId.independent(7))],
    ids=["momentum", "comma_of_jet", "comma_of_momentum", "jet_along_independent_5",
         "dependent_3", "independent_7"])
def test_shift_refuses_a_component_outside_its_domain(kdv, c, refusal):
    # a component that read u,_t was skipped by the gradient loop, so the
    # rows came back unshifted; u along independent 5 raised IndexError, the
    # jet of dependent 3 was refused as the momentum p_.t of u, and
    # independent 7 came back unshifted
    error, message = refusal
    with pytest.raises(error) as info:
        momentum_shift(elh_system(kdv), [Expr.coord(c), Expr.zero()])
    assert str(info.value) == message


_SMALL = st.integers(-2, 6)
_INDEX = st.lists(st.integers(0, 6), max_size=3).map(MultiIndex)
_JETS_AND_MOMENTA = st.builds(CoordinateId.jet, _SMALL, _INDEX) | \
    st.builds(CoordinateId.momentum, _SMALL, _INDEX, _SMALL)


def _refusal(build):
    """The text of build()'s VarjetError, or None when it returns; any other
    exception propagates."""
    try:
        build()
    except VarjetError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(st.builds(CoordinateId.independent, _SMALL) | _JETS_AND_MOMENTA |
       st.builds(CoordinateId.comma, _JETS_AND_MOMENTA, st.integers(0, 6)))
@example(CoordinateId.independent(1))
@example(CoordinateId.jet(0, MultiIndex((1,))))
@example(CoordinateId.jet(0, MultiIndex((1, 1))))
@example(_P)
@example(CoordinateId.comma(_U, 0))
def test_every_site_applies_one_domain_rule(c):
    # over (t, x; u), the systems and render refuse exactly what the context
    # does not admit, and the density and the shift also what is not jet-side
    ctx = JetContext(("t", "x"), ("u",))
    e = parse("u_x", ctx) * Expr.coord(c)
    outside = not ctx.admits(c)
    refused = outside or c.kind in (MOMENTUM, COMMA)
    rule = "which is outside its context" if outside else "which is not jet-side"
    for build in [lambda: EquationSystem(ctx, (("row", e),))] + \
            [lambda fmt=fmt: render(e, ctx, fmt) for fmt in ("plain", "latex", "json")]:
        refusal = _refusal(build)
        assert (refusal is not None) == outside
        assert refusal is None or refusal.endswith(rule)
    refusal = _refusal(lambda: LagrangianDensity(ctx, e))
    assert (refusal is not None) == refused
    assert refusal is None or refusal.endswith(rule)
    kdv = LagrangianDensity(ctx, parse(KDV_L, ctx), order=2)
    refusal = _refusal(lambda: momentum_shift(elh_system(kdv), [e, Expr.zero()]))
    if refused:
        assert refusal is not None and refusal.endswith(rule)
    else:  # a jet-side component of too high an order
        assert refusal is None or "too high" in refusal or "not part of the fiber" in refusal


def test_shift_of_an_eliminated_momentum_is_domain_error(kdv, ctx_tx):
    # KdV's reduction eliminates p_x.t, which rho^t = u_x shifts; rho^x = u^2
    # shifts the surviving p_.x only
    hdw = reduce_lagrangian(kdv).system_hdw
    with pytest.raises(WrongDomainError,
                       match=r"^momentum p_x\.t is not part of the fiber$"):
        momentum_shift(hdw, [parse("u_x", ctx_tx), Expr.zero()])
    assert momentum_shift(hdw, [Expr.zero(), parse("u^2", ctx_tx)]).fiber == hdw.fiber


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
    assert red.hamiltonian == parse(
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
    assert canon(red.system_hdw) == expected_rows(red.system_hdw, expected)


def test_reduce_wave_hand_legendre_oracle():
    # hand oracle: p^t = u_t, p^x = -u_x, H = (p^t)^2/2 - (p^x)^2/2
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx))
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "regular"
    assert red.hamiltonian == parse("1/2*p_.t^2 - 1/2*p_.x^2", ctx)
    assert canon(red.system_hdw) == expected_rows(red.system_hdw, [
        "u,_t - p_.t", "u,_x + p_.x", "p_.t,_t + p_.x,_x"])
    assert red.p_coordinates == red.p0_coordinates


def test_reduce_regular_first_order_consistency():
    # dH/dp_.i reproduces the constraint solve for the top jets
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx))
    red = reduce_lagrangian(lag)
    for i, name in enumerate(ctx.independents):
        jet = CoordinateId.jet(0, MultiIndex((i,)))
        momentum = CoordinateId.momentum(0, EMPTY, i)
        assert reference_partial(red.hamiltonian, momentum) == red.substitutions[jet]


def test_reduce_regular_display_randomized():
    # for regular first-order densities the HDW rows are exactly
    # u,_i = dH/dp_.i and sum_i p_.i,_i = -dH/du
    from fractions import Fraction
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(1, 2)
        names = ("t", "x")[:n]
        ctx = JetContext(names, ("u",))
        L = Expr.zero()
        for i in range(n):
            jet = Expr.coord(CoordinateId.jet(0, MultiIndex((i,))))
            L = L + jet * jet * Fraction(rng.choice([1, 2, 3]), 2)
            L = L + jet * Expr.coord(CoordinateId.jet(0, EMPTY)).scale(rng.randint(-2, 2))
        L = L + Expr.coord(CoordinateId.jet(0, EMPTY)).scale(rng.randint(-3, 3))
        red = reduce_lagrangian(LagrangianDensity(ctx, L, order=1))
        assert red.diagnosis == "regular"
        H = red.hamiltonian
        rows = dict(red.system_hdw.equations)
        divergence = Expr.zero()
        for i in range(n):
            momentum = CoordinateId.momentum(0, EMPTY, i)
            expected = Expr.coord(CoordinateId.comma(CoordinateId.jet(0, EMPTY), i)) \
                - reference_partial(H, momentum)
            assert rows[f"contact:u::{names[i]}"] == expected
            divergence = divergence + Expr.coord(CoordinateId.comma(momentum, i))
        assert rows["mom:u:"] == -reference_partial(H, CoordinateId.jet(0, EMPTY)) \
            - divergence


def test_reduce_zero_lagrangian():
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, Expr.zero(), order=1)
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "reducible"
    assert red.hamiltonian == Expr.zero()
    # all level-0 momenta are constrained away
    assert {ctx.name(c) for c in red.substitutions} == {"p_.t", "p_.x"}
    assert red.system_hdw.equations == ()


def test_reduce_mechanics():
    ctx = JetContext(("t",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2", ctx))
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "regular"
    assert red.hamiltonian == parse("1/2*p_.t^2", ctx)
    assert canon(red.system_hdw) == expected_rows(red.system_hdw, [
        "u,_t - p_.t", "p_.t,_t"])


def test_reduce_nonlinear_constraints_diagnosed():
    ctx = JetContext(("x",), ("u",))
    lag = LagrangianDensity(ctx, parse("1/4*u_xx^4", ctx))
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "irreducible: nonlinear constraints"
    assert red.system_hdw is None and red.hamiltonian is None


def test_reduce_jet_dependent_momentum_row_diagnosed():
    # dL/du_tx = u_x stays in the leftover pool and is not jet-free
    ctx = JetContext(("t", "x"), ("u",))
    lag = LagrangianDensity(ctx, parse("u_x*u_tx", ctx), order=2)
    red = reduce_lagrangian(lag)
    assert red.diagnosis == "Assumption 1 check failed"
    assert red.offending


def test_reduction_soundness_randomized():
    rng = random.Random(61)
    done = 0
    for _ in range(60):
        lag = random_lagrangian(rng, max_order=2, max_degree=2)
        red = reduce_lagrangian(lag)
        if red.system_hdw is None:
            continue
        done += 1
        energy = energy_density(lag)
        restricted = energy.substitute(red.substitutions)
        assert restricted == red.hamiltonian
        eliminated = set(red.substitutions)
        for c in red.hamiltonian.coordinates():
            assert c not in eliminated
        for _, res in red.system_hdw.equations:
            for c in res.coordinates():
                if c.kind != "independent":
                    assert c.base not in eliminated
    assert done >= 10


def test_reduced_rows_on_p_and_p0_agree(kdv):
    # the HDW rows read P0 coordinates only, so they are the rows on the
    # constraint manifold P too: P is P0 plus the surviving top jets
    rng = random.Random(67)
    lags = [kdv] + [random_lagrangian(rng, max_degree=2) for _ in range(60)]
    reduced = [(lag, red) for lag, red in zip(lags, map(reduce_lagrangian, lags))
               if red.system_hdw is not None]
    assert len(reduced) >= 10
    for lag, red in reduced:
        p0 = [c for c in red.p0_coordinates if c.kind != "independent"]
        fiber = red.system_hdw.fiber
        for _, res in red.system_hdw.equations:
            for c in res.coordinates():
                if c.kind != "independent":
                    assert c.base in p0
        assert list(fiber) == p0
        tops = tuple(c for c in lag.context.jets_up_to(lag.level + 1)
                     if len(c.index) == lag.level + 1 and c not in red.substitutions)
        assert red.p_coordinates == tuple(sorted(red.p0_coordinates + tops))


def test_reduced_json_shape(capsys, tmp_path):
    path = tmp_path / "kdv.problem"
    path.write_text(f"independents = t x\ndependents = u\nlagrangian = {KDV_L}\norder = 2\n")
    assert cli.main(["reduce", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diagnosis"] == "reducible"
    assert data["substitutions"]["p_x.t"] == "-p_t.x"
    assert len(data["equations"]) == 7


# the HDW rows of the first case, printed twice (equations on P, HDW equations)
_X_COEFFICIENT_ROWS = """\
mom:u:: -p_.t,_t - p_.x,_x = 0
mom:u:t: -p_.t - p_t.t,_t - p_t.x,_x = 0
mom:u:x: -p_.x - p_t.t - x*p_t.t,_x + p_t.x,_t = 0
contact:u::t: u,_t - u_t = 0
contact:u::x: u,_x - u_x = 0
contact:u:t:t: u_t,_t + x*u_x,_x - p_t.t = 0
contact:u:t:x: u_t,_x - u_x,_t = 0
"""


@pytest.mark.parametrize("lagrangian, text", [
    # u_xx's coefficients read x: u_tt is solved for, and stage 2 solves
    # rows whose momentum coefficients read x
    ("1/2*(u_tt + x*u_xx)^2",
     "diagnosis: reducible\n"
     "P coordinates:  t x u u_t u_x u_tx u_xx p_.t p_.x p_t.t p_t.x\n"
     "P0 coordinates: t x u u_t u_x p_.t p_.x p_t.t p_t.x\n"
     "eliminate u_tt = -x*u_xx + p_t.t\n"
     "eliminate p_x.t = -p_t.x\n"
     "eliminate p_x.x = x*p_t.t\n"
     "E|_P = u_t*p_.t + u_x*p_.x + 1/2*p_t.t^2\n"
     "H = u_t*p_.t + u_x*p_.x + 1/2*p_t.t^2\n"
     "equations on P:\n" + _X_COEFFICIENT_ROWS + "HDW equations:\n" + _X_COEFFICIENT_ROWS),
    # u_xx's coefficient in its own row reads u once u_tt is solved
    ("u_tt^2 + u_xx^2 + u*u_tt*u_xx",
     "diagnosis: Assumption 1 check failed\n"
     "P coordinates:  \n"
     "P0 coordinates: \n"
     "eliminate u_tt = -1/2*u*u_xx + 1/2*p_t.t\n"
     "offending rows: constraint:u:xx\n"),
])
def test_reduce_with_top_coefficients_that_are_not_rational(capsys, tmp_path, lagrangian, text):
    path = tmp_path / "density.problem"
    path.write_text(f"independents = t x\ndependents = u\nlagrangian = {lagrangian}\norder = 2\n")
    assert cli.main(["reduce", str(path)]) == 0
    assert capsys.readouterr().out == text


# -- reduction against its earlier algorithm -------------------------------------

# (n, m, order) with at most 10 top jets, so that the reference restriction
# (the whole energy substituted) stays cheap
SHAPES = [(n, m, order) for n in (1, 2, 3) for m in (1, 2) for order in (1, 2, 3)
          if m * math.comb(n + order - 1, order) <= 10]


@st.composite
def shaped_densities(draw, kinds):
    """A density of one of the kinds of the benchmark's derive ladder.

    "regular" is quadratic in every top jet (a diagonally dominant banded
    form), "reducible" in every third top jet only; both carry couplings
    linear in a top jet and lower-order interactions.  "nonlinear" adds the
    cube of a top jet, "assumption" a free top jet times a lower jet.
    "coupled" is reducible, with independents among the lower-order factors,
    plus c/2*(a + f*b)^2 for one or two pairs of free top jets a, b and f a
    lower jet or an independent: a is solved for, and b's row reads f times
    a's momenta, so that stage 2 meets coefficients that are not rational
    (or, for a jet f, Assumption 1 fails on a row that reads f).
    """
    kind = draw(st.sampled_from(kinds))
    least = {"assumption": 2, "coupled": 3}.get(kind, 1)
    shapes = [(n, m, o) for n, m, o in SHAPES if m * math.comb(n + o - 1, o) >= least]
    n, m, order = draw(st.sampled_from(shapes))
    ctx = JetContext(("t", "x", "y")[:n], ("u", "v")[:m])
    tops = [CoordinateId.jet(a, I) for a in range(m) for I in multiindices(n, order)]
    lower = [CoordinateId.jet(a, I) for a in range(m) for I in multiindices_up_to(n, order - 1)]
    if kind == "coupled":
        lower += [CoordinateId.independent(i) for i in range(n)]

    def coeff():
        return Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 3)))

    def term(c, factors):
        out = Expr.number(c)
        for f in factors:
            out = out * Expr.coord(f)
        return out

    quad = tops if kind == "regular" else tops[::3]
    rest = [c for c in tops if c not in quad]
    off = {(i, i + 1): coeff() for i in range(len(quad) - 1)}
    terms = []
    for i, a in enumerate(quad):
        row = sum(abs(c) for (p, q), c in off.items() if i in (p, q))
        terms.append(term(Fraction(row + 1 + draw(st.integers(0, 3)), 2), [a, a]))
    terms += [term(c, [quad[i], quad[j]]) for (i, j), c in off.items()]
    terms += [term(coeff(), [a, draw(st.sampled_from(lower))]) for a in quad[:3]]
    for _ in range(draw(st.integers(1, 3))):
        terms.append(term(coeff(), draw(st.lists(st.sampled_from(lower), min_size=1,
                                                 max_size=3))))
    if kind == "nonlinear":
        terms.append(term(coeff(), [quad[-1]] * 3))
    elif kind == "assumption":
        terms.append(term(coeff(), [rest[0], draw(st.sampled_from(lower))]))
    elif kind == "coupled":
        pairs = draw(st.permutations(rest))
        for a, b in zip(pairs[:4:2], pairs[1:4:2]):
            c, f = coeff(), draw(st.sampled_from(lower))
            terms += [term(c / 2, [a, a]), term(c, [a, b, f]), term(c / 2, [b, b, f, f])]
    return LagrangianDensity(ctx, Expr.sum(terms), order=order)


def coefficient(res, c):
    """The coefficient of c in res: its terms of degree one in c, c removed."""
    return Expr([(mono[:k] + mono[k + 1:], q) for mono, q in res.terms
                 for k, (cc, e) in enumerate(mono) if cc == c and e == 1])


def coefficient_pivot(res, candidates):
    """The pivot rule, one candidate at a time: the first candidate whose
    coefficient in res is a nonzero rational, with that coefficient."""
    for c in candidates:
        value = coefficient(res, c).constant_value()
        if value:
            return c, value
    return None


def gauss_jordan_substitutions(lag):
    """The reduction's substitutions as computed before one back-substitution:
    each new solution is substituted into every earlier one (Gauss-Jordan),
    with the coefficient pivot rule."""
    ctx, l = lag.context, lag.level
    tops_ordered = [c for c in ctx.jets_up_to(l + 1) if len(c.index) == l + 1]
    pending = list(constraints(lag).equations)
    subs = {}
    if any(sum(e for c, e in mono if c in tops_ordered) > 1
           for _, res in pending for mono, _ in res.terms):
        return subs

    def eliminate(coord, coeff, res, rows):
        solved = res.substitute({coord: Expr.zero()}).scale(Fraction(-1) / coeff)
        subs[coord] = solved
        rows = [(lb, r.substitute({coord: solved})) for lb, r in rows]
        for key in list(subs):
            subs[key] = subs[key].substitute({coord: solved})
        return rows

    k = 0
    while k < len(pending):
        pivot = coefficient_pivot(pending[k][1], [jet for jet in tops_ordered if jet not in subs])
        if pivot is None:
            k += 1
        else:
            pending = eliminate(*pivot, pending[k][1], pending[:k] + pending[k + 1:])
            k = 0
    leftovers = [(lb, r) for lb, r in pending if not r.is_zero()]
    if any(c.kind == "jet" for _, r in leftovers for c in r.coordinates()):
        return subs
    while leftovers:
        label, res = leftovers.pop(0)
        pivot = coefficient_pivot(res, [c for c in reversed(res.coordinates())
                                        if c.kind == "momentum"])
        assert pivot is not None, f"stage 2 finds no pivot in {label}"
        leftovers = [(lb, r) for lb, r in eliminate(*pivot, res, leftovers) if not r.is_zero()]
    return subs


@settings(max_examples=25, deadline=None)
@given(shaped_densities(("regular", "reducible")))
def test_restricted_energy_is_the_substituted_energy(lag):
    # Euler's identity: the restriction never expands the quadratic top-jet
    # part of L, and gives the Expr of the whole energy substituted
    red = reduce_lagrangian(lag)
    assert red.hamiltonian is not None
    assert red.hamiltonian == energy_density(lag).substitute(red.substitutions)


@settings(max_examples=40, deadline=None)
@given(shaped_densities(("regular", "reducible", "assumption", "nonlinear")))
def test_back_substitution_matches_gauss_jordan(lag):
    want = gauss_jordan_substitutions(lag)
    got = reduce_lagrangian(lag).substitutions
    assert list(got.items()) == list(want.items())


@settings(max_examples=60, deadline=None)
@given(shaped_densities(("coupled",)))
def test_stage_two_solves_every_row_left_by_stage_one(lag):
    # a row left by stage 1 keeps -1 on each momentum of its own P_K, which
    # no other row reads: stage 2 finds a rational pivot in every row, also
    # where the coefficients read x (reduce_lagrangian raises an
    # AssertionError if not, and so does the oracle), and agrees with the
    # Gauss-Jordan oracle item for item
    red = reduce_lagrangian(lag)
    assert red.diagnosis in ("reducible", "Assumption 1 check failed")
    assert list(red.substitutions.items()) == list(gauss_jordan_substitutions(lag).items())


def test_back_substitution_matches_gauss_jordan_on_kdv(kdv):
    # a fixed case through both stages, whatever the random draws: kdv solves
    # one top jet, then two momenta
    assert list(reduce_lagrangian(kdv).substitutions.items()) == \
        list(gauss_jordan_substitutions(kdv).items())


def single_row_pivot(res, candidates):
    """The pivot symcore.eliminate takes in the one-row system whose entries
    are the candidates' coefficients in res and a constant 1 (column None):
    (the column it solves for, its coefficient), or None."""
    row = {c: coefficient(res, c) for c in candidates}
    row[None] = Expr.number(1)
    solutions, _ = eliminate({"res": row}, candidates)
    if not solutions:
        return None
    (c, solution), = solutions.items()
    return c, -1 / solution[None].constant_value()


@pytest.mark.parametrize("text, pivot", [
    ("2*u_tt + u_x", ("u_tt", Fraction(2))),                # alone
    ("u_x*u_tt + u_tx - 3", ("u_tx", Fraction(1))),         # u_tt in a product
    ("u_x*u_tt + u_x*u_tx", None),                          # both in products
    ("u_tt^2 + 3*u_xx", ("u_xx", Fraction(3))),             # u_tt squared
    ("u_tt^2 - 1/2*u_tt + u_xx", ("u_tt", Fraction(-1, 2))),  # squared and alone
    ("u_tt + u_x*u_tt + u_xx", ("u_xx", Fraction(1))),      # u_tt in several terms
    ("u_tt*u_tx + u_xx*u_tx", None),
    ("0", None),
])
def test_one_pass_pivot(ctx_tx, text, pivot):
    # one row through symcore.eliminate takes the pivot of the coefficient rule
    res = parse(text, ctx_tx)
    candidates = [ctx_tx.resolve(name) for name in ("u_tt", "u_tx", "u_xx")]
    want = None if pivot is None else (ctx_tx.resolve(pivot[0]), pivot[1])
    assert single_row_pivot(res, candidates) == coefficient_pivot(res, candidates) == want


def test_one_pass_pivot_randomized(ctx_tx):
    rng = random.Random(89)
    pool = [ctx_tx.resolve(name) for name in ("u", "u_x", "u_tt", "u_tx", "u_xx")]
    for _ in range(400):
        res = random_expr(rng, pool, max_monomials=5, max_factors=2, max_exp=2)
        candidates = rng.sample(pool, rng.randint(1, len(pool)))
        assert single_row_pivot(res, candidates) == coefficient_pivot(res, candidates)


# -- the certificate: the Hamiltonian side pulls back to Euler-Lagrange -----------

def certificate_densities():
    """The three sample problems and seeded regular and reducible densities
    (n <= 3, m <= 2, order <= 3): quadratic in every top jet, or in some of
    them only, plus a cubic polynomial in the lower jets."""
    lags = []
    for name in sorted(os.listdir(PROBLEMS)):
        lags.append(load_problem(os.path.join(PROBLEMS, name)).density)
    rng = random.Random(97)
    for k in range(24):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        order = rng.randint(1, 3)
        ctx = JetContext(("t", "x", "y")[:n], ("u", "v")[:m])
        tops = [c for c in ctx.jets_up_to(order) if len(c.index) == order]
        lower = ctx.jets_up_to(order - 1)
        squared = tops if k % 2 == 0 else rng.sample(tops, max(1, len(tops) // 3))
        parts = [Expr.coord(c) ** 2 * Fraction(rng.choice((-3, -1, 1, 2)), 2) for c in squared]
        for _ in range(3):
            term = Expr.number(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                term = term * Expr.coord(rng.choice(lower))
            parts.append(term)
        lags.append(LagrangianDensity(ctx, Expr.sum(parts), order=order))
    return lags


def assert_certified(system, theta, el, lag):
    """Every pulled-back row is 0 but mom:<a>:, which is +E_a(L)."""
    ctx = lag.context
    expected = {f"mom:{ctx.dependents[a]}:": e for a, e in enumerate(el)}
    for label, res in pullback(system, theta):
        assert res == expected.get(label, Expr.zero()), label


def test_certificate_elh_hdw_and_shift_pull_back_to_euler_lagrange():
    rng = random.Random(5)
    reduced = 0
    for lag in certificate_densities():
        ctx, theta, el = lag.context, legendre_form(lag), euler_lagrange(lag)
        assert_certified(elh_system(lag), theta, el, lag)
        red = reduce_lagrangian(lag)
        if red.system_hdw is not None:
            reduced += 1
            assert_certified(red.system_hdw, theta, el, lag)
        # L + D_i rho^i has the same E(L); the shifted system is its ELH system
        rho = [random_expr(rng, jet_pool(ctx, lag.level, include_independents=False),
                           max_monomials=2, max_factors=2) for _ in range(ctx.n)]
        shifted = LagrangianDensity(ctx, lag.L + Expr.sum(
            [total_derivative(r, i) for i, r in enumerate(rho)]), order=lag.order)
        assert_certified(momentum_shift(elh_system(lag), rho), legendre_form(shifted), el, lag)
    assert reduced >= 20


def gauged_densities():
    """Each density of certificate_densities with n >= 2 and l >= 1, where
    a momentum gauge exists, and 28 seeded random ones of such shapes, each
    with a seeded random_gauge."""
    rng = random.Random(22)
    lags = [lag for lag in certificate_densities() if lag.context.n >= 2 and lag.level >= 1]
    lags += [random_lagrangian(rng, shape=(rng.randint(2, 3), rng.randint(1, 2),
                                           rng.randint(2, 3))) for _ in range(28)]
    return [(lag, random_gauge(rng, lag)) for lag in lags]


def test_elh_rows_are_blind_to_a_momentum_gauge():
    # the paper's formalism is "free from any relevant ambiguity": the
    # Legendre form is fixed only up to a gauge q of the momenta, and the
    # ELH rows do not see it, p -> p + q taken through comma_images
    cases = gauged_densities()
    assert len(cases) >= 30
    for lag, q in cases:
        system = elh_system(lag)
        mapping = comma_images({p: Expr.coord(p) + e for p, e in q.items()}, lag.context.n)
        assert [(label, res.substitute(mapping)) for label, res in system.equations] == \
            list(system.equations)


def test_certificate_holds_on_a_gauged_legendre_section():
    # theta + q is a Legendre section as good as theta: the ELH rows pull
    # back along it to the Euler-Lagrange equations
    for lag, q in gauged_densities():
        theta = legendre_form(lag)
        gauged = {**theta, **{p: theta.get(p, Expr.zero()) + e for p, e in q.items()}}
        assert_certified(elh_system(lag), gauged, euler_lagrange(lag), lag)


def test_hdw_rows_and_the_hamiltonian_see_a_momentum_gauge_as_a_null_divergence():
    # on every reduction among the gauged densities, p -> p + q leaves the
    # HDW rows as they are, and moves H by exactly the null divergence
    # sum_(K, i<j) (D_i f*u_Kj - D_j f*u_Ki): q^{K.i} = -D_j f and
    # q^{K.j} = D_i f, the two momenta of q at the lower level, each times
    # its jet u_{Ki} or u_{Kj}
    reduced = 0
    for lag, q in gauged_densities():
        red = reduce_lagrangian(lag)
        if red.system_hdw is None:
            continue
        reduced += 1
        system = red.system_hdw
        mapping = comma_images({p: Expr.coord(p) + e for p, e in q.items()}, lag.context.n)
        assert [(label, res.substitute(mapping)) for label, res in system.equations] == \
            list(system.equations)
        low = min(len(p.index) for p in q)
        delta = Expr.sum([e * Expr.coord(CoordinateId.jet(p.alpha, p.index.with_index(p.i)))
                          for p, e in q.items() if len(p.index) == low])
        H = red.hamiltonian
        assert H.substitute({p: Expr.coord(p) + e for p, e in q.items()}) - H == delta
    assert reduced >= 13


def test_a_shift_by_a_null_divergence_moves_no_row():
    # rho^i = sum_j D_j S^{ij}, S antisymmetric of order <= l-1, is a null
    # divergence (D_i rho^i = 0), so the ELH system of L + D_i rho^i is that
    # of L, and momentum_shift by rho moves no row
    rng = random.Random(13)
    for lag, _ in gauged_densities():
        ctx = lag.context
        pool = jet_pool(ctx, lag.level - 1)
        S = {}
        for i, j in itertools.combinations(range(ctx.n), 2):
            f = random_expr(rng, pool, max_monomials=2, max_factors=2)
            S[i, j], S[j, i] = f, -f
        rho = [Expr.sum([total_derivative(S[i, j], j) for j in range(ctx.n) if j != i])
               for i in range(ctx.n)]
        system = elh_system(lag)
        assert momentum_shift(system, rho).equations == system.equations


def test_certificate_holds_on_the_homotopy_density():
    # L_h has the Euler-Lagrange equations of L at up to twice its order, so
    # the ELH system of L_h pulls back along L_h's Legendre section to E(L);
    # on the sample problems and the densities of every rung of the
    # benchmark ladder, drawn as perfbench draws them for seed 1
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lags = [load_problem(os.path.join(PROBLEMS, name)).density
            for name in sorted(os.listdir(PROBLEMS))]
    lags += [parse_problem_text(workloads.problem_text(
        n, m, order, kind, workloads._rng(1, "x", n, m, order))).density
        for n, m, order, kind in workloads.LADDER]
    assert len(lags) == 15
    for lag in lags:
        homotopy = homotopy_lagrangian(lag)
        assert homotopy.order > lag.order
        assert_certified(elh_system(homotopy), legendre_form(homotopy), euler_lagrange(lag),
                         homotopy)


def regular_densities(count, seed, shape):
    """count seeded densities, of the shapes (n, m, order) that shape(rng)
    draws, that reduce as regular: quadratic in the top jets with constant
    coefficients, plus a top jet times a polynomial in the lower jets, plus
    a polynomial in the lower jets."""
    rng = random.Random(seed)
    lags = []
    while len(lags) < count:
        n, m, order = shape(rng)
        ctx = JetContext(("t", "x", "y")[:n], ("u", "v")[:m])
        tops = [c for c in ctx.jets_up_to(order) if len(c.index) == order]
        lower = ctx.jets_up_to(order - 1)
        parts = [Expr.coord(a) * Expr.coord(b) * Fraction(rng.randint(-3, 3), 2)
                 for a, b in itertools.combinations_with_replacement(tops, 2)]
        parts += [Expr.coord(rng.choice(tops))
                  * random_expr(rng, lower, max_monomials=2, max_factors=2),
                  random_expr(rng, lower, max_monomials=3)]
        lag = LagrangianDensity(ctx, Expr.sum(parts), order=order)
        if reduce_lagrangian(lag).diagnosis == "regular":
            lags.append(lag)
    return lags


def to_sympy(e: Expr, table):
    """e as a sympy expression, term by term, each coordinate its symbol in table."""
    import sympy  # only the oracle tests read sympy, each after importorskip
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[table[x] ** p for x, p in mono]) for mono, c in e.terms])


def test_reduce_matches_the_ostrogradsky_hamiltonian():
    # an oracle over sympy alone at n = 1: with q^(j) the j-th derivative
    # and D the total derivative, Ostrogradsky's momenta are
    # P_j = sum_{i>=j} (-D)^(i-j) dL/dq^(i) for j = 1..k, which the Legendre
    # form gives as p^{t^(j-1).t}; solving P_k = dL/dq^(k) for the top
    # derivatives in H = sum_j P_j q^(j) - L gives reduce's Hamiltonian
    sympy = pytest.importorskip("sympy")
    for lag in regular_densities(30, 24, lambda rng: (1, rng.randint(1, 2), rng.randint(1, 3))):
        m, k = lag.context.m, lag.order
        qs = [[sympy.Symbol(f"q{a}_{j}") for j in range(2 * k + 1)] for a in range(m)]
        ps = [[sympy.Symbol(f"P{a}_{j}") for j in range(1, k + 1)] for a in range(m)]
        table = {CoordinateId.jet(a, MultiIndex((0,) * j)): qs[a][j]
                 for a in range(m) for j in range(2 * k + 1)}
        table.update((CoordinateId.momentum(a, MultiIndex((0,) * j), 0), ps[a][j])
                     for a in range(m) for j in range(k))

        def minus_d(f):
            return -sum(sympy.diff(f, qs[a][j]) * qs[a][j + 1]
                        for a in range(m) for j in range(2 * k))

        L = to_sympy(lag.L, table)
        theta = legendre_form(lag)
        for a, j in itertools.product(range(m), range(1, k + 1)):
            P = 0
            for i in range(j, k + 1):
                term = sympy.diff(L, qs[a][i])
                for _ in range(i - j):
                    term = minus_d(term)
                P += term
            p = CoordinateId.momentum(a, MultiIndex((0,) * (j - 1)), 0)
            assert sympy.expand(to_sympy(theta.get(p, Expr.zero()), table) - P) == 0
        tops = [qs[a][k] for a in range(m)]
        top_values, = sympy.solve([sympy.diff(L, qs[a][k]) - ps[a][k - 1] for a in range(m)],
                                  tops, dict=True)
        H = sum(ps[a][j - 1] * qs[a][j] for a in range(m) for j in range(1, k + 1)) - L
        assert sympy.expand(to_sympy(reduce_lagrangian(lag).hamiltonian, table)
                            - H.subs(top_values)) == 0


def test_reduce_matches_the_de_donder_weyl_hamiltonian():
    # an oracle over sympy alone at first order: solving p^{.i}_a = dL/du^a_i,
    # linear in the first jets u^a_i for these densities, for them in
    # H = sum p^{.i}_a u^a_i - L gives reduce's Hamiltonian
    sympy = pytest.importorskip("sympy")
    lags = regular_densities(22, 48, lambda rng: (rng.randint(2, 3), rng.randint(1, 2), 1))
    assert {(lag.context.n, lag.context.m) for lag in lags} == {(2, 1), (2, 2), (3, 1), (3, 2)}
    for lag in lags:
        ctx = lag.context
        table = {c: sympy.Symbol(ctx.name(c)) for c in ctx.jets_up_to(1) + ctx.momenta_up_to(0)}
        firsts = [c for c in ctx.jets_up_to(1) if c.index]
        us = [table[c] for c in firsts]
        ps = [table[CoordinateId.momentum(c.alpha, EMPTY, c.index[0])] for c in firsts]
        L = to_sympy(lag.L, table)
        solution, = sympy.linsolve([sympy.diff(L, u) - p for u, p in zip(us, ps)], us)
        H = sum(p * u for u, p in zip(us, ps)) - L
        assert sympy.expand(to_sympy(reduce_lagrangian(lag).hamiltonian, table)
                            - H.subs(dict(zip(us, solution)))) == 0


def test_comma_images_differentiate_on_the_mixed_fiber(ctx_tx):
    # the image of p_x.x*u_x under D_t: the momentum gains a comma, the jet
    # prolongs as under total_derivative, and a comma-derivative gains an entry
    p = CoordinateId.momentum(0, MultiIndex((1,)), 1)
    e = parse("p_x.x*u_x", ctx_tx)
    images = comma_images({p: e}, ctx_tx.n)
    assert list(images) == [p, CoordinateId.comma(p, 0), CoordinateId.comma(p, 1)]
    assert images[p] == e
    assert images[CoordinateId.comma(p, 0)] == parse("p_x.x,_t*u_x + p_x.x*u_tx", ctx_tx)
    assert images[CoordinateId.comma(p, 1)] == parse("p_x.x,_x*u_x + p_x.x*u_xx", ctx_tx)
    q = CoordinateId.comma(p, 0)
    assert comma_images({q: Expr.coord(q) + parse("t*x", ctx_tx)}, 2)[
        CoordinateId.comma(q, 1)] == parse("p_x.x,_tx + t", ctx_tx)


# shapes (n, m, order) of the benchmark's derivation ladder
LADDER_SHAPES = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 1, 3),
                 (3, 2, 2), (3, 2, 3), (4, 1, 2), (4, 1, 3), (4, 2, 2), (4, 2, 3)]


def test_mixed_systems_carry_strictly_ascending_fibers():
    # term order is the coordinates' order: with a sorted fiber it is the
    # order the mixed rows have always printed in
    lags = certificate_densities()
    for n, m, order in LADDER_SHAPES:
        ctx = JetContext(("t", "x", "y", "z")[:n], ("u", "v")[:m])
        tops = [c for c in ctx.jets_up_to(order) if len(c.index) == order]
        for squared in (tops, tops[::3]):
            L = Expr.sum([Expr.coord(c) ** 2 for c in squared] + [parse("u", ctx)])
            lags.append(LagrangianDensity(ctx, L, order=order))
    systems = 0
    for lag in lags:
        red = reduce_lagrangian(lag)
        for system in (elh_system(lag), red.system_hdw,
                       momentum_shift(elh_system(lag), [Expr.zero()] * lag.context.n)):
            if system is not None:
                systems += 1
                assert all(a < b for a, b in zip(system.fiber, system.fiber[1:]))
                assert system.fiber and system.level == lag.level
    assert systems == 3 * len(lags)
    assert constraints(lags[0]).fiber == ()
