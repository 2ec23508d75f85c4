"""Evaluation, finite-difference stencils, residual verification."""

import dataclasses
import itertools
import math
import mmap
import os
import random
import re
import sys
import tracemalloc
import types
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import KDV_L, jet_pool, random_expr, record_arenas, soliton_grid, wave3_grid
from varjet import numeric
from varjet.jetcalc import EquationSystem
from varjet.multiindex import EMPTY, multiindices_up_to
from varjet.numeric import (
    GridFunction,
    GridTooSmallError,
    MissingFieldError,
    evaluate,
    fd_weights,
    load_grid,
    residual,
    save_grid,
    stencil_radius,
)
from varjet.pdham import constraints, elh_system, reduce_lagrangian
from varjet.symcore import (COMMA, INDEPENDENT, JET, MOMENTUM, CoordinateId, Expr, JetContext,
                            VarjetError, parse)
from varjet.variational import LagrangianDensity, euler_lagrange, legendre_form


def kdv_el_system(ctx):
    return kdv_system(ctx, "el")[0]


def grid_1d(n, box, fn):
    x = np.linspace(-box, box, n)
    return GridFunction(("x",), (x[0],), (x[1] - x[0],), {"u": fn(x)}), x


# -- eval ---------------------------------------------------------------------

def test_eval_square(ctx_tx):
    e = parse("u_x^2", ctx_tx)
    assert evaluate(e, {ctx_tx.resolve("u_x"): 3.0}) == 9.0


def test_eval_kdv_point(ctx_tx):
    L = parse(KDV_L, ctx_tx)
    sample = {ctx_tx.resolve("u_t"): 0.0, ctx_tx.resolve("u_x"): 1.0,
              ctx_tx.resolve("u_xx"): 2.0}
    assert evaluate(L, sample) == 3.0


def test_eval_energy_consistency(ctx_tx):
    # E with momenta at the canonical Legendre values vs a hand-computed spot value
    lag = LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=2)
    theta = legendre_form(lag)
    from varjet.pdham import energy_density
    E = energy_density(lag)
    point = {ctx_tx.resolve(n): v for n, v in
             {"u": 0.5, "u_t": 2.0, "u_x": 1.0, "u_tt": -1.0, "u_tx": 0.25,
              "u_xx": 2.0, "u_txx": 0.0, "u_xxx": -3.0}.items()}
    sample = dict(point)
    from varjet.multiindex import multiindices_up_to
    for index in multiindices_up_to(2, 1):
        for i in range(2):
            p = CoordinateId.momentum(0, index, i)
            sample[p] = evaluate(theta.get(p, Expr.zero()), point)
    # hand evaluation: p_.t u_t + p_.x u_x + p_x.x u_xx - L
    p_t = -0.5 * 1.0
    p_x = 3 * 1.0 - 0.5 * 2.0 - (-3.0)
    p_xx = 2.0
    L_val = 1.0 - 0.5 * 1.0 * 2.0 + 0.5 * 4.0
    assert evaluate(E, sample) == pytest.approx(
        p_t * 2.0 + p_x * 1.0 + p_xx * 2.0 - L_val, abs=1e-12)


def test_eval_missing_coordinate(ctx_tx):
    with pytest.raises(MissingFieldError):
        evaluate(parse("u_x", ctx_tx), {})


def test_eval_ring_homomorphism_random(ctx_tx):
    rng = random.Random(67)
    pool = jet_pool(ctx_tx, 2)
    for _ in range(60):
        a = random_expr(rng, pool, max_monomials=3)
        b = random_expr(rng, pool, max_monomials=3)
        sample = {c: rng.uniform(-2, 2) for c in set(a.coordinates()) | set(b.coordinates())}
        lhs = evaluate(a * b, sample)
        rhs = evaluate(a, sample) * evaluate(b, sample)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def reference_evaluate(e, sample):
    """The term-by-term rule evaluate had before its in-place sums, the
    bit-exact reference: each term ``float(coeff) * f_1 * f_2 * ...`` in
    factor order, the terms summed left to right into new values."""
    total = None
    for mono, coeff in e.terms:
        term = float(coeff)
        for c, p in mono:
            term = term * (sample[c] if p == 1 else sample[c] ** p)
        total = term if total is None else total + term
    return 0.0 if total is None else total


def bits(value):
    return np.array(value, dtype=np.float64).view(np.uint64)


EVAL_POOL = [CoordinateId.independent(1)] + [
    CoordinateId.jet(0, I) for I in multiindices_up_to(2, 2)]
# unit coefficients most often, as in the equations check-solution evaluates
eval_coeffs = st.sampled_from([Fraction(v) for v in (
    1, 1, -1, -1, "1/2", "-1/2", 3, -3, "2/3", -6, "1/3", 7)])
eval_terms = st.lists(st.tuples(
    st.lists(st.tuples(st.sampled_from(EVAL_POOL), st.integers(1, 4)),
             max_size=3, unique_by=lambda f: f[0]),
    eval_coeffs), min_size=0, max_size=6)
eval_floats = st.one_of(st.floats(-50, 50, allow_subnormal=False),
                        st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def eval_values(draw):
    """A sample value on the 3x4 grid: an array, a row broadcast along it
    (read-only, as the meshes and the constant momenta are), a bare row,
    or a scalar."""
    kind = draw(st.sampled_from(["array", "broadcast", "row", "float", "numpy"]))
    if kind in ("float", "numpy"):
        v = draw(eval_floats)
        return v if kind == "float" else np.float64(v)
    size = 12 if kind == "array" else 4
    values = np.array(draw(st.lists(eval_floats, min_size=size, max_size=size)))
    if kind == "array":
        return values.reshape(3, 4)
    return np.broadcast_to(values, (3, 4)) if kind == "broadcast" else values


@settings(max_examples=150, deadline=None)
@given(terms=eval_terms, values=st.lists(eval_values(), min_size=len(EVAL_POOL),
                                         max_size=len(EVAL_POOL)))
def test_evaluate_matches_term_by_term_bitwise(terms, values):
    e = Expr(tuple((tuple(sorted(mono, key=lambda f: f[0])), c) for mono, c in terms))
    sample = dict(zip(EVAL_POOL, values))
    before = {c: np.array(v, copy=True) for c, v in sample.items()}
    want = reference_evaluate(e, sample)
    got = evaluate(e, sample)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))
    # evaluate wrote into no sample value, and returned none
    for c, v in sample.items():
        assert np.array_equal(bits(v), bits(before[c]))
    if isinstance(got, np.ndarray):
        for v in sample.values():
            assert not np.shares_memory(got, v)


@st.composite
def eval_grid_values(draw):
    """A sample value of the 3x4 grid's shape: an array or a broadcast row."""
    values = np.array(draw(st.lists(eval_floats, min_size=12, max_size=12)))
    return draw(st.sampled_from([values.reshape(3, 4), np.broadcast_to(values[:4], (3, 4))]))


@settings(max_examples=150, deadline=None)
@given(terms=eval_terms, values=st.lists(eval_grid_values(), min_size=len(EVAL_POOL),
                                         max_size=len(EVAL_POOL)))
def test_evaluate_into_buffers_matches_term_by_term_bitwise(terms, values):
    # the band loop's evaluation: every value, term product and power in a
    # buffer given, the term buffer only where a term after the first needs one
    e = Expr(tuple((tuple(sorted(mono, key=lambda f: f[0])), c) for mono, c in terms))
    sample = dict(zip(EVAL_POOL, values))
    want = reference_evaluate(e, sample)
    value = np.full((3, 4), np.nan)
    term = np.full((3, 4), np.nan) if numeric._writes_a_term(e) else None
    buffers = {(c, p): np.full((3, 4), np.nan) for mono, _ in e.terms for c, p in mono if p > 1}
    got = evaluate(e, sample, (value, term, buffers))
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))
    assert got is value or np.ndim(got) == 0


# -- stencils and prolongation ---------------------------------------------------

def test_fd_weights_first_derivative():
    # classic 4th-order five-point weights
    assert fd_weights(1) == pytest.approx((1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12))


def test_fd_weights_exact_values():
    # each weight is its exact rational value rounded once, so the values are
    # pinned bit for bit
    assert [fd_weights(order) for order in (1, 2, 3, 4)] == [
        (0.08333333333333333, -0.6666666666666666, 0.0, 0.6666666666666666,
         -0.08333333333333333),
        (-0.08333333333333333, 1.3333333333333333, -2.5, 1.3333333333333333,
         -0.08333333333333333),
        (0.125, -1.0, 1.625, 0.0, -1.625, 1.0, -0.125),
        (-0.16666666666666666, 2.0, -6.5, 9.333333333333334, -6.5, 2.0,
         -0.16666666666666666),
    ]


def test_fd_weights_mirror_exactly():
    # w_{-k} = (-1)**order w_k bit for bit, which lets the stencil kernel
    # share one product between the taps -k and +k
    for order in (1, 2, 3, 4):
        r = stencil_radius(order)
        w = fd_weights(order)
        for k in range(1, r + 1):
            assert bits(w[r - k]) == bits((-1) ** order * w[r + k]), (order, k)


def test_fd_weights_reproduce_polynomials():
    # the moment conditions make a radius-r stencil exact on degrees <= 2r
    for m in (1, 2, 3, 4):
        r = stencil_radius(m)
        w = fd_weights(m)
        for deg in range(0, 2 * r + 1):
            val = sum(wk * (k - r) ** deg for k, wk in enumerate(w))
            expected = float(math.factorial(m)) if deg == m else 0.0
            assert val == pytest.approx(expected, abs=1e-9)


def one_row(ctx, text):
    """The one-equation system ``text = 0`` over ctx."""
    return EquationSystem(ctx, (("r", parse(text, ctx)),))


def test_fd_prolong_constant_field():
    # the stencil weights sum to zero exactly, so every jet of a constant is 0
    ctx = JetContext(("x",), ("u",))
    g, _ = grid_1d(64, 1.0, lambda x: np.full_like(x, 2.5))
    for jet in ("u_x", "u_xx", "u_xxx", "u_xxxx"):
        assert residual(one_row(ctx, jet), g)["r"] <= 1e-12


def test_fd_prolong_cubic():
    ctx = JetContext(("x",), ("u",))
    g, _ = grid_1d(101, 1.0, lambda x: x ** 3)
    assert residual(one_row(ctx, "u_xx - 6*x"), g)["r"] <= 1e-9


def test_fd_prolong_soliton_ux():
    # closed-form derivative oracle: u_x = -(c/2) sech^2(sqrt(c)/2 (x - c t))
    ctx = JetContext(("t", "x"), ("u", "v"))
    g = soliton_grid(64, 512, c=1.0, box=6.0)
    T, X = g.meshes()
    g.fields["v"] = -0.5 / np.cosh(0.5 * (X - T)) ** 2
    assert residual(one_row(ctx, "u_x - v"), g)["r"] <= 1e-8


def test_fd_prolong_grid_too_small():
    ctx = JetContext(("x",), ("u",))
    g, _ = grid_1d(5, 1.0, lambda x: x)
    with pytest.raises(GridTooSmallError):
        residual(one_row(ctx, "u_xxxx"), g)


@pytest.mark.parametrize("order", [-1, 2.5, True])
def test_fd_weights_refuse_an_order_below_zero_or_not_an_integer(order):
    # -1 and 2.5 gave five zero weights before
    with pytest.raises(VarjetError, match=rf"^a derivative order must be an integer >= 0, "
                                          rf"got {order!r}$"):
        fd_weights(order)


def test_fd_prolong_mixed_partial_order_independent():
    ctx = JetContext(("t", "x"), ("u", "v"))
    g = soliton_grid(48, 48, box=4.0)
    u = g.fields["u"]
    stencil = numeric._apply_stencil
    dtx = stencil(stencil(u, 0, 1, g.spacing[0]), 1, 1, g.spacing[1])
    dxt = stencil(stencil(u, 1, 1, g.spacing[1]), 0, 1, g.spacing[0])
    interior = (slice(2, -2),) * 2
    assert np.allclose(dtx[interior], dxt[interior], equal_nan=False)
    # u_tx is the t pass, then the x pass, bit for bit
    g.fields["v"] = dtx
    assert residual(one_row(ctx, "u_tx - v"), g)["r"] == 0.0


def reference_stencil(arr, axis, order, h):
    """The unbanded kernel, as it was before banding: the bit-exact reference."""
    if order == 0:
        return arr
    r = stencil_radius(order)
    n = arr.shape[axis]
    if n < 2 * r + 1:
        raise GridTooSmallError(
            f"axis of {n} points cannot host a radius-{r} stencil")
    weights = fd_weights(order)
    out = np.full_like(arr, np.nan)
    core = [slice(None)] * arr.ndim
    core[axis] = slice(r, n - r)
    center = arr[tuple(core)]
    acc = np.zeros(center.shape)
    for k, w in enumerate(weights):
        o = k - r
        if o == 0:
            continue
        src = [slice(None)] * arr.ndim
        src[axis] = slice(r + o, n - r + o if n - r + o != 0 else None)
        acc = acc + w * (arr[tuple(src)] - center)
    out[tuple(core)] = acc / h ** order
    return out


def stencil_input(shape, seed):
    """Random data with a block of randomly signed zeros (so terms of either
    zero sign), a constant block and a NaN, as chained passes see them."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    zeros = tuple(slice(0, max(1, k // 2)) for k in shape)
    arr[zeros] = np.copysign(0.0, rng.standard_normal(arr[zeros].shape))
    arr[tuple(slice(k // 2, None) for k in shape)] = 1.5
    arr[tuple(k // 3 for k in shape)] = np.nan
    return arr


@pytest.mark.parametrize("shape, band", [
    ((5,), None), ((7,), None), ((200,), None), ((200,), 7), ((200_003,), None),
    ((5, 7), None), ((7, 5), None), ((37, 23), None), ((37, 23), 64),
    ((301, 509), None),
    ((5, 7, 9), None), ((9, 7, 5), 16), ((13, 11, 12), 100),
])
def test_banded_stencil_bit_identical(monkeypatch, shape, band):
    # sizes of exactly 2r+1 (5 and 7) and row counts the band does not divide
    if band is not None:
        monkeypatch.setattr(numeric, "BAND_ELEMENTS", band)
    arr = stencil_input(shape, seed=sum(shape))
    for axis in range(len(shape)):
        for order in (1, 2, 3, 4):
            if shape[axis] < 2 * stencil_radius(order) + 1:
                continue
            for h in (0.37, 1 / 3):
                want = reference_stencil(arr, axis, order, h)
                got = numeric._apply_stencil(arr, axis, order, h)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                    (shape, axis, order, h)
                # some rows of the result, boundary rows among them
                for a, b in ((0, 1), (1, shape[0] - 1), (shape[0] // 2, shape[0])):
                    part = numeric._apply_stencil(arr, axis, order, h, rows=(a, b))
                    assert np.array_equal(part.view(np.uint64), want[a:b].view(np.uint64)), \
                        (shape, axis, order, h, a, b)


def reference_collect(system, sample, shape, margin):
    """The full-grid collect the residual used before band streaming: every
    equation evaluated on the whole grid, then reduced over the interior."""
    if any(s - 2 * m <= 0 for s, m in zip(shape, margin)):
        raise GridTooSmallError("grid too small for the stencil margins")
    interior = tuple(slice(m, s - m) for m, s in zip(margin, shape))
    out = {}
    for label, res in system.equations:
        vals = reference_evaluate(res, sample)
        if np.isscalar(vals) or np.ndim(vals) == 0:
            out[label] = abs(float(vals))
            continue
        core = np.asarray(vals)[interior]
        if not np.all(np.isfinite(core)):
            raise VarjetError(f"non-finite interior residual for equation {label!r}")
        out[label] = float(np.max(np.abs(core)))
    return out


def reference_prolong(grid, ctx, order):
    """The independents and every jet of order <= ``order`` as full-grid arrays,
    each jet differenced afresh with the reference kernel."""
    samples = {CoordinateId.independent(i): mesh for i, mesh in enumerate(grid.meshes())}
    for alpha, dep in enumerate(ctx.dependents):
        for I in multiindices_up_to(ctx.n, order):
            arr = grid.fields[dep]
            for axis in range(ctx.n):
                if I.count(axis):
                    arr = reference_stencil(arr, axis, I.count(axis), grid.spacing[axis])
            samples[CoordinateId.jet(alpha, I)] = arr
    return samples


def reference_residual(system, grid, legendre=None, momentum_fields=None):
    """Residuals from the full prolongation with the reference kernel, every
    momentum supplied or Legendre-evaluated on the full grid and every
    comma-derivative differenced afresh."""
    ctx = system.context
    need = max([res.max_jet_order() for _, res in system.equations]
               + [len(c.index) for c in system.fiber if c.kind == JET]
               + [e.max_jet_order() for e in (legendre or {}).values()])
    prolonged = reference_prolong(grid, ctx, need)

    def root(c):
        if c.kind == JET:
            return prolonged[c]
        if momentum_fields is not None and ctx.name(c) in momentum_fields.fields:
            return momentum_fields.fields[ctx.name(c)]
        return np.broadcast_to(
            reference_evaluate(legendre.get(c, Expr.zero()), prolonged),
            grid.shape)

    sample = {CoordinateId.independent(i): prolonged[CoordinateId.independent(i)]
              for i in range(ctx.n)}
    margin = [stencil_radius(need)] * ctx.n
    for c in {c for _, res in system.equations for c in res.coordinates()}:
        if c.kind == INDEPENDENT:
            continue
        if c.kind != COMMA:
            sample[c] = root(c)
        else:
            (axis,) = c.comma_index
            sample[c] = reference_stencil(root(c.base), axis, 1, grid.spacing[axis])
            margin[axis] = stencil_radius(need) + stencil_radius(1)
    return reference_collect(system, sample, grid.shape, tuple(margin))


def kdv_system(ctx, which):
    """The KdV density's system ``which`` and, for a first-order one, its Legendre form."""
    lag = LagrangianDensity(ctx, parse(KDV_L, ctx), order=2)
    return system_of(lag, which), None if which == "el" else legendre_form(lag)


def system_of(lag, which):
    """The density's system ``which``, as `check-solution --system` builds it."""
    if which == "el":
        return EquationSystem(lag.context, (("el:u", euler_lagrange(lag)[0]),))
    if which == "constraints":
        return dataclasses.replace(elh_system(lag), equations=constraints(lag).equations)
    if which == "elh":
        return elh_system(lag)
    return reduce_lagrangian(lag).system_hdw


@pytest.mark.parametrize("which", ["el", "constraints", "elh", "hdw"])
def test_residual_matches_full_prolongation(ctx_tx, which):
    system, theta = kdv_system(ctx_tx, which)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    got = residual(system, g, legendre=theta)
    assert got == reference_residual(system, g, legendre=theta)
    # the constraint rows vanish identically on the Legendre momenta
    assert any(v != 0.0 for v in got.values()) or which == "constraints"


def record_bands(monkeypatch, system, grid):
    """Shrinks the bands to four rows of ``grid``, and returns the list that
    receives the rows of each band the first equation is evaluated on."""
    heights = []
    real = numeric.evaluate
    first = system.equations[0][1]

    def recording(e, sample, *args):
        if e is first:
            heights.append(np.shape(sample[CoordinateId.independent(0)])[0])
        return real(e, sample, *args)

    monkeypatch.setattr(numeric, "evaluate", recording)
    monkeypatch.setattr(numeric, "BAND_ELEMENTS", 4 * math.prod(grid.shape[1:]))
    return heights


def assert_several_bands(heights):
    # at least three bands, the last one shorter than the others
    assert len(heights) >= 3 and heights[-1] < heights[0] and len(set(heights[:-1])) == 1


@pytest.mark.parametrize("which", ["el", "constraints", "elh", "hdw"])
def test_residual_in_several_bands_matches_full_prolongation(ctx_tx, monkeypatch, which):
    system, theta = kdv_system(ctx_tx, which)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    want = reference_residual(system, g, legendre=theta)
    heights = record_bands(monkeypatch, system, g)
    assert residual(system, g, legendre=theta) == want
    assert_several_bands(heights)


@pytest.mark.parametrize("bands", ["one", "several"])
def test_residual_with_a_power_read_by_several_evaluations(ctx_tx, monkeypatch, bands):
    # the rows mom:u: and mom:u:t and the Legendre coefficient of p_.t all
    # read u_x^2, each evaluation computing it afresh in that power's buffer
    lag = LagrangianDensity(ctx_tx, parse("u_x^2*u_t + u*u_x^2", ctx_tx), order=1)
    system, theta = elh_system(lag), legendre_form(lag)
    rows = dict(system.equations)
    squares = {label: {c for mono, _ in rows[label].terms for c, p in mono if p == 2}
               for label in ("mom:u:", "mom:u:t")}
    assert squares["mom:u:"] == squares["mom:u:t"] != set()
    assert theta[min(theta)] == parse("u_x^2", ctx_tx)
    g = soliton_grid(41, 57, c=0.9, box=5.0)
    want = reference_residual(system, g, legendre=theta)
    if bands == "one":
        assert math.prod(g.shape) <= numeric.BAND_ELEMENTS
    else:
        heights = record_bands(monkeypatch, system, g)
    got = residual(system, g, legendre=theta)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
    assert len(got) == 5 and max(got.values()) > 0.0
    if bands == "several":
        assert_several_bands(heights)


@pytest.mark.parametrize("which", ["el", "elh", "hdw"])
def test_residual_in_several_bands_on_three_axes(monkeypatch, which):
    ctx = JetContext(("t", "x", "y"), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2", ctx), order=1)
    system = system_of(lag, which)
    theta = None if which == "el" else legendre_form(lag)
    g = wave3_grid(37)
    g.fields["u"] = np.ascontiguousarray(g.fields["u"][:, :17, 3:23])  # three axis lengths
    g.origin = (g.origin[0], g.origin[1], g.origin[2] + 3 * g.spacing[2])
    want = reference_residual(system, g, legendre=theta)
    heights = record_bands(monkeypatch, system, g)
    assert residual(system, g, legendre=theta) == want
    assert_several_bands(heights)
    assert max(want.values()) > 0.0


def test_residual_in_several_bands_with_supplied_momenta(ctx_tx, monkeypatch):
    # momenta from fields for some fiber coordinates, from the Legendre form
    # for the rest
    system, theta = kdv_system(ctx_tx, "elh")
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    rng = np.random.default_rng(5)
    names = ("p_.t", "p_x.x", "p_t.t")
    mom = GridFunction(("t", "x"), g.origin, g.spacing,
                       {name: rng.standard_normal(g.shape) for name in names})
    want = reference_residual(system, g, legendre=theta, momentum_fields=mom)
    heights = record_bands(monkeypatch, system, g)
    assert residual(system, g, momentum_fields=mom, legendre=theta) == want
    assert_several_bands(heights)


@pytest.mark.parametrize("which", ["el", "elh"])
def test_residual_nan_in_a_later_band(ctx_tx, monkeypatch, which):
    system, theta = kdv_system(ctx_tx, which)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    g.fields["u"][31, 30] = np.nan
    with pytest.raises(VarjetError) as full:
        reference_residual(system, g, legendre=theta)
    heights = record_bands(monkeypatch, system, g)
    with pytest.raises(VarjetError) as banded:
        residual(system, g, legendre=theta)
    assert str(banded.value) == str(full.value)
    assert str(full.value).startswith("non-finite interior residual for equation ")
    assert_several_bands(heights)
    # the NaN is 26 rows past the first band's first row, beyond its halos
    assert heights[0] <= 8


@pytest.mark.parametrize("problem, which", [
    ("kdv", "el"), ("kdv", "constraints"), ("kdv", "elh"), ("kdv", "hdw"),
    ("wave3", "el"), ("wave3", "elh"), ("wave3", "hdw"),
])
def test_residual_in_one_row_bands_matches_full_prolongation(ctx_tx, monkeypatch, problem,
                                                             which):
    # bands shorter than every halo: each array still covers its halo rows
    # on either side of the band, as many as the band's own or more
    if problem == "kdv":
        system, theta = kdv_system(ctx_tx, which)
        g = soliton_grid(40, 57, c=0.9, box=5.0)
    else:
        system, theta = wave_system(which)
        g = wave3_grid(37)
        g.fields["u"] = np.ascontiguousarray(g.fields["u"][:, :17, 3:23])  # 37 x 17 x 20
    want = reference_residual(system, g, legendre=theta)
    heights = record_bands(monkeypatch, system, g)
    monkeypatch.setattr(numeric, "BAND_ELEMENTS", math.prod(g.shape[1:]))
    got = residual(system, g, legendre=theta)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
    assert len(heights) > 20 and set(heights) == {1}
    assert max(want.values()) > 0.0 or which == "constraints"


def test_an_axis_0_pass_holds_only_the_rows_its_band_keeps(ctx_tx, monkeypatch):
    # the row u_t in 3-row bands of a 40 x 57 grid, shorter than twice u's
    # halo: u_t is read on the band alone, so its pass is computed on the
    # band's 3 rows, from 7 rows of u (the band and the radius-2 stencil's 2
    # on each side).  The arena is u's 7 rows, u_t's 3, the row's values on
    # 3 x 53 interior points, and the kernel's two q_k buffers of one row
    # and the 2 rows before it, the kernel summing in u_t's rows
    system = EquationSystem(ctx_tx, (("e", parse("u_t", ctx_tx)),))
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    want = reference_residual(system, g)
    arenas = record_arenas(monkeypatch)
    passes = []
    real = numeric._apply_stencil

    def recorded(arr, axis, order, h, out, work, rows):
        owner = out
        while isinstance(owner, np.ndarray):
            owner = owner.base
        passes.append((axis, arr.shape[0], out.shape[0], rows, owner.obj))
        return real(arr, axis, order, h, out, work, rows)

    monkeypatch.setattr(numeric, "_apply_stencil", recorded)
    monkeypatch.setattr(numeric, "BAND_ELEMENTS", 3 * 57)
    assert residual(system, g) == want
    # the interior rows 2..38 in 12 bands, the first reading rows 0..5 of u
    assert [p[:4] for p in passes] == [(0, 7, 3, (2, 5))] * 12
    assert all(p[4] is arenas[0][1]() for p in passes)
    assert arenas[0][0] == 8 * (7 * 57 + 3 * 57 + 3 * 53 + 2 * (57 + 2 * 57))


def plan_of(system, theta=None):
    """The equations and momentum inputs that _stream hands _schedule: each
    row's arrays by their keys, and each momentum's Legendre inputs."""
    read = {c for _, e in system.equations for c in e.coordinates() if c.kind != INDEPENDENT}
    keys = {c: numeric._key(c) for c in read}
    momenta = {c.base for c in read if c.kind != JET and c.base.kind == MOMENTUM}
    inputs = {m: {c: numeric._key(c) for c in theta.get(m, Expr.zero()).coordinates()
                  if c.kind == JET}
              for m in momenta}
    equations = [(label, res, {c: keys[c] for c in res.coordinates() if c in keys})
                 for label, res in system.equations]
    return equations, inputs


def brute_halos(equations, inputs):
    """Each array's halo by every read path from an equation down to it: the
    largest sum of the axis-0 stencil radii along a path, where a momentum's
    Legendre inputs are read at the momentum's own rows."""
    halo = {}

    def walk(key, rows):
        halo[key] = max(halo.get(key, 0), rows)
        root, chain = key
        if chain:
            axis, order = chain[-1]
            walk((root, chain[:-1]), rows + (stencil_radius(order) if axis == 0 else 0))
        else:
            for k in inputs.get(root, {}).values():
                walk(k, rows)

    for _, _, read in equations:
        for key in read.values():
            walk(key, 0)
    return halo


def reference_dead(steps, equations, inputs):
    """The arrays each step is the last to read, by a forward pass over the
    steps' reads: each array once, the arrays of a step in the order of
    their first reads."""
    def reads(step):
        if isinstance(step, int):
            return list(equations[step][2].values())
        root, chain = step
        return [(root, chain[:-1])] if chain else list(inputs.get(root, {}).values())

    last = {key: s for s, step in enumerate(steps) for key in reads(step)}
    dead = [[] for _ in steps]
    for key, s in last.items():
        dead[s].append(key)
    return dead


@pytest.mark.parametrize("problem", ["kdv", "wave3"])
@pytest.mark.parametrize("which", ["el", "elh", "hdw"])
def test_halos_match_every_read_path(ctx_tx, problem, which):
    system, theta = kdv_system(ctx_tx, which) if problem == "kdv" else wave_system(which)
    equations, inputs = plan_of(system, theta)
    steps, halo, dead = numeric._schedule(equations, inputs)
    assert halo == brute_halos(equations, inputs)
    assert set(halo) == {step for step in steps if not isinstance(step, int)}
    assert max(halo.values()) > 0
    assert dead == reference_dead(steps, equations, inputs)


def test_halos_of_a_row_reading_one_array_twice(ctx_tx):
    # u_tx and u_t,_x share the chain ((0,1),(1,1)): one array, read once
    # for each, dead once and freed once
    system = EquationSystem(ctx_tx, (("r", parse("u_tx - u_t,_x", ctx_tx)),))
    equations, inputs = plan_of(system)
    assert len(equations[0][2]) == 2 and len(set(equations[0][2].values())) == 1
    steps, halo, dead = numeric._schedule(equations, inputs)
    u = ctx_tx.resolve("u")
    assert halo == brute_halos(equations, inputs) == \
        {(u, ((0, 1), (1, 1))): 0, (u, ((0, 1),)): 0, (u, ()): stencil_radius(1)}
    assert dead == reference_dead(steps, equations, inputs)
    assert sorted(key for gone in dead for key in gone) == sorted(halo)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    assert residual(system, g) == reference_residual(system, g)


def test_a_momentum_s_legendre_inputs_inherit_its_halo(ctx_tx):
    # p_.t,_t is a radius-2 t pass over p_.t, which is evaluated from u_t on
    # the rows that pass reads: u_t covers 2 rows beyond the band, and u,
    # under u_t's own t pass, 4
    lag = LagrangianDensity(ctx_tx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx_tx), order=1)
    equations, inputs = plan_of(elh_system(lag), legendre_form(lag))
    _, halo, _ = numeric._schedule(equations, inputs)
    assert halo == brute_halos(equations, inputs)
    u, p_t = ctx_tx.resolve("u"), ctx_tx.resolve("p_.t")
    assert (halo[(p_t, ())], halo[(u, ((0, 1),))], halo[(u, ())]) == (2, 2, 4)


def test_residual_memory_is_the_fields_and_one_band(monkeypatch):
    # the ELH residual of a 64^3 wave, whose field was made before tracing
    # began: a full-grid computation (a jet, pass, momentum and temporary
    # each on the whole grid) peaked at 13.0 times the field's bytes; with
    # fresh arrays in every band, 3.1; with one buffer planned per call, 2.4
    # (the band is 16 of the 64 rows, and each array also covers its halo);
    # with axis-0 passes on their kept rows and a kernel workspace of one
    # band, 1.81.  The bound leaves 10% above that for the traced peak.
    # The buffer is a page mapping, which tracemalloc does not see, so its
    # bytes are added to the traced peak
    ctx = JetContext(("t", "x", "y"), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2", ctx), order=1)
    g = wave3_grid(64)
    system, theta = elh_system(lag), legendre_form(lag)
    arenas = record_arenas(monkeypatch)
    tracemalloc.start()
    try:
        residual(system, g, legendre=theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak + max(nbytes for nbytes, _ in arenas) < 2 * g.fields["u"].nbytes


@pytest.mark.parametrize("which", ["el", "elh"])
def test_residual_unmaps_its_arena(ctx_tx, monkeypatch, which):
    # no reference to the mapping outlives the call: not on return, and not
    # in the traceback of a non-finite residual, which ``info`` still holds
    # (reference counts alone, with no garbage collection)
    system, theta = kdv_system(ctx_tx, which)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    arenas = record_arenas(monkeypatch)
    residual(system, g, legendre=theta)
    assert len(arenas) == 1 and arenas[0][1]() is None
    g.fields["u"][31, 30] = np.nan
    with pytest.raises(VarjetError, match="^non-finite interior residual") as info:
        residual(system, g, legendre=theta)
    assert info.tb is not None and len(arenas) == 2 and arenas[1][1]() is None


def test_residual_unmaps_its_arena_when_the_band_loop_raises(ctx_tx, monkeypatch, tmp_path):
    # a grid file that changes after load_grid is refused once the band loop
    # opens it, after the arena is mapped; the error is held here, and
    # neither its traceback nor the error it replaced keeps the mapping alive
    system, theta = kdv_system(ctx_tx, "elh")
    path = str(tmp_path / "u.grid")
    save_grid(soliton_grid(40, 57, c=0.9, box=5.0), path)
    g = load_grid(path)
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    arenas = record_arenas(monkeypatch)
    with pytest.raises(VarjetError, match="the file changed after it was loaded$") as info:
        residual(system, g, legendre=theta)
    assert info.tb is not None and len(arenas) == 1 and arenas[0][1]() is None
    # and a coefficient past the float range, met as a band is evaluated
    rows = (("e", parse("10^400*u_xx*u_t + u_x", ctx_tx)),)
    with pytest.raises(VarjetError, match="out of the float range$") as info:
        residual(EquationSystem(ctx_tx, rows), soliton_grid(40, 57))
    assert info.tb is not None and len(arenas) == 2 and arenas[1][1]() is None


def test_residual_of_constant_rows_maps_an_empty_arena(ctx_1d, monkeypatch):
    # E(u_x) = 0: the row evaluates to a float, so the plan needs no
    # element, and mmap refuses length 0
    lag = LagrangianDensity(ctx_1d, parse("u_x", ctx_1d), order=1)
    system = EquationSystem(ctx_1d, (("el:u", euler_lagrange(lag)[0]),))
    arenas = record_arenas(monkeypatch)
    g, _ = grid_1d(9, 1.0, np.sin)
    assert residual(system, g) == {"el:u": 0.0}
    assert [nbytes for nbytes, _ in arenas] == [0]


@pytest.mark.parametrize("which", ["el", "elh"])
def test_residual_in_a_shared_mapping_where_mmap_takes_no_flags(ctx_tx, monkeypatch, which):
    # an mmap module without MAP_PRIVATE (Windows) maps the arena without
    # flags; the residuals are the same bits
    system, theta = kdv_system(ctx_tx, which)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    want = residual(system, g, legendre=theta)
    monkeypatch.setattr(numeric, "mmap", types.SimpleNamespace(mmap=mmap.mmap))
    got = residual(system, g, legendre=theta)
    assert {k: int(bits(v)) for k, v in got.items()} == \
        {k: int(bits(v)) for k, v in want.items()}


def test_kdv_el_residual_stencils_only_what_it_reads(ctx_tx, monkeypatch):
    # u_tx - 6 u_x u_xx + u_xxxx: the passes u_t, u_t -> u_tx, u_x, u_xx, u_xxxx
    passes = []
    real = numeric._apply_stencil

    def counted(arr, axis, order, h, *buffers):
        passes.append((axis, order))
        return real(arr, axis, order, h, *buffers)

    monkeypatch.setattr(numeric, "_apply_stencil", counted)
    residual(kdv_el_system(ctx_tx), soliton_grid(32, 32))
    assert sorted(passes) == [(0, 1), (1, 1), (1, 1), (1, 2), (1, 4)]


def test_residual_grid_too_small_keeps_full_prolongation_message(ctx_tx):
    # the EL rows read no jet with two t's, but the order-4 prolongation has
    # u_ttt, whose radius-3 stencil the 6-point t axis cannot host
    message = r"^axis of 6 points cannot host a radius-3 stencil$"
    with pytest.raises(GridTooSmallError, match=message):
        residual(kdv_el_system(ctx_tx), soliton_grid(6, 40))


@pytest.mark.parametrize("problem, which, margin", [
    # docs/gridfile.md: stencil_radius(k) on each axis, k the highest jet order
    # of the rows, the fiber and the Legendre coefficients, plus 2 per comma pass
    ("kdv", "el", (3, 3)),  # u_xxxx: k = 4, no commas
    ("kdv", "elh", (5, 5)),  # theta reads u_xxx: k = 3; (p^t),_t, (u),_x, ...
    ("kdv", "hdw", (5, 5)),
    ("wave", "hdw", (4, 4)),  # k = 1, and one comma pass along each axis
])
def test_a_grid_fits_exactly_when_each_axis_holds_its_margin(ctx_tx, problem, which, margin):
    if problem == "kdv":
        system, theta = kdv_system(ctx_tx, which)
    else:
        lag = LagrangianDensity(ctx_tx, parse("1/2*u_t^2 - 1/2*u_x^2", ctx_tx), order=1)
        system, theta = system_of(lag, which), legendre_form(lag)
    for shape in itertools.product(range(3, 13), repeat=2):
        short = [(n, m) for n, m in zip(shape, margin) if n < 2 * m + 1]
        if not short:
            assert np.isfinite(list(residual(system, soliton_grid(*shape), legendre=theta)
                                    .values())).all()
            continue
        message = "^axis of {} points cannot host a radius-{} stencil$".format(*short[0])
        with pytest.raises(GridTooSmallError, match=message):
            residual(system, soliton_grid(*shape), legendre=theta)


def test_margin_covers_the_base_jet_of_a_comma_derivative(ctx_tx):
    # (u_xxx),_t reads no plain jet: its base's radius-3 x pass must still
    # widen the margin (it read the NaN boundary columns before)
    row = Expr.coord(CoordinateId.comma(ctx_tx.resolve("u_xxx"), 0)) - Expr.number(6)
    system = EquationSystem(ctx_tx, (("r", row),))
    t, x = np.linspace(-1, 1, 11), np.linspace(-1, 1, 7)
    T, X = np.meshgrid(t, x, indexing="ij")
    g = GridFunction(("t", "x"), (-1.0, -1.0), (t[1] - t[0], x[1] - x[0]), {"u": T * X ** 3})
    assert residual(system, g)["r"] < 1e-9  # the stencils are exact on t x^3
    g.fields["u"] = g.fields["u"][:, :6]
    with pytest.raises(GridTooSmallError, match="^axis of 6 points cannot host a radius-3 stencil$"):
        residual(system, g)


def test_residual_constant_legendre_coefficient(ctx_tx):
    # p^t = dL/du_t = 1 evaluates to a float, whose comma-derivative is +0.0
    lag = LagrangianDensity(ctx_tx, parse("u_t + 1/2*u_x^2", ctx_tx), order=1)
    r = residual(elh_system(lag), soliton_grid(40, 40, box=4.0),
                 legendre=legendre_form(lag))
    assert r["mom:u:t"] == 0.0 and np.isfinite(r["mom:u:"])


def test_residual_row_of_one_unit_coordinate_keeps_the_sample(ctx_tx):
    # the row u_x is evaluated first, and its absolute value taken in place;
    # the row after it reads u_x again
    rows = (("a", parse("u_x", ctx_tx)), ("b", parse("u_x - u_xx", ctx_tx)),
            ("c", parse("-u_x", ctx_tx)))
    system = EquationSystem(ctx_tx, rows)
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    want = reference_residual(system, g)
    assert residual(system, g) == want
    assert want["b"] > want["a"] > 0.0  # u_x < 0 < u_xx on part of the grid


def test_no_stencil_over_a_constant_momentum(ctx_tx, monkeypatch):
    # the KdV Legendre coefficients of p_t.t, p_t.x and p_x.t are 0: the
    # comma-derivatives of those three momenta are +0.0 without a pass
    system, theta = kdv_system(ctx_tx, "elh")
    assert [ctx_tx.name(c) for c in ctx_tx.momenta_up_to(1)
            if c not in theta] == \
        ["p_t.t", "p_t.x", "p_x.t"]
    g = soliton_grid(40, 57, c=0.9, box=5.0)
    want = reference_residual(system, g, legendre=theta)
    inputs = []
    real = numeric._apply_stencil

    def counted(arr, axis, order, h, *buffers):
        inputs.append(arr.copy())  # its rows' buffer is reused by later arrays
        return real(arr, axis, order, h, *buffers)

    monkeypatch.setattr(numeric, "_apply_stencil", counted)
    assert residual(system, g, legendre=theta) == want
    # 15 passes: u_t, u_x, u_tt, u_tx, u_xx, u_xxx, u_t,_t, u_x,_t, u_x,_x
    # and the six momenta's comma-derivatives, less the three constant ones
    assert len(inputs) == 12
    assert not any(np.all(arr == arr.flat[0]) for arr in inputs)


# -- residuals -------------------------------------------------------------------

def test_residual_el_on_soliton(ctx_tx):
    r = residual(kdv_el_system(ctx_tx), soliton_grid(512, 512))
    assert r["el:u"] <= 1e-5


def test_residual_el_on_non_solution(ctx_tx):
    t = np.linspace(-6, 6, 256)
    x = np.linspace(-6, 6, 256)
    T, X = np.meshgrid(t, x, indexing="ij")
    g = GridFunction(("t", "x"), (t[0], x[0]), (t[1] - t[0], x[1] - x[0]),
                     {"u": np.sin(X) * np.sin(T)})
    r = residual(kdv_el_system(ctx_tx), g)
    assert r["el:u"] >= 1e-2


def test_residual_zero_field(ctx_tx):
    t = np.linspace(-1, 1, 32)
    g = GridFunction(("t", "x"), (t[0], t[0]), (t[1] - t[0], t[1] - t[0]),
                     {"u": np.zeros((32, 32))})
    r = residual(kdv_el_system(ctx_tx), g)
    assert r["el:u"] == 0.0


def test_residual_stencil_convergence(ctx_tx):
    system = kdv_el_system(ctx_tx)
    coarse = residual(system, soliton_grid(512, 512))["el:u"]
    fine = residual(system, soliton_grid(1023, 1023))["el:u"]  # exact halving
    ratio = coarse / fine
    assert 8.0 <= ratio <= 32.0


def test_residual_legendre_transport_constraints(ctx_tx):
    lag = LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=2)
    theta = legendre_form(lag)
    r = residual(constraints(lag), soliton_grid(256, 256), legendre=theta)
    assert all(v <= 1e-10 for v in r.values())


def test_residual_elh_with_legendre_momenta(ctx_tx):
    lag = LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=2)
    system = elh_system(lag)
    r = residual(system, soliton_grid(256, 256), legendre=legendre_form(lag))
    assert max(r.values()) <= 1e-4  # discretization-limited


def test_residual_momentum_fields_supplied(ctx_tx):
    lag = LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=2)
    theta = legendre_form(lag)
    g = soliton_grid(128, 128, box=8.0)
    samples = reference_prolong(g, ctx_tx, 3)
    fields = {}
    for alpha in range(1):
        for I in multiindices_up_to(2, 1):
            for i in range(2):
                p = CoordinateId.momentum(alpha, I, i)
                coeff, name = theta.get(p, Expr.zero()), ctx_tx.name(p)
                vals = evaluate(coeff, samples) if not coeff.is_zero() \
                    else np.zeros(g.shape)
                fields[name] = np.nan_to_num(np.asarray(vals, dtype=float))
    mom = GridFunction(("t", "x"), g.origin, g.spacing, fields)
    r = residual(constraints(lag), g, momentum_fields=mom)
    assert max(r.values()) <= 1e-8


def test_residual_momentum_field_of_another_shape_is_error(ctx_tx):
    system, theta = kdv_system(ctx_tx, "elh")
    g = soliton_grid(64, 64)
    for shape in ((50, 64), (80, 64)):
        mom = GridFunction(("t", "x"), g.origin, g.spacing, {"p_.t": np.zeros(shape)})
        with pytest.raises(VarjetError, match=rf"^momentum grid has shape "
                           rf"\({shape[0]}, 64\), the field grid \(64, 64\)$"):
            residual(system, g, momentum_fields=mom, legendre=theta)


@pytest.mark.parametrize("coordinate, message", [
    # a bare KeyError and a MissingFieldError before
    (CoordinateId.jet(5), re.escape(f"{CoordinateId.jet(5)!r}, which is outside its context")),
    (CoordinateId.momentum(0, EMPTY, 1), "p_.x, a momentum, which is not jet-side"),
], ids=["outside", "momentum"])
def test_residual_refuses_a_legendre_coefficient_off_the_jet_side(ctx_tx, coordinate, message):
    system, theta = kdv_system(ctx_tx, "elh")
    p = CoordinateId.momentum(0, EMPTY, 0)
    theta = {**theta, p: theta[p] + Expr.coord(coordinate)}
    with pytest.raises(VarjetError, match=f"^the Legendre coefficient of p_.t reads {message}$"):
        residual(system, soliton_grid(64, 64), legendre=theta)


@pytest.mark.parametrize("arguments, message", [
    # each ended in an AttributeError, but for the names, which matched no
    # momentum: every momentum was read as 0, and the residuals were wrong
    (lambda ctx, g, theta: {"legendre": {ctx.name(p): e for p, e in theta.items()}},
     "legendre key 'p_.t' is not a momentum of the system's context"),
    (lambda ctx, g, theta: {"legendre": {**theta, CoordinateId.momentum(0, EMPTY, 0): 0.5}},
     "the Legendre coefficient of p_.t is 0.5, not an Expr"),
    (lambda ctx, g, theta: {"legendre": list(theta.values())},
     "legendre must be a map from momenta to Exprs, not list"),
    (lambda ctx, g, theta: {"legendre": {CoordinateId.jet(0): Expr.zero()}},
     re.escape(f"legendre key {CoordinateId.jet(0)!r} is not a momentum of the system's context")),
    (lambda ctx, g, theta: {"grid": dict(g.fields)}, "grid must be a GridFunction, not dict"),
    (lambda ctx, g, theta: {"momentum_fields": {"p_.t": g.fields["u"]}},
     "momentum_fields must be a GridFunction, not dict"),
], ids=["legendre_names", "legendre_float", "legendre_list", "legendre_jet", "grid_dict",
        "momentum_fields_dict"])
def test_residual_refuses_malformed_arguments(ctx_tx, arguments, message):
    system, theta = kdv_system(ctx_tx, "elh")
    g = soliton_grid(64, 64)
    kwargs = {"grid": g, "legendre": theta, **arguments(ctx_tx, g, theta)}
    with pytest.raises(VarjetError, match=f"^{message}$"):
        residual(system, **kwargs)


def test_residual_missing_momenta_is_error(ctx_tx):
    lag = LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=2)
    system = elh_system(lag)
    with pytest.raises(MissingFieldError):
        residual(system, soliton_grid(64, 64))


def test_total_derivative_numeric_consistency(ctx_tx):
    # D_x e evaluated along the prolonged field agrees with the finite
    # difference of the evaluation of e, to discretization order
    rng = random.Random(71)
    g = soliton_grid(200, 200, box=6.0)
    samples = reference_prolong(g, ctx_tx, 3)
    from varjet.jetcalc import total_derivative
    pool = jet_pool(ctx_tx, 2, include_independents=False)
    for _ in range(5):
        e = random_expr(rng, pool, max_monomials=3, max_factors=2, max_exp=2)
        direct = np.broadcast_to(
            np.asarray(evaluate(total_derivative(e, 1), samples),
                       dtype=float), g.shape)
        base = np.broadcast_to(
            np.asarray(evaluate(e, samples), dtype=float), g.shape).copy()
        chained = numeric._apply_stencil(base, 1, 1, g.spacing[1])
        interior = tuple(slice(m + 2, s - m - 2)
                         for m, s in zip((stencil_radius(3),) * 2, g.shape))
        scale = max(1.0, float(np.max(np.abs(direct[interior]))))
        assert np.max(np.abs(direct[interior] - chained[interior])) <= 1e-4 * scale


def test_momentum_enumeration_count():
    # m * n * (number of multiindices of length <= l over n indices)
    from math import comb
    for n, m, l in ((1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 1)):
        names_i = ("t", "x", "y")[:n]
        names_d = ("u", "v")[:m]
        ctx = JetContext(names_i, names_d)
        count = sum(comb(n + k - 1, k) for k in range(l + 1))
        assert len(ctx.momenta_up_to(l)) == m * n * count


# -- grid file IO ------------------------------------------------------------------

def test_grid_file_roundtrip(tmp_path):
    g = soliton_grid(32, 48, box=2.0)
    path = tmp_path / "soliton.grid"
    save_grid(g, str(path))
    back = load_grid(str(path))
    assert back.axes == g.axes
    assert back.origin == pytest.approx(g.origin)
    assert back.spacing == pytest.approx(g.spacing)
    assert np.array_equal(back.fields["u"], g.fields["u"])


def test_load_grid_reads_no_field_data(tmp_path):
    g = soliton_grid(32, 48, box=2.0)
    g.fields["v"] = -g.fields["u"]
    path = tmp_path / "two.grid"
    save_grid(g, str(path))
    back = load_grid(str(path))
    for name in ("u", "v"):
        assert not isinstance(back.fields[name], np.ndarray)
        assert back.fields[name].shape == (32, 48)
        assert np.array_equal(np.asarray(back.fields[name]), g.fields[name])
    out = np.empty((5, 48))
    with back.fields["v"].opened() as fh:
        back.fields["v"].read(fh, 7, 12, out)
    assert np.array_equal(out, g.fields["v"][7:12])


def test_a_grid_saved_over_the_file_it_was_loaded_from_keeps_its_data(tmp_path):
    # opening the file for writing truncated it before its fields were read
    path = tmp_path / "u.grid"
    g = GridFunction(("x",), (0.0,), (0.5,), {"u": [1.0, 2.0, 4.0, 8.0, 16.0]})
    save_grid(g, str(path))
    size = path.stat().st_size
    save_grid(load_grid(str(path)), str(path))
    assert path.stat().st_size == size
    assert np.array_equal(np.asarray(load_grid(str(path)).fields["u"]), g.fields["u"])


def test_grid_file_rows_are_byte_swapped_on_a_big_endian_host(monkeypatch, tmp_path):
    # the file's floats are little-endian: a big-endian host swaps each row's
    # bytes once read, so on this host the stand-in swaps them away
    g = soliton_grid(32, 48, box=2.0)
    path = tmp_path / "u.grid"
    save_grid(g, str(path))
    field = load_grid(str(path)).fields["u"]
    monkeypatch.setattr(numeric, "sys", types.SimpleNamespace(byteorder="big"))
    out = np.empty((5, 48))
    with field.opened() as fh:
        field.read(fh, 7, 12, out)
    want = g.fields["u"][7:12] if sys.byteorder == "big" else g.fields["u"][7:12].byteswap()
    assert np.array_equal(bits(out), bits(want))


def test_grid_file_read_past_its_end_is_domain_error(tmp_path):
    path = tmp_path / "u.grid"
    save_grid(soliton_grid(32, 48, box=2.0), str(path))
    field = load_grid(str(path)).fields["u"]
    # a short read, then the file's check after use
    with pytest.raises(VarjetError, match=f"^{path}: the file changed after it was loaded$"):
        with field.opened() as fh:
            with open(path, "r+b") as cut:
                cut.truncate(path.stat().st_size - 8)
            with pytest.raises(VarjetError, match=f"^{path}: truncated field 'u'$"):
                field.read(fh, 0, 32, np.empty((32, 48)))


def wave_system(which):
    ctx = JetContext(("t", "x", "y"), ("u",))
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2", ctx), order=1)
    return system_of(lag, which), None if which == "el" else legendre_form(lag)


@pytest.mark.parametrize("problem", ["kdv", "wave3"])
@pytest.mark.parametrize("which", ["el", "constraints", "elh", "hdw"])
def test_residual_on_a_grid_file_matches_the_grid_in_memory(ctx_tx, monkeypatch, tmp_path,
                                                             problem, which):
    # the fields read from files one band at a time, some momenta among them
    if problem == "kdv":
        system, theta = kdv_system(ctx_tx, which)
        g, names = soliton_grid(40, 57, c=0.9, box=5.0), ("p_.t", "p_x.x", "p_t.t")
    else:
        system, theta = wave_system(which)
        g, names = wave3_grid(37), ("p_.x",)
        g.fields["u"] = np.ascontiguousarray(g.fields["u"][:, :17, :20])  # three axis lengths
    rng = np.random.default_rng(7)
    mom = GridFunction(g.axes, g.origin, g.spacing,
                       {name: rng.standard_normal(g.shape) for name in names})
    save_grid(g, str(tmp_path / "u.grid"))
    save_grid(mom, str(tmp_path / "p.grid"))
    want = residual(system, g, momentum_fields=mom, legendre=theta)
    heights = record_bands(monkeypatch, system, g)
    got = residual(system, load_grid(str(tmp_path / "u.grid")),
                   momentum_fields=load_grid(str(tmp_path / "p.grid")), legendre=theta)
    assert got == want
    assert_several_bands(heights)
    assert max(want.values()) > 0.0


@pytest.mark.parametrize("axes, origin, spacing, fields, message", [
    (("t",), (0.0,), (1.0,), {}, "a grid needs at least one field"),
    (("t", "x"), (0.0,), (1.0, 1.0), {"u": np.zeros((5, 5))},
     "origin and spacing must be lists of 2 numbers"),
    (("t",), (0.0,), (1.0, 1.0), {"u": np.zeros(5)},
     "origin and spacing must be lists of 1 numbers"),
    (("t", "x"), (0.0, 0.0), (1.0, 1.0), {"u": np.zeros((5, 5)), "v": np.zeros((5, 4))},
     "all field arrays must share one shape"),
    (("t", "x"), (0.0, 0.0), (1.0, 1.0), {"u": np.zeros(25)},
     "shape has 1 entries for 2 axes"),
    # each case below was taken before, or ended in another error
    ("tx", (0.0, 0.0), (1.0, 1.0), {"u": np.zeros((5, 5))}, "axes must be a list of names"),
    (("t",), (True,), (1.0,), {"u": np.zeros(5)}, "origin and spacing must be lists of 1 numbers"),
    (("t",), (0.0,), ("0.5",), {"u": np.zeros(5)}, "origin and spacing must be lists of 1 numbers"),
    (("t",), (10 ** 400,), (1.0,), {"u": np.zeros(5)},
     "origin and spacing must be lists of 1 numbers"),
    (("t",), (0.0,), (1.0,), {"u": np.zeros(5, dtype=complex)},
     "field 'u' is not a rectangular array of real numbers"),
    (("t", "x"), (0.0, 0.0), (1.0, 1.0), {"u": [[1.0, 2.0], [3.0]]},
     "field 'u' is not a rectangular array of real numbers"),
    (("x",), (0.0,), (1.0,), [1.0, 2.0], "fields must be a map from names to arrays"),
    (("x",), (0.0,), (1.0,), {1: np.zeros(5)}, "fields must be a map from names to arrays"),
    (("x",), (0.0,), (1.0,), {("p",): np.zeros(5)}, "fields must be a map from names to arrays"),
], ids=["no_fields", "origin_length", "spacing_length", "two_shapes", "wrong_rank",
        "axes_str", "origin_bool", "spacing_text", "origin_past_float_range", "field_complex",
        "field_ragged", "fields_list", "field_name_int", "field_name_tuple"])
def test_grid_in_memory_refuses_a_malformed_layout(axes, origin, spacing, fields, message):
    with pytest.raises(VarjetError, match=f"^{message}$"):
        GridFunction(axes, origin, spacing, fields)


def test_grid_in_memory_takes_a_list_field():
    fields = {"u": [1.0, 2.0, 4.0]}
    g = GridFunction(("x",), (0.0,), (0.5,), fields)
    assert isinstance(fields["u"], list) and g.fields is not fields
    assert g.shape == (3,)
    assert g.fields["u"].dtype == np.float64
    assert np.array_equal(g.fields["u"], [1.0, 2.0, 4.0])


def test_grid_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"not a grid")
    from varjet.symcore import VarjetError
    with pytest.raises(VarjetError):
        load_grid(str(path))
