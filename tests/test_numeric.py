"""Evaluation, finite-difference stencils, residual verification."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import KDV_L, jet_pool, random_expr, soliton_grid, wave3_grid
from varjet import numeric
from varjet.jetcalc import EquationSystem
from varjet.multiindex import multiindices_up_to
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
from varjet.pdham import DerivedContext, constraints, elh_system, reduce_lagrangian
from varjet.symcore import JET, CoordinateId, Expr, JetContext, VarjetError, parse
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
            sample[CoordinateId.momentum(0, index, i)] = \
                evaluate(theta.coefficient(0, index, i), point)
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


# -- stencils and prolongation ---------------------------------------------------

def test_fd_weights_first_derivative():
    # classic 4th-order five-point weights
    assert fd_weights(1, 2) == pytest.approx((1 / 12, -8 / 12, 0.0, 8 / 12, -1 / 12))


def test_fd_weights_exact_values():
    # each weight is its exact rational value rounded once, so the values are
    # pinned bit for bit
    assert [fd_weights(order, stencil_radius(order)) for order in (1, 2, 3, 4)] == [
        (0.08333333333333333, -0.6666666666666666, 0.0, 0.6666666666666666,
         -0.08333333333333333),
        (-0.08333333333333333, 1.3333333333333333, -2.5, 1.3333333333333333,
         -0.08333333333333333),
        (0.125, -1.0, 1.625, 0.0, -1.625, 1.0, -0.125),
        (-0.16666666666666666, 2.0, -6.5, 9.333333333333334, -6.5, 2.0,
         -0.16666666666666666),
    ]


def test_fd_weights_reproduce_polynomials():
    # the moment conditions make a radius-r stencil exact on degrees <= 2r
    for m in (1, 2, 3, 4):
        r = stencil_radius(m)
        w = fd_weights(m, r)
        for deg in range(0, 2 * r + 1):
            val = sum(wk * (k - r) ** deg for k, wk in enumerate(w))
            expected = float(math.factorial(m)) if deg == m else 0.0
            assert val == pytest.approx(expected, abs=1e-9)


def one_row(ctx, text):
    """The one-equation system ``text = 0`` over ctx."""
    return EquationSystem(ctx, (("r", parse(text, ctx)),))


def test_fd_prolong_constant_field():
    # the stencil weights sum to zero exactly, so every jet of a constant is 0
    ctx = JetContext(("x",), ("u",), max_order=4)
    g, _ = grid_1d(64, 1.0, lambda x: np.full_like(x, 2.5))
    for jet in ("u_x", "u_xx", "u_xxx", "u_xxxx"):
        assert residual(one_row(ctx, jet), g)["r"] <= 1e-12


def test_fd_prolong_cubic():
    ctx = JetContext(("x",), ("u",), max_order=4)
    g, _ = grid_1d(101, 1.0, lambda x: x ** 3)
    assert residual(one_row(ctx, "u_xx - 6*x"), g)["r"] <= 1e-9


def test_fd_prolong_soliton_ux():
    # closed-form derivative oracle: u_x = -(c/2) sech^2(sqrt(c)/2 (x - c t))
    ctx = JetContext(("t", "x"), ("u", "v"), max_order=4)
    g = soliton_grid(64, 512, c=1.0, box=6.0)
    T, X = g.meshes()
    g.fields["v"] = -0.5 / np.cosh(0.5 * (X - T)) ** 2
    assert residual(one_row(ctx, "u_x - v"), g)["r"] <= 1e-8


def test_fd_prolong_grid_too_small():
    ctx = JetContext(("x",), ("u",), max_order=4)
    g, _ = grid_1d(5, 1.0, lambda x: x)
    with pytest.raises(GridTooSmallError):
        residual(one_row(ctx, "u_xxxx"), g)


def test_fd_prolong_mixed_partial_order_independent():
    ctx = JetContext(("t", "x"), ("u", "v"), max_order=4)
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
    weights = fd_weights(order, r)
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


def reference_collect(system, sample, shape, margin):
    """The full-grid collect the residual used before band streaming: every
    equation evaluated on the whole grid, then reduced over the interior."""
    if any(s - 2 * m <= 0 for s, m in zip(shape, margin)):
        raise GridTooSmallError("grid too small for the stencil margins")
    interior = tuple(slice(m, s - m) for m, s in zip(margin, shape))
    out = {}
    for label, res in system.equations:
        vals = evaluate(res, sample)
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
    dc = system.derived
    if dc is None:
        order = max(res.max_jet_order() for _, res in system.equations)
        samples = reference_prolong(grid, system.context, order)
        margin = (stencil_radius(order),) * len(grid.shape)
        return reference_collect(system, samples, grid.shape, margin)
    need = max(max(len(c.index) for c in dc.fiber if c.kind == JET),
               max(e.max_jet_order() for e in legendre.coeffs.values()))
    prolonged = reference_prolong(grid, dc.base, need)

    def root(c):
        if c.kind == JET:
            return prolonged[c]
        if momentum_fields is not None and dc.base.name(c) in momentum_fields.fields:
            return momentum_fields.fields[dc.base.name(c)]
        return np.broadcast_to(
            evaluate(legendre.coefficient(c.alpha, c.index, c.i), prolonged), grid.shape)

    fiber = [root(c) for c in dc.fiber]
    sample = {CoordinateId.independent(i): prolonged[CoordinateId.independent(i)]
              for i in range(dc.base.n)}
    margin = [stencil_radius(need)] * dc.base.n
    for c in {c for _, res in system.equations for c in res.coordinates()}:
        if c.kind != JET:
            continue
        if len(c.index) == 0:
            sample[c] = fiber[c.alpha]
        else:
            axis = c.index.entries[0]
            sample[c] = reference_stencil(fiber[c.alpha], axis, 1, grid.spacing[axis])
            margin[axis] = stencil_radius(need) + stencil_radius(1)
    return reference_collect(system, sample, grid.shape, tuple(margin))


def kdv_system(ctx, which):
    """The KdV density's system ``which`` and, for a first-order one, its Legendre form."""
    lag = LagrangianDensity(ctx, parse(KDV_L, ctx), order=2)
    return system_of(lag, which), None if which == "el" else legendre_form(lag)


def system_of(lag, which):
    """The density's system ``which``, as `check-solution --system` builds it."""
    if which == "el":
        return EquationSystem(lag.context, (("el:u", euler_lagrange(lag).component(0)),))
    if which == "constraints":
        dc = DerivedContext(lag.context, lag.level)
        return EquationSystem(dc.ctx, tuple(
            (lab, dc.embed(res)) for lab, res in constraints(lag).equations), derived=dc)
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
    """Shrinks the bands to three rows of ``grid``, or the least height the
    halos allow, and returns the list that receives the rows of each band
    the first equation is evaluated on."""
    heights = []
    real = numeric.evaluate
    first = system.equations[0][1]

    def recording(e, sample, *args):
        if e is first:
            heights.append(np.shape(sample[CoordinateId.independent(0)])[0])
        return real(e, sample, *args)

    monkeypatch.setattr(numeric, "evaluate", recording)
    monkeypatch.setattr(numeric, "BAND_ELEMENTS", 3 * math.prod(grid.shape[1:]))
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


@pytest.mark.parametrize("which", ["el", "elh", "hdw"])
def test_residual_in_several_bands_on_three_axes(monkeypatch, which):
    ctx = JetContext(("t", "x", "y"), ("u",), max_order=4)
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


def test_residual_memory_is_the_fields_and_one_band():
    # the ELH residual of a 64^3 wave: a full-grid computation (a jet, pass,
    # momentum and temporary each on the whole grid) peaked at 13.0 times
    # the field's bytes, the band-streamed one at 3.1
    ctx = JetContext(("t", "x", "y"), ("u",), max_order=4)
    lag = LagrangianDensity(ctx, parse("1/2*u_t^2 - 1/2*u_x^2 - 1/2*u_y^2", ctx), order=1)
    g = wave3_grid(64)
    system, theta = elh_system(lag), legendre_form(lag)
    tracemalloc.start()
    try:
        residual(system, g, legendre=theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * g.fields["u"].nbytes


def test_kdv_el_residual_stencils_only_what_it_reads(ctx_tx, monkeypatch):
    # u_tx - 6 u_x u_xx + u_xxxx: the passes u_t, u_t -> u_tx, u_x, u_xx, u_xxxx
    passes = []
    real = numeric._apply_stencil

    def counted(arr, axis, order, h):
        passes.append((axis, order))
        return real(arr, axis, order, h)

    monkeypatch.setattr(numeric, "_apply_stencil", counted)
    residual(kdv_el_system(ctx_tx), soliton_grid(32, 32))
    assert sorted(passes) == [(0, 1), (1, 1), (1, 1), (1, 2), (1, 4)]


def test_residual_grid_too_small_keeps_full_prolongation_message(ctx_tx):
    # the EL rows read no jet with two t's, but the order-4 prolongation has
    # u_ttt, whose radius-3 stencil the 6-point t axis cannot host
    message = r"^axis of 6 points cannot host a radius-3 stencil$"
    with pytest.raises(GridTooSmallError, match=message):
        residual(kdv_el_system(ctx_tx), soliton_grid(6, 40))


def test_residual_constant_legendre_coefficient(ctx_tx):
    # p^t = dL/du_t = 1 evaluates to a float, which is differenced as a field
    lag = LagrangianDensity(ctx_tx, parse("u_t + 1/2*u_x^2", ctx_tx), order=1)
    r = residual(elh_system(lag), soliton_grid(40, 40, box=4.0),
                 legendre=legendre_form(lag))
    assert r["mom:u:t"] == 0.0 and np.isfinite(r["mom:u:"])


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
    dc = DerivedContext(ctx_tx, 1)
    rows = tuple((lab, dc.embed(res)) for lab, res in constraints(lag).equations)
    system = EquationSystem(dc.ctx, rows, derived=dc)
    r = residual(system, soliton_grid(256, 256), legendre=theta)
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
                coeff = theta.coefficient(alpha, I, i)
                name = ctx_tx.name(CoordinateId.momentum(alpha, I, i))
                vals = evaluate(coeff, samples) if not coeff.is_zero() \
                    else np.zeros(g.shape)
                fields[name] = np.nan_to_num(np.asarray(vals, dtype=float))
    mom = GridFunction(("t", "x"), g.origin, g.spacing, fields)
    dc = DerivedContext(ctx_tx, 1)
    rows = tuple((lab, dc.embed(res)) for lab, res in constraints(lag).equations)
    system = EquationSystem(dc.ctx, rows, derived=dc)
    r = residual(system, g, momentum_fields=mom)
    assert max(r.values()) <= 1e-8


def test_residual_momentum_field_of_another_shape_is_error(ctx_tx):
    system, theta = kdv_system(ctx_tx, "elh")
    g = soliton_grid(64, 64)
    for shape in ((50, 64), (80, 64)):
        mom = GridFunction(("t", "x"), g.origin, g.spacing, {"p_.t": np.zeros(shape)})
        with pytest.raises(VarjetError, match=rf"^momentum field p_.t has shape "
                           rf"\({shape[0]}, 64\), the grid \(64, 64\)$"):
            residual(system, g, momentum_fields=mom, legendre=theta)


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
            np.asarray(evaluate(total_derivative(e, 1, ctx_tx), samples),
                       dtype=float), g.shape)
        base = np.broadcast_to(
            np.asarray(evaluate(e, samples), dtype=float), g.shape).copy()
        chained = numeric._apply_stencil(base, 1, 1, g.spacing[1])
        interior = tuple(slice(m + 2, s - m - 2)
                         for m, s in zip((stencil_radius(3),) * 2, g.shape))
        scale = max(1.0, float(np.max(np.abs(direct[interior]))))
        assert np.max(np.abs(direct[interior] - chained[interior])) <= 1e-4 * scale


def test_total_derivative_primed_on_momenta(ctx_tx):
    from varjet.jetcalc import total_derivative_primed
    dc = DerivedContext(ctx_tx, 1)
    e = parse("p_x.x*u_x", ctx_tx)
    got = total_derivative_primed(e, 0, dc)
    assert got == parse("p_x.x,_t*u_x + p_x.x*u_x,_t", dc.ctx)


def test_momentum_enumeration_count():
    # m * n * (number of multiindices of length <= l over n indices)
    from math import comb
    for n, m, l in ((1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 1)):
        names_i = ("t", "x", "y")[:n]
        names_d = ("u", "v")[:m]
        ctx = JetContext(names_i, names_d, max_order=l + 2)
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


def test_grid_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_bytes(b"not a grid")
    from varjet.symcore import VarjetError
    with pytest.raises(VarjetError):
        load_grid(str(path))
