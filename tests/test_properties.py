"""Hypothesis property suites for the algebraic laws of the kernel."""

import copy
import pickle
import time
from dataclasses import field as dc_field
from dataclasses import make_dataclass
from fractions import Fraction
from itertools import chain

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import reference_mono_key, reference_normal_form, reference_partial
from varjet import symcore
from varjet.jetcalc import total_derivative
from varjet.multiindex import EMPTY, MultiIndex, multiindices_up_to
from varjet.symcore import (INDEPENDENT, JET, MOMENTUM, CoordinateId, Expr, JetContext, Q,
                            VarjetError, parse, render)

CTX = JetContext(("t", "x"), ("u",))
POOL = [CoordinateId.jet(0, I) for I in multiindices_up_to(2, 3)] \
    + [CoordinateId.independent(i) for i in range(2)]

coefficients = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6)

monomials = st.lists(
    st.tuples(st.sampled_from(POOL), st.integers(min_value=1, max_value=3)),
    max_size=3)


@st.composite
def exprs(draw):
    out = Expr.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        term = Expr.number(draw(coefficients))
        for coord, power in draw(monomials):
            term = term * Expr.coord(coord) ** power
        out = out + term
    return out


# independents, jets of two dependents and momenta, for the normal-form checks
MIXED_CTX = JetContext(("t", "x"), ("u", "v"))
MIXED_POOL = [CoordinateId.independent(i) for i in range(2)] \
    + [CoordinateId.jet(a, I) for a in range(2) for I in multiindices_up_to(2, 2)] \
    + [CoordinateId.momentum(a, I, i)
       for a in range(2) for I in multiindices_up_to(2, 1) for i in range(2)]


@st.composite
def mixed_exprs(draw, pool=MIXED_POOL, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        term = Expr.number(draw(coefficients))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            term = term * Expr.coord(draw(st.sampled_from(pool))) \
                ** draw(st.integers(min_value=1, max_value=2))
        terms.append(term)
    return Expr.sum(terms)


def reference_coordinate_rank(c):
    """The documented coordinate order, from the fields: independents by i,
    then jets by (alpha, |I|, I), then momenta by (alpha, |I|, I, i)."""
    if c.kind == INDEPENDENT:
        return (0, c.i)
    return (1 if c.kind == JET else 2, c.alpha, len(c.index), tuple(c.index), c.i)


def reference_monomial_rank(mono):
    """The documented sum order: leading coordinate ascending, total degree
    descending, then exponents on the larger coordinates first; the constant
    monomial last."""
    if not mono:
        return (1,)
    desc = sorted(mono, key=lambda f: reference_coordinate_rank(f[0]), reverse=True)
    return (0, reference_coordinate_rank(desc[0][0]), -sum(e for _, e in mono),
            [(reference_coordinate_rank(c), -e) for c, e in desc])


def assert_canonical(e):
    monos = [mono for mono, _ in e.terms]
    ranks = [reference_monomial_rank(mono) for mono in monos]
    assert all(a < b for a, b in zip(ranks, ranks[1:])), "terms not strictly ascending"
    for mono, coeff in e.terms:
        assert coeff.__class__ is Q and coeff != 0
        factor_ranks = [reference_coordinate_rank(c) for c, _ in mono]
        assert all(a < b for a, b in zip(factor_ranks, factor_ranks[1:])), \
            "factors not strictly ascending"
        for c, power in mono:
            assert isinstance(power, int) and power > 0
            index = MultiIndex(reversed(c.index))
            twin = (CoordinateId.independent(c.i) if c.kind == INDEPENDENT
                    else CoordinateId.jet(c.alpha, index) if c.kind == JET
                    else CoordinateId.momentum(c.alpha, index, c.i))
            assert twin == c and hash(twin) == hash(c)


@settings(max_examples=80, deadline=None)
@given(mixed_exprs(), mixed_exprs(), st.sampled_from(MIXED_POOL), coefficients,
       st.integers(min_value=0, max_value=3))
def test_every_result_is_in_normal_form(a, b, c, k, power):
    results = [a, a + b, a - b, a * b, a ** power, a.scale(k), *a.gradient().values(),
               a.substitute({c: b}),
               parse(render(a, MIXED_CTX), MIXED_CTX), Expr.sum([a, b, -a])]
    for e in results:
        assert_canonical(e)


# the second strategy draws from three coordinates, so that the monomials of a
# power's terms overlap and merge
@settings(max_examples=80, deadline=None)
@given(st.one_of(mixed_exprs(), mixed_exprs(pool=MIXED_POOL[2:5])),
       st.integers(min_value=0, max_value=6))
def test_power_is_repeated_multiplication(a, e):
    product = Expr.number(1)
    for _ in range(e):
        product = product * a
    assert a ** e == product


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs())
def test_addition_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_normal_form_idempotent(e):
    assert Expr(e.terms) == e
    assert e + Expr.zero() == e
    assert e - e == Expr.zero()


# independents, jets, momenta and comma-derivatives of jets and momenta
TERM_POOL = MIXED_POOL + [CoordinateId.comma(c, i) for c in MIXED_POOL[2:] for i in range(2)]

# a few coordinates at a time, so that drawn monomials share factors and leads
few_coordinates = st.lists(st.sampled_from(TERM_POOL), min_size=1, max_size=5, unique=True)


def monomials_over(coords):
    return st.dictionaries(st.sampled_from(coords), st.integers(min_value=1, max_value=3),
                           max_size=5).map(lambda powers: tuple(sorted(powers.items())))


raw_coefficients = st.one_of(
    st.integers(min_value=-4, max_value=4), coefficients, coefficients.map(Q),
    st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False))


@st.composite
def term_lists(draw):
    """Terms over a few monomials, the empty one included, so that like
    monomials repeat; some terms are followed by their negation."""
    monos = draw(st.lists(monomials_over(draw(few_coordinates)), min_size=1, max_size=6)) + [()]
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        term = (draw(st.sampled_from(monos)), draw(raw_coefficients))
        terms.append(term)
        if draw(st.booleans()) and draw(st.booleans()):
            terms.append((term[0], -term[1]))
    return terms


# a normal form of five terms, and the inputs at the edges of _normal_form's
# ordered-run check: each breaks it at its third term or last pair, or is
# too short to need it
_RUN = parse("7 + u - 3*u_t + 1/2*x*u_x^2 + u_tx*u_xx", CTX).terms
_ORDERED_RUN_EDGES = (
    _RUN,
    _RUN[:2] + ((_RUN[2][0], Q(0)),) + _RUN[3:],  # a zero coefficient
    _RUN[:3] + _RUN[2:],  # an adjacent duplicate
    _RUN[:2] + ((_RUN[2][0], 5),) + _RUN[3:],  # an int, a Fraction, a float coefficient
    _RUN[:2] + ((_RUN[2][0], Fraction(-2, 3)),) + _RUN[3:],
    _RUN[:2] + ((_RUN[2][0], 0.25),) + _RUN[3:],
    _RUN[:-2] + (_RUN[-1], _RUN[-2]),  # ascending but for its last pair
    _RUN[:1],
    (),
)
_CONTAINERS = (list, tuple, iter, lambda ts: (t for t in ts), lambda ts: chain(ts[:2], ts[2:]))


def _ordered_run_examples(test):
    """test with each ordered-run edge as an explicit example, in every container"""
    for terms in _ORDERED_RUN_EDGES:
        for container in _CONTAINERS:
            test = example(terms, container)(test)
    return test


@_ordered_run_examples
@settings(max_examples=200, deadline=None)
@given(term_lists(), st.sampled_from(_CONTAINERS))
def test_normal_form_matches_the_nested_key_reference(terms, container):
    # the terms, their first term alone, with its coefficient and with 0,
    # and their normal form, which the ordered-run check passes through
    for part in (terms, terms[:1], [(mono, 0) for mono, _ in terms[:1]],
                 reference_normal_form(terms)):
        out = symcore._normal_form(container(part))
        assert out.__class__ is tuple
        assert out == reference_normal_form(part)
        assert all(coeff.__class__ is Q for _, coeff in out)


def test_a_normal_form_is_not_normalised_again():
    assert len(_RUN) == 5
    assert Expr(_RUN).terms is _RUN


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flat_key_orders_monomials_as_the_nested_key(data):
    coords = data.draw(few_coordinates)
    a, b = data.draw(monomials_over(coords)), data.draw(monomials_over(coords))
    flat, nested = symcore._mono_key, reference_mono_key
    assert (flat(a) < flat(b)) == (nested(a) < nested(b))
    assert (flat(a) == flat(b)) == (a == b)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_plain_render_parses_back(e):
    assert parse(render(e, CTX), CTX) == e


@settings(max_examples=60, deadline=None)
@given(exprs(), st.sampled_from(POOL), st.sampled_from(POOL))
def test_partials_commute(e, c1, c2):
    zero = Expr.zero()
    assert e.gradient().get(c1, zero).gradient().get(c2, zero) == \
        e.gradient().get(c2, zero).gradient().get(c1, zero)


@settings(max_examples=100, deadline=None)
@given(mixed_exprs(), st.sampled_from(MIXED_POOL))
def test_gradient_matches_the_reference(e, absent):
    # one entry per coordinate of e, each the per-coordinate scan's partial;
    # a coordinate outside e has the reference partial zero
    gradient = e.gradient()
    assert set(gradient) == set(e.coordinates())
    for c, part in gradient.items():
        assert part == reference_partial(e, c)
    if absent not in gradient:
        assert reference_partial(e, absent) == Expr.zero()


@settings(max_examples=50, deadline=None)
@given(exprs(), st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
def test_total_derivatives_commute(e, i, j):
    a = total_derivative(total_derivative(e, i), j)
    b = total_derivative(total_derivative(e, j), i)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(exprs(), exprs(), st.integers(min_value=0, max_value=1))
def test_total_derivative_leibniz(a, b, i):
    assert total_derivative(a * b, i) == \
        total_derivative(a, i) * b + a * total_derivative(b, i)


# -- the kernel's one-pass routines against the algorithms they replace ---------

def reference_substitute(e, bindings):
    """Per monomial: the coefficient times each factor's image (or the factor
    itself) to its exponent, the monomials' images summed."""
    images = []
    for mono, coeff in e.terms:
        image = Expr.number(coeff)
        for c, p in mono:
            image = image * (bindings[c] if c in bindings else Expr.coord(c)) ** p
        images.append(image)
    return Expr.sum(images)


# few coordinates and exponents up to 4, so a bound coordinate meets several
# powers with gaps between them and images hold bound coordinates
SUB_POOL = [CoordinateId.independent(0), CoordinateId.jet(0), CoordinateId.jet(1),
            CoordinateId.jet(0, MultiIndex((1,))), CoordinateId.momentum(1, EMPTY, 0)]
U, V = CoordinateId.jet(0), CoordinateId.jet(1)


@st.composite
def powered_exprs(draw, max_terms=5):
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        term = Expr.number(draw(coefficients))
        for c in draw(st.lists(st.sampled_from(SUB_POOL), max_size=3, unique=True)):
            term = term * Expr.coord(c) ** draw(st.integers(min_value=1, max_value=4))
        terms.append(term)
    return Expr.sum(terms)


@settings(max_examples=100, deadline=None)
@given(powered_exprs(),
       st.dictionaries(st.sampled_from(SUB_POOL), powered_exprs(max_terms=3), max_size=4),
       st.booleans())
def test_substitute_matches_the_per_monomial_reference(e, bindings, swap):
    if swap:
        bindings = {**bindings, U: Expr.coord(V), V: Expr.coord(U)}
    out = e.substitute(bindings)
    assert out == reference_substitute(e, bindings)
    assert_canonical(out)


@settings(max_examples=100, deadline=None)
@given(mixed_exprs(max_terms=12),
       st.dictionaries(st.sampled_from(MIXED_POOL), mixed_exprs(max_terms=2), max_size=12))
def test_substitute_over_many_bound_coordinates_matches_the_per_monomial_reference(
        e, bindings):
    # most coordinates bound: the terms fall into many groups by their
    # largest bound coordinate, cofactors hold smaller bound ones, and the
    # groups' images are merged with each other and with the free terms
    out = e.substitute(bindings)
    assert out == reference_substitute(e, bindings)
    assert_canonical(out)


def test_substitute_linear_in_many_bound_coordinates_normalises_once(monkeypatch):
    # a sum of 160 products, each linear in its own bound third-order jet:
    # re-normalising the growing result at each bound coordinate passed
    # about 160^2/2 terms through normalisation and took 68 ms
    ctx = JetContext(("t", "x", "y"), tuple(f"u{a}" for a in range(16)))
    t = Expr.coord(ctx.resolve("t"))
    jets = [c for c in ctx.jets_up_to(3) if len(c.index) == 3]
    low = [c for c in ctx.jets_up_to(1) if c.index]
    assert len(jets) == 160
    e = Expr.sum([Expr.coord(low[b % len(low)]) * Expr.coord(c) for b, c in enumerate(jets)])
    bindings = {c: (t ** (b + 1)).scale(b + 2) for b, c in enumerate(jets)}
    want = reference_substitute(e, bindings)
    normalise = symcore._normal_form
    passed = []

    def counting(terms):
        terms = list(terms)
        passed.append(len(terms))
        return normalise(terms)

    monkeypatch.setattr(symcore, "_normal_form", counting)
    start = time.perf_counter()
    out = e.substitute(bindings)
    elapsed = time.perf_counter() - start
    assert out == want and len(out.terms) == 160
    assert passed == [160], passed
    assert elapsed < 1.0


def test_substitute_is_simultaneous():
    ctx = JetContext(("x",), ("u", "v"))
    e = parse("u^3*v + 2*u - v^2 + 5", ctx)
    swapped = e.substitute({U: Expr.coord(V), V: Expr.coord(U)})
    assert swapped == parse("v^3*u + 2*v - u^2 + 5", ctx)
    # an image holding the bound coordinate itself is not substituted again
    assert e.substitute({U: parse("u + v", ctx)}) == \
        parse("(u + v)^3*v + 2*(u + v) - v^2 + 5", ctx)


def reference_total_derivative(e, i):
    """D_i = d/dx^i + sum over the jets u_I^a of e of u_{Ii}^a d/du_I^a."""
    parts = [reference_partial(e, CoordinateId.independent(i))]
    for c in e.coordinates():
        if c.kind == JET:
            lifted = CoordinateId.jet(c.alpha, c.index.with_index(i))
            parts.append(reference_partial(e, c) * Expr.coord(lifted))
    return Expr.sum(parts)


JET_SIDE_POOL = [c for c in MIXED_POOL if c.kind in (INDEPENDENT, JET)]


@settings(max_examples=100, deadline=None)
@given(mixed_exprs(pool=JET_SIDE_POOL), st.integers(min_value=0, max_value=1))
def test_total_derivative_matches_the_partials_reference(e, i):
    out = total_derivative(e, i)
    assert out == reference_total_derivative(e, i)
    assert_canonical(out)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=7))
def test_removals_reassembles(entries):
    I = MultiIndex(tuple(entries))
    removals = I.removals()
    assert sum(mult for _, _, mult in removals) == len(I)
    assert all(J.with_index(i) == I for J, i, _ in removals)
    assert len({(J, i) for J, i, _ in removals}) == len(removals)


# The coordinate and the multiindex as frozen dataclasses, as they were
# before both became tuples: the reference for their order, equality, hash
# and repr.  A coordinate computed its sort key from its fields and hashed
# and ordered by that key.
OldMultiIndex = make_dataclass("MultiIndex", [("entries", tuple, dc_field(default=()))],
                               frozen=True, order=True)
OldCoordinateId = make_dataclass(
    "CoordinateId", [("kind", str), ("alpha", int, dc_field(default=-1)),
                     ("index", OldMultiIndex, dc_field(default=OldMultiIndex())),
                     ("i", int, dc_field(default=-1))], frozen=True)


def old_key(c):
    if c.kind == INDEPENDENT:
        return (0, c.i, 0, (), 0)
    return ({JET: 1, MOMENTUM: 2}[c.kind], c.alpha, len(c.index.entries), c.index.entries, c.i)


@st.composite
def coordinate_pairs(draw):
    """(new, old) for one random coordinate of any kind."""
    kind = draw(st.sampled_from((INDEPENDENT, JET, MOMENTUM)))
    alpha, i = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = draw(st.lists(st.integers(0, 3), max_size=4))
    old_index = OldMultiIndex(tuple(sorted(entries)))
    if kind == INDEPENDENT:
        return CoordinateId.independent(i), OldCoordinateId(kind, i=i)
    if kind == JET:
        return CoordinateId.jet(alpha, MultiIndex(entries)), OldCoordinateId(kind, alpha, old_index)
    return (CoordinateId.momentum(alpha, MultiIndex(entries), i),
            OldCoordinateId(kind, alpha, old_index, i))


@settings(max_examples=300, deadline=None)
@given(coordinate_pairs(), coordinate_pairs())
def test_coordinates_order_compare_and_hash_as_their_dataclass_keys(a, b):
    (new_a, old_a), (new_b, old_b) = a, b
    for new, old in a, b:
        assert new == old_key(old) and hash(new) == hash(old_key(old))
        assert repr(new) == repr(old) and repr(new.index) == repr(old.index)
        assert (new.kind, new.alpha, new.index, new.i) == \
            (old.kind, old.alpha, old.index.entries, old.i)
        for twin in pickle.loads(pickle.dumps(new)), copy.deepcopy(new):
            assert twin == new and type(twin) is CoordinateId
    assert (new_a == new_b) == (old_key(old_a) == old_key(old_b))
    assert (new_a < new_b) == (old_key(old_a) < old_key(old_b))
    assert (new_a <= new_b) == (old_key(old_a) <= old_key(old_b))


def comma_of(c, axes):
    for i in axes:
        c = CoordinateId.comma(c, i)
    return c


@settings(max_examples=300, deadline=None)
@given(coordinate_pairs(), coordinate_pairs(),
       st.lists(st.integers(0, 3), max_size=3), st.lists(st.integers(0, 3), max_size=3))
def test_comma_derivatives_sort_after_their_base_by_length_then_index(a, b, J, K):
    # c,_J sorts as (c, |J|, J), so a sorted fiber's coordinates and their
    # comma-derivatives keep the order of the separate context they once had
    c, d = a[0], b[0]
    assume(c.kind != INDEPENDENT and d.kind != INDEPENDENT)
    cJ, dK = comma_of(c, J), comma_of(d, K)
    key_c, key_d = (c, len(J), MultiIndex(J)), (d, len(K), MultiIndex(K))
    assert (cJ < dK) == (key_c < key_d) and (cJ == dK) == (key_c == key_d)
    if J:
        assert cJ.kind == "comma" and cJ.base == c and type(cJ.base) is CoordinateId
        assert cJ.comma_index == MultiIndex(J)
        assert (cJ.alpha, cJ.index, cJ.i) == (c.alpha, c.index, c.i)
        assert cJ == comma_of(c, reversed(J)) and hash(cJ) == hash(tuple(cJ))
        for twin in pickle.loads(pickle.dumps(cJ)), copy.deepcopy(cJ):
            assert twin == cJ and type(twin) is CoordinateId and twin.base == c
        assert c < cJ and (d <= c or dK > cJ)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=6))
def test_multiindex_is_the_tuple_of_its_sorted_entries(entries):
    I = MultiIndex(entries)
    old = OldMultiIndex(tuple(sorted(entries)))
    assert I == tuple(sorted(entries)) == old.entries and hash(I) == hash(old.entries)
    assert repr(I) == repr(old)
    assert I == MultiIndex(reversed(entries))
    assert pickle.loads(pickle.dumps(I)) == I and type(copy.deepcopy(I)) is MultiIndex
    with pytest.raises(VarjetError, match="^multiindex entries must be nonnegative indices$"):
        MultiIndex(entries + [-1])


def test_thread_safety_of_pure_operations():
    # expressions are immutable and all operations pure; concurrent use from
    # several threads must agree with the serial result
    from concurrent.futures import ThreadPoolExecutor

    from varjet.variational import LagrangianDensity, euler_lagrange, legendre_form

    lag = LagrangianDensity(CTX, parse("u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2", CTX),
                            order=2)
    serial = euler_lagrange(lag)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: euler_lagrange(lag), range(32)))
        thetas = list(pool.map(lambda _: legendre_form(lag), range(16)))
    assert all(r == serial for r in results)
    assert all(t == thetas[0] for t in thetas)
