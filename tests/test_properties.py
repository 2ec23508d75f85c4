"""Hypothesis property suites for the algebraic laws of the kernel."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from varjet.jetcalc import total_derivative
from varjet.multiindex import MultiIndex, multiindices_up_to
from varjet.symcore import INDEPENDENT, JET, CoordinateId, Expr, JetContext, parse, render

CTX = JetContext(("t", "x"), ("u",), max_order=6)
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
MIXED_CTX = JetContext(("t", "x"), ("u", "v"), max_order=6)
MIXED_POOL = [CoordinateId.independent(i) for i in range(2)] \
    + [CoordinateId.jet(a, I) for a in range(2) for I in multiindices_up_to(2, 2)] \
    + [CoordinateId.momentum(a, I, i)
       for a in range(2) for I in multiindices_up_to(2, 1) for i in range(2)]


@st.composite
def mixed_exprs(draw, pool=MIXED_POOL):
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
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
        assert isinstance(coeff, Fraction) and coeff != 0
        factor_ranks = [reference_coordinate_rank(c) for c, _ in mono]
        assert all(a < b for a, b in zip(factor_ranks, factor_ranks[1:])), \
            "factors not strictly ascending"
        for c, power in mono:
            assert isinstance(power, int) and power > 0
            twin = CoordinateId(c.kind, c.alpha, MultiIndex(tuple(reversed(c.index.entries))), c.i)
            assert twin == c and hash(twin) == hash(c)


@settings(max_examples=80, deadline=None)
@given(mixed_exprs(), mixed_exprs(), st.sampled_from(MIXED_POOL), coefficients,
       st.integers(min_value=0, max_value=3))
def test_every_result_is_in_normal_form(a, b, c, k, power):
    results = [a, a + b, a - b, a * b, a ** power, a.scale(k), a.partial(c),
               a.coefficient_of(c), a.substitute({c: b}),
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


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_plain_render_parses_back(e):
    assert parse(render(e, CTX), CTX) == e


@settings(max_examples=60, deadline=None)
@given(exprs(), st.sampled_from(POOL), st.sampled_from(POOL))
def test_partials_commute(e, c1, c2):
    assert e.partial(c1).partial(c2) == e.partial(c2).partial(c1)


@settings(max_examples=50, deadline=None)
@given(exprs(), st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=1))
def test_total_derivatives_commute(e, i, j):
    a = total_derivative(total_derivative(e, i, CTX), j, CTX)
    b = total_derivative(total_derivative(e, j, CTX), i, CTX)
    assert a == b


@settings(max_examples=50, deadline=None)
@given(exprs(), exprs(), st.integers(min_value=0, max_value=1))
def test_total_derivative_leibniz(a, b, i):
    assert total_derivative(a * b, i, CTX) == \
        total_derivative(a, i, CTX) * b + a * total_derivative(b, i, CTX)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=7))
def test_removals_reassembles(entries):
    I = MultiIndex(tuple(entries))
    removals = I.removals()
    assert sum(mult for _, _, mult in removals) == len(I)
    assert all(J.with_index(i) == I for J, i, _ in removals)
    assert len({(J, i) for J, i, _ in removals}) == len(removals)


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
