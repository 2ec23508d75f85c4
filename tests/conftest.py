import functools
import math
import random
import re
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from varjet import numeric
from varjet.jetcalc import iterated_total_derivative, total_derivative
from varjet.multiindex import MultiIndex, multiindices_up_to
from varjet.numeric import GridFunction
from varjet.pdham import comma_images
from varjet.symcore import JET, CoordinateId, Expr, JetContext, Q, parse
from varjet.variational import LagrangianDensity, euler_lagrange

KDV_L = "u_x^3 - 1/2*u_x*u_t + 1/2*u_xx^2"
KDV_EL = "u_tx - 6*u_x*u_xx + u_xxxx"


@pytest.fixture
def ctx_tx():
    return JetContext(("t", "x"), ("u",))


@pytest.fixture
def kdv(ctx_tx):
    return LagrangianDensity(ctx_tx, parse(KDV_L, ctx_tx), order=2)


@pytest.fixture
def digit_limit():
    """Python's default limit on int-to-text digits, for the test's duration."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture
def ctx_1d():
    return JetContext(("x",), ("u",))


def soliton_grid(nt, nx, c=1.0, box=16.0):
    """The KdV soliton u = -sqrt(c) tanh(sqrt(c)/2 (x - c t)) over [-box, box]^2."""
    t = np.linspace(-box, box, nt)
    x = np.linspace(-box, box, nx)
    T, X = np.meshgrid(t, x, indexing="ij")
    u = -math.sqrt(c) * np.tanh(math.sqrt(c) / 2 * (X - c * T))
    return GridFunction(("t", "x"), (t[0], x[0]), (t[1] - t[0], x[1] - x[0]), {"u": u})


def signless(res):
    """The row with a positive leading coefficient: the row's sign is not its content."""
    return -res if res.terms and res.terms[0][1] < 0 else res


def canon(system):
    """The nonzero residuals as a multiset, blind to row sign and order."""
    return Counter(signless(res) for _, res in system.equations if not res.is_zero())


def wave3_grid(n, box=3.0):
    """u = sin(0.6x + 0.8y - t), which solves u_tt = u_xx + u_yy, on an n^3 grid."""
    axis = np.linspace(-box, box, n)
    T, X, Y = np.meshgrid(axis, axis, axis, indexing="ij")
    h = axis[1] - axis[0]
    return GridFunction(("t", "x", "y"), (axis[0],) * 3, (h,) * 3,
                        {"u": np.sin(0.6 * X + 0.8 * Y - T)})


def record_arenas(monkeypatch):
    """Each arena numeric._arena maps from now on, as (its bytes, a weak
    reference to its page mapping).  tracemalloc does not trace a mapping,
    so a memory bound adds these bytes to the traced peak."""
    arenas = []
    real = numeric._arena

    def recorded(elements):
        arena = real(elements)
        arenas.append((arena.nbytes, weakref.ref(arena.base.obj)))
        return arena

    monkeypatch.setattr(numeric, "_arena", recorded)
    return arenas


def reference_partial(e: Expr, c: CoordinateId) -> Expr:
    """de/dc by its own scan of e's terms, one coordinate at a time: the
    reference for Expr.gradient, and an oracle independent of it."""
    acc = []
    for mono, coeff in e.terms:
        for k, (cc, p) in enumerate(mono):
            if cc == c:
                if p > 1:
                    acc.append((mono[:k] + ((cc, p - 1),) + mono[k + 1:], coeff * p))
                else:
                    acc.append((mono[:k] + mono[k + 1:], coeff))
                break
    return Expr(acc)


# the nested sort key and normal form of symcore before its keys were flat:
# the oracle for symcore._mono_key and symcore._normal_form
REFERENCE_CONSTANT_MONO_KEY = ((9, 0, 0, (), 0), 0, ())


def reference_mono_key(mono):
    # Canonical sum order: leading (largest) coordinate ascending, then total
    # degree descending, then exponents on the larger coordinates first.
    # Factors are stored ascending, so the leading one is the last.
    if not mono:
        return REFERENCE_CONSTANT_MONO_KEY
    tail = tuple([(c, -e) for c, e in reversed(mono)])
    return (tail[0][0], -sum([e for _, e in mono]), tail)


def reference_normal_form(terms):
    """Merge like monomials in one dict, drop zero coefficients and sort the
    monomials once, by reference_mono_key."""
    merged = {}
    get = merged.get
    for mono, coeff in terms:
        if coeff.__class__ is not Q:
            coeff = Q(coeff)
        prev = get(mono)
        merged[mono] = coeff if prev is None else prev + coeff
    monos = sorted([m for m, c in merged.items() if c._numerator], key=reference_mono_key)
    return tuple([(m, merged[m]) for m in monos])


def reference_mono_mul(a, b):
    """The product of two monomials by a dict merge of their exponents and
    one sort of its items: the oracle for symcore._mono_mul."""
    powers = dict(a)
    for c, e in b:
        powers[c] = powers.get(c, 0) + e
    return tuple(sorted(powers.items()))


@functools.lru_cache(maxsize=None)
def _coordinate_grammar(ctx):
    """docs/grammar.bnf's ``coordinate`` over ctx's names, as one regex, and
    the alternation of its independent names that splits an index word."""
    independent = "|".join(map(re.escape, ctx.independents))
    depname = "|".join(map(re.escape, ctx.dependents))
    word = f"(?:{independent})"
    jet = rf"(?P<dep>{depname})(?:_(?P<I>{word}+))?"
    tag = rf"\^(?P<tag>{depname})" if ctx.m > 1 else ""
    momentum = rf"p{tag}_(?P<pI>{word}*)\.(?P<i>{independent})"
    comma = rf",_(?P<J>{word}+)"
    return re.compile(rf"(?P<x>{independent})|(?:{jet}|{momentum})(?:{comma})?"), independent


def reference_resolve(name, ctx):
    """The coordinate a name of docs/grammar.bnf spells in ctx, or None: one
    regex match, then each word split by the independents' alternation; the
    oracle for JetContext._try_resolve."""
    grammar, independent = _coordinate_grammar(ctx)
    match = grammar.fullmatch(name)
    if match is None:
        return None

    def index(word):
        return MultiIndex(ctx.independents.index(w) for w in re.findall(independent, word))

    group = match.groupdict("")
    if group["x"]:
        return CoordinateId.independent(ctx.independents.index(group["x"]))
    if group["dep"]:
        c = CoordinateId.jet(ctx.dependents.index(group["dep"]), index(group["I"]))
    else:
        alpha = ctx.dependents.index(group["tag"]) if ctx.m > 1 else 0
        c = CoordinateId.momentum(alpha, index(group["pI"]), ctx.independents.index(group["i"]))
    for i in index(group["J"]):
        c = CoordinateId.comma(c, i)
    return c


def homotopy_lagrangian(lag: LagrangianDensity) -> LagrangianDensity:
    """L_h = sum_a u^a int_0^1 E_a(L)(t*u) dt, the Vainberg-Tonti density of
    lag's Euler-Lagrange expressions: each term of E_a of jet degree d (the
    independents do not count) gets 1/(d + 1).  E(L_h) == E(L) exactly for a
    polynomial density, since E(L) is variational; an oracle for
    euler_lagrange that does not use sympy."""
    parts = []
    for a, e in enumerate(euler_lagrange(lag)):
        scaled = Expr([(mono, coeff / (1 + sum(p for c, p in mono if c.kind == "jet")))
                       for mono, coeff in e.terms])
        parts.append(Expr.coord(CoordinateId.jet(a)) * scaled)
    return LagrangianDensity(lag.context, Expr.sum(parts))


def jet_pool(ctx, max_order, include_independents=True):
    pool = [CoordinateId.jet(a, I)
            for a in range(ctx.m) for I in multiindices_up_to(ctx.n, max_order)]
    if include_independents:
        pool += [CoordinateId.independent(i) for i in range(ctx.n)]
    return pool


def random_expr(rng: random.Random, pool, max_monomials=4, max_factors=3,
                max_exp=2, coeff_bound=6):
    """Seeded random polynomial over the given coordinate pool."""
    out = Expr.zero()
    for _ in range(rng.randint(1, max_monomials)):
        num = rng.randint(-coeff_bound, coeff_bound)
        if num == 0:
            num = 1
        term = Expr.number(Fraction(num, rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_factors)):
            term = term * Expr.coord(rng.choice(pool)) ** rng.randint(1, max_exp)
        out = out + term
    return out


def random_fiber_map(rng: random.Random, ctx: JetContext, max_monomials=2, max_factors=2):
    """A triangular polynomial fiber map u = phi(x, v), one Expr per
    dependent, with v^b written as the order-0 jet of dependent b: phi^a is
    a nonzero rational times v^a plus a random polynomial in the
    independents and the v^b with b < a, so phi has a polynomial inverse."""
    phi = []
    for a in range(ctx.m):
        lower = [CoordinateId.independent(i) for i in range(ctx.n)] \
            + [CoordinateId.jet(b) for b in range(a)]
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
        phi.append(Expr.coord(CoordinateId.jet(a)).scale(c)
                   + random_expr(rng, lower, max_monomials, max_factors, max_exp=1))
    return tuple(phi)


def prolonged_fiber_map(phi, coordinates):
    """The prolongation of the fiber map phi on the given coordinates: each
    jet u_I^a to D_I phi^a, the images for Expr.substitute (independents
    are not bound)."""
    return {c: iterated_total_derivative(phi[c.alpha], c.index)
            for c in coordinates if c.kind == JET}


def random_lagrangian(rng: random.Random, max_n=2, max_m=2, max_order=3,
                      max_monomials=6, max_degree=4, shape=None):
    """Random polynomial density in a random small context (jet-side, no x
    factors), or in the context of the given (n, m, order) shape."""
    n, m, order = shape or (rng.randint(1, max_n), rng.randint(1, max_m),
                            rng.randint(1, max_order))
    names_i = ("t", "x", "y", "z")[:n] if n > 1 else ("x",)
    names_d = ("u", "v")[:m]
    ctx = JetContext(names_i, names_d)
    pool = [CoordinateId.jet(a, I)
            for a in range(m) for I in multiindices_up_to(n, order)]
    L = Expr.zero()
    for _ in range(rng.randint(1, max_monomials)):
        num = rng.randint(-5, 5) or 1
        term = Expr.number(Fraction(num, rng.randint(1, 3)))
        degree = rng.randint(1, max_degree)
        for _ in range(degree):
            term = term * Expr.coord(rng.choice(pool))
        L = L + term
    if L.is_zero():
        L = Expr.coord(pool[0])
    return LagrangianDensity(ctx, L, order=max(order, max(1, L.max_jet_order())))


def random_gauge(rng: random.Random, lag: LagrangianDensity):
    """A random gauge of lag's momenta (n >= 2, level l >= 1), as the map q
    of the four momenta it moves: for a dependent a, a multiindex K with
    |K| <= l-1, i < j and a random jet-side f of order <= l-1,
    q^{Ki.j} = f, q^{Kj.i} = -f, q^{K.i} = -D_j f and q^{K.j} = D_i f.
    The ELH rows are blind to p -> p + q: the contraction terms at Kij cancel
    pairwise, D_j f at Ki and D_i f at Kj cancel the contraction terms there,
    and the two divergence terms at K cancel each other."""
    ctx = lag.context
    a, (i, j) = rng.randrange(ctx.m), sorted(rng.sample(range(ctx.n), 2))
    K = rng.choice(multiindices_up_to(ctx.n, lag.level - 1))
    f = random_expr(rng, jet_pool(ctx, lag.level - 1), max_monomials=3, max_factors=2)
    return {CoordinateId.momentum(a, K.with_index(i), j): f,
            CoordinateId.momentum(a, K.with_index(j), i): -f,
            CoordinateId.momentum(a, K, i): -total_derivative(f, j),
            CoordinateId.momentum(a, K, j): total_derivative(f, i)}


def pullback(system, theta):
    """The rows of a mixed system pulled back along the prolonged Legendre
    section of theta (legendre_form's map): a fiber jet maps to itself, a
    momentum p to theta[p] (zero when absent), and a comma-derivative to the
    total derivative of its base's image.  One substitution, in the
    system's own context.  Returns (label, Expr) pairs."""
    ctx = system.context
    images = {c: theta.get(c, Expr.zero()) for c in system.fiber if c.kind == "momentum"}
    images.update((c, Expr.coord(c)) for c in system.fiber if c.kind == "jet")
    mapping = comma_images(images, ctx.n)
    return tuple((label, res.substitute(mapping)) for label, res in system.equations)
