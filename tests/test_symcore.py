"""Kernel tests: parsing, normal form, partials, substitution, rendering."""

import random
from fractions import Fraction

import pytest

from conftest import KDV_L, jet_pool, random_expr
from varjet import symcore
from varjet.multiindex import MultiIndex
from varjet.symcore import (
    CoordinateId,
    Expr,
    JetContext,
    OrderOverflowError,
    ParseError,
    UnsupportedExpressionError,
    parse,
    render,
)


def test_row_echelon_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(300):
        n_cols = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
                for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("repeat", "combination", "zero column"))
            if kind == "repeat":
                rows.append(list(rng.choice(rows)))
            elif kind == "combination":
                a, b = rng.choice(rows), rng.choice(rows)
                k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                rows.append([x + k * y for x, y in zip(a, b)])
            else:
                col = rng.randrange(n_cols)
                for row in rows:
                    row[col] = Fraction(0)
        echelon, pivots = symcore.row_echelon(rows)
        matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                               for row in rows])
        assert len(pivots) == matrix.rank()
        assert pivots == sorted(set(pivots))
        for k, row in enumerate(echelon):
            lead = pivots[k] if k < len(pivots) else n_cols
            assert all(v == 0 for v in row[:lead])
            assert k >= len(pivots) or row[lead] != 0
        # elimination keeps the row space
        stacked = matrix.col_join(sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in echelon]))
        assert stacked.rank() == len(pivots)
    assert symcore.row_echelon([]) == ([], [])


def C(ctx, name):
    return ctx.resolve(name)


def E(ctx, text):
    return parse(text, ctx)


def test_parse_kdv_lagrangian(ctx_tx):
    e = E(ctx_tx, KDV_L)
    assert len(e.terms) == 3
    assert e.partial(C(ctx_tx, "u_xx")) == E(ctx_tx, "u_xx")


def test_parse_zero(ctx_tx):
    assert E(ctx_tx, "0") == Expr.zero()
    assert E(ctx_tx, "0").terms == ()


def test_parse_like_term_merge(ctx_tx):
    assert E(ctx_tx, "u + u") == E(ctx_tx, "2*u")
    assert len(E(ctx_tx, "u + u").terms) == 1


def test_parse_momentum_names(ctx_tx):
    p = C(ctx_tx, "p_xx.t")
    assert p.kind == "momentum"
    assert p.index == MultiIndex.of(1, 1)
    assert p.i == 0
    empty = C(ctx_tx, "p_.t")
    assert len(empty.index) == 0
    assert ctx_tx.name(p) == "p_xx.t"


def test_parse_momentum_dependent_tag():
    ctx = JetContext(("t", "x"), ("u", "v"), max_order=3)
    p = parse("p^v_x.t", ctx).coordinates()[0]
    assert p.alpha == 1 and p.i == 0
    assert ctx.name(p) == "p^v_x.t"
    # the tag is mandatory when m > 1
    with pytest.raises(ParseError):
        parse("p_x.t", ctx)


def test_parse_depth_cap(ctx_tx):
    # nesting is capped below the interpreter's recursion limit, with a
    # positioned message at the first sign past the cap
    assert E(ctx_tx, "(" * 100 + "u_x" + ")" * 100) == E(ctx_tx, "u_x")
    assert E(ctx_tx, "-" * 101 + "u_x") == E(ctx_tx, "-u_x")
    for text, column in (("(" * 3000 + "u_x" + ")" * 3000, 101),
                         ("-" * 3000 + "u_x", 102),
                         ("u + " + "-(" * 3000 + "u" + ")" * 3000, 204)):
        with pytest.raises(ParseError, match=r"^expression nested deeper than 100 levels "
                           rf"\(line 1, column {column}\)$"):
            parse(text, ctx_tx)


def test_parse_errors(ctx_tx):
    with pytest.raises(ParseError):
        E(ctx_tx, "w + 1")  # unknown identifier
    with pytest.raises(ParseError):
        E(ctx_tx, "u_q")  # malformed subscript
    with pytest.raises(OrderOverflowError):
        E(ctx_tx, "u_xxxxx")  # exceeds max_order 4
    with pytest.raises(UnsupportedExpressionError):
        E(ctx_tx, "1/u")  # division by non-constant
    with pytest.raises(UnsupportedExpressionError):
        E(ctx_tx, "u^-2")
    with pytest.raises(UnsupportedExpressionError):
        E(ctx_tx, "sin(u)")
    # the term reader's own cases, each with its message and position
    for text, error, message in [
            ("u/0", ParseError, r"division by zero \(line 1, column 2\)"),
            ("u_x*2/0*u", ParseError, r"division by zero \(line 1, column 6\)"),
            ("u/u_x", UnsupportedExpressionError, "division by a non-constant expression"),
            ("u^-1", UnsupportedExpressionError, "negative exponents are not polynomial"),
            # "^" then a letter joins the name
            ("u^x", ParseError, r"unknown identifier 'u\^x' \(line 1, column 1\)"),
            ("u ^x", ParseError, r"expected integer exponent \(line 1, column 4\)"),
            ("sin(u)", UnsupportedExpressionError, "transcendental function 'sin'"),
            ("u*w*u_x", ParseError, r"unknown identifier 'w' \(line 1, column 3\)"),
            ("u*(u_t + u_x)/w", ParseError, r"unknown identifier 'w' \(line 1, column 15\)")]:
        with pytest.raises(error, match=f"^{message}"):
            E(ctx_tx, text)


def test_parse_unary_and_parentheses(ctx_tx):
    assert E(ctx_tx, "-(u - u_x)^2") == -(E(ctx_tx, "u") - E(ctx_tx, "u_x")) ** 2
    assert E(ctx_tx, "u/2") == E(ctx_tx, "1/2*u")
    u, u_x = Expr.coord(C(ctx_tx, "u")), Expr.coord(C(ctx_tx, "u_x"))
    assert E(ctx_tx, "2*u_x^2/3*u") == (u * u_x ** 2).scale(Fraction(2, 3))
    assert E(ctx_tx, "u*0*u_x") == Expr.zero()
    assert E(ctx_tx, "u^0*3") == Expr.number(3)
    assert E(ctx_tx, "u/(2*(u - u))^0") == u
    ctx_uv = JetContext(("t", "x"), ("u", "v"))
    u, v = Expr.coord(C(ctx_uv, "u")), Expr.coord(C(ctx_uv, "v"))
    assert E(ctx_uv, "-u^2*v") == -(u ** 2 * v)
    assert E(ctx_uv, "u*-v^2") == -(u * v ** 2)
    assert E(ctx_uv, "u*0*v") == Expr.zero()
    assert E(ctx_uv, "2*(u + v)*u/3*(u - v)") == (u * (u * u - v * v)).scale(Fraction(2, 3))


def test_partial_power_rule(ctx_tx):
    assert E(ctx_tx, "u_x^3").partial(C(ctx_tx, "u_x")) == E(ctx_tx, "3*u_x^2")


def test_partial_absent_coordinate(ctx_tx):
    assert E(ctx_tx, "u_x*u_t").partial(C(ctx_tx, "u")) == Expr.zero()


def test_partial_kdv_hessian_entry(ctx_tx):
    # the sole nonzero second derivative in the top jets comes from u_xx^2/2
    L = E(ctx_tx, KDV_L)
    assert L.partial(C(ctx_tx, "u_xx")).partial(C(ctx_tx, "u_xx")) == Expr.number(1)
    assert L.partial(C(ctx_tx, "u_tt")) == Expr.zero()


def test_substitute_constraint_use(ctx_tx):
    # p_x.x * u_xx with u_xx -> p_x.x gives the square
    e = E(ctx_tx, "p_x.x*u_xx")
    got = e.substitute({C(ctx_tx, "u_xx"): E(ctx_tx, "p_x.x")})
    assert got == E(ctx_tx, "p_x.x^2")


def test_substitute_identity(ctx_tx):
    e = E(ctx_tx, KDV_L)
    assert e.substitute({}) == e


def test_substitute_binomial(ctx_tx):
    got = E(ctx_tx, "u^2").substitute({C(ctx_tx, "u"): E(ctx_tx, "u + 1")})
    assert got == E(ctx_tx, "u^2 + 2*u + 1")


def test_render_monomial_order(ctx_tx):
    assert render(E(ctx_tx, "2*u_x*u_xx"), ctx_tx) == "2*u_x*u_xx"
    assert render(Expr.zero(), ctx_tx) == "0"
    assert render(E(ctx_tx, "u^2 + 1 + 2*u"), ctx_tx) == "u^2 + 2*u + 1"


def test_render_latex_golden(ctx_tx):
    # canonical order locked: leading coordinate ascending, then degree descending
    got = render(E(ctx_tx, KDV_L), ctx_tx, "latex")
    assert got == "u_{x}^{3} - \\frac{1}{2} u_{t} u_{x} + \\frac{1}{2} u_{xx}^{2}"


def test_render_json_roundtrip(ctx_tx):
    import json
    e = E(ctx_tx, KDV_L)
    data = json.loads(render(e, ctx_tx, "json"))
    assert len(data["monomials"]) == 3
    rebuilt = Expr.zero()
    for mono in data["monomials"]:
        term = Expr.number(Fraction(mono["coeff"]))
        for name, p in mono["factors"]:
            term = term * Expr.coord(ctx_tx.resolve(name)) ** p
        rebuilt = rebuilt + term
    assert rebuilt == e


def test_parse_render_fixpoint_random(ctx_tx):
    rng = random.Random(7)
    pool = jet_pool(ctx_tx, 3) + ctx_tx.momenta_up_to(1)
    for _ in range(150):
        e = random_expr(rng, pool)
        assert parse(render(e, ctx_tx), ctx_tx) == e


def test_ring_laws_random(ctx_tx):
    rng = random.Random(11)
    pool = jet_pool(ctx_tx, 3)
    for _ in range(120):
        a = random_expr(rng, pool)
        b = random_expr(rng, pool)
        c = random_expr(rng, pool)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + Expr.zero() == a
        assert a - a == Expr.zero()


def test_partial_commutes_random(ctx_tx):
    rng = random.Random(13)
    pool = jet_pool(ctx_tx, 3)
    for _ in range(100):
        e = random_expr(rng, pool)
        c1, c2 = rng.choice(pool), rng.choice(pool)
        assert e.partial(c1).partial(c2) == e.partial(c2).partial(c1)


def test_normalization_idempotent(ctx_tx):
    rng = random.Random(17)
    pool = jet_pool(ctx_tx, 3)
    for _ in range(50):
        e = random_expr(rng, pool)
        assert Expr(e.terms) == e


def test_coordinate_equality_and_order():
    I1 = MultiIndex.of(0, 1)
    I2 = MultiIndex.of(1, 0)
    assert I1 == I2  # multiindices are unordered
    a = CoordinateId.jet(0, I1)
    b = CoordinateId.jet(0, I2)
    assert a == b and hash(a) == hash(b)
    ctx = JetContext(("t", "x"), ("u",), max_order=3)
    names = [ctx.name(c) for c in sorted(
        [CoordinateId.momentum(0, MultiIndex(), 1),
         CoordinateId.jet(0, MultiIndex.of(1)),
         CoordinateId.independent(1),
         CoordinateId.jet(0, MultiIndex())],
        key=lambda c: c.sort_key())]
    assert names == ["x", "u", "u_x", "p_.x"]


def test_context_validation():
    with pytest.raises(ValueError):
        JetContext((), ("u",))
    with pytest.raises(ValueError):
        JetContext(("x",), ("x",))
    with pytest.raises(ValueError):
        JetContext(("x",), ("u v",))


def test_reparse_normalises_each_term_a_bounded_number_of_times(monkeypatch):
    # re-parsing a plain rendering must cost linear work: summing the running
    # result term by term would pass about N^2/2 terms through normalisation
    ctx = JetContext(("t", "x"), ("u",))
    expansions = [parse(f"(u + u_t + u_x)^{power}", ctx) for power in (18, 38)]
    assert [len(e.terms) for e in expansions] == [190, 780]
    texts = [render(e, ctx) for e in expansions]
    normalise = symcore._normal_form
    counts = []

    def counting(terms):
        terms = list(terms)
        counts[-1] += len(terms)
        return normalise(terms)

    monkeypatch.setattr(symcore, "_normal_form", counting)
    for e, text in zip(expansions, texts):
        counts.append(0)
        assert parse(text, ctx) == e
    assert counts[1] < 6 * counts[0], counts


def test_power_normalises_once(monkeypatch):
    # a multinomial power passes each of its terms through normalisation
    # once, and the sum that holds it once more; squaring passed 41,505
    ctx = JetContext(("t", "x"), ("u",))
    normalise = symcore._normal_form
    passed = []

    def counting(terms):
        terms = list(terms)
        passed.append(len(terms))
        return normalise(terms)

    monkeypatch.setattr(symcore, "_normal_form", counting)
    e = parse("(u + u_t + u_x)^38", ctx)
    assert len(e.terms) == 780
    assert sum(passed) <= 2 * 780 + 3, passed


def test_product_and_power_over_the_term_budget_are_refused_before_any_work(
        monkeypatch, ctx_tx):
    big = Expr.sum([Expr.coord(c) for c in jet_pool(ctx_tx, 2, False)])  # 6 terms

    def fail(terms):
        raise AssertionError("normalised an over-budget result")

    monkeypatch.setattr(symcore, "_normal_form", fail)
    with pytest.raises(UnsupportedExpressionError,
                       match="^the power 100 of a 6-term sum may have up to 96560646 terms, "
                             "over the budget of 1000000$"):
        big ** 100
    monkeypatch.setattr(symcore, "MAX_TERMS", 30)
    with pytest.raises(UnsupportedExpressionError,
                       match="^the product of a 6-term and a 6-term expression may have "
                             "up to 36 terms, over the budget of 30$"):
        big * big
