"""Kernel tests: parsing, normal form, partials, substitution, rendering."""

import copy
import glob
import itertools
import json
import operator
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import textwrap
import time
import types
from fractions import Fraction

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings

from conftest import KDV_L, jet_pool, random_expr, reference_mono_mul, reference_resolve
from varjet import multiindex, symcore
from varjet.multiindex import MultiIndex, multiindices_up_to
from varjet.symcore import (
    ContextError,
    CoordinateId,
    Expr,
    JetContext,
    MOMENTUM,
    ParseError,
    Q,
    UnknownCoordinateError,
    UnsupportedExpressionError,
    VarjetError,
    parse,
    render,
)


def test_eliminate_rank_and_solutions_match_sympy():
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
        system = {r: dict(enumerate(row)) for r, row in enumerate(rows)}
        solutions, left = symcore.eliminate(system, range(n_cols))
        matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                               for row in rows])
        assert len(solutions) == matrix.rank()
        assert system == {r: dict(enumerate(row)) for r, row in enumerate(rows)}
        # the rows without a pivot are zero, and each solution reads free
        # columns only: setting one free column to 1 and the others to 0
        # gives a vector of the kernel
        assert all(row == {} for row in left.values())
        free = [c for c in range(n_cols) if c not in solutions]
        for solution in solutions.values():
            assert set(solution) <= set(free)
        for f in free:
            vector = [Fraction(c == f) if c not in solutions else solutions[c].get(f, 0)
                      for c in range(n_cols)]
            assert all(sum(v * x for v, x in zip(row, vector)) == 0 for row in rows)
    assert symcore.eliminate({}, ()) == ({}, {})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_are_refused(value):
    # Fraction's own ValueError and OverflowError escaped before
    message = rf"^coefficient {value!r} is not a finite rational number$"
    u = Expr.coord(CoordinateId.jet(0))
    for build in (lambda: Expr.number(value), lambda: u.scale(value), lambda: u * value,
                  lambda: Expr([((), value)]), lambda: Expr([((), 1), ((), value)]),
                  lambda: symcore.eliminate({0: {0: 1, 1: value}}, [0])):
        with pytest.raises(UnsupportedExpressionError, match=message):
            build()


def test_negative_multiindex_arguments_are_refused():
    # a ValueError escaped, or a negative count of indices read as none
    cases = ((MultiIndex, ([-1],), "^multiindex entries must be nonnegative indices$"),
             (multiindex.multiindices, (2, -1), r"^multiindices need n >= 0 and a length >= 0, "
                                                r"got 2 and -1$"),
             (multiindices_up_to, (-1, 2), r"^multiindices need n >= 0, got -1$"))
    for build, args, message in cases:
        with pytest.raises(VarjetError, match=message):
            build(*args)
    assert multiindices_up_to(2, -1) == []  # no multiindex is that short


def C(ctx, name):
    return ctx.resolve(name)


def E(ctx, text):
    return parse(text, ctx)


def test_parse_kdv_lagrangian(ctx_tx):
    e = E(ctx_tx, KDV_L)
    assert len(e.terms) == 3
    assert e.gradient()[C(ctx_tx, "u_xx")] == E(ctx_tx, "u_xx")


def test_parse_zero(ctx_tx):
    assert E(ctx_tx, "0") == Expr.zero()
    assert E(ctx_tx, "0").terms == ()


def test_expr_repr_counts_the_terms(ctx_tx):
    assert [repr(E(ctx_tx, text)) for text in ("0", "3", KDV_L)] == \
        ["Expr<0 terms>", "Expr<1 terms>", "Expr<3 terms>"]


def test_parse_like_term_merge(ctx_tx):
    assert E(ctx_tx, "u + u") == E(ctx_tx, "2*u")
    assert len(E(ctx_tx, "u + u").terms) == 1


def test_parse_momentum_names(ctx_tx):
    p = C(ctx_tx, "p_xx.t")
    assert p.kind == "momentum"
    assert p.index == MultiIndex((1, 1))
    assert p.i == 0
    empty = C(ctx_tx, "p_.t")
    assert len(empty.index) == 0
    assert ctx_tx.name(p) == "p_xx.t"


def test_parse_momentum_dependent_tag():
    ctx = JetContext(("t", "x"), ("u", "v"))
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
            ("u/u_x", UnsupportedExpressionError,
             r"division by a non-constant expression is not polynomial \(line 1, column 2\)$"),
            ("u_x*(u + 1)/(u_t - 2)", UnsupportedExpressionError,
             r"division by a non-constant expression is not polynomial \(line 1, column 12\)$"),
            ("u^-1", UnsupportedExpressionError,
             r"negative exponents are not polynomial \(line 1, column 3\)$"),
            ("u +\n  (u_x)^ -2", UnsupportedExpressionError,
             r"negative exponents are not polynomial \(line 2, column 10\)$"),
            # "^" then a letter joins the name
            ("u^x", ParseError, r"unknown identifier 'u\^x' \(line 1, column 1\)"),
            ("u ^x", ParseError, r"expected integer exponent \(line 1, column 4\)"),
            ("sin(u)", UnsupportedExpressionError,
             r"transcendental function 'sin' is not polynomial \(line 1, column 1\)$"),
            ("u*2 - exp (u_x)", UnsupportedExpressionError,
             r"transcendental function 'exp' is not polynomial \(line 1, column 7\)$"),
            ("u*w*u_x", ParseError, r"unknown identifier 'w' \(line 1, column 3\)"),
            ("u*(u_t + u_x)/w", ParseError, r"unknown identifier 'w' \(line 1, column 15\)"),
            # a bad character is placed at its own start, not at the spaces before it
            ("u + $", ParseError, r"unexpected character '\$' \(line 1, column 5\)$"),
            ("u  $", ParseError, r"unexpected character '\$' \(line 1, column 4\)$"),
            ("u\n$", ParseError, r"unexpected character '\$' \(line 2, column 1\)$"),
            ("u_x +\n   #", ParseError, r"unexpected character '#' \(line 2, column 4\)$")]:
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
    assert E(ctx_tx, "u_x^3").gradient() == {C(ctx_tx, "u_x"): E(ctx_tx, "3*u_x^2")}


def test_partial_absent_coordinate(ctx_tx):
    # an absent coordinate has partial zero and no entry
    assert E(ctx_tx, "u_x*u_t").gradient() == {C(ctx_tx, "u_t"): E(ctx_tx, "u_x"),
                                              C(ctx_tx, "u_x"): E(ctx_tx, "u_t")}
    assert Expr.zero().gradient() == {} and Expr.number(3).gradient() == {}


def test_partial_kdv_hessian_entry(ctx_tx):
    # the sole nonzero second derivative in the top jets comes from u_xx^2/2
    L = E(ctx_tx, KDV_L)
    gradient = L.gradient()
    assert gradient[C(ctx_tx, "u_xx")].gradient() == {C(ctx_tx, "u_xx"): Expr.number(1)}
    assert C(ctx_tx, "u_tt") not in gradient


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
        zero = Expr.zero()
        assert e.gradient().get(c1, zero).gradient().get(c2, zero) == \
            e.gradient().get(c2, zero).gradient().get(c1, zero)


def test_normalization_idempotent(ctx_tx):
    rng = random.Random(17)
    pool = jet_pool(ctx_tx, 3)
    for _ in range(50):
        e = random_expr(rng, pool)
        assert Expr(e.terms) == e


def test_coordinate_equality_and_order():
    I1 = MultiIndex((0, 1))
    I2 = MultiIndex((1, 0))
    assert I1 == I2  # multiindices are unordered
    a = CoordinateId.jet(0, I1)
    b = CoordinateId.jet(0, I2)
    assert a == b and hash(a) == hash(b)
    ctx = JetContext(("t", "x"), ("u",))
    names = [ctx.name(c) for c in sorted(
        [CoordinateId.momentum(0, MultiIndex(), 1),
         CoordinateId.jet(0, MultiIndex((1,))),
         CoordinateId.independent(1),
         CoordinateId.jet(0, MultiIndex())])]
    assert names == ["x", "u", "u_x", "p_.x"]


def test_coordinate_hash_is_the_same_in_every_process():
    # a coordinate hashes as a tuple of ints, which PYTHONHASHSEED leaves alone
    code = ("from varjet.multiindex import MultiIndex; from varjet.symcore import CoordinateId; "
            "print(hash(CoordinateId.jet(1, MultiIndex((0, 2)))))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    hashes = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                              "PYTHONPATH": src}).stdout.strip()
              for seed in ("0", "1")}
    assert hashes == {str(hash(CoordinateId.jet(1, MultiIndex((0, 2)))))}


def test_benchmark_kernel_hooks_are_python_functions():
    # perfbench's counting pass replaces Expr.__init__ on its class and finds
    # its calls in a profile by __code__; a C-level or inherited method would
    # silently drop its count from `perfbench/run.py --trace 1`
    fn = vars(Expr)["__init__"]
    assert isinstance(fn, types.FunctionType)
    assert fn.__code__.co_filename == symcore.__file__


def test_context_validation():
    # every refusal is a domain error that names the field it refuses
    for args, field, message in [
            (((), ("u",)), "independents", "independents lists no names"),
            ((("x",), ()), "dependents", "dependents lists no names"),
            ((("x",), ("x",)), "dependents",
             "name 'x' is declared both as an independent and as a dependent"),
            ((("x", "t", "x"), ("u",)), "independents", "name 'x' is declared twice"),
            ((("x",), ("u", "v", "u")), "dependents", "name 'u' is declared twice"),
            ((("x",), ("u v",)), "dependents", "invalid name 'u v'"),
            ((("t",), ("p_.t",)), "dependents", "invalid name 'p_.t'"),
            ((("xt", "x"), ("u",)), "independents", "independent name 'x' is a prefix of 'xt'")]:
        with pytest.raises(ContextError) as exc:
            JetContext(*args)
        assert (str(exc.value), exc.value.field) == (message, field)
    # an index word must split one way: u_xx is not both u_{x,x} and the jet along xx
    for names in (("x", "xx"), ("xx", "x"), ("t", "x", "x1")):
        with pytest.raises(VarjetError, match="is a prefix of"):
            JetContext(names, ("u",))


def test_context_refuses_a_name_that_is_not_a_valid_string():
    # "$" matched before a final newline, which render then wrote raw into a
    # JSON string, and a name that is not a str raised TypeError
    with pytest.raises(VarjetError, match=r"^invalid name 'u\\n'$"):
        JetContext(("t", "x"), ("u\n",))
    with pytest.raises(VarjetError, match="^invalid name 1$"):
        JetContext((1,), ("u",))


@pytest.mark.parametrize("independents, dependents, names", [
    ("time", ("u",), "independents"), (("t", "x"), "u", "dependents"), ("t", "u", "independents")])
def test_context_refuses_a_string_for_its_names(independents, dependents, names):
    # tuple() made a str its letters: JetContext("time", ("u",)) was the
    # context (t, i, m, e; u)
    with pytest.raises(VarjetError, match=rf"^{names} must be a sequence of names, not the "
                                          rf"string '\w+'$"):
        JetContext(independents, dependents)


# the reader's contexts: a dependent p, one and two dependents, an
# independent p and independents of two letters
RESOLVE_CONTEXTS = (JetContext(("t", "x"), ("p",)), JetContext(("t", "x"), ("u",)),
                    JetContext(("t", "x"), ("u", "v")), JetContext(("p", "x"), ("u",)),
                    JetContext(("ab", "cd"), ("u",)))


def spellings(ctx):
    """Every jet and momentum up to order 3, each index word in every order of
    its names, and the comma-derivative of each up to order 3; with the
    independents, and the spellings name() never prints: dep_, the momentum
    heads p and p^dep in every context, c,_ and an independent's c,_J."""
    words = [""] + ["".join(w) for k in (1, 2, 3)
                    for w in itertools.product(ctx.independents, repeat=k)]
    bases = list(ctx.independents)
    for dep in ctx.dependents:
        bases += [dep] + [f"{dep}_{w}" for w in words]
        bases += [f"{head}_{w}.{i}" for head in ("p", f"p^{dep}") for w in words
                  for i in ctx.independents]
    return bases + [f"{c},_{w}" for c in bases for w in words]


@pytest.mark.parametrize("ctx", RESOLVE_CONTEXTS,
                         ids=lambda ctx: f"{','.join(ctx.independents)};{','.join(ctx.dependents)}")
def test_resolve_reads_every_spelling_as_the_grammar_does(ctx):
    names = spellings(ctx)
    got = [ctx._try_resolve(name) for name in names]
    assert got == [reference_resolve(name, ctx) for name in names]
    # what it reads is what name() prints, up to the order of an index word
    assert all(ctx._try_resolve(ctx.name(c)) == c for c in got if c is not None)


_SPELLINGS = [(ctx, name) for ctx in RESOLVE_CONTEXTS for name in spellings(ctx)]
_NAME_TEXTS = st.text(alphabet=sorted({letter for ctx in RESOLVE_CONTEXTS
                                       for name in ctx.independents + ctx.dependents
                                       for letter in name} | set("_.^,")), max_size=14)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_SPELLINGS), _NAME_TEXTS, st.integers(min_value=0, max_value=30),
       st.booleans())
def test_resolve_agrees_with_the_grammar(case, text, at, spliced):
    # a random text over the contexts' letters and "_.^,", alone or spliced
    # into a spelling
    ctx, name = case
    name = name[:at] + text + name[at:] if spliced else text
    assert ctx._try_resolve(name) == reference_resolve(name, ctx)


_ONE, _TWO = RESOLVE_CONTEXTS[1:3]


@pytest.mark.parametrize("ctx, name, message", [
    (_ONE, "u_", "unknown identifier 'u_' (line 1, column 5)"),
    (_ONE, "p^u_x.t", "unknown identifier 'p^u_x.t' (line 1, column 5)"),
    (_TWO, "p_x.t", "unknown identifier 'p_x.t' (line 1, column 5)"),
    (_ONE, "t,_x", "unknown identifier 't,_x' (line 1, column 5)"),
    (_ONE, "u,_", "unexpected character ',' (line 1, column 6)"),  # the text has no name u,_
    (_ONE, "u_x.t", "unknown identifier 'u_x.t' (line 1, column 5)"),
    (_ONE, "p_x", "unknown identifier 'p_x' (line 1, column 5)"),
    (_ONE, "p_x.q", "unknown identifier 'p_x.q' (line 1, column 5)"),
    (_TWO, "p^w_x.t", "unknown identifier 'p^w_x.t' (line 1, column 5)"),
    (_ONE, "u_q", "unknown identifier 'u_q' (line 1, column 5)")])
def test_resolve_refuses_what_name_never_prints(ctx, name, message):
    # u_ and, with one dependent, p^u_x.t were read as u and p_x.t
    with pytest.raises(ParseError) as info:
        parse(f"1 + {name}", ctx)
    assert str(info.value) == message
    with pytest.raises(UnknownCoordinateError) as info:
        ctx.resolve(name)
    assert str(info.value) == f"unknown identifier {name!r}"


def test_render_refuses_an_unknown_format():
    ctx = JetContext(("x",), ("u",))
    with pytest.raises(VarjetError, match="^unknown format 'html'$"):
        render(parse("u_x", ctx), ctx, "html")


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
@pytest.mark.parametrize("c", [
    CoordinateId.jet(0, MultiIndex((1, 5))), CoordinateId.jet(1), CoordinateId.jet(-1),
    CoordinateId.independent(2), CoordinateId.momentum(0, MultiIndex((0,)), 2),
    CoordinateId.comma(CoordinateId.jet(0), 3),
], ids=["index_entry", "dependent", "negative_dependent", "independent", "momentum_i",
        "comma_index"])
def test_render_refuses_a_coordinate_outside_its_context(ctx_tx, c, fmt):
    # the jet along x and independent 5, which total_derivative(u_x^2, 5)
    # builds, raised IndexError in every format, and a negative dependent
    # was spelled as the last one; a refused coordinate is never stored, so
    # the context refuses it again on a second render
    e = E(ctx_tx, "2*u_x") + Expr.coord(c) ** 2
    errors = [outcome(render, e, ctx_tx, fmt) for _ in range(2)]
    assert errors[0] == errors[1] == (VarjetError, errors[0][1], None)
    assert re.fullmatch(r"render reads CoordinateId\(.*\), which is outside its context",
                        errors[0][1])
    assert repr(c) in errors[0][1]


def test_render_json_over_the_digit_limit_is_the_plain_error(ctx_tx, digit_limit):
    # a coefficient and an exponent of 5000 digits: every format refuses
    # them with the same domain error, every time, and no spelling of the
    # exponent is stored
    u_x = C(ctx_tx, "u_x")
    big = 10 ** 4999
    for e in (Expr.number(big) * Expr.coord(u_x), Expr([(((u_x, big),), 1)])):
        errors = [outcome(render, e, ctx_tx, fmt) for fmt in ("plain", "latex", "json") * 2]
        assert errors == [(UnsupportedExpressionError, "a coefficient or exponent of the "
                           "result is over the limit of 4300 digits", None)] * 6
    assert all((u_x, big) not in table for table in ctx_tx._spellings.values())


def test_spelling_tables_are_not_part_of_a_contexts_value():
    # spell keeps its tables outside the dataclass fields: a context that
    # has rendered in every format is equal to, hashes as and prints as a
    # fresh one, and finds it as a dict key
    used, fresh = JetContext(("t", "x"), ("u", "v")), JetContext(("t", "x"), ("u", "v"))
    e = parse("p^v_x.t^2*u_x - 1/2*v_tt + t", used)
    for fmt in ("plain", "latex", "json"):
        render(e, used, fmt)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert repr(fresh) == "JetContext(independents=('t', 'x'), dependents=('u', 'v'))"
    assert {used: e}[fresh] is e


def test_render_latex_groups_a_powered_momentum():
    # p^{x.x}^{2} is a double superscript, which LaTeX refuses: a powered
    # momentum's name is a group, and a jet keeps its spelling
    for dependents, p, latex in ((("u",), "p_x.x", "p^{x.x}"),
                                 (("u", "v"), "p^v_x.x", "p[v]^{x.x}")):
        ctx = JetContext(("t", "x"), dependents)
        got = render(parse(f"{p}^2 + u_xx^2", ctx), ctx, "latex")
        assert not re.search(r"\^\{[^{}]*\}\^", got)
        assert got == "u_{xx}^{2} + {" + latex + "}^{2}"


def test_comma_derivatives_are_named_after_their_base():
    # c,_J in plain and c{}_{,J} in LaTeX, and the plain name reads back
    ctx = JetContext(("t", "x"), ("u", "v"))
    comma = CoordinateId.comma
    u_t, p = parse("u_t", ctx).coordinates()[0], parse("p^v_x.t", ctx).coordinates()[0]
    e = Expr.coord(comma(u_t, 1)) - Expr.coord(comma(comma(p, 0), 1)) ** 2
    assert render(e, ctx) == "u_t,_x - p^v_x.t,_tx^2"
    assert render(e, ctx, "latex") == "u_{t}{}_{,x} - p[v]^{x.t}{}_{,tx}^{2}"
    assert parse(render(e, ctx), ctx) == e


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


@pytest.mark.parametrize("text", ["u_x", "u + u_x", "0", "2"])
def test_negative_power_of_an_expr_is_refused(ctx_tx, text):
    # the library's power, as the parser's, is polynomial: its exponents are >= 0
    e = parse(text, ctx_tx)
    with pytest.raises(UnsupportedExpressionError, match="^negative exponents are not polynomial$"):
        e ** -1


def test_power_normalises_once(monkeypatch):
    # a multinomial power passes each of its terms through normalisation
    # once, and a sum read alone is not normalised again; squaring passed
    # 41,505 and re-normalising the lone sum 2 * 780 + 3
    ctx = JetContext(("t", "x"), ("u",))
    power = parse("(u + u_t + u_x)^38", ctx)
    normalise = symcore._normal_form
    passed = []

    def counting(terms):
        terms = list(terms)
        passed.append(len(terms))
        return normalise(terms)

    monkeypatch.setattr(symcore, "_normal_form", counting)
    e = parse("(u + u_t + u_x)^38", ctx)
    assert len(e.terms) == 780
    assert sum(passed) <= 780 + 3, passed
    # a product of two powers of sums: the 462-term product is normalised
    # once, by the product, and not again by the expression that holds it
    passed.clear()
    e = parse("(u + u_t)^20*(u_x + u_tt)^21", ctx)
    assert len(e.terms) == 21 * 22
    assert passed.count(462) == 1, passed
    assert sum(passed) <= 2 + 21 + 2 + 22 + 462, passed
    # scaled, negated or not, the lone sum is not normalised again
    for text, k in (("-2/3*(u + u_t + u_x)^38", Fraction(-2, 3)),
                    ("(u + u_t + u_x)^38*3/3", 1)):
        passed.clear()
        assert parse(text, ctx) == power.scale(k)
        assert sum(passed) <= 780 + 3, passed


def test_normal_form_keys_each_merged_monomial_once(monkeypatch, ctx_tx):
    # one sort key per distinct monomial left after the merge: none for a
    # repeat or a cancelled monomial, and none for a one-term list
    u, u_t, u_x = (((ctx_tx.resolve(name), 1),) for name in ("u", "u_t", "u_x"))
    key = symcore._mono_key
    keyed = []

    def counting(mono):
        keyed.append(mono)
        return key(mono)

    monkeypatch.setattr(symcore, "_mono_key", counting)
    terms = [(u, 1), (u_t, 2), (u, Fraction(1, 2)), ((), 3), (u_x, 1), (u_t, -2), ((), Q(1))]
    out = symcore._normal_form(iter(terms))
    assert [mono for mono, _ in out] == [u, u_x, ()]
    assert sorted(keyed) == sorted([u, u_x, ()])
    keyed.clear()
    for one in ([(u + u_x, 5)], ((u, Fraction(2, 3)),), [(u, 0)], [((), 1.5)]):
        symcore._normal_form(one)
    assert Expr([(u_t, 4)]).terms == ((u_t, Q(4)),)
    assert keyed == []


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


def test_long_texts_fail_or_parse_in_linear_time(ctx_tx):
    # a token pattern or a whole-text check that backtracks would take
    # minutes on these, as would a token pattern that starts with spaces and
    # so scans a trailing run of them again from each of its positions
    start = time.perf_counter()
    for text, column in (("u" * 200_000 + "$", 200_001), ("u_x*" * 50_000 + ",", 200_001)):
        with pytest.raises(ParseError, match=rf"^unexpected character '.' "
                           rf"\(line 1, column {column}\)$"):
            parse(text, ctx_tx)
    assert parse("u" + " " * 100_000, ctx_tx) == E(ctx_tx, "u")
    with pytest.raises(ParseError, match=r"^unexpected end of input \(line 1, column 100004\)$"):
        parse("u +" + " " * 100_000, ctx_tx)
    assert time.perf_counter() - start < 5


def test_patterns_need_nothing_past_the_python_floor():
    # pyproject.toml declares Python >= 3.10: atomic groups and possessive
    # quantifiers came to `re` in 3.11
    patterns = [v for v in vars(symcore).values() if isinstance(v, re.Pattern)]
    assert symcore._TOKEN_RE in patterns
    for pattern in patterns:
        for syntax in ("(?>", "*+", "++", "?+"):
            assert syntax not in pattern.pattern, (syntax, pattern.pattern)


def _python(version):
    """A Python interpreter of the version ("3.10"): pythonX.Y on PATH, else
    one installed by pyenv; None when there is none."""
    candidates = [shutil.which(f"python{version}")]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        candidates += sorted(glob.glob(os.path.join(root, "versions", f"{version}.*", "bin",
                                                    "python3")))
    for exe in filter(None, candidates):
        probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                               capture_output=True, text=True)
        if probe.stdout.strip() == version:
            return exe
    return None


_ROUND_TRIP = textwrap.dedent("""
    import copy, json, pickle, sys
    from varjet.multiindex import MultiIndex
    from varjet.symcore import CoordinateId, JetContext, Q, eliminate, parse, render
    ctx = JetContext(("t", "x"), ("u", "v"))
    e = parse("1/2*u_t^2 - 3/4*(u_x + v - t)^3 + p^u_x.t*u_tx - (v_t*u)^2"
              " + (u_x - 2*v)/(-4/6)", ctx)
    out = {f: render(e, ctx, f) for f in ("plain", "latex", "json")}
    assert parse(out["plain"], ctx) == e
    out["substituted"] = render(e.substitute({ctx.resolve("v"): parse("u_x - 1", ctx),
                                              ctx.resolve("u"): parse("2*v", ctx)}), ctx)
    out["fractional image"] = render(e.substitute({ctx.resolve("u"): parse("2/3*v - 5/7", ctx)}),
                                     ctx)
    out["divided"] = render(e.scale(Q(5, 6) / Q(-10, 9)), ctx)
    power = parse("(u_x - 2/3*v)^7", ctx)
    out["power"] = [render(power, ctx, f) for f in ("plain", "latex", "json")]
    assert parse(out["power"][0], ctx) == power
    out["product"] = render(parse("3/4/5*u_x^2*v^3*t", ctx), ctx)
    matrix = [[Q(1, 2), Q(-2, 3), 3, 1], [Q(4, 5), 1, Q(-1, 6), 1], [Q(2, 7), Q(3, 8), Q(5, 9), 1]]
    solutions, _ = eliminate(dict(enumerate(map(dict, map(enumerate, matrix)))), range(3))
    out["solved"] = [[c, [[k, str(q)] for k, q in s.items()]] for c, s in solutions.items()]
    out["classes"] = sorted({q.__class__.__name__ for s in solutions.values() for q in s.values()}
                            | {c.__class__.__name__ for _, c in e.terms})
    assert pickle.loads(pickle.dumps(e)) == e == copy.deepcopy(e)
    out["hash"] = hash(CoordinateId.jet(1, MultiIndex((0, 2))))
    out["fallbacks"] = [repr(q) for q in (Q(1, 6) - Q(1, 3), 1 - Q(1, 3), 2 * Q(1, 3),
                                          Q(3, 4) / Q(-1, 2), 1 / Q(-2, 3), Q(2, 3) ** -2)]
    print(json.dumps(out))
""")


def _round_trip_matches_here(version, tmp_path):
    """The round trip gives the same bytes under Python ``version`` as here;
    the package is symcore and multiindex alone."""
    python = _python(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter")
    package = tmp_path / "varjet"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for module in (symcore, multiindex):
        shutil.copy(module.__file__, package)
    run = [subprocess.run([exe, "-c", _ROUND_TRIP], capture_output=True, text=True, check=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)}).stdout
           for exe in (python, sys.executable)]
    assert run[0] == run[1]
    out = json.loads(run[0])
    assert out["plain"].startswith("3/4*t^3 + 1/2*u_t^2 - 3/4*u_x^3 + ")
    assert out["classes"] == ["Q"] and [c for c, _ in out["solved"]] == [0, 1, 2]
    assert out["power"][0].startswith("u_x^7 - 128/2187*v^7 + 448/729*u_x*v^6 - ")
    assert out["power"][0].endswith(" + 28/3*u_x^5*v^2 - 14/3*u_x^6*v")
    assert out["product"] == "3/20*t*u_x^2*v^3"
    # Q's fallbacks run Fraction's own methods, which 3.12 rewrote
    assert out["fallbacks"] == ["Fraction(-1, 6)", "Fraction(2, 3)", "Fraction(2, 3)",
                                "Fraction(-3, 2)", "Fraction(-3, 2)", "Fraction(9, 4)"]


def test_kernel_round_trip_runs_on_the_python_floor(tmp_path):
    # pyproject.toml declares Python >= 3.10 and the kernel leans on tuple
    # subclasses and on Fraction's slots: the parse, render, re-parse,
    # substitute and eliminate round trip must give the same bytes on 3.10
    # as here
    _round_trip_matches_here("3.10", tmp_path)


@pytest.mark.parametrize("version", ["3.12", "3.13"])
def test_kernel_round_trip_runs_past_the_fraction_rewrite(version, tmp_path):
    # Python 3.12 rewrote Fraction's arithmetic (results made by
    # _from_coprime_ints), which Q's fallbacks run
    _round_trip_matches_here(version, tmp_path)


# -- the reader and writer against the straightforward ones --------------------
#
# reference_parse is the reader as it was before its tokenizer became one
# findall pass: a (kind, value, position) tuple per token from finditer, no
# name^k token, a product of monomials by a dict merge and a sort, and
# every expression's terms normalised once more.  Its three "not polynomial"
# refusals carry the position of the function name, the "/" and the "-",
# and a bad character is placed at its own start, not where the spaces
# before it start.
# reference_render spells each coefficient from its Fraction.

_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_.]*(?:\^[A-Za-z][A-Za-z0-9_.]*)?(?:,_[A-Za-z][A-Za-z0-9]*)?)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _reference_tokenize(text):
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", text, m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _not_polynomial(message, text, pos):
    # positioned like a ParseError, which a problem file re-reports on its line
    exc = UnsupportedExpressionError(str(ParseError(message, text, pos)))
    exc.message, exc.pos = message, pos
    return exc


class _ReferenceParser:
    MAX_DEPTH = 100
    _TRANSCENDENTAL = {"sin", "cos", "tan", "exp", "log", "ln", "sqrt",
                       "sinh", "cosh", "tanh", "abs"}

    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = _reference_tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def nested(self, parse_inner, pos):
        if self.depth == self.MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {self.MAX_DEPTH} levels",
                             self.text, pos)
        self.depth += 1
        e = parse_inner()
        self.depth -= 1
        return e

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", self.text, pos)
        return e

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        terms = []
        while True:
            terms.extend(self.term(-1 if negate else 1))
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return Expr(terms)
            self.next()
            negate = val == "-"

    def term(self, sign):
        num, den = sign, 1
        powers = {}
        sums = None
        f = self.factor()
        while True:
            if f.__class__ is int:
                num *= f
            elif f.__class__ is tuple:
                c, k = f
                powers[c] = powers.get(c, 0) + k
            elif len(f.terms) == 1:
                mono, q = f.terms[0]
                for c, k in mono:
                    powers[c] = powers.get(c, 0) + k
                num *= q.numerator
                den *= q.denominator
            else:
                sums = f if sums is None else sums * f
            kind, val, pos = self.peek()
            if kind != "op" or val not in "*/":
                break
            self.next()
            f = self.factor()
            if val == "/":
                if f.__class__ is int:
                    q = f
                elif f.__class__ is tuple:
                    q = None
                else:
                    q = f.constant_value()
                if q is None:
                    raise _not_polynomial(
                        "division by a non-constant expression is not polynomial",
                        self.text, pos)
                if q == 0:
                    raise ParseError("division by zero", self.text, pos)
                num *= q.denominator
                den *= q.numerator
                f = 1
        mono = tuple(sorted(powers.items()))
        coeff = Fraction(num, den)
        if sums is None:
            return [(mono, coeff)]
        return [(reference_mono_mul(m, mono), c * coeff) for m, c in sums.terms]

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            inner = self.nested(self.factor, pos)
            if inner.__class__ is tuple:
                return Expr([((inner,), Fraction(-1))])
            return -inner
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind == "op" and val == "-":
                raise _not_polynomial("negative exponents are not polynomial", self.text, pos)
            if kind != "num":
                raise ParseError("expected integer exponent", self.text, pos)
            e = self.integer(val, pos)
            if base.__class__ is CoordinateId:
                return (base, e) if e else 1
            return (Expr.number(base) if base.__class__ is int else base) ** e
        return (base, 1) if base.__class__ is CoordinateId else base

    def integer(self, val, pos):
        limit = sys.get_int_max_str_digits()
        if limit and len(val) > limit:
            raise ParseError(f"integer literal of {len(val)} digits, over the limit of "
                             f"{limit} digits", self.text, pos)
        return int(val)

    def primary(self):
        kind, val, pos = self.next()
        if kind == "num":
            return self.integer(val, pos)
        if kind == "name":
            if val in self._TRANSCENDENTAL and self.peek()[:2] == ("op", "("):
                raise _not_polynomial(f"transcendental function {val!r} is not polynomial",
                                      self.text, pos)
            coord = reference_resolve(val, self.ctx)
            if coord is None:
                raise ParseError(f"unknown identifier {val!r}", self.text, pos)
            return coord
        if kind == "op" and val == "(":
            e = self.nested(self.expr, pos)
            kind, val, pos = self.next()
            if kind != "op" or val != ")":
                raise ParseError("expected ')'", self.text, pos)
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input",
                         self.text, pos)


def reference_parse(text, ctx):
    return _ReferenceParser(text, ctx).parse()


def _reference_render(e, name, power, coeff_text, joiner):
    if not e.terms:
        return "0"
    parts = []
    for mono, coeff in e.terms:
        factors = [name(c, p) + (power(p) if p > 1 else "") for c, p in mono]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, coeff_text(mag))
        body = joiner.join(factors)
        if parts:
            parts.append((" + " if coeff > 0 else " - ") + body)
        else:
            parts.append(body if coeff > 0 else "-" + body)
    return "".join(parts)


def reference_render(e, ctx, fmt):
    if fmt == "plain":
        return _reference_render(e, lambda c, p: ctx.name(c), "^{}".format, str, "*")
    if fmt == "latex":
        # a powered momentum's name is a group: p^{I.i} carries its own superscript
        return _reference_render(
            e, lambda c, p: ("{%s}" if p > 1 and c.kind == MOMENTUM else "%s") % ctx.latex_name(c),
            "^{{{}}}".format,
            lambda c: str(c) if c.denominator == 1 else f"\\frac{{{c.numerator}}}{{{c.denominator}}}",
            " ")
    return json.dumps({"monomials": [
        {"coeff": str(coeff), "factors": [[ctx.name(c), p] for c, p in mono]}
        for mono, coeff in e.terms]}, sort_keys=True)


def outcome(read, *args):
    """What read(*args) gives: its value, or its error's type, text and position."""
    try:
        return read(*args)
    except Exception as exc:  # compared, never swallowed: the other side must match
        return type(exc), str(exc), getattr(exc, "pos", None)


PARSE_CONTEXTS = (JetContext(("t", "x"), ("u",)), JetContext(("t", "x"), ("u", "v")),
                  JetContext(("sin", "x"), ("u",)))
# the grammar's characters, some that are not in it (a non-ASCII digit and
# non-ASCII spaces among them) and longer pieces: names, a function call,
# nesting past the depth cap and literals at and past the digit limit
_pieces = st.one_of(
    st.sampled_from(list("0123456789tuvxsinp_.,^()+-*/ \n\t")),
    st.sampled_from(["$", "#", "=", "٣", " ", " ", "\x1c", "é"]),
    st.sampled_from(["u_x", "u_tx", "v_xx", "p_x.t", "p^v_.x", "u,_x", "sin", "sin(",
                     "exp(", "sinx", "^-", "/(", "/0", "^0", " + ", " - ", "*-",
                     "u_x^2", "p^v_.x^3", "u,_x^2", "^12", "^٣", "٣", "12٣*u_x", "²",
                     "p_.t,_t", "p^v_x.t,_tx", "t,_x", "u,_xt"]),
    st.sampled_from(["(" * 101, ")" * 101, "-" * 101, "(" * 99, ")" * 99, "-(" * 60,
                     "9" * 4300, "7" * 4301, "1" * 4400]),
)
_texts = st.lists(_pieces, max_size=30).map("".join)
# expressions the grammar builds, so that most examples parse
_atoms = st.one_of(st.integers(min_value=0, max_value=99).map(str),
                   st.sampled_from(["t", "x", "sin", "u", "v", "u_x", "u_tt", "u_tx",
                                    "v_x", "p_x.t", "p^v_.x", "p^u_t.x", "u,_x"]))
_expressions = st.recursive(_atoms, lambda inner: st.one_of(
    st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-*/"), inner),
    st.builds(lambda a, b: f"{a}*{b}", inner, inner),
    inner.map(lambda a: f"({a})"),
    inner.map(lambda a: f"-{a}"),
    st.builds(lambda a, e: f"({a})^{e}", inner, st.integers(min_value=0, max_value=6)),
    st.builds(lambda a, e: f"{a}^{e}", inner, st.integers(min_value=0, max_value=3))),
    max_leaves=8)


# the boundaries of the term reader's in-place path (a name met before, an
# integer literal, a name met before to an integer power), of the name^k
# token and of the ascending-factor run (a repeat, a descent, a factor in
# parentheses), each also after the name's first sight, when factor() reads it
_IN_PLACE_CASES = [
    text for case in ["u_x^", "u_x^-1", "u_x ^-1", "u_x^t", "u_x ^t", "u_x^0*u_t", "u_x^(2)",
                      "u_x^2^3", "u_x(t)", "u_x*", "u_x/", "u_x^" + "9" * 4300,
                      "u_x^" + "7" * 4301, "u_x/u_x^0", "u_x/u_t^0*3", "u_x/u_t", "u_x/0",
                      "u_x^2*u_x^3", "u_x^2(t)", "p^v_.x^2", "u,_x^2", "u_x ^2", "u_x^ 2",
                      "(u_x)^2", "-u_x^2", "u_x^0^2", "u_t/u_x^2", "u_x^2/2", "w^2",
                      "u_x u_t^2", "u_t^2 u_x", "2^u_x^2", "u_x^٣", "u_t^2 - u_t^2*u_t^2",
                      "u_t^0 - 2*u_t^0*u_x", "-u_t^1*u_t^1^2", "u_x*u_t", "u_x*u_x",
                      "u_x*u_x^2", "u_t*(2*u_x)*u_t", "(u_x)*u_t", "u_x^0*u_t*u_t",
                      "p_x.t*u_x", "u_x,_t*u_x"]
    for text in (case, "u_x*" + case)] + [
    "2^3*u_x", "2^0/4", "3/4/5*u_x^2", "u_x/2*u_t", "-3/-4*u_x", "4*-u_x^2", "9" * 4300 + "*u_x",
    "7" * 4301 + "*u_x", "u_x*2(u_t)", "u_t*u_x*u_t^2*u_x^3 + u_x*u_t"]


def _in_place_examples(test):
    """test with each in-place case as an explicit example in the first two
    contexts, and a name of a transcendental function met before"""
    for text in _IN_PLACE_CASES:
        for ctx in PARSE_CONTEXTS[:2]:
            test = example(text=text, ctx=ctx)(test)
    for text in ("sin*sin(x)", "sin^2*sin^3(x)", "x*sin*x(sin)", "sin^2(x)", "sin^2*sin(x)"):
        test = example(text=text, ctx=PARSE_CONTEXTS[2])(test)  # "sin" is an independent
    return test


@_in_place_examples
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_texts, _expressions), ctx=st.sampled_from(PARSE_CONTEXTS))
def test_parse_matches_reference_parse(text, ctx):
    want = outcome(reference_parse, text, ctx)
    got = outcome(parse, text, ctx)
    assert got == want
    if isinstance(got, Expr):
        assert all(c.__class__ is symcore.Q and c for _, c in got.terms)
    else:
        assert issubclass(got[0], VarjetError)


# texts of the grammar's characters and tokens only, most of which split
_token_texts = st.lists(st.sampled_from(
    list("0123456789tuvxp^()+-*/ ") + ["u_x", "u_x^2", "p^v_.x", "p^v_.x^3", "u,_x^2",
                                       "u_tx^12", "sin", "\n", "\x1c"]),
    max_size=20).map("".join)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(_texts, _expressions, _token_texts))
@example(text="u_x^2*u_t - 3/2*p^v_x.t^3*(u,_x^2 + 1)")
@example(text="sin^2*x^0 + u_x^" + "7" * 4301)
@example(text="u_x ^2 + u_x^ 2")  # the split refuses these
@example(text="2^3*u_x")
@example(text="٣ + 12٣*u_x")  # decimal digits outside ASCII are a number token
@example(text="2²")  # a digit that is not decimal is none
def test_split_tokens_are_the_scanned_tokens(text):
    # the regex scan is the reference: where the string split reads a text,
    # it gives the scan's tokens, and the k-th of them is the k-th token
    # _token_start places
    split = symcore._split_tokens(text)
    if split is not None:
        assert split == symcore._TOKEN_RE.findall(text)
        assert split == [m.group() for m in symcore._PLACED_RE.finditer(text)]


def test_split_tokens_read_plain_renderings(ctx_tx):
    # the texts a round trip re-parses never need the scan
    for text in ("(u + u_t + u_x)^18", "(3/2*u_tx - u_xx)^7*(u_t + 2*u)^5"):
        plain = render(parse(text, ctx_tx), ctx_tx)
        assert symcore._split_tokens(plain) is not None
        assert "^" in plain
    for text in ("u_x ^2", "u_x^ 2", "2^3", "u_x + $"):
        assert symcore._split_tokens(text) is None


# two dependents, whose momenta carry the ^u tag, and one, whose momenta do not
RENDER_CONTEXTS = (JetContext(("t", "x"), ("u", "v")), JetContext(("t", "x"), ("u",)))


def render_pool(m):
    """Coordinates of every kind over (t, x) and m dependents: independents,
    jets to order 2, momenta to level 1, and comma-derivatives of some jets
    and momenta along one and two independents."""
    jets = [CoordinateId.jet(a, I) for a in range(m) for I in multiindices_up_to(2, 2)]
    momenta = [CoordinateId.momentum(a, I, i)
               for a in range(m) for I in multiindices_up_to(2, 1) for i in range(2)]
    commas = [CoordinateId.comma(c, i) for c in jets[:3] + momenta[:3] for i in range(2)]
    return [CoordinateId.independent(i) for i in range(2)] + jets + momenta + commas \
        + [CoordinateId.comma(c, 1) for c in commas[::3]]


RENDER_POOL = {ctx: render_pool(ctx.m) for ctx in RENDER_CONTEXTS}
with open(os.path.join(os.path.dirname(__file__), os.pardir, "schemas",
                       "expression.schema.json")) as fh:
    EXPRESSION_SCHEMA = jsonschema.Draft7Validator(json.load(fh))
_big = st.integers(min_value=10 ** 499, max_value=10 ** 500 - 1)
_coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.integers(min_value=-50, max_value=50).filter(bool).map(Fraction),
    st.builds(lambda n, d: Fraction(n, d), st.integers(min_value=-40, max_value=40).filter(bool),
              st.integers(min_value=2, max_value=60)),
    st.builds(lambda n, sign: Fraction(sign * n), _big, st.sampled_from([1, -1])),
    st.builds(lambda n, d, sign: Fraction(sign * n, d), _big, _big, st.sampled_from([1, -1])),
)


def _render_exprs(ctx):
    monomials = st.lists(st.tuples(st.sampled_from(RENDER_POOL[ctx]),
                                   st.integers(min_value=1, max_value=12)),
                         max_size=4, unique_by=lambda factor: factor[0]).map(
        lambda factors: tuple(sorted(factors)))
    return st.tuples(st.just(ctx), st.lists(st.tuples(monomials, _coefficients),
                                            max_size=8).map(Expr))


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(RENDER_CONTEXTS).flatmap(_render_exprs))
def test_render_matches_reference_render(case):
    ctx, e = case
    # a fresh context spells every factor anew, then reads its tables on
    # the second render; ctx, shared by every example, reads tables that
    # earlier examples filled
    fresh = JetContext(ctx.independents, ctx.dependents)
    for fmt in ("plain", "latex", "json"):
        expected = reference_render(e, ctx, fmt)
        assert render(e, fresh, fmt) == render(e, fresh, fmt) == render(e, ctx, fmt) == expected
    EXPRESSION_SCHEMA.validate(json.loads(render(e, ctx, "json")))
    assert parse(render(e, ctx), ctx) == e


@st.composite
def _monomial_pairs(draw):
    """Two monomials over coordinates of every kind: drawn apart, so that
    they interleave or not, drawn from the two sides of a cut in either
    order (a side is empty when the cut is at an end), or made to share a
    coordinate."""
    pool = sorted(RENDER_POOL[RENDER_CONTEXTS[0]])
    exponents = st.integers(min_value=1, max_value=5)

    def monomial(coords):  # empty only when there is nothing to draw from
        picked = draw(st.lists(st.sampled_from(coords), min_size=1, max_size=4,
                               unique=True)) if coords else []
        return tuple(sorted((c, draw(exponents)) for c in picked))

    how = draw(st.sampled_from(["apart", "disjoint", "shared"]))
    if how == "disjoint":
        cut = draw(st.integers(min_value=0, max_value=len(pool)))
        a, b = monomial(pool[:cut]), monomial(pool[cut:])
        return (b, a) if draw(st.booleans()) else (a, b)
    a, b = monomial(pool), monomial(pool)
    if how == "shared":
        c = draw(st.sampled_from(pool))
        a = tuple(sorted({**dict(a), c: draw(exponents)}.items()))
        b = tuple(sorted({**dict(b), c: draw(exponents)}.items()))
    return a, b


@settings(max_examples=400, deadline=None)
@given(pair=_monomial_pairs())
@example(pair=((), ()))
@example(pair=((), ((CoordinateId.jet(0), 2),)))
@example(pair=(((CoordinateId.independent(1), 1),), ()))
def test_mono_mul_matches_reference_mono_mul(pair):
    a, b = pair
    got = symcore._mono_mul(a, b)
    assert got.__class__ is tuple
    assert got == reference_mono_mul(a, b)
    assert symcore._mono_mul(b, a) == got



# -- the kernel rational against stdlib Fraction --------------------------------
#
# Q's own operators (Q + or * a Q or an int, -Q, Q ** an int >= 0) must give
# the Fraction its value has (the same numerator, denominator, hash and str)
# as a Q; any other operand and any other operator must give what stdlib
# Fraction gives, of Fraction's class.

_BIG = 10 ** 300
_ints = st.one_of(st.integers(min_value=-60, max_value=60),
                  st.integers(min_value=-_BIG, max_value=_BIG))
_small_ints = st.integers(min_value=-12, max_value=12)


@st.composite
def _operands(draw, ints=_ints, floats=st.floats(allow_nan=False)):
    """(an operand, its stdlib twin): a Q's twin is the Fraction of its value,
    made from a denominator of either sign; any other operand is its own twin."""
    kind = draw(st.sampled_from(["Q", "int", "Fraction", "float"]))
    if kind == "float":
        x = draw(floats)
        return x, x
    n = draw(ints)
    if kind == "int":
        return n, n
    d = draw(ints.filter(bool))
    twin = Fraction(n, d)
    return (symcore.Q(n, d) if kind == "Q" else twin), twin


def _result(op, *args):
    """op(*args), or the type and text of the error it raises."""
    try:
        return op(*args)
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _q_own(op, args):
    """Whether op(*args) runs one of Q's own operators: Q + or * a Q or an
    int, -Q, or Q ** an int >= 0 (Q's ``==`` answers a bool)."""
    a, b = args[0], args[-1]
    if a.__class__ is not symcore.Q:
        return False
    if op in (operator.add, operator.mul):
        return b.__class__ in (symcore.Q, int)
    return op is operator.neg or op is operator.pow and b.__class__ is int and b >= 0


def _assert_as_fraction(op, pairs):
    """op on the operands gives what it gives on their twins: a Q of the
    twins' value from Q's own operators, else the twins' class and repr."""
    args = [x for x, _ in pairs]
    got = _result(op, *args)
    want = _result(op, *[twin for _, twin in pairs])
    if _q_own(op, args):
        assert got.__class__ is symcore.Q and want.__class__ is Fraction
        assert (got.numerator, got.denominator, hash(got), str(got)) == \
            (want.numerator, want.denominator, hash(want), str(want))
    else:
        assert got.__class__ is want.__class__ and repr(got) == repr(want)


_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq]


@settings(max_examples=300, deadline=None)
@given(a=_operands(), b=_operands(), op=st.sampled_from(_BINARY))
def test_q_operators_match_fraction(a, b, op):
    _assert_as_fraction(op, [a, b])
    _assert_as_fraction(op, [b, a])
    for unary in (operator.neg, bool):
        _assert_as_fraction(unary, [a])


def test_q_defines_only_the_operators_the_kernel_calls():
    # every other operator is inherited from Fraction and answers a Fraction
    methods = {name for name, value in vars(symcore.Q).items() if callable(value)}
    assert methods == {"__add__", "__mul__", "__neg__", "__pow__", "__eq__", "__hash__"}


@settings(max_examples=300, deadline=None)
@given(base=_operands(), exponent=_operands(_small_ints, st.floats(-12, 12)))
def test_q_power_matches_fraction(base, exponent):
    # Q ** an int >= 0 is Q's own; a negative int, an integral Q and int ** Q
    # are Fraction's
    _assert_as_fraction(operator.pow, [base, exponent])


@pytest.mark.parametrize("op, a, b", [
    (operator.truediv, (1, 1), 0), (operator.truediv, (3, 4), (0, 5)),
    (operator.truediv, 7, (0, 1)), (operator.truediv, 0, (-2, 3)),
    (operator.pow, (0, 1), -1), (operator.pow, (0, 7), -3), (operator.pow, (0, 1), 0),
    (operator.pow, (-7, 3), 401), (operator.pow, (-7, 3), -401), (operator.pow, (2, -9), 0),
    (operator.pow, (-5, 2), (-3, 1)),
    (operator.mul, (_BIG + 1, -(2 * _BIG)), (-6 * _BIG, _BIG - 1)),
    (operator.add, (1, 6), (1, 6)), (operator.sub, (1, 6), (-1, 3)),
    (operator.pow, (-5, 2), (3, 1)),
])
def test_q_zero_divisors_and_large_values_match_fraction(op, a, b):
    # an (n, d) pair is a Q n/d, its twin Fraction(n, d); an int is itself
    pairs = [(symcore.Q(*x), Fraction(*x)) if isinstance(x, tuple) else (x, x) for x in (a, b)]
    _assert_as_fraction(op, pairs)
    if op is not operator.pow:
        _assert_as_fraction(op, pairs[::-1])


@given(n=_ints, d=_ints.filter(bool))
@example(n=0, d=7)
@example(n=0, d=-7)
@example(n=3, d=-1)
@example(n=6 * _BIG, d=-4 * _BIG)
@example(n=-(_BIG + 1), d=-(2 * _BIG + 2))
@example(n=_BIG - 1, d=_BIG + 1)
def test_q_constructor_reduces_like_fraction(n, d):
    # and so does _q, which builds the parser's and the multinomial's
    # coefficients from two ints
    want = Fraction(n, d)
    for q in (symcore.Q(n, d), symcore._q(n, d)):
        assert q.__class__ is symcore.Q
        assert (q.numerator, q.denominator, hash(q), str(q)) == \
            (want.numerator, want.denominator, hash(want), str(want))


def test_every_coefficient_the_kernel_takes_becomes_a_q():
    # an int, a stdlib Fraction or a float given to any builder comes out a Q,
    # and pickling or deep-copying an Expr keeps its Q coefficients
    ctx = JetContext(("t", "x"), ("u",))
    u, u_x = ctx.resolve("u"), ctx.resolve("u_x")
    made = []
    for k in (3, Fraction(-2, 3), 0.75):
        made += [Expr.number(k), Expr.coord(u_x).scale(k), Expr([(((u, 1),), k), ((), k)]),
                 Expr.coord(u) * k, k * Expr.coord(u)]
        solutions, _ = symcore.eliminate({0: {0: k, 1: 1, 2: 1}, 1: {0: 2, 1: k, 2: 0}}, [0, 1])
        assert list(solutions) == [0, 1]
        assert all(q.__class__ is symcore.Q for row in solutions.values() for q in row.values())
    for e in made:
        assert e.terms
        for clone in (e, pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert clone == e
            assert all(c.__class__ is symcore.Q for _, c in clone.terms)
