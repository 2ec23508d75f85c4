"""Multiindex combinatorics, total derivatives, prolongation."""

import random
import re

import pytest

from conftest import jet_pool, random_expr
from varjet.jetcalc import (
    EquationSystem,
    iterated_total_derivative,
    prolong,
    total_derivative,
)
from varjet.multiindex import EMPTY, MultiIndex
from varjet.symcore import (
    Expr,
    JetContext,
    VarjetError,
    WrongDomainError,
    parse,
)


def test_removals_repeated():
    I = MultiIndex((1, 1))  # (x, x) with t=0, x=1
    assert I.removals() == [(MultiIndex((1,)), 1, 2)]


def test_removals_distinct():
    I = MultiIndex((0, 1))
    assert I.removals() == [(MultiIndex((1,)), 0, 1), (MultiIndex((0,)), 1, 1)]


def test_removals_triple():
    I = MultiIndex((1, 1, 1))
    assert I.removals() == [(MultiIndex((1, 1)), 1, 3)]


def test_removals_empty():
    assert EMPTY.removals() == []


def test_removals_multiplicities_random():
    rng = random.Random(3)
    for _ in range(200):
        I = MultiIndex(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 6))))
        removals = I.removals()
        assert sum(mult for _, _, mult in removals) == len(I)
        for J, i, _ in removals:
            assert J.with_index(i) == I


def test_total_derivative_definition(ctx_tx):
    assert total_derivative(parse("u", ctx_tx), 1) == parse("u_x", ctx_tx)


def test_total_derivative_leibniz_forced(ctx_tx):
    got = total_derivative(parse("u_x^2", ctx_tx), 1)
    assert got == parse("2*u_x*u_xx", ctx_tx)


def test_total_derivative_kdv_dt_term(ctx_tx):
    # hand chain-rule oracle: D_t(3 u_x^2 - u_t/2) = 6 u_x u_tx - u_tt/2
    got = total_derivative(parse("3*u_x^2 - 1/2*u_t", ctx_tx), 0)
    assert got == parse("6*u_x*u_tx - 1/2*u_tt", ctx_tx)


def test_total_derivative_independent_coordinate(ctx_tx):
    assert total_derivative(parse("t*x^2", ctx_tx), 1) == parse("2*t*x", ctx_tx)
    assert total_derivative(parse("x*u", ctx_tx), 1) == parse("u + x*u_x", ctx_tx)


def test_total_derivative_rejects_momenta(ctx_tx):
    with pytest.raises(WrongDomainError):
        total_derivative(parse("p_.t*u", ctx_tx), 0)


def test_total_derivatives_refuse_a_negative_index(ctx_tx):
    # MultiIndex's own ValueError escaped before
    from varjet.jetcalc import mixed_total_derivative
    for derivative, e in ((total_derivative, "u_x"), (mixed_total_derivative, "u_x*p_.t")):
        with pytest.raises(VarjetError, match=r"^independent index must be >= 0, got -1$"):
            derivative(parse(e, ctx_tx), -1)


def test_iterated_total_derivative(ctx_tx):
    assert iterated_total_derivative(parse("u_xx", ctx_tx), MultiIndex((1, 1))) \
        == parse("u_xxxx", ctx_tx)
    e = parse("u_x^2 - u*u_t", ctx_tx)
    assert iterated_total_derivative(e, EMPTY) == e
    assert iterated_total_derivative(parse("u", ctx_tx), MultiIndex((0, 1))) \
        == parse("u_tx", ctx_tx)


def test_commutativity_random(ctx_tx):
    rng = random.Random(5)
    pool = jet_pool(ctx_tx, 3)
    for _ in range(150):
        e = random_expr(rng, pool)
        ij = [(0, 1), (0, 0), (1, 1)][rng.randint(0, 2)]
        a = total_derivative(total_derivative(e, ij[0]), ij[1])
        b = total_derivative(total_derivative(e, ij[1]), ij[0])
        assert a == b


def test_leibniz_random(ctx_tx):
    rng = random.Random(9)
    pool = jet_pool(ctx_tx, 3)
    for _ in range(150):
        a = random_expr(rng, pool)
        b = random_expr(rng, pool)
        i = rng.randint(0, 1)
        assert total_derivative(a * b, i) == \
            total_derivative(a, i) * b + a * total_derivative(b, i)


def test_prolong_single_equation():
    ctx = JetContext(("x",), ("u",))
    sys0 = EquationSystem(ctx, (("eq", parse("u_x", ctx)),))
    got = prolong(sys0, 1)
    assert [r for _, r in got.equations] == [parse("u_x", ctx), parse("u_xx", ctx)]
    assert [lab for lab, _ in got.equations] == ["eq", "eq|x"]


def test_prolong_heat():
    ctx = JetContext(("t", "x"), ("u",))
    sys0 = EquationSystem(ctx, (("heat", parse("u_t - u_xx", ctx)),))
    got = prolong(sys0, 1)
    residuals = {lab: r for lab, r in got.equations}
    assert residuals["heat|t"] == parse("u_tt - u_txx", ctx)
    assert residuals["heat|x"] == parse("u_tx - u_xxx", ctx)


def test_prolong_level_zero_identity(ctx_tx):
    from conftest import KDV_EL
    sys0 = EquationSystem(ctx_tx, (("el", parse(KDV_EL, ctx_tx)),))
    assert prolong(sys0, 0) is sys0


def test_prolong_refuses_a_level_over_the_entry_bound(ctx_1d):
    # n = 1: level 10^6 is 10^6 + 1 multiindices but 5e11 entries
    sys0 = EquationSystem(ctx_1d, (("eq", parse("u_x", ctx_1d)),))
    with pytest.raises(VarjetError, match=r"^level 1000000 is too high"):
        prolong(sys0, 10**6)
    assert len(prolong(sys0, 3).equations) == 4


def test_prolong_refuses_a_negative_level(ctx_1d):
    # the multiindices up to level -1 are none, which gave an empty system
    sys0 = EquationSystem(ctx_1d, (("eq", parse("u_x", ctx_1d)),))
    with pytest.raises(VarjetError, match=r"^level must be >= 0, got -1$"):
        prolong(sys0, -1)


def test_prolong_rejects_momenta(kdv):
    # the constraint rows read momenta, and the ELH rows comma-derivatives
    # too, which total_derivative refuses
    from varjet.pdham import constraints, elh_system
    for system in (constraints(kdv), elh_system(kdv)):
        with pytest.raises(WrongDomainError, match="^total_derivative acts on jet-side"):
            prolong(system, 1)


def test_equation_system_label_uniqueness(ctx_tx):
    from varjet.symcore import VarjetError
    with pytest.raises(VarjetError):
        EquationSystem(ctx_tx, (("a", parse("u", ctx_tx)), ("a", parse("u_x", ctx_tx))))


def test_equation_system_refuses_rows_outside_its_context(ctx_tx, kdv):
    # a jet of dependent 3, an independent 2 and a momentum along
    # independent 2 in a (t, x; u) context; a comma-derivative of such a
    # momentum; and a fiber holding one of them
    from varjet.pdham import elh_system
    from varjet.symcore import CoordinateId
    u_x = parse("u_x", ctx_tx)
    outside = (CoordinateId.jet(3), CoordinateId.independent(2),
               CoordinateId.momentum(0, MultiIndex((0,)), 2),
               CoordinateId.comma(CoordinateId.momentum(0, EMPTY, 2), 0))
    for c in outside:
        rows = (("heat", parse("u_t - u_xx", ctx_tx)), ("bad", u_x * Expr.coord(c) + u_x))
        with pytest.raises(VarjetError, match=rf"^the system's row 'bad' reads "
                                              rf"{re.escape(repr(c))}, which is outside its context$"):
            EquationSystem(ctx_tx, rows)
        with pytest.raises(VarjetError, match=rf"^the system's fiber holds "
                                              rf"{re.escape(repr(c))}, which is outside its context$"):
            EquationSystem(ctx_tx, rows[:1], fiber=(CoordinateId.jet(0), c))
    # what the context names is accepted, the mixed rows of ELH included
    elh = elh_system(kdv)
    assert EquationSystem(elh.context, elh.equations, elh.fiber, elh.level) == elh
