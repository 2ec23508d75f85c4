"""The public names of the varjet package, with no aliases among them."""

import types
from collections import defaultdict

import varjet

EXPORTED = {
    "CartanValuedForm", "CoordinateId", "DegenerateLagrangianError", "DerivedContext",
    "EnergyDensity", "EquationSystem", "Expr", "HessianMatrix", "JetContext",
    "LagrangianDensity", "LegendreForm", "MultiIndex", "OrderOverflowError", "ParseError",
    "RankReport", "ReducedSystem", "SourceForm", "UnknownCoordinateError",
    "UnsupportedExpressionError", "VarjetError", "WrongDomainError",
    "constraints", "derived_context", "elh_system", "energy_density", "euler_lagrange",
    "hessian", "horizontal_d_legendre", "iterated_total_derivative", "legendre_form",
    "momentum_shift", "multiindices", "multiindices_up_to", "parse", "prolong",
    "reduce_lagrangian", "render", "total_derivative", "total_derivative_primed",
    "vertical_differential",
}


def exported():
    # submodules become package attributes once imported; they are not API names
    return {name: value for name, value in vars(varjet).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_exported_names_are_pinned():
    assert set(exported()) == EXPORTED


def test_no_exported_name_is_an_alias():
    names_by_object = defaultdict(list)
    for name, value in exported().items():
        names_by_object[id(value)].append(name)
    assert [sorted(names) for names in names_by_object.values() if len(names) > 1] == []
