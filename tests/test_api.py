"""The public names of the varjet package, with no aliases among them, the
public names of its numeric layer, and the signatures of the momentum-side
constructions."""

import inspect
import types
from collections import defaultdict

import varjet
from varjet import numeric

EXPORTED = {
    "CartanValuedForm", "CoordinateId", "DegenerateLagrangianError", "DerivedContext",
    "EquationSystem", "Expr", "HessianMatrix", "JetContext",
    "LagrangianDensity", "LegendreForm", "MultiIndex", "OrderOverflowError", "ParseError",
    "RankReport", "ReducedSystem", "SourceForm", "UnknownCoordinateError",
    "UnsupportedExpressionError", "VarjetError", "WrongDomainError",
    "constraints", "elh_system", "energy_density", "euler_lagrange",
    "hessian", "horizontal_d_legendre", "iterated_total_derivative", "legendre_form",
    "momentum_shift", "multiindices", "multiindices_up_to", "parse", "prolong",
    "reduce_lagrangian", "render", "total_derivative", "total_derivative_primed",
    "vertical_differential",
}

# the functions and classes varjet.numeric defines: residual is its one
# finite-difference path, with no second prolongation entry point
NUMERIC = {
    "GridFunction", "GridTooSmallError", "MissingFieldError",
    "evaluate", "fd_weights", "load_grid", "residual", "save_grid", "stencil_radius",
}


def exported():
    # submodules become package attributes once imported; they are not API names
    return {name: value for name, value in vars(varjet).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_exported_names_are_pinned():
    assert set(exported()) == EXPORTED


def test_numeric_names_are_pinned():
    defined = {name for name, value in vars(numeric).items()
               if getattr(value, "__module__", None) == numeric.__name__}
    assert {name for name in defined if not name.startswith("_")} == NUMERIC


def test_no_exported_name_is_an_alias():
    names_by_object = defaultdict(list)
    for name, value in exported().items():
        names_by_object[id(value)].append(name)
    assert [sorted(names) for names in names_by_object.values() if len(names) > 1] == []


def test_constructions_take_the_level_from_the_density():
    # the momentum level is the density's order minus one; sampling options
    # are keyword-only, so a stale positional level cannot pass as samples
    signatures = {
        varjet.elh_system: "(lag: 'LagrangianDensity') -> 'EquationSystem'",
        varjet.constraints: "(lag: 'LagrangianDensity') -> 'EquationSystem'",
        varjet.energy_density: "(lag: 'LagrangianDensity') -> 'Expr'",
        varjet.hessian: "(lag: 'LagrangianDensity', *, samples: 'int' = 5, seed: 'int' = 0)"
                        " -> 'Tuple[HessianMatrix, RankReport]'",
        varjet.reduce_lagrangian: "(lag: 'LagrangianDensity', *, samples: 'int' = 5,"
                                  " seed: 'int' = 0) -> 'ReducedSystem'",
    }
    for function, expected in signatures.items():
        assert str(inspect.signature(function)) == expected, function.__name__
