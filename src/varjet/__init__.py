"""varjet: exact variational calculus on jet coordinates.

Derives Euler-Lagrange equations, canonical Legendre forms, mixed
Euler-Lagrange-Hamilton systems, constraint manifolds, Hessian regularity
reports, and Hamilton-de Donder-Weyl systems from polynomial Lagrangian
densities, with exact rational arithmetic throughout and a finite-difference
layer for numeric residual verification.
"""

from .multiindex import MultiIndex, multiindices, multiindices_up_to
from .symcore import (
    CoordinateId,
    Expr,
    JetContext,
    OrderOverflowError,
    ParseError,
    UnknownCoordinateError,
    UnsupportedExpressionError,
    VarjetError,
    WrongDomainError,
    parse,
    render,
)
from .jetcalc import (
    EquationSystem,
    iterated_total_derivative,
    prolong,
    total_derivative,
    total_derivative_primed,
)
from .variational import (
    CartanValuedForm,
    LagrangianDensity,
    LegendreForm,
    SourceForm,
    euler_lagrange,
    horizontal_d_legendre,
    legendre_form,
    vertical_differential,
)
from .pdham import (
    DegenerateLagrangianError,
    DerivedContext,
    HessianMatrix,
    RankReport,
    ReducedSystem,
    constraints,
    elh_system,
    energy_density,
    hessian,
    momentum_shift,
    reduce_lagrangian,
)

__version__ = "0.1.0"
