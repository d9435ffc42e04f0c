"""Poisson-property checks for weakly nonlocal differential operators.

Operators are encoded as graded polynomials in odd jet variables plus
formal nonlocal antiderivatives; the Poisson property is decided by
skew-adjointness together with divergence-triviality of the self-bracket,
all in exact rational arithmetic.
"""

from .algebra import Fields, SuperPoly, nl, p, render_superpoly
from .jetcalc import (
    ELResult,
    LinearizationOp,
    adjoint,
    euler_lagrange,
    linearize,
    total_x,
    var_deriv,
)
from .nonlocal_vars import (
    NonlocalVarTable,
    TailTerm,
    UnsupportedStructureError,
    el_nonlocal,
    integrate_density,
    reduce_depth,
    split_tails,
)
from .schouten import (
    Tail,
    WNOperator,
    from_superfunction,
    is_hamiltonian,
    operator_adjoint,
    schouten_bracket,
    skew_check,
    skew_part,
    to_superfunction,
)
from .geometry import (
    MetricData,
    SingularMetricError,
    build_operator,
    check_conditions,
    derive_geometry,
)
from .dsl import OperatorFile, ParseError, parse, render

__all__ = [
    "ELResult",
    "Fields",
    "LinearizationOp",
    "MetricData",
    "NonlocalVarTable",
    "OperatorFile",
    "ParseError",
    "SingularMetricError",
    "SuperPoly",
    "Tail",
    "TailTerm",
    "UnsupportedStructureError",
    "WNOperator",
    "adjoint",
    "build_operator",
    "check_conditions",
    "derive_geometry",
    "el_nonlocal",
    "euler_lagrange",
    "from_superfunction",
    "integrate_density",
    "is_hamiltonian",
    "linearize",
    "nl",
    "operator_adjoint",
    "p",
    "parse",
    "reduce_depth",
    "render",
    "render_superpoly",
    "schouten_bracket",
    "skew_check",
    "skew_part",
    "split_tails",
    "to_superfunction",
    "total_x",
    "var_deriv",
]
