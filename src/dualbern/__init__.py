"""dualbern — dual bases for polynomial subspaces in Bernstein form.

Exact (rational) construction of selection-based dual bases
D^m = B^m E(s,:)^{-1}, the symmetric configuration converging to the
Lagrange basis with an explicit first-order rate constant, and
derivative-free approximation operators with a provable stability sandwich
and the error bound of a declared smoothness class (an estimate where it
samples f on a grid).

Only the float sampling needs numpy.  :mod:`dualbern.operators`, which
samples in every function, is imported on first access to it or to one of
its names, so the exact layers load without numpy.
"""

import importlib
import sys

from .bernstein import (
    BPoly,
    Interval,
    UNIT_INTERVAL,
    bernstein_value,
    bform_eval,
    bform_to_power,
    collocation_matrix,
    de_casteljau_eval,
    dual_functional_apply,
    elevation_matrix,
    generalized_dual_apply,
    power_to_bform,
    uniform_grid,
    xi_nodes,
)
from .ratmat import (
    Mat,
    SingularMatrixError,
    inf_norm,
    is_inverse,
    mat_to_json_obj,
)
from .subspace import (
    DualBasis,
    Embedding,
    IndexOutOfRangeError,
    NotInjectiveError,
    SelectionError,
    SelectionMap,
    WrongLengthError,
    bernstein_embedding,
    dual_basis,
    dual_basis_eval,
    is_complete,
    linear_precision_check,
    make_selection,
    power_embedding,
    verify_duality,
)
from .symmetric import (
    ConvergenceRecord,
    SymmetricConfig,
    convergence_csv,
    convergence_table,
    rate_constant,
    selected_elevation_rows,
    symmetric_dual_matrix,
)

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562.  Nothing is cached here: every access reads the operators
    # module, so a wrapper set on it (a tracer's) is seen and then undone.
    # Once imported, the module is read from sys.modules, which is what
    # import_module would return, at a fraction of its cost.  importlib, not
    # ``from . import``, which would look the name up on this package again
    # and recurse.
    if name == "operators" or name in _LAZY_NAMES:
        module = __name__ + ".operators"
        operators = sys.modules.get(module) or importlib.import_module(module)
        return operators if name == "operators" else getattr(operators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY_NAMES)


__all__ = [
    "BPoly",
    "ConvergenceRecord",
    "DualBasis",
    "Embedding",
    "IndexOutOfRangeError",
    "Interval",
    "Mat",
    "NotInjectiveError",
    "OperatorReport",
    "SelectionError",
    "SelectionMap",
    "SingularMatrixError",
    "StabilityReport",
    "SymmetricConfig",
    "UNIT_INTERVAL",
    "WrongLengthError",
    "bernstein_embedding",
    "bernstein_like",
    "bernstein_like_report",
    "bernstein_value",
    "bform_eval",
    "bform_to_power",
    "collocation_matrix",
    "convergence_csv",
    "convergence_table",
    "de_casteljau_eval",
    "distance_to_subspace",
    "dual_basis",
    "dual_basis_eval",
    "dual_functional_apply",
    "elevation_matrix",
    "generalized_dual_apply",
    "inf_norm",
    "is_complete",
    "is_inverse",
    "linear_precision_check",
    "make_selection",
    "mat_to_json_obj",
    "modulus_of_continuity",
    "power_embedding",
    "power_to_bform",
    "quasi_interpolant",
    "quasi_interpolant_report",
    "rate_constant",
    "selected_elevation_rows",
    "stability_report",
    "symmetric_dual_matrix",
    "tilde_lambda_apply",
    "uniform_grid",
    "verify_duality",
    "xi_nodes",
]

# the public names not imported above: those of dualbern.operators
_LAZY_NAMES = frozenset(__all__).difference(globals())
