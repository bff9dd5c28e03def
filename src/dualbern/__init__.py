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

# each module lists its public names in its own __all__
from .bernstein import *
from .ratmat import *
from .subspace import *
from .symmetric import *

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


# the public names of dualbern.operators, which __getattr__ imports on first access
_LAZY_NAMES = frozenset({
    "OperatorReport", "StabilityReport", "bernstein_like", "bernstein_like_report",
    "modulus_of_continuity", "quasi_interpolant", "quasi_interpolant_report", "stability_report",
})

__all__ = [*bernstein.__all__, *ratmat.__all__, *subspace.__all__, *symmetric.__all__,
           *sorted(_LAZY_NAMES)]
