"""Eigenvalues and eigenfunctions of fractional boundary value problems.

Two problem variants share one frequency variable rho = lambda^{1/(2 alpha)}:
the rl-bridge problem (integral form: bridge covariance kernel) and the
caputo problem (integral form: Riemann-Liouville kernel). The package
provides matched solvers at three accuracy tiers: closed-form asymptotics,
a corrected Nystrom reference discretization, and secular-equation root
refinement through a half-line integral system, plus a CLI harness that
serializes their comparisons.
"""

from . import asymptotics, errors, integro, nystrom, phase
from .asymptotics import *
from .errors import *
from .integro import *
from .nystrom import *
from .phase import *

__version__ = "0.1.0"

_MODULES = (asymptotics, errors, integro, nystrom, phase)
__all__ = sorted({name for mod in _MODULES for name in mod.__all__}) + ["__version__"]
