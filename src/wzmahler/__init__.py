"""Verification engine for WZ-certificate identities and the Mahler-measure /
elliptic-dilogarithm circle around them.

Everything that admits two evaluation routes is checked along both; the
``registry`` module binds each identity to its evaluators and tolerance, and
the ``wzmahler`` command line runs the whole table.
"""

from .context import (ComplexRootsUnsupportedError, ConvergenceError,
                      DivergentSeriesError, DomainError, LatticePoleError,
                      NonComparableError, PoleError, PrecisionCtx,
                      QuadratureBudgetError, SingularCurveError,
                      UnknownIdentityError)
from .numkernel import agm, bloch_wigner, gamma_real, zeta_int

__all__ = [
    "PrecisionCtx",
    "gamma_real", "bloch_wigner", "agm", "zeta_int",
    "PoleError", "DomainError", "ConvergenceError", "DivergentSeriesError",
    "NonComparableError", "QuadratureBudgetError", "SingularCurveError",
    "ComplexRootsUnsupportedError", "LatticePoleError", "UnknownIdentityError",
]
