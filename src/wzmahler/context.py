"""Precision context and the error types shared by every numeric module.

All floating computation runs through mpmath.  A ``PrecisionCtx`` carries the
working mantissa size in bits and a term budget for series; the default inner
tolerance of a quantity called without one follows from ``bits``.  The
acceptance tolerance of a comparison belongs to the registry entry, not to the
context.  Internals add ``GUARD_BITS`` of head-room so that digits reported at
``bits`` are trustworthy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath import mpf, workprec

GUARD_BITS = 32


class PoleError(ArithmeticError):
    """Evaluation at a pole of Gamma or of a rational prefactor."""


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class ConvergenceError(ArithmeticError):
    """Term budget exhausted before the tolerance was met."""


class DivergentSeriesError(ArithmeticError):
    """The requested series diverges for the given argument."""


class NonComparableError(ValueError):
    """Two hypergeometric terms whose quotient is not a rational function."""


class QuadratureBudgetError(ArithmeticError):
    """Adaptive quadrature could not meet the tolerance within its budget."""


class SingularCurveError(ValueError):
    """Discriminant g2^3 - 27*g3^2 vanishes."""


class ComplexRootsUnsupportedError(ValueError):
    """Period computation requires three real roots (positive discriminant)."""


class LatticePoleError(ArithmeticError):
    """Weierstrass P evaluated at a lattice point."""


class UnknownIdentityError(KeyError):
    """Registry lookup for an id that does not exist."""


class SlowConvergenceWarning(UserWarning):
    """Series argument sits next to a branch boundary; convergence is slow."""


# The fields of PrecisionCtx.  A NamedTuple body may not define __new__,
# so the validating __new__ lives on the subclass.
class _Precision(NamedTuple):
    bits: int = 256
    max_terms: int = 500_000


class PrecisionCtx(_Precision):
    """Working precision and series term budget."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bits < 64:
            raise DomainError("bits must be >= 64")
        if self.max_terms <= 0:
            raise DomainError("max_terms must be positive")
        return self

    @property
    def default_tol(self) -> mpf:
        """2**-(bits//2), the inner tolerance of a quantity called without
        one."""
        return mpf(2) ** -(self.bits // 2)

    def workprec(self, extra: int = 0):
        """mpmath context manager at bits + GUARD_BITS (+ extra)."""
        return workprec(self.bits + GUARD_BITS + extra)


DEFAULT_CTX = PrecisionCtx()


def to_mpf(x) -> mpf:
    """mpf from int/float/str/mpf or exact Fraction (at current precision)."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def to_tol(tol) -> mpf:
    """A tolerance as an mpf; DomainError unless it is finite and positive."""
    tol = to_mpf(tol)
    if not 0 < tol < mpf("inf"):
        raise DomainError(f"tolerance must be finite and positive, not {tol}")
    return tol
