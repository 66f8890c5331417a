"""Fixtures shared by more than one test module."""

import pytest
from mpmath import acos, acosh, cospi, mpf, pi, quad


def _m_by_tanh_sinh(alpha):
    """m(alpha), alpha > 0, by mpmath's tanh-sinh quadrature of Jensen's
    reduction at the working precision, independent of the package: twice
    the integral over [0, t*] of arccosh(u/2), u = alpha + 2 cos(2 pi t),
    where t* = 1/2 from alpha = 4 up, and below 4 the u = 2 crossing,
    cos(2 pi t*) = (2 - alpha)/2, beyond which the integrand vanishes (a
    square-root kink, made an end of the interval)."""
    alpha = mpf(alpha)
    end = mpf(1) / 2 if alpha >= 4 else acos((2 - alpha) / 2) / (2 * pi)
    return 2 * quad(lambda t: acosh(max(1, alpha / 2 + cospi(2 * t))), [0, end])


@pytest.fixture
def m_oracle():
    """An m(alpha) oracle for every alpha > 0, where the package's Jensen
    quadrature serves only alpha > 4: ``_m_by_tanh_sinh``."""
    return _m_by_tanh_sinh
