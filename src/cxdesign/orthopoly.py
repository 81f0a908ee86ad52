"""Gegenbauer polynomials, the zonal design kernel, and dimension/count formulas.

Everything here is scalar math on [-1, 1] plus exact integer combinatorics.
One recurrence, _gegenbauer, produces the normalized Gegenbauer polynomials
degree by degree; the zonal kernel, its derivative and the per-degree
exactness sums are all series over it. The kernel psi_t is
sum_{ell=1..t} Z(m, ell) Pbar_ell(u): positive coefficients and no constant
term, so that the pair-sum functional V of criteria vanishes exactly on
spherical t-designs (Sloan and Womersley, JAT 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "legendre_normalized",
    "zonal_psi",
    "ZonalKernel",
    "dim_harm",
    "dim_complex_harm",
    "dim_complex_space",
    "real_design_lower_bound",
    "point_counts",
    "PointCounts",
]

_DOMAIN_SLACK = 1e-9


def _check_domain(u):
    u = np.asarray(u, dtype=float)
    if u.size and (u.min() < -1.0 - _DOMAIN_SLACK or u.max() > 1.0 + _DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    # excursions at rounding level are clipped, larger ones were rejected above
    return np.clip(u, -1.0, 1.0)


def _gegenbauer(top, m, u):
    """Yield Pbar_ell(u) for ell = 0..top: the Gegenbauer polynomials of S^m
    normalized to 1 at u = 1.

    Pbar_0 = 1, Pbar_1 = u and Pbar_ell = a u Pbar_{ell-1} - b Pbar_{ell-2}
    with a = (2 ell + m - 3) / (ell + m - 2), b = (ell - 1) / (ell + m - 2),
    so a - b = 1 keeps Pbar_ell(1) = 1. Against the same recurrence in exact
    rational arithmetic on 41 points of [-1, 1], the error at ell = 100 was
    at most 6.7e-15 for m = 3, 5, 7 and 13; the published designs stop at
    t = 31.
    The buffers are reused: each yielded array is overwritten once the
    generator advances, so use it before asking for the next.
    """
    p_prev = np.ones_like(u)
    yield p_prev
    if top == 0:
        return
    p_cur = np.array(u, dtype=float)
    yield p_cur
    scratch = np.empty_like(p_cur)
    for ell in range(2, top + 1):
        np.multiply(u, p_cur, out=scratch)
        scratch *= (2 * ell + m - 3) / (ell + m - 2)
        p_prev *= (ell - 1) / (ell + m - 2)
        scratch -= p_prev
        p_prev, p_cur, scratch = p_cur, scratch, p_prev
        yield p_cur


def _series(coeffs, m, u):
    """sum_ell coeffs[ell] Pbar_ell(u) on S^m, skipping zero coefficients."""
    total = np.zeros_like(u)
    for c, p in zip(coeffs, _gegenbauer(len(coeffs) - 1, m, u)):
        if c:
            total += c * p
    return total


@lru_cache(maxsize=None)
def _kernel_coeffs(t, m, even):
    """Series coefficients of the kernel on S^m and of its derivative on S^(m+2).

    The value has Z(m, ell) at degree ell = 1..t; by
    d/du Pbar_ell^(m) = ell (ell + m - 1) / m Pbar_{ell-1}^(m+2) the
    derivative has Z(m, ell) ell (ell + m - 1) / m at degree ell - 1. With
    even, odd ell are dropped: that is the even part (psi(u) + psi(-u)) / 2.
    Each coefficient is one rounding of an exact rational.
    """
    top = t - 1 if even and t % 2 else t
    value = [0.0] * (top + 1)
    deriv = [0.0] * top
    for ell in range(2 if even else 1, top + 1, 2 if even else 1):
        z = dim_harm(m, ell)
        value[ell] = float(z)
        deriv[ell - 1] = z * ell * (ell + m - 1) / m
    return tuple(value), tuple(deriv)


def legendre_normalized(ell, m, u):
    """Degree-ell Gegenbauer polynomial for S^m, normalized to 1 at u = 1.

    Its absolute value never exceeds 1 on [-1, 1].
    """
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    scalar = np.isscalar(u)
    u = _check_domain(u)
    for p in _gegenbauer(ell, m, u):
        pass
    return float(p) if scalar else p


def zonal_psi(t, m, u):
    """The zonal design kernel psi_t for S^m and its derivative.

    psi_t(u) = sum_{ell=1..t} Z(m, ell) Pbar_ell(u); see ZonalKernel.
    Returns (value, derivative), floats for a scalar u.
    """
    scalar = np.isscalar(u)
    val, der = ZonalKernel(t, m)(u)
    if scalar:
        return float(val), float(der)
    return val, der


@dataclass(frozen=True)
class ZonalKernel:
    """Zonal kernel handle: degree t on S^m, optionally parity-reduced.

    Evaluation sums the Gegenbauer series of psi_t and of its derivative.
    With symmetric_variant it returns the even part (psi(u) + psi(-u)) / 2,
    the series without the odd-degree terms that antipodal point sets kill.
    """

    t: int
    m: int
    symmetric_variant: bool = False

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("kernel degree must be >= 1")
        if self.m < 2:
            raise ValueError("sphere dimension must be >= 2")

    def __call__(self, u):
        """Return (value, derivative) arrays for the kernel at u."""
        u = _check_domain(u)
        value, deriv = _kernel_coeffs(self.t, self.m, self.symmetric_variant)
        return _series(value, self.m, u), _series(deriv, self.m + 2, u)


def dim_harm(m, ell):
    """Dimension Z(m, ell) of degree-ell spherical harmonics on S^m.

    Z(m, ell) = (2 ell + m - 1) Gamma(ell + m - 1) / (Gamma(m) Gamma(ell + 1)),
    evaluated in exact integer arithmetic.
    """
    if m < 2 or ell < 0:
        raise ValueError("need m >= 2 and ell >= 0")
    num = (2 * ell + m - 1) * math.comb(ell + m - 2, ell)
    if num % (m - 1):
        raise ArithmeticError("harmonic dimension is not an integer")
    return num // (m - 1)


def dim_complex_harm(d, k, l):
    """Dimension of the bidegree-(k, l) harmonic space on the complex sphere.

    (d-1)(k+l+d-1) Gamma(d+k-1) Gamma(d+l-1) / (Gamma(d)^2 Gamma(k+1) Gamma(l+1))
    as an exact integer.
    """
    if d < 2 or k < 0 or l < 0:
        raise ValueError("need d >= 2 and k, l >= 0")
    val = (
        Fraction(k + l + d - 1, d - 1)
        * math.comb(k + d - 2, k)
        * math.comb(l + d - 2, l)
    )
    if val.denominator != 1:
        raise ArithmeticError("complex harmonic dimension is not an integer")
    return int(val)


def dim_complex_space(d, t):
    """Dimension of the full triangle of bidegrees k + l <= t on the complex sphere.

    Evaluates the closed form (2d+2t-1) Gamma(2d+t-1) / (Gamma(2d) Gamma(t+1))
    and checks it against the double sum of dim_complex_harm over the
    triangle, raising RuntimeError if they disagree.
    """
    if d < 2 or t < 0:
        raise ValueError("need d >= 2 and t >= 0")
    closed = Fraction(2 * d + 2 * t - 1, 2 * d - 1) * math.comb(2 * d + t - 2, t)
    if closed.denominator != 1:
        raise ArithmeticError("space dimension is not an integer")
    closed = int(closed)
    total = sum(
        dim_complex_harm(d, k, s - k) for s in range(t + 1) for k in range(s + 1)
    )
    if closed != total:
        raise RuntimeError(
            f"closed form {closed} disagrees with the bidegree sum {total}"
        )
    return closed


class PointCounts(NamedTuple):
    nstar: int
    nhat: int
    nbar: int | None


def real_design_lower_bound(m, t):
    """Smallest N a real t-design on S^m can possibly have.

    2 C(m + k, m) for odd t = 2k + 1 and C(m + k, m) + C(m + k - 1, m) for
    even t = 2k. The simplex (t = 2) and the cross-polytope (t = 3) meet it.
    """
    k = t // 2
    if t % 2:
        return 2 * math.comb(m + k, m)
    return math.comb(m + k, m) + math.comb(m + k - 1, m)


def _ceil_div(a, b):
    return -(-a // b)


def point_counts(d, t):
    """The three node-count figures for degree t on the real sphere S^(2d-1).

    nstar is the classical lower bound no t-design can beat; nhat is the
    working count for general runs; nbar is the working count for symmetric
    runs and exists for odd t only (None otherwise). All exact integers.
    """
    if d < 2 or t < 1:
        raise ValueError("need d >= 2 and t >= 1")
    nstar = real_design_lower_bound(2 * d - 1, t)
    m_dim = dim_complex_space(d, t)
    nhat = _ceil_div(m_dim - 1, 2 * d - 1) + d
    nbar = None
    if t % 2:
        half = math.comb(t + 2 * d - 2, 2 * d - 1)
        nbar = 2 * (_ceil_div(half - 1, 2 * d - 1) + d)
    return PointCounts(nstar=nstar, nhat=nhat, nbar=nbar)
