"""Gegenbauer polynomials, the zonal design kernel, and dimension/count formulas.

Everything here is scalar math on [-1, 1] plus exact integer combinatorics.
One recurrence, _recurrence, defines the normalized Gegenbauer polynomials.
_gegenbauer runs it in floats, degree by degree, for the polynomials and the
per-degree exactness sums. The kernel psi_t is
sum_{ell=1..t} Z(m, ell) Pbar_ell(u): positive coefficients and no constant
term, so that the pair-sum functional V of criteria vanishes exactly on
spherical t-designs (Sloan and Womersley, JAT 2009). It and its derivative
are Chebyshev series, converted once per kernel from the same recurrence in
exact rationals and summed by Clenshaw's recurrence (Clenshaw, MTAC 1955).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
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
_MAX_DEGREE = 100  # highest degree accepted: _gegenbauer's measured range


def _check_domain(u):
    u = np.asarray(u, dtype=float)
    if u.size and (u.min() < -1.0 - _DOMAIN_SLACK or u.max() > 1.0 + _DOMAIN_SLACK):
        raise ValueError("argument outside [-1, 1]")
    # excursions at rounding level are clipped, larger ones were rejected above
    return np.clip(u, -1.0, 1.0)


def _recurrence(ell, m):
    """Integers (p, q, r) of the normalized recurrence on S^m at degree ell >= 1:
    r Pbar_ell = p u Pbar_{ell-1} - q Pbar_{ell-2}.

    p = 2 ell + m - 3, q = ell - 1, r = ell + m - 2, so p - q = r keeps
    Pbar_ell(1) = 1, and ell = 1 gives Pbar_1 = u. _gegenbauer runs it in
    floats, _chebyshev in exact rationals.
    """
    return 2 * ell + m - 3, ell - 1, ell + m - 2


def _gegenbauer(top, m, u):
    """Yield Pbar_ell(u) for ell = 0..top: the Gegenbauer polynomials of S^m
    normalized to 1 at u = 1.

    Pbar_0 = 1, Pbar_1 = u and Pbar_ell from _recurrence. Against the same
    recurrence in exact rational arithmetic on 41 points of [-1, 1], the
    error at ell = 100 was at most 6.7e-15 for m = 3, 5, 7 and 13; the
    published designs stop at t = 31.
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
        p, q, r = _recurrence(ell, m)
        np.multiply(u, p_cur, out=scratch)
        scratch *= p / r
        p_prev *= q / r
        scratch -= p_prev
        p_prev, p_cur, scratch = p_cur, scratch, p_prev
        yield p_cur


def _chebyshev(weights, m):
    """Exact Chebyshev coefficients c with sum_k c[k] T_k(u) equal to
    sum_ell weights[ell] Pbar_ell(u) on S^m.

    Runs _recurrence on coefficient lists, where u T_0 = T_1 and
    u T_k = (T_(k-1) + T_(k+1)) / 2.
    """
    total = [Fraction(0)] * len(weights)
    prev, cur = [], [Fraction(1)]
    for ell, w in enumerate(weights):
        if ell:
            p, q, r = _recurrence(ell, m)
            ucur = [Fraction(0)] * (ell + 1)
            ucur[1] = cur[0]
            for k in range(1, ell):
                ucur[k - 1] += cur[k] / 2
                ucur[k + 1] += cur[k] / 2
            prev, cur = cur, [(p * a - q * b) / r
                              for a, b in zip_longest(ucur, prev, fillvalue=0)]
        if w:
            for k in range(ell + 1):
                total[k] += w * cur[k]
    return total


def _kernel_chebyshev(t, m, even):
    """Exact Chebyshev coefficients (value, deriv) of the kernel and its
    derivative, in the variable x = u, or x = 2 u^2 - 1 with even.

    The value series has Z(m, ell) at degree ell = 1..t; by
    d/du Pbar_ell^(m) = ell (ell + m - 1) / m Pbar_{ell-1}^(m+2) the
    derivative series has Z(m, ell) ell (ell + m - 1) / m at degree ell - 1.
    Plain, psi = sum_k value[k] T_k(x) and psi' = sum_k deriv[k] T_k(x).
    With even, odd ell are dropped, which is the even part
    (psi(u) + psi(-u)) / 2: its value keeps only T_2k(u) = T_k(x) and its
    derivative is odd, u times sum_k deriv[k] T_k(x).
    """
    top = t - 1 if even and t % 2 else t
    value = [Fraction(0)] * (top + 1)
    deriv = [Fraction(0)] * max(top, 1)
    for ell in range(2 if even else 1, top + 1, 2 if even else 1):
        z = dim_harm(m, ell)
        value[ell] = Fraction(z)
        deriv[ell - 1] = Fraction(z * ell * (ell + m - 1), m)
    value, deriv = _chebyshev(value, m), _chebyshev(deriv, m + 2)
    if not even:
        return value, deriv
    # divide the odd derivative by u: u T_0(x) = T_1(u) and
    # u T_k(x) = (T_(2k-1)(u) + T_(2k+1)(u)) / 2, solved from the top
    odd = deriv[1::2] or [Fraction(0)]
    quot = [Fraction(0)] * (len(odd) + 1)
    for k in range(len(odd) - 1, 0, -1):
        quot[k] = 2 * odd[k] - quot[k + 1]
    quot[0] = odd[0] - quot[1] / 2
    return value[::2], quot[:-1]


@lru_cache(maxsize=None)
def _kernel_coeffs(t, m, even):
    """_kernel_chebyshev rounded: each coefficient one rounding of an exact
    rational, as float tuples."""
    value, deriv = _kernel_chebyshev(t, m, even)
    return tuple(map(float, value)), tuple(map(float, deriv))


def _clenshaw(coeffs, x, x2):
    """sum_k coeffs[k] T_k(x) by Clenshaw's recurrence, given x2 = 2 x.

    b_k = c_k + 2 x b_(k+1) - b_(k+2) from the top down, then
    c_0 + x b_1 - b_2; three buffers, reused as in _gegenbauer.
    """
    n = len(coeffs) - 1
    if n == 0:
        return np.full_like(x, coeffs[0])
    if n == 1:
        out = x * coeffs[1]
        out += coeffs[0]
        return out
    b1 = x2 * coeffs[n]
    b1 += coeffs[n - 1]
    b2 = np.full_like(x, coeffs[n])
    scratch = np.empty_like(x)
    for c in coeffs[n - 2:0:-1]:
        np.multiply(x2, b1, out=scratch)
        scratch -= b2
        scratch += c
        b1, b2, scratch = scratch, b1, b2
    np.multiply(x, b1, out=scratch)
    scratch -= b2
    scratch += coeffs[0]
    return scratch


def legendre_normalized(ell, m, u):
    """Degree-ell Gegenbauer polynomial for S^m, normalized to 1 at u = 1.

    Its absolute value never exceeds 1 on [-1, 1].
    """
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    if not 0 <= ell <= _MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{_MAX_DEGREE}")
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

    Evaluation sums the Chebyshev series of psi_t and of its derivative,
    one Clenshaw loop each. With symmetric_variant it returns the even part
    (psi(u) + psi(-u)) / 2, the series without the odd-degree terms that
    antipodal point sets kill, as series in 2 u^2 - 1 of half the degree.
    Against the series in exact rationals on 41 points of [-1, 1], the error
    at t = 100 was at most 2.4e-16 of psi_t(1) and of psi_t'(1) for
    m = 3, 5 and 7.
    """

    t: int
    m: int
    symmetric_variant: bool = False

    def __post_init__(self):
        if not 1 <= self.t <= _MAX_DEGREE:
            raise ValueError(f"kernel degree must be in 1..{_MAX_DEGREE}")
        if self.m < 2:
            raise ValueError("sphere dimension must be >= 2")

    def __call__(self, u):
        """Return (value, derivative) arrays for the kernel at u."""
        u = _check_domain(u)
        shape, u = u.shape, u.reshape(-1)  # flat, so a 0-d u stays an array
        value, deriv = _kernel_coeffs(self.t, self.m, self.symmetric_variant)
        if self.symmetric_variant:
            x = u * u
            x *= 2.0
            x -= 1.0
        else:
            x = u
        x2 = x + x
        val, der = _clenshaw(value, x, x2), _clenshaw(deriv, x, x2)
        if self.symmetric_variant:
            der *= u
        return val.reshape(shape), der.reshape(shape)


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
