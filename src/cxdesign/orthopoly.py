"""Jacobi polynomials, the zonal design kernel, and dimension/count formulas.

Everything here is scalar math on [-1, 1] plus exact integer combinatorics.
The kernel psi_t is the degree-t zonal polynomial whose Gegenbauer expansion
has coefficient Z(m, ell) in front of every normalized degree-ell term and no
constant term, so that the pair-sum functional V of design_criteria vanishes
exactly on spherical t-designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "jacobi_eval",
    "legendre_normalized",
    "legendre_normalized_all",
    "zonal_psi",
    "ZonalKernel",
    "kernel_expansion_coeffs",
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


def _jacobi_values(n, alpha, beta, u):
    """P_n^(alpha,beta)(u) by the upward three-term recurrence.

    Against the same recurrence in exact rational arithmetic on 41 points of
    [-1, 1], with (alpha, beta) = (m/2, (m-2)/2) for m = 3 and 5, the error
    relative to P_n(1) was at most 2.6e-15 at n = 40 and 8.3e-15 at n = 100;
    the published designs stop at t = 31. `u` may be any ndarray; the
    return has the same shape.
    """
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi parameters must exceed -1")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    p_prev = np.ones_like(u)
    if n == 0:
        return p_prev
    p_cur = (alpha + 1.0) + (alpha + beta + 2.0) * (u - 1.0) / 2.0
    for k in range(2, n + 1):
        s = 2.0 * k + alpha + beta
        c1 = 2.0 * k * (k + alpha + beta) * (s - 2.0)
        c2 = (s - 1.0) * (alpha * alpha - beta * beta)
        c3 = (s - 2.0) * (s - 1.0) * s
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s
        p_prev, p_cur = p_cur, ((c2 + c3 * u) * p_cur - c4 * p_prev) / c1
    return p_cur


def jacobi_eval(n, alpha, beta, u):
    """Evaluate the Jacobi polynomial P_n^(alpha,beta) and its derivative.

    The value comes from the three-term recurrence; the derivative uses the
    degree-shift identity d/du P_n^(a,b) = ((n+a+b+1)/2) P_{n-1}^(a+1,b+1).
    Returns a (value, derivative) pair, each shaped like `u`.
    """
    scalar = np.isscalar(u)
    u = _check_domain(u)
    val = _jacobi_values(n, alpha, beta, u)
    if n == 0:
        der = np.zeros_like(u)
    else:
        der = 0.5 * (n + alpha + beta + 1.0) * _jacobi_values(
            n - 1, alpha + 1.0, beta + 1.0, u
        )
    if scalar:
        return float(val), float(der)
    return val, der


def legendre_normalized(ell, m, u):
    """Degree-ell Gegenbauer polynomial for S^m, normalized to 1 at u = 1.

    This is P_ell^((m-2)/2,(m-2)/2)(u) / P_ell^((m-2)/2,(m-2)/2)(1); its
    absolute value never exceeds 1 on [-1, 1].
    """
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    scalar = np.isscalar(u)
    u = _check_domain(u)
    lam = (m - 2.0) / 2.0
    norm = float(_jacobi_values(ell, lam, lam, np.float64(1.0)))
    val = _jacobi_values(ell, lam, lam, u) / norm
    return float(val) if scalar else val


def legendre_normalized_all(t, m, u):
    """All normalized Gegenbauer values for degrees 0..t at once.

    Returns an array of shape (t+1,) + u.shape; row ell holds
    legendre_normalized(ell, m, u). One pass of the recurrence, shared by the
    per-degree exactness sums.
    """
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    u = _check_domain(u)
    lam = (m - 2.0) / 2.0
    out = np.empty((t + 1,) + u.shape, dtype=float)
    norms = np.empty(t + 1)
    p_prev = np.ones_like(u)
    n_prev = 1.0
    out[0] = p_prev
    norms[0] = n_prev
    if t == 0:
        return out
    p_cur = (lam + 1.0) + (2.0 * lam + 2.0) * (u - 1.0) / 2.0
    n_cur = lam + 1.0
    out[1] = p_cur
    norms[1] = n_cur
    for k in range(2, t + 1):
        s = 2.0 * k + 2.0 * lam
        c1 = 2.0 * k * (k + 2.0 * lam) * (s - 2.0)
        c3 = (s - 2.0) * (s - 1.0) * s
        c4 = 2.0 * (k + lam - 1.0) ** 2 * s
        p_prev, p_cur = p_cur, (c3 * u * p_cur - c4 * p_prev) / c1
        n_prev, n_cur = n_cur, (c3 * n_cur - c4 * n_prev) / c1
        out[k] = p_cur
        norms[k] = n_cur
    out /= norms.reshape((t + 1,) + (1,) * u.ndim)
    return out


def zonal_psi(t, m, u):
    """The zonal design kernel psi_t for S^m and its derivative.

    psi_t(u) = c * P_t^(m/2,(m-2)/2)(u) - 1 with the scale
    c = [C(t+m, m) + C(t+m-1, m)] / P_t^(m/2,(m-2)/2)(1) chosen so that the
    Gegenbauer expansion is exactly sum_{ell=1..t} Z(m, ell) P_ell(u):
    positive coefficients, zero constant term. Returns (value, derivative).
    """
    if t < 1:
        raise ValueError("kernel degree must be >= 1")
    if m < 2:
        raise ValueError("sphere dimension must be >= 2")
    scalar = np.isscalar(u)
    u = _check_domain(u)
    alpha = m / 2.0
    beta = (m - 2.0) / 2.0
    total = math.comb(t + m, m) + math.comb(t + m - 1, m)
    c = total / float(_jacobi_values(t, alpha, beta, np.float64(1.0)))
    val = c * _jacobi_values(t, alpha, beta, u) - 1.0
    der = c * 0.5 * (t + alpha + beta + 1.0) * _jacobi_values(
        t - 1, alpha + 1.0, beta + 1.0, u
    )
    if scalar:
        return float(val), float(der)
    return val, der


@dataclass(frozen=True)
class ZonalKernel:
    """Zonal kernel handle: degree t on S^m, optionally parity-reduced.

    With symmetric_variant, evaluation returns the even part
    (psi(u) + psi(-u)) / 2, which drops the odd-degree terms killed by
    antipodal point sets.
    """

    t: int
    m: int
    symmetric_variant: bool = False

    @classmethod
    def create(cls, t, m, symmetric_variant=False):
        if t < 1 or m < 2:
            raise ValueError("need t >= 1 and m >= 2")
        return cls(t=t, m=m, symmetric_variant=symmetric_variant)

    def __call__(self, u):
        """Return (value, derivative) arrays for the kernel at u."""
        val, der = zonal_psi(self.t, self.m, u)
        if not self.symmetric_variant:
            return val, der
        neg = np.negative(u)
        val_n, der_n = zonal_psi(self.t, self.m, neg)
        return 0.5 * (val + val_n), 0.5 * (der - der_n)


def kernel_expansion_coeffs(t, m, n_nodes=None):
    """Gegenbauer expansion coefficients a_0..a_t of zonal_psi by quadrature.

    Projects the kernel on the normalized basis with a Gauss-Jacobi rule for
    the weight (1-u^2)^((m-2)/2); the rule is exact for the degree <= 2t
    integrands involved. For the implemented kernel a_0 = 0 and
    a_ell = Z(m, ell).
    """
    if n_nodes is None:
        n_nodes = t + 4
    lam = (m - 2.0) / 2.0
    x, w = roots_jacobi(n_nodes, lam, lam)
    vals, _ = zonal_psi(t, m, x)
    basis = legendre_normalized_all(t, m, x)
    coeffs = np.empty(t + 1)
    for ell in range(t + 1):
        pl = basis[ell]
        coeffs[ell] = np.dot(w, vals * pl) / np.dot(w, pl * pl)
    return coeffs


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
