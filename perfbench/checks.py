"""Correctness checks computed apart from the program under test.

Every check here is written from the mathematics, not from cxdesign's
code: exact moments come from Gamma-function ratios in rational
arithmetic, separation from chord lengths over all pairs, the covering
bound from an independent random sample, and the integration bound from
the Gegenbauer expansion of the Newton kernel in R^4. Nothing is compared
against stored copies of earlier output.

Each check raises CheckFailed with a one-line reason; callers collect the
reasons. The tests in test_checks.py show that each check rejects a
perturbed design.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, fsum, sqrt

import numpy as np

# Moment errors a verified rule may show. A design that passes the
# program's own complex sweep (tolerance 1e-10) has monomial errors of
# that order; the real moments carry the same information.
MOMENT_TOL = 1e-10
NORM_TOL = 1e-14
ANGLE_TOL = 1e-12


class CheckFailed(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- exponent enumeration ----------------------------------------------------


def exponents(nvars, max_total):
    """Every exponent vector of length nvars with entry sum <= max_total."""
    out = []

    def rec(prefix, left):
        if len(prefix) == nvars - 1:
            for last in range(left + 1):
                out.append(prefix + (last,))
            return
        for k in range(left + 1):
            rec(prefix + (k,), left - k)

    rec((), max_total)
    return out


# -- exact integrals ---------------------------------------------------------


def _half_gamma_ratio(g):
    """Gamma((g+1)/2) / Gamma(1/2) for even g, as an exact fraction."""
    r = Fraction(1)
    for j in range(g // 2):
        r *= Fraction(2 * j + 1, 2)
    return r


def real_sphere_moment(dim, gamma):
    """Average of x^gamma over the unit sphere in R^dim, exactly.

    E[x^gamma] = Gamma(dim/2) / Gamma((dim + |gamma|)/2)
                 * prod_i Gamma((gamma_i + 1)/2) / Gamma(1/2),
    zero when any exponent is odd.
    """
    if any(g % 2 for g in gamma):
        return Fraction(0)
    num = Fraction(1)
    for g in gamma:
        num *= _half_gamma_ratio(g)
    # Gamma(dim/2 + k) / Gamma(dim/2) = prod_{j<k} (dim/2 + j)
    den = Fraction(1)
    for j in range(sum(gamma) // 2):
        den *= Fraction(dim, 2) + j
    return num / den


def dirichlet_moment(d, alpha, beta):
    """Average of z^alpha conj(z)^beta over the unit sphere in C^d, exactly.

    Zero unless alpha == beta (the phases are uniform). Otherwise the
    squared moduli (|z_1|^2, ..., |z_d|^2) follow the flat Dirichlet law,
    whose moment is Gamma(d) prod alpha_j! / Gamma(d + |alpha|).
    """
    if tuple(alpha) != tuple(beta):
        return Fraction(0)
    num = factorial(d - 1)
    for a in alpha:
        num *= factorial(a)
    return Fraction(num, factorial(d - 1 + sum(alpha)))


# -- point-set checks ----------------------------------------------------------


def check_unit_norms(X, tol=NORM_TOL):
    dev = float(np.max(np.abs(np.linalg.norm(X, axis=1) - 1.0)))
    _require(dev <= tol, f"unit norms: max deviation {dev:.3e} > {tol:.1e}")
    return dev


def check_antipodal(X):
    n = X.shape[0]
    _require(n % 2 == 0, f"antipodal: odd point count {n}")
    _require(
        np.array_equal(X[n // 2:], -X[: n // 2]),
        "antipodal: row N/2+i is not exactly -row i",
    )


def real_moment_errors(X, t):
    """Largest |mean of x^gamma - exact moment| over all |gamma| <= t."""
    n, dim = X.shape
    powers = np.ones((t + 1, n, dim))
    for a in range(1, t + 1):
        powers[a] = powers[a - 1] * X
    worst, where = 0.0, None
    for gamma in exponents(dim, t):
        vals = np.ones(n)
        for k, g in enumerate(gamma):
            if g:
                vals = vals * powers[g, :, k]
        err = abs(fsum(vals) / n - float(real_sphere_moment(dim, gamma)))
        if err > worst:
            worst, where = err, gamma
    return worst, where


def check_real_design(X, t, tol=MOMENT_TOL):
    """Every real moment of degree <= t matches the sphere's exactly."""
    worst, where = real_moment_errors(X, t)
    _require(
        worst <= tol,
        f"real moments: x^{where} errs {worst:.3e} > {tol:.1e}",
    )
    return worst


def complex_moment_errors(Z, t):
    """Largest error over z^alpha conj(z)^beta with |alpha|+|beta| <= t.

    Returns (worst error, monomials checked).
    """
    n, d = Z.shape
    pw = np.ones((t + 1, n, d), dtype=complex)
    for a in range(1, t + 1):
        pw[a] = pw[a - 1] * Z
    cpw = np.conj(pw)
    worst, checked = 0.0, 0
    for expo in exponents(2 * d, t):
        alpha, beta = expo[:d], expo[d:]
        vals = np.ones(n, dtype=complex)
        for j in range(d):
            if alpha[j]:
                vals = vals * pw[alpha[j], :, j]
            if beta[j]:
                vals = vals * cpw[beta[j], :, j]
        mean = complex(fsum(vals.real) / n, fsum(vals.imag) / n)
        err = abs(mean - float(dirichlet_moment(d, alpha, beta)))
        worst = max(worst, err)
        checked += 1
    return worst, checked


def check_complex_design(Z, t, tol=MOMENT_TOL):
    worst, checked = complex_moment_errors(Z, t)
    _require(
        worst <= tol,
        f"complex moments: worst error {worst:.3e} > {tol:.1e}",
    )
    return worst, checked


def fold(X):
    """R^(2d) rows to C^d rows, z_j = x_(2j-1) + i x_(2j)."""
    return X[:, 0::2] + 1j * X[:, 1::2]


def check_fold(X, Z):
    _require(Z.shape == (X.shape[0], X.shape[1] // 2), "fold: wrong shape")
    _require(np.array_equal(Z, fold(X)), "fold: nodes differ from the folded design")


# -- geometry ------------------------------------------------------------------


def brute_separation(X):
    """Minimum geodesic distance over all pairs, from chord lengths."""
    n = X.shape[0]
    best = np.inf
    for i in range(n - 1):
        chord = np.linalg.norm(X[i + 1:] - X[i], axis=1)
        best = min(best, float(np.min(chord)))
    return 2.0 * np.arcsin(min(best / 2.0, 1.0))


def sample_covering_lower_bound(X, samples, rng, chunk=8192):
    """max over random sphere points y of min_i dist(y, x_i).

    Every sampled y is a witness, so the result bounds the true covering
    radius from below.
    """
    n, dim = X.shape
    best = 0.0
    left = samples
    while left > 0:
        take = min(chunk, left)
        Y = rng.standard_normal((take, dim))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        nearest = np.max(Y @ X.T, axis=1)
        best = max(best, float(np.arccos(np.clip(np.min(nearest), -1.0, 1.0))))
        left -= take
    return best


def check_separation(X, report):
    sep = brute_separation(X)
    _require(
        abs(report["separation"] - sep) <= ANGLE_TOL,
        f"separation: reported {report['separation']:.15f}, "
        f"brute force {sep:.15f}",
    )
    return sep


def check_mesh_ratio(report):
    """covering >= separation / 2, hence mesh ratio >= 1, and the ratio is
    2 * covering / separation."""
    sep, cov, ratio = (report["separation"], report["covering"],
                       report["mesh_ratio"])
    _require(
        cov >= sep / 2.0 - ANGLE_TOL,
        f"covering {cov:.6f} below half the separation {sep / 2:.6f}",
    )
    _require(ratio >= 1.0 - 1e-12, f"mesh ratio {ratio:.6f} < 1")
    _require(
        abs(ratio - 2.0 * cov / sep) <= 1e-12 * ratio,
        "mesh ratio is not 2 * covering / separation",
    )


def check_covering_sample(X, report, rng, samples):
    """An independent random sample may not find a hole deeper than the
    reported covering radius plus its uncertainty."""
    lb = sample_covering_lower_bound(X, samples, rng)
    cov, unc = report["covering"], report["covering_uncertainty"]
    _require(
        lb <= cov + unc + ANGLE_TOL,
        f"covering: random sample reaches {lb:.6f} > covering {cov:.6f} "
        f"+ uncertainty {unc:.2e}",
    )
    return lb


def check_metrics(X, report, rng, samples=1 << 15):
    """Check a metrics report (separation, covering, uncertainty, ratio)."""
    sep = check_separation(X, report)
    check_mesh_ratio(report)
    lb = check_covering_sample(X, report, rng, samples)
    return {"separation": sep, "sample_lower_bound": lb}


def tight_covering_radius(Z, t):
    """Covering radius of a tight rule in C^d from its deep hole.

    t=1 (antipodal pair): every point of the equator is a deepest hole, at
    distance pi/2. t=2 (simplex, 2d+1 vertices in R^2d): the deepest hole
    is the antipode of a vertex. t=3 (cross-polytope): the centre of a
    facet, (1, ..., 1)/sqrt(2d) up to the signs of the vertices. The
    radius is measured from the rule's own nodes at that hole and compared
    with the closed forms arccos(1/(2d)) and arccos(1/sqrt(2d)).
    """
    X = np.column_stack([Z.real, Z.imag])
    dim = X.shape[1]
    if t == 1:
        hole = np.zeros(dim)
        hole[np.argmin(np.abs(X[0]))] = 1.0
        closed = np.pi / 2.0
    elif t == 2:
        hole = -X[0]
        closed = float(np.arccos(1.0 / dim))
    elif t == 3:
        hole = np.ones(dim) / sqrt(dim)
        closed = float(np.arccos(1.0 / sqrt(dim)))
    else:
        raise ValueError("tight rules exist for t in 1, 2, 3")
    measured = float(np.arccos(np.clip(np.max(X @ hole), -1.0, 1.0)))
    _require(
        abs(measured - closed) <= ANGLE_TOL,
        f"tight t={t}: deepest hole at {measured:.12f}, closed form "
        f"{closed:.12f}",
    )
    return closed


def check_tight_covering(Z, t, report):
    closed = tight_covering_radius(Z, t)
    cov, unc = report["covering"], report["covering_uncertainty"]
    _require(
        closed - unc - ANGLE_TOL <= cov <= closed + ANGLE_TOL,
        f"tight t={t}: covering {cov:.12f} outside [{closed - unc:.12f}, "
        f"{closed:.12f}]",
    )
    return closed


def harmonic_tail_bound(rho, t, terms=4000):
    """Largest error a degree-t rule on S^3 can make on 1/|x - x0|^2.

    With |x| = 1 and |x0| = rho > 1, the Newton kernel of R^4 expands as
    1/|x - x0|^2 = rho^-2 sum_l C_l^(1)(cos g) rho^-l, each term of degree
    l > 0 has mean zero, and |C_l^(1)| <= l + 1. A rule exact through
    degree t therefore errs by at most rho^-2 sum_{l>t} (l + 1) rho^-l.
    """
    return fsum((ell + 1) * rho ** (-ell - 2) for ell in range(t + 1, t + terms))


def check_integration(Z, t, x0, reported_error):
    """Recompute the rule's error on 1/|z - x0|^2 and bound it."""
    diff = Z - x0[None, :]
    vals = 1.0 / np.sum(np.abs(diff) ** 2, axis=1)
    norm2 = float(np.sum(np.abs(x0) ** 2))
    exact = 1.0 / norm2
    err = abs(fsum(vals) / Z.shape[0] - exact)
    _require(
        abs(err - reported_error) <= 1e-13 + 1e-6 * err,
        f"integrate: reported error {reported_error:.6e}, recomputed {err:.6e}",
    )
    bound = harmonic_tail_bound(sqrt(norm2), t)
    _require(
        err <= bound,
        f"integrate: error {err:.3e} above the degree-{t} bound {bound:.3e}",
    )
    return err, bound
