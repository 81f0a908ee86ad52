"""Design quality criteria: the variational objective, exactness sums, and
monomial verification for complex point sets.

All verification-path sums here use a fixed reduction order, so repeated
runs are bit-reproducible and the thresholds can sit near accumulation
error: the per-degree sums are row reductions per Gram row block, then one
math.fsum per degree, and the monomial node means are numpy's pairwise
means along each monomial's row of node values, taken in row blocks that
do not change their bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, inf, prod

import numpy as np

from .orthopoly import _MAX_DEGREE, ZonalKernel, _gegenbauer, dim_harm
from .sphere import ComplexPointSet, RealPointSet, _gram_blocks, _row_slices

__all__ = [
    "DesignReport",
    "MonomialReport",
    "variational_value",
    "variational_gradient",
    "per_degree_sums",
    "is_spherical_design",
    "complex_monomial_integral",
    "real_sphere_moment",
    "monomial_exponents",
    "monomial_pairs",
    "verify_triangular_design",
]


@dataclass(frozen=True)
class DesignReport:
    """Exactness diagnostics for a real point set at degree t.

    per_degree holds the raw sums W_ell for ell = 1..t; each is a sum of
    squares of harmonic averages, so negative values can only come from
    rounding. The set is a t-design when every W_ell / N^2 is at tolerance.
    V is the variational criterion assembled from them as
    sum_ell Z(m, ell) max(W_ell, 0) / N^2: clamping removes only rounding
    noise, so V is never negative.
    """

    t: int
    N: int
    V: float
    per_degree: np.ndarray
    is_design: bool
    tolerance: float

    @property
    def max_defect(self):
        """max_ell W_ell / N^2, the quantity compared against tolerance."""
        return float(np.max(self.per_degree)) / self.N**2


@dataclass(frozen=True)
class MonomialReport:
    """Result of sweeping monomial quadrature errors on a complex set."""

    t: int
    N: int
    d: int
    max_error: float
    worst_pair: tuple
    checked: int
    passed: bool
    tolerance: float


def _require_points(X):
    if not isinstance(X, RealPointSet):
        raise TypeError("expected a RealPointSet")


def _variational_evaluator(t, m, symmetric):
    """The search objective on S^m: rows X -> (V, ambient gradient).

    V = (1/n^2) sum_{i,j} psi_t(x_i . x_j) with the scaled zonal kernel
    (its symmetric variant for the generators of a symmetric set), and row i
    of the gradient is (2/n^2) sum_j psi'(x_i . x_j) x_j. The kernel is
    built once per evaluator.
    """
    kernel = ZonalKernel(t, m, symmetric_variant=symmetric)

    def evaluate(X):
        n = X.shape[0]
        vals, ders = kernel(np.clip(X @ X.T, -1.0, 1.0))
        return float(np.sum(vals)) / n**2, (2.0 / n**2) * (ders @ X)

    return evaluate


def variational_value(X, t):
    """The variational design criterion V for degree t.

    V = (1/N^2) sum_{i,j} psi_t(x_i . x_j) with the scaled zonal kernel,
    taken as the V of is_spherical_design: the same number `verify`
    reports, never negative, and zero exactly on t-designs.
    """
    return is_spherical_design(X, t).V


def variational_gradient(X, t):
    """Tangential gradient of variational_value, one row per movable point.

    For a plain set this is the ambient partial (2/N^2) sum_j psi' x_j
    projected onto the tangent space at each x_i. For a symmetric set only
    the N/2 generators move (antipodes follow by the chain rule), and the
    returned rows are the gradients with respect to those generators.
    """
    _require_points(X)
    if t < 1:
        raise ValueError("t must be at least 1")
    gen = X.points[: X.npoints // 2] if X.symmetric else X.points
    _, grad = _variational_evaluator(t, X.m, X.symmetric)(gen)
    radial = np.sum(grad * gen, axis=1, keepdims=True)
    return grad - radial * gen


def per_degree_sums(X, t):
    """Raw exactness sums W_ell = sum_{i,j} P_ell(x_i . x_j), ell = 1..t.

    Each W_ell is N^2 times the squared norm of the degree-ell harmonic
    average, so a t-design is characterized by all of them vanishing.
    """
    _require_points(X)
    if not 1 <= t <= _MAX_DEGREE:
        raise ValueError(f"t must be in 1..{_MAX_DEGREE}")
    # row sums of each degree as the recurrence yields it, per Gram row block
    # so memory stays a few blocks whatever N and t are; then one fsum each
    rowsums = np.empty((t + 1, X.npoints))
    for rows, gram in _gram_blocks(X.points, X.points):
        np.clip(gram, -1.0, 1.0, out=gram)
        for ell, p in enumerate(_gegenbauer(t, X.m, gram)):
            np.sum(p, axis=1, out=rowsums[ell, rows])
    return np.array([fsum(r) for r in rowsums[1:]])


def is_spherical_design(X, t, tol=1e-12):
    """Check the real design property at degree t; returns a DesignReport."""
    if not 0.0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    W = per_degree_sums(X, t)
    nsq = X.npoints**2
    V = fsum(
        dim_harm(X.m, ell) * max(float(w), 0.0)
        for ell, w in enumerate(W, start=1)
    ) / nsq
    return DesignReport(
        t=t,
        N=X.npoints,
        V=V,
        per_degree=W,
        is_design=bool(np.max(W) / nsq <= tol),
        tolerance=tol,
    )


def _rising(x, n):
    return prod((x + i for i in range(n)), start=Fraction(1))


def _dirichlet_moment(kappa, a):
    """E[prod_j w_j^a_j] for w ~ Dirichlet(kappa, ..., kappa), exactly.

    prod_j (kappa)_{a_j} / (len(a) kappa)_{|a|} with rising factorials, as a
    Fraction. The squared coordinates of a uniform point on the unit sphere
    in R^dim follow this law with kappa = 1/2, the squared moduli of one in
    C^d with kappa = 1.
    """
    kappa = Fraction(kappa)
    num = prod((_rising(kappa, aj) for aj in a), start=Fraction(1))
    return num / _rising(len(a) * kappa, sum(a))


def real_sphere_moment(dim, gamma):
    """Exact uniform-measure moment of x^gamma on the unit sphere in R^dim:
    zero if any exponent is odd, else the Dirichlet(1/2) moment of gamma/2."""
    if any(g % 2 for g in gamma):
        return 0.0
    return float(_dirichlet_moment(Fraction(1, 2), [g // 2 for g in gamma]))


def complex_monomial_integral(d, alpha, beta):
    """Exact integral of z^alpha conj(z)^beta over the complex sphere in C^d.

    Zero unless alpha == beta; otherwise (d-1)! prod(alpha_j!) divided by
    (d-1+|alpha|)!, the Dirichlet(1) moment of alpha. Computed in exact
    rational arithmetic before conversion.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if d < 1 or len(alpha) != d or len(beta) != d:
        raise ValueError("alpha and beta must be length-d multi-indices")
    if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
        raise ValueError("multi-index entries must be nonnegative")
    if alpha != beta:
        return complex(0.0)
    return complex(float(_dirichlet_moment(1, alpha)))


def _compositions(total, slots):
    # lexicographically decreasing compositions of `total` into `slots` parts
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def monomial_exponents(slots, t):
    """All exponent vectors of length `slots` with total degree <= t, graded:
    degree 0 first, lexicographically decreasing within each degree."""
    return [c for total in range(t + 1) for c in _compositions(total, slots)]


def monomial_pairs(d, t):
    """All exponent pairs (alpha, beta) with |alpha| + |beta| <= t.

    Enumerated in graded lexicographic order of the concatenated exponent
    vector, so sweeps are deterministic and low degrees come first.
    """
    for combined in monomial_exponents(2 * d, t):
        yield combined[:d], combined[d:]


def _power_table(W, tmax):
    """pw[k, a, i] = W[i, k] ** a, a = 0..tmax, by repeated products."""
    pw = np.ones((W.shape[1], tmax + 1, W.shape[0]), dtype=W.dtype)
    for a in range(1, tmax + 1):
        pw[:, a] = pw[:, a - 1] * W.T
    return pw


def _row_blocks(E, n, dtype):
    """Exponent rows E (M, k) as blocks (rows, E[rows].T) whose factor
    tables over n nodes of this dtype fit the row-block budget."""
    slices = _row_slices(len(E), np.dtype(dtype).itemsize * E.shape[1] * n)
    return [(rows, E[rows].T) for rows in slices]


def _factors(pw, Et):
    """[k, r, i] = W[i, k] ** Et[k, r], factor k of monomial r at node i."""
    return pw[np.arange(len(pw))[:, None], Et]


def _monomial_means(pw, blocks):
    """Node mean of every monomial of the blocks, in row order."""
    return np.concatenate([_factors(pw, Et).prod(0).mean(1) for _, Et in blocks])


def verify_triangular_design(Z, t, tol=1e-10):
    """Sweep every monomial z^alpha conj(z)^beta with |alpha|+|beta| <= t and
    compare the equal-weight average over Z against the exact integral.

    Every monomial is checked and the worst error is reported: the first
    largest in monomial_pairs order. Exactness on all monomials in the
    sweep is equivalent to the triangular design property at degree t.
    """
    if not isinstance(Z, ComplexPointSet):
        raise TypeError("expected a ComplexPointSet")
    if t < 1:
        raise ValueError("t must be at least 1")
    if not 0.0 < tol < inf:
        raise ValueError("tol must be positive and finite")
    N, d = Z.points.shape
    # exponent rows over (z, conj(z)), which monomial_pairs splits in half
    E = np.array(monomial_exponents(2 * d, t))
    pw = _power_table(np.hstack([Z.points, np.conj(Z.points)]), t)
    err = _monomial_means(pw, _row_blocks(E, N, complex))
    # only the integrals with alpha == beta are nonzero
    for r in np.flatnonzero((E[:, :d] == E[:, d:]).all(axis=1)):
        err[r] -= complex_monomial_integral(d, E[r, :d], E[r, d:])
    err = np.abs(err)
    worst = E[np.argmax(err)].tolist()  # the first largest, as Python ints
    return MonomialReport(
        t=t,
        N=N,
        d=d,
        max_error=float(err.max()),
        worst_pair=(tuple(worst[:d]), tuple(worst[d:])),
        checked=len(E),
        passed=bool(err.max() <= tol),
        tolerance=tol,
    )
