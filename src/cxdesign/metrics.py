"""Separation, covering radius, mesh ratio, and figure-data exports.

Complex point sets are measured through their real unfolding: the real part
of a Hermitian inner product equals the real inner product of the unfolded
vectors, so all three metrics transfer verbatim and agree bit for bit.

The covering radius comes from one of two sources, and both report the exact
min-distance at the best candidate they found, so the value is always a
certified lower bound on the true covering radius.

- The convex hull, on S^3 and S^5 (real dimension at most _HULL_MAX_DIM)
  when the hull contains the origin. The deep holes of points on a sphere
  are the vertices of their spherical Voronoi diagram, which are the unit
  outward normals of the hull's facets (Brown, "Voronoi diagrams from convex
  hulls", IPL 1979), so the largest min-distance over those normals is the
  covering radius up to rounding. The reported uncertainty is an estimate
  of that rounding, 1e-15 to 1e-14 in practice.
- A quasi-random net plus projected ascent, on S^7 and up, and for point
  sets whose hull misses the origin (too few points, or all in one closed
  hemisphere). The ascent starts from the best net points and every
  point's far pole, and only ever accepts steps that improve the exact
  objective. The reported uncertainty is the covering radius of the start
  net itself, bounded by pi * seeds**(-1/m).

_HULL_MAX_DIM is measured, not a knob. On a 2-core machine, for 3642 random
points, the hull path takes 0.12 s on S^3 and 7 s on S^5 (549k facets). On
S^7 the hull of only 500 random points has 1.26M facets and takes 28 s,
where the net is faster.

Memory stays bounded in N on the net path. Seeding draws the net _CHUNK
rows at a time and ranks each chunk by its nearest-point inner products
taken in row blocks of at most _BLOCK_BYTES, so it needs
O(_CHUNK * dim + _BLOCK_BYTES) whatever the point count. Refinement takes
the inner products of its N + _TOP_K starts in row blocks of the same size,
so it needs O((N + 48) * dim + _BLOCK_BYTES). The hull path holds the facet
list and evaluates the normals in the same row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.special import ndtri

from .sphere import ComplexPointSet, RealPointSet, _write_csv, complex_to_real

__all__ = [
    "CoveringOptions",
    "MetricsReport",
    "separation",
    "covering_estimate",
    "mesh_ratio",
    "sorted_inner_products",
    "stereographic_projection",
    "stereographic_inverse",
    "write_inner_products_csv",
    "write_covering_csv",
    "write_stereographic_csv",
]

_SEED_FACTOR = 4096
_SEED_CAP = 2**22
_CHUNK = 2**18
_TOP_K = 48
_BLOCK_BYTES = 2**20
_HULL_MAX_DIM = 6


@dataclass(frozen=True)
class CoveringOptions:
    """Knobs for the net path of covering_estimate.

    They apply to the quasi-random net and its ascent only (S^7 and up, and
    point sets whose hull misses the origin); the hull path reads none of
    them, but they are checked on construction either way.

    seeds: quasi-random start count; None means 4096*N, rounded up to a
    power of two for the digital net and capped at 2**22.
    """

    seeds: int | None = None
    refine_iters: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.seeds is not None and self.seeds < 1:
            raise ValueError("seeds must be positive")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")


@dataclass(frozen=True)
class MetricsReport:
    separation: float
    covering: float
    covering_uncertainty: float
    mesh_ratio: float
    N: int


def _real_matrix(X):
    if isinstance(X, ComplexPointSet):
        return complex_to_real(X.points)
    if isinstance(X, RealPointSet):
        return X.points
    raise TypeError("expected a RealPointSet or ComplexPointSet")


def separation(X):
    """Smallest pairwise geodesic distance, exact up to arccos rounding."""
    pts = _real_matrix(X)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("separation needs at least 2 points")
    gram = pts @ pts.T
    np.fill_diagonal(gram, -2.0)
    return float(np.arccos(np.clip(np.max(gram), -1.0, 1.0)))


def sorted_inner_products(X):
    """The N(N-1)/2 off-diagonal inner products, descending.

    Real inner products for real sets; real parts of Hermitian products for
    complex sets (identical numbers via the unfolding).
    """
    pts = _real_matrix(X)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    gram = pts @ pts.T
    iu = np.triu_indices(n, k=1)
    vals = gram[iu]
    return np.sort(vals)[::-1]


def _net_on_sphere(n, dim, engine):
    g = engine.random(n)
    # inverse normal CDF turns the digital net into a Gaussian net; rows
    # then normalize to the sphere (all in place: one n x dim array)
    np.clip(g, 1e-15, 1.0 - 1e-15, out=g)
    ndtri(g, out=g)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    g /= norms
    return g


def _max_inner(Y, pts):
    """Row maxima of Y @ pts.T, built in row blocks of at most _BLOCK_BYTES."""
    n = Y.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * pts.shape[0]))
    ptsT = np.ascontiguousarray(pts.T)
    block = np.empty((min(rows, n), pts.shape[0]))
    out = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        prod = np.matmul(Y[lo:hi], ptsT, out=block[: hi - lo])
        np.max(prod, axis=1, out=out[lo:hi])
    return out


def _exact_min_dist(Y, pts):
    # F(y) = min_i arccos(y . x_i), evaluated exactly for each row of Y; clip
    # and arccos are monotone, so they can follow the row maximum
    return np.arccos(np.clip(_max_inner(Y, pts), -1.0, 1.0))


def _top_starts(pts, seeds, seed):
    from scipy.stats import qmc  # the only user; loading it costs ~0.3 s

    n, dim = pts.shape
    engine = qmc.Sobol(d=dim, scramble=True, seed=seed)
    best_vals = np.full(_TOP_K, -1.0)
    best_pts = np.zeros((_TOP_K, dim))
    remaining = seeds
    while remaining > 0:
        take = min(_CHUNK, remaining)
        Y = _net_on_sphere(take, dim, engine)
        F = _exact_min_dist(Y, pts)
        vals = np.concatenate([best_vals, F])
        cand = np.vstack([best_pts, Y])
        order = np.argsort(vals)[::-1][:_TOP_K]
        best_vals = vals[order]
        best_pts = cand[order]
        remaining -= take
    return best_pts[best_vals >= 0.0]


def _refine(Y, pts, iters):
    """Vectorized projected ascent on the smoothed min-distance function.

    Softmin smoothing with a decreasing temperature handles the kinks where
    several points tie for nearest; every step is validated against the
    exact objective before acceptance.
    """
    taus = np.geomspace(0.5, 1e-10, max(iters, 2))
    F = _exact_min_dist(Y, pts)
    h = np.full(Y.shape[0], 0.05)
    rows = max(1, _BLOCK_BYTES // (8 * pts.shape[0]))
    G = np.empty_like(Y)
    for tau in taus[:iters]:
        for lo in range(0, Y.shape[0], rows):
            Yb = Y[lo : lo + rows]
            u = np.clip(Yb @ pts.T, -1.0, 1.0)
            d = np.arccos(u)
            dmin = np.min(d, axis=1, keepdims=True)
            w = np.exp(-(d - dmin) / tau)
            w /= np.sum(w, axis=1, keepdims=True)
            # d/dy arccos(y.x) = -x / sqrt(1 - (y.x)^2), then project to tangent
            coef = w / np.sqrt(np.maximum(1.0 - u * u, 1e-30))
            Gb = -(coef @ pts)
            Gb -= np.sum(Gb * Yb, axis=1, keepdims=True) * Yb
            G[lo : lo + rows] = Gb
        gnorm = np.linalg.norm(G, axis=1)
        alive = gnorm > 1e-17
        if not np.any(alive):
            break
        U = np.zeros_like(Y)
        U[alive] = G[alive] / gnorm[alive, None]
        accepted = np.zeros(Y.shape[0], dtype=bool)
        step = h.copy()
        for _ in range(30):
            trying = alive & ~accepted & (step > 1e-15)
            if not np.any(trying):
                break
            T = np.cos(step[trying, None]) * Y[trying] + np.sin(
                step[trying, None]
            ) * U[trying]
            T /= np.linalg.norm(T, axis=1, keepdims=True)
            Ft = _exact_min_dist(T, pts)
            better = Ft > F[trying]
            idx = np.flatnonzero(trying)
            good = idx[better]
            Y[good] = T[better]
            F[good] = Ft[better]
            accepted[good] = True
            step[idx[~better]] *= 0.5
        h[accepted] = np.minimum(step[accepted] * 1.5, 0.5)
        h[~accepted] = np.maximum(h[~accepted] * 0.5, 1e-15)
    return F


def _net_candidates(pts, opts):
    """Refined ascent values from the best net points and every far pole.

    Returns (values, uncertainty): one exact min-distance per ascent start,
    in start order, and the resolution of the net actually drawn.
    """
    seeds = _SEED_FACTOR * pts.shape[0] if opts.seeds is None else opts.seeds
    seeds = min(_SEED_CAP, 2 ** int(np.ceil(np.log2(seeds))))
    starts = _top_starts(pts, seeds, opts.seed)
    Y = np.vstack([starts, -pts])
    m = pts.shape[1] - 1
    return _refine(Y, pts, opts.refine_iters), np.pi * seeds ** (-1.0 / m)


def _hull_candidates(pts):
    """Exact min-distance at every facet normal of the convex hull.

    Returns (values, uncertainty), one value per facet, or None when Qhull
    cannot build a full-dimensional hull or the hull misses the origin (then
    the deepest hole may lie off every facet normal). The uncertainty is an
    estimate of the rounding, not a bound: the largest spread of the
    distances from a facet's normal to the facet's own vertices, which the
    exact normal would reach at one distance, plus a few ulps of pi for the
    arccos.
    """
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    # facets satisfy normal . x + offset <= 0 on the hull; the origin is
    # strictly inside when every offset is negative
    if np.max(hull.equations[:, -1]) >= 0.0:
        return None
    normals = hull.equations[:, :-1]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    values = _exact_min_dist(normals, pts)
    dim = pts.shape[1]
    rows = max(1, _BLOCK_BYTES // (8 * dim * dim))
    spread = 0.0
    for lo in range(0, normals.shape[0], rows):
        own = pts[hull.simplices[lo : lo + rows]]
        u = np.einsum("fd,fkd->fk", normals[lo : lo + rows], own)
        d = np.arccos(np.clip(u, -1.0, 1.0))
        spread = max(spread, float(np.max(np.ptp(d, axis=1))))
    return values, spread + 2.0 * np.spacing(np.pi)


def _candidates(pts, opts):
    """Covering candidates and their uncertainty from the hull or the net.

    Returns (values, uncertainty): one exact min-distance per candidate.
    """
    if pts.shape[1] <= _HULL_MAX_DIM:
        found = _hull_candidates(pts)
        if found is not None:
            return found
    return _net_candidates(pts, opts)


def covering_estimate(X, opts=None):
    """Estimate the covering radius; returns (value, uncertainty).

    The value is a certified lower bound: the exact min-distance at the best
    candidate. On the hull path (S^3 and S^5 with the origin inside the hull)
    it is the covering radius up to rounding and the uncertainty estimates
    that rounding (1e-15 to 1e-14 in practice). On the net path the uncertainty is the
    resolution of the start net, pi * seeds**(-1/m); the refinement
    typically does far better, but only the net density is guaranteed.
    """
    F, uncertainty = _candidates(_real_matrix(X), opts or CoveringOptions())
    return float(np.max(F)), float(uncertainty)


def mesh_ratio(X, opts=None):
    """Separation, covering, and their ratio 2*covering/separation, which
    is inf when two points coincide (separation 0)."""
    sep = separation(X)
    cov, unc = covering_estimate(X, opts)
    return MetricsReport(
        separation=sep,
        covering=cov,
        covering_uncertainty=unc,
        mesh_ratio=2.0 * cov / sep if sep > 0.0 else float("inf"),
        N=_real_matrix(X).shape[0],
    )


def _pole_frame(pole):
    pole = np.asarray(pole, dtype=float)
    if pole.shape != (4,):
        raise ValueError("pole must be a point on S^3")
    if abs(np.linalg.norm(pole) - 1.0) > 1e-10:
        raise ValueError("pole must be a unit vector")
    # Householder reflection taking the pole to e_1; identity when it is e_1
    v = pole - np.array([1.0, 0.0, 0.0, 0.0])
    nv = np.dot(v, v)
    H = np.eye(4)
    if nv > 1e-30:
        H -= 2.0 * np.outer(v, v) / nv
    return H


def stereographic_projection(X, pole=(1.0, 0.0, 0.0, 0.0)):
    """Stereographic image in R^3 of points on S^3 from the given pole.

    The pole's antipode maps to the origin and the orthogonal equator maps
    to the unit sphere. Points may not coincide with the pole.
    """
    pts = _real_matrix(X)
    if pts.shape[1] != 4:
        raise ValueError("stereographic projection is defined here for S^3 only")
    H = _pole_frame(pole)
    W = pts @ H.T
    denom = 1.0 - W[:, 0]
    if np.min(np.abs(denom)) < 1e-12:
        raise ValueError("a point coincides with the projection pole")
    return W[:, 1:] / denom[:, None]


def stereographic_inverse(Y, pole=(1.0, 0.0, 0.0, 0.0)):
    """Inverse of stereographic_projection; returns points on S^3."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y.reshape(1, -1)
    if Y.shape[1] != 3:
        raise ValueError("expected R^3 coordinates")
    H = _pole_frame(pole)
    r2 = np.sum(Y * Y, axis=1)
    W = np.empty((Y.shape[0], 4))
    W[:, 0] = (r2 - 1.0) / (r2 + 1.0)
    W[:, 1:] = 2.0 * Y / (r2 + 1.0)[:, None]
    return W @ H


def write_inner_products_csv(path, X):
    """Columns: rank, inner_product (descending)."""
    vals = sorted_inner_products(X)
    return _write_csv(path, ["rank", "inner_product"], enumerate(vals, start=1))


def write_covering_csv(path, X, opts=None):
    """Columns: rank, local_max_radians for every covering candidate.

    Candidates are the hull's facet normals (the spherical Voronoi vertices)
    on the hull path and the refined ascent starts on the net path. The
    first row is the covering estimate itself; on the net path the spread
    of the rest shows how many distinct basins the search explored.
    """
    F, _ = _candidates(_real_matrix(X), opts or CoveringOptions())
    F = np.sort(F)[::-1]
    return _write_csv(path, ["rank", "local_max_radians"], enumerate(F, start=1))


def write_stereographic_csv(path, X, pole=(1.0, 0.0, 0.0, 0.0)):
    """Columns: y1, y2, y3, one row per point, same order as the input."""
    return _write_csv(path, ["y1", "y2", "y3"], stereographic_projection(X, pole))
