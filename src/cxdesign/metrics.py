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
  objective. The reported uncertainty is the net's nominal resolution,
  pi * seeds**(-1/m), which is not a proven bound for this net.

_HULL_MAX_DIM is measured, not a knob. On a 2-core machine, for 3642 random
points, the hull path takes 0.12 s on S^3 and 7 s on S^5 (549k facets). On
S^7 the hull of only 500 random points has 1.26M facets and takes 28 s,
where the net is faster.

Memory stays bounded in N: every inner product comes from
sphere._gram_blocks, in row blocks of at most sphere._BLOCK_BYTES, so
separation needs O(N * dim + _BLOCK_BYTES), seeding O(_CHUNK * dim +
_BLOCK_BYTES) as it draws the net _CHUNK rows at a time, and refinement of
its N + _TOP_K starts O((N + 48) * dim + _BLOCK_BYTES). The hull path
holds the facet list and evaluates the normals in the same row blocks, and
sorted_inner_products holds its N(N - 1)/2 outputs and one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.special import ndtri

from .sphere import (
    ComplexPointSet,
    RealPointSet,
    _gram_blocks,
    _row_slices,
    _write_csv,
    complex_to_real,
)

__all__ = [
    "CoveringOptions",
    "MetricsReport",
    "separation",
    "covering_estimate",
    "mesh_ratio",
    "sorted_inner_products",
    "stereographic_projection",
    "write_inner_products_csv",
    "write_stereographic_csv",
]

_SEED_FACTOR = 4096
_SEED_CAP = 2**22
_CHUNK = 2**18
_TOP_K = 48
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
    """Smallest pairwise geodesic distance, from the largest inner product.

    arccos cannot resolve angles whose inner product is within rounding of
    1 (coincident points give 1.5e-8), so there the pairs tied with the
    largest entry are measured by their chords, 2 arcsin(|x - y| / 2), and
    the smallest wins: coincident points give exactly 0.
    """
    pts = _real_matrix(X)
    if pts.shape[0] < 2:
        raise ValueError("separation needs at least 2 points")
    top = np.max(_max_inner(pts, pts, skip_self=True))
    # inner products of unit vectors in R^dim round by up to ~dim/2 ulps
    tie = pts.shape[1] * np.finfo(float).eps
    if top < 1.0 - tie:
        return float(np.arccos(np.clip(top, -1.0, 1.0)))
    chord = np.inf
    for rows, gram in _gram_blocks(pts, pts, skip_self=True):
        i, j = np.nonzero(gram >= top - tie)
        chord = np.min(np.linalg.norm(pts[rows][i] - pts[j], axis=1), initial=chord)
    return 2.0 * float(np.arcsin(0.5 * chord))


def sorted_inner_products(X):
    """The N(N-1)/2 off-diagonal inner products, descending.

    Real inner products for real sets; real parts of Hermitian products for
    complex sets (identical numbers via the unfolding).
    """
    pts = _real_matrix(X)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    # upper-triangle rows copied out of each Gram block and sorted in place:
    # the output is the only N^2-sized array
    vals = np.empty(n * (n - 1) // 2)
    end = 0
    for rows, gram in _gram_blocks(pts, pts):
        for i, row in enumerate(gram, start=rows.start):
            vals[end:end + n - 1 - i] = row[i + 1:]
            end += n - 1 - i
    vals.sort()
    return vals[::-1]


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


def _max_inner(Y, pts, skip_self=False):
    """Row maxima of Y @ pts.T, taken over its Gram row blocks."""
    out = np.empty(Y.shape[0])
    for rows, block in _gram_blocks(Y, pts, skip_self):
        np.max(block, axis=1, out=out[rows])
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
    G = np.empty_like(Y)
    for tau in taus[:iters]:
        for rows, u in _gram_blocks(Y, pts):
            Yb = Y[rows]
            np.clip(u, -1.0, 1.0, out=u)
            d = np.arccos(u)
            dmin = np.min(d, axis=1, keepdims=True)
            w = np.exp(-(d - dmin) / tau)
            w /= np.sum(w, axis=1, keepdims=True)
            # d/dy arccos(y.x) = -x / sqrt(1 - (y.x)^2), then project to tangent
            coef = w / np.sqrt(np.maximum(1.0 - u * u, 1e-30))
            Gb = -(coef @ pts)
            Gb -= np.sum(Gb * Yb, axis=1, keepdims=True) * Yb
            G[rows] = Gb
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
    in start order, and the nominal resolution of the net actually drawn.
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
    spread = 0.0
    for rows in _row_slices(normals.shape[0], 8 * dim * dim):
        own = pts[hull.simplices[rows]]
        u = np.einsum("fd,fkd->fk", normals[rows], own)
        d = np.arccos(np.clip(u, -1.0, 1.0))
        spread = max(spread, float(np.max(np.ptp(d, axis=1))))
    return values, spread + 2.0 * np.spacing(np.pi)


def covering_estimate(X, opts=None):
    """Estimate the covering radius; returns (value, uncertainty).

    The value is a certified lower bound: the exact min-distance at the best
    candidate. On the hull path (S^3 and S^5 with the origin inside the hull)
    it is the covering radius up to rounding and the uncertainty estimates
    that rounding (1e-15 to 1e-14 in practice). On the net path it is the
    start net's nominal resolution pi * seeds**(-1/m), not a proven bound;
    the refinement typically does far better.
    """
    pts = _real_matrix(X)
    found = _hull_candidates(pts) if pts.shape[1] <= _HULL_MAX_DIM else None
    if found is None:
        found = _net_candidates(pts, opts or CoveringOptions())
    F, uncertainty = found
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


def stereographic_projection(X, pole):
    """Stereographic image in R^3 of points on S^3 from the given pole.

    The pole's antipode maps to the origin and the orthogonal equator maps
    to the unit sphere. Points may not coincide with the pole; the search
    puts every design's first point at e_1, so no pole is a safe default.
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


def write_inner_products_csv(path, X):
    """Columns: rank, inner_product (descending)."""
    vals = sorted_inner_products(X)
    return _write_csv(path, ["rank", "inner_product"], enumerate(vals, start=1))


def write_stereographic_csv(path, X, pole):
    """Columns: y1, y2, y3, one row per point, same order as the input."""
    return _write_csv(path, ["y1", "y2", "y3"], stereographic_projection(X, pole))
