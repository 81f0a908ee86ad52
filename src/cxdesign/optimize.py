"""Two-step design search: drive the variational criterion V to zero from
many starts, then keep the feasible solution with the best mesh ratio.

The descent, the polish and the final map all go through one chart,
`_Chart`: the spherical angles of the free points, with the first
min(m, N) points rotation-normalized so the leading point sits at e_1, the
second in the (e_1, e_2) plane, and so on. That pins exactly dim SO(m+1)
angles at zero and removes the rotational degeneracy.

The quasi-Newton loop stops at the first accepted iterate with
V <= _POLISH_GATE, not when the per-degree sums cross the acceptance
tolerance: quadrature errors scale like the square root of V, so stopping
at a per-degree level of 1e-12 would leave monomial errors near 1e-6. From
the gate the Gauss-Newton polish on the moment residuals takes the defect
in a few steps to the level that makes the integration demo hit 1e-11;
running L-BFGS on to its stall near V ~ 1e-16 only repeats that work. A
restart that never reaches the gate runs to its stall or its budget and is
not polished. The tolerance is the verdict, not the stopping rule.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize

from .criteria import (
    _factors,
    _monomial_means,
    _power_table,
    _row_blocks,
    _variational_evaluator,
    is_spherical_design,
    monomial_exponents,
    real_sphere_moment,
)
from .metrics import CoveringOptions, MetricsReport, mesh_ratio
from .orthopoly import real_design_lower_bound
from .sphere import RealPointSet, _write_csv, load_real_pointset, symmetrize

__all__ = [
    "OptimizerConfig",
    "SolveResult",
    "initial_configuration",
    "solve_feasibility",
    "find_design",
]

# V at which the descent hands its iterate to the polish. Handing over at
# 1e-8 instead made the polish slower and the conftest searches no faster.
_POLISH_GATE = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    t: int
    m: int
    N: int
    symmetric: bool = False
    restarts: int = 1
    max_iterations: int = 100000
    feasibility_tol: float = 1e-12
    seed: int = 0
    init_file: str | None = None

    def __post_init__(self):
        if self.t < 1 or self.m < 2 or self.N < 2:
            raise ValueError("need t >= 1, m >= 2, N >= 2")
        if self.symmetric and self.N % 2:
            raise ValueError("symmetric mode needs an even N")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.feasibility_tol < np.inf:
            raise ValueError("feasibility_tol must be positive and finite")
        nstar = real_design_lower_bound(self.m, self.t)
        if self.N < nstar:
            warnings.warn(
                f"N={self.N} is below the design lower bound {nstar} for "
                f"t={self.t} on S^{self.m}; the search cannot succeed",
                stacklevel=2,
            )


@dataclass(frozen=True)
class SolveResult:
    """One restart's outcome.

    final_V and per_degree_max are the V and max_defect of the points'
    DesignReport at cfg.feasibility_tol, and converged is its verdict, so
    final_V is never negative.
    metrics is the separation / covering / mesh-ratio report of the points;
    mesh_ratio repeats its ratio.
    """

    points: RealPointSet
    final_V: float
    per_degree_max: float
    iterations: int
    converged: bool
    mesh_ratio: float
    metrics: MetricsReport


def _generator_count(cfg):
    return cfg.N // 2 if cfg.symmetric else cfg.N


def initial_configuration(cfg, restart=0):
    """Build the starting point set for the given restart index.

    With cfg.init_file set, the start is that SDF file (the same for every
    restart); otherwise it is normalized Gaussian vectors drawn from
    (cfg.seed, restart). Symmetric configurations generate N/2 points and
    append exact antipodes.
    """
    n = _generator_count(cfg)
    if cfg.init_file is None:
        rng = np.random.default_rng((cfg.seed, restart))
        G = rng.standard_normal((n, cfg.m + 1))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
    else:
        X, _ = load_real_pointset(cfg.init_file)
        if X.m != cfg.m:
            raise ValueError(
                f"init file lives on S^{X.m}, config expects S^{cfg.m}"
            )
        if cfg.symmetric and X.symmetric and X.npoints == cfg.N:
            G = np.array(X.points[:n])
        elif X.npoints == n:
            G = np.array(X.points)
        else:
            raise ValueError("init file size does not match N")
    return _full_pointset(cfg, G)


def _angles_to_points(phi):
    """Cartesian coordinates on S^m from rows of m spherical angles.

    x_1 = cos(phi_1), x_k = cos(phi_k) prod_{j<k} sin(phi_j), and the last
    coordinate is the full product of sines. phi is (n, m); the angles are
    not range-checked, because the optimizer iterates on them unconstrained.
    """
    n, m = phi.shape
    S = np.sin(phi)
    C = np.cos(phi)
    P = np.cumprod(S, axis=1)
    X = np.empty((n, m + 1))
    X[:, 0] = C[:, 0]
    X[:, 1:m] = C[:, 1:] * P[:, : m - 1]
    X[:, m] = P[:, m - 1]
    return X


def _points_to_angles(G):
    """Spherical angles of the unit rows of G, inverse of _angles_to_points.

    The first m - 1 angles lie in [0, pi] and the last in [0, 2 pi). Where
    the tail of a row vanishes its remaining angles are 0, the
    lexicographically smallest representative; elsewhere the round trip
    reproduces the point to ~1e-15.
    """
    n, dim = G.shape
    m = dim - 1
    # tail[:, k] = norm of G[:, k:], summed from the far end for accuracy;
    # it never grows with k, so a zero tail zeroes every later angle
    tail = np.sqrt(np.cumsum(G[:, ::-1] ** 2, axis=1)[:, ::-1])[:, :m]
    live = tail > 0.0
    phi = np.zeros((n, m))
    phi[live] = np.arccos(np.clip(G[:, :m][live] / tail[live], -1.0, 1.0))
    flip = live[:, m - 1] & (G[:, m] < 0.0)
    phi[flip, m - 1] = 2.0 * np.pi - phi[flip, m - 1]
    return phi


def _angle_gradient(phi, gX):
    """Contract an ambient gradient through the angle parametrization.

    Division-free backward recursion: with A_k = g_k cos(phi_k) (A_m = g_m)
    and B_j = A_{j+1} + sin(phi_{j+1}) B_{j+1}, the angle partial is
    dV/dphi_j = prefix_{j-1} * (cos(phi_j) B_j - sin(phi_j) g_j).
    phi is (n, m); gX is (..., n, m+1) with any leading batch axes, and each
    batch entry gets the same arithmetic as a call of its own.
    """
    n, m = phi.shape
    S = np.sin(phi)
    C = np.cos(phi)
    A = gX[..., :m] * C
    B = np.empty(gX.shape[:-1] + (m,))
    B[..., m - 1] = gX[..., m]
    for j in range(m - 2, -1, -1):
        B[..., j] = A[..., j + 1] + S[:, j + 1] * B[..., j + 1]
    prefix = np.ones((n, m))
    prefix[:, 1:] = np.cumprod(S[:, : m - 1], axis=1)
    return prefix * (C * B - S * gX[..., :m])


def _canonicalize(G):
    """Rotate so point i lies in span(e_1..e_{i+1}) with positive leading
    entries, zero the structural components exactly, and renormalize."""
    n, dim = G.shape
    k = min(dim, n)
    Q, R = np.linalg.qr(G[:k].T, mode="complete")
    signs = np.ones(dim)
    signs[:k][np.diag(R) < 0.0] = -1.0
    W = G @ (Q * signs)
    W[~np.tri(n, dim, dtype=bool)] = 0.0
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return W


class _Chart:
    """The pinned angle chart of canonicalized generators: row i moves in
    its first min(i, m) angles, the rest stay at their start values (exactly
    0 unless a generator lies in the span of earlier ones). points(theta)
    maps the free angles theta (theta0 at the start) to Cartesian rows;
    pull(theta, gX) turns ambient gradients (..., n, m+1) there into
    free-angle gradients (..., theta.size)."""

    def __init__(self, G):
        n, dim = G.shape
        self._phi = _points_to_angles(_canonicalize(G))
        self._free = np.flatnonzero(np.tri(n, dim - 1, -1, dtype=bool))
        self.theta0 = self._phi.ravel()[self._free]

    def _angles(self, theta):
        phi = self._phi.copy()
        phi.ravel()[self._free] = theta
        return phi

    def points(self, theta):
        return _angles_to_points(self._angles(theta))

    def pull(self, theta, gX):
        gphi = _angle_gradient(self._angles(theta), gX)
        return gphi.reshape(gX.shape[:-2] + (-1,))[..., self._free]


def _polish(cfg, chart, theta):
    """Gauss-Newton finish on the monomial moment residuals.

    Near a minimizer the variational value sits below the rounding noise of
    its own evaluation, so quasi-Newton steps stop improving around
    V ~ 1e-16. The moment residuals (mean of x^gamma minus the exact
    moment) are each O(1) quantities with O(eps) evaluation noise, so a
    least-squares pass on them pushes the true defect several orders
    further down, to the level the quadrature accuracy targets need.
    """
    dim = cfg.m + 1
    E = np.array([g for g in monomial_exponents(dim, cfg.t)
                  if sum(g) and not (cfg.symmetric and sum(g) % 2)])
    if E.size == 0 or theta.size == 0:
        return theta
    # least_squares is not invariant to row order at rounding level, so the
    # rows keep the order the polish was tuned with: graded, increasing
    # lexicographic within each degree
    E = E[np.lexsort(np.vstack([E.T[::-1], E.sum(axis=1)]))]
    targets = np.array([real_sphere_moment(dim, g) for g in E])
    n = _generator_count(cfg)
    # (dim, rows, n) factor tables in row blocks: at t = 13, N = 308 a
    # Jacobian took 27 ms at 13 MB peak in 1 MiB blocks, 46 ms at 37 MB in one
    blocks = _row_blocks(E, n, float)

    def table(theta_vec):
        return _power_table(chart.points(theta_vec), cfg.t)

    def residuals(theta_vec):
        return _monomial_means(table(theta_vec), blocks) - targets

    def jacobian(theta_vec):
        pw = table(theta_vec)
        J = np.empty((len(E), theta_vec.size))
        for rows, Et in blocks:
            F = _factors(pw, Et)
            ones = np.ones((1,) + F.shape[1:])
            # the product of the other factors: exclusive prefix times suffix
            pre = np.concatenate([ones, np.cumprod(F[:-1], axis=0)])
            suf = np.concatenate([np.cumprod(F[:0:-1], axis=0)[::-1], ones])
            dF = _factors(pw, np.maximum(Et - 1, 0))
            gX = (Et[:, :, None] / n) * pre * suf * dF
            # +0.0, not 0 * (negative product) = -0.0: the SVD in
            # least_squares sees zero signs
            gX[Et == 0] = 0.0
            J[rows] = chart.pull(theta_vec, np.moveaxis(gX, 0, -1))
        return J

    res = least_squares(
        residuals,
        theta,
        jac=jacobian,
        method="trf",
        tr_solver="exact",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=200,
    )
    return res.x


def _full_pointset(cfg, G):
    return symmetrize(G) if cfg.symmetric else RealPointSet(points=G)


def _result(cfg, X, report, iterations):
    """SolveResult of X from its DesignReport, plus its metrics."""
    metrics = mesh_ratio(X, CoveringOptions(seed=cfg.seed))
    return SolveResult(
        points=X,
        final_V=report.V,
        per_degree_max=report.max_defect,
        iterations=iterations,
        converged=report.is_design,
        mesh_ratio=metrics.mesh_ratio,
        metrics=metrics,
    )


def _on_sphere(G, which):
    """G, after checking that its rows are unit to 1e-14 (RuntimeError if not)."""
    drift = float(np.max(np.abs(np.linalg.norm(G, axis=1) - 1.0)))
    if not drift < 1e-14:
        raise RuntimeError(f"{which} points are off the unit sphere by {drift:.3e}")
    return G


def solve_feasibility(X0, cfg):
    """Descend V from X0 to the polish gate, then polish.

    The descent stops at the first iterate with V <= _POLISH_GATE and hands
    it to the Gauss-Newton polish; short of the gate it runs until the
    solver stalls or the budget runs out, and its end point is not polished.

    The returned verdict is is_spherical_design of the final points at
    cfg.feasibility_tol; an already-feasible X0 returns immediately.
    Accepted iterates never increase V and points stay exactly unit-norm
    through the angle parametrization (both checked, the norms at the start
    and at the end of the descent; a violation raises RuntimeError), and
    symmetric runs keep antipodal pairs exact by construction.
    """
    if not isinstance(X0, RealPointSet):
        raise TypeError("X0 must be a RealPointSet")
    if X0.m != cfg.m or X0.npoints != cfg.N:
        raise ValueError("X0 does not match the configuration dimensions")
    if cfg.symmetric and not X0.symmetric:
        raise ValueError("symmetric config needs a symmetric starting set")

    report = is_spherical_design(X0, cfg.t, cfg.feasibility_tol)
    if report.is_design:
        return _result(cfg, X0, report, iterations=0)

    chart = _Chart(X0.points[: _generator_count(cfg)])
    theta_final = chart.theta0
    iterations = 0
    if chart.theta0.size:
        # the kernel rejects a raw Gram entry past 1 + 1e-9 as a usage error;
        # a chart that drifts off the sphere is a fault, caught here first
        _on_sphere(chart.points(chart.theta0), "start")
        evaluate = _variational_evaluator(cfg.t, cfg.m, cfg.symmetric)

        def fun(theta):
            V, gX = evaluate(chart.points(theta))
            return V, chart.pull(theta, gX)

        previous = np.inf  # V of the last accepted iterate

        def on_iterate(intermediate_result):
            nonlocal previous
            V = intermediate_result.fun
            if V > previous + 1e-15 * max(1.0, abs(previous)):
                raise RuntimeError(
                    f"descent increased V from {previous:.3e} to {V:.3e}"
                )
            previous = V
            if V <= _POLISH_GATE:
                raise StopIteration

        res = minimize(
            fun,
            chart.theta0,
            jac=True,
            method="L-BFGS-B",
            callback=on_iterate,
            options=dict(
                maxiter=cfg.max_iterations,
                maxfun=10 * cfg.max_iterations,
                ftol=0.0,
                gtol=0.0,
                maxcor=25,
                maxls=60,
            ),
        )
        iterations = int(res.nit)
        theta_final = res.x
        # polish only when the descent reached the gate; a stalled positive
        # local minimum is not worth refining
        if res.fun <= _POLISH_GATE:
            theta_final = _polish(cfg, chart, theta_final)

    G_final = _on_sphere(chart.points(theta_final), "final")
    X = _full_pointset(cfg, G_final)
    report = is_spherical_design(X, cfg.t, cfg.feasibility_tol)
    return _result(cfg, X, report, iterations)


def _run_restart(args):
    cfg, restart = args
    X0 = initial_configuration(cfg, restart=restart)
    return solve_feasibility(X0, cfg)


def find_design(cfg, log_csv=None, threads=1):
    """Multistart search: best mesh ratio among converged restarts wins.

    Ties go to the earlier restart, and a restart whose points coincide
    (mesh ratio inf) ranks last. On S^7 and up the covering radius, and
    with it the mesh ratio that ranks the restarts, comes from a
    quasi-random net seeded with cfg.seed, so there the chosen restart
    depends on the covering seed as well as on the starts. If nothing
    converges, the result with the smallest V is returned with
    converged=False. log_csv, when given, receives one row per restart:
    restart, iterations, final_V, separation, covering, mesh_ratio.
    threads is the number of worker processes, 0 for one per core; it is
    capped at cfg.restarts, because the pool starts all its workers at once.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0")
    jobs = [(cfg, r) for r in range(cfg.restarts)]
    workers = min(threads or os.cpu_count() or 1, cfg.restarts)
    if workers == 1:
        results = [_run_restart(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_restart, jobs))

    if log_csv is not None:
        _write_csv(
            log_csv,
            ["restart", "iterations", "final_V", "separation", "covering",
             "mesh_ratio"],
            [[r, res.iterations, res.final_V, res.metrics.separation,
              res.metrics.covering, res.mesh_ratio] for r, res in enumerate(results)],
        )

    converged = [res for res in results if res.converged]
    if converged:
        return min(converged, key=lambda res: res.mesh_ratio)
    return min(results, key=lambda res: res.final_V)
