"""Two-step design search: drive the variational criterion V to zero from
many starts, then keep the feasible solution with the best mesh ratio.

The descent runs over the spherical angles of the free points, with the
first min(m, N) points rotation-normalized so the leading point sits at
e_1, the second in the (e_1, e_2) plane, and so on. That pins exactly
dim SO(m+1) angles at zero and removes the rotational degeneracy.

The quasi-Newton loop is run until it can no longer make progress rather
than until the per-degree sums cross the acceptance tolerance: quadrature
errors scale like the square root of V, so stopping at a per-degree level
of 1e-12 would leave monomial errors near 1e-6. Stalling instead lands V
at the rounding floor (~1e-24 on desk-scale problems), which is what makes
the integration demo hit 1e-11. The tolerance is the verdict, not the
stopping rule.
"""

from __future__ import annotations

import csv
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize
from scipy.special import betaincinv

from .criteria import is_spherical_design, monomial_exponents, real_sphere_moment
from .metrics import CoveringOptions, MetricsReport, mesh_ratio
from .orthopoly import ZonalKernel, real_design_lower_bound
from .sphere import (
    RealPointSet,
    _angles_to_points,
    load_real_pointset,
    point_to_angles,
    symmetrize,
)

__all__ = [
    "OptimizerConfig",
    "SolveResult",
    "initial_configuration",
    "solve_feasibility",
    "find_design",
]

_INIT_STRATEGIES = ("random_uniform", "spiral_like", "file")
# Byte budget per row block of the polish's (dim, rows, n) monomial tables,
# so its memory beyond the Jacobian stays flat in the row count (24615 rows
# at symmetric t = 31 on S^3). At t = 13, N = 308 a Jacobian took 27 ms at
# 13 MB peak this way, 46 ms at 37 MB as one block.
_TABLE_BYTES = 1 << 20


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
    init_strategy: str = "random_uniform"
    init_file: str | None = None

    def __post_init__(self):
        if self.t < 1 or self.m < 1 or self.N < 2:
            raise ValueError("need t >= 1, m >= 1, N >= 2")
        if self.symmetric and self.N % 2:
            raise ValueError("symmetric mode needs an even N")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.feasibility_tol <= 0.0:
            raise ValueError("feasibility_tol must be positive")
        if self.init_strategy not in _INIT_STRATEGIES:
            raise ValueError(f"init_strategy must be one of {_INIT_STRATEGIES}")
        if self.init_strategy == "file" and not self.init_file:
            raise ValueError("init_strategy 'file' needs init_file")
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


def _kronecker_gammas(m):
    # powers of the root of x**(m+1) = x + 1, the standard generalization
    # of the golden-ratio lattice to m dimensions
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (m + 1))
    return np.array([(1.0 / phi) ** (k + 1) % 1.0 for k in range(m)])


def _angles_from_unit_cube(U):
    """Map rows of U in [0,1)^m to spherical angles with the uniform law."""
    n, m = U.shape
    phi = np.empty_like(U)
    for k in range(m - 1):
        a = 0.5 * (m - k)
        c = 2.0 * betaincinv(a, a, U[:, k]) - 1.0
        phi[:, k] = np.arccos(c)
    phi[:, m - 1] = 2.0 * np.pi * U[:, m - 1]
    return phi


def initial_configuration(cfg, restart=0):
    """Build the starting point set for the given restart index.

    random_uniform draws normalized Gaussian vectors; spiral_like places a
    Kronecker lattice on the angle cube and pushes it through the inverse
    CDF of each angle's marginal, giving a well-spread deterministic
    configuration (randomly shifted on later restarts); file loads an SDF
    file (the same start for every restart). Symmetric configurations
    generate N/2 points and append exact antipodes.
    """
    n = _generator_count(cfg)
    rng = np.random.default_rng((cfg.seed, restart))
    if cfg.init_strategy == "random_uniform":
        G = rng.standard_normal((n, cfg.m + 1))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
    elif cfg.init_strategy == "spiral_like":
        gammas = _kronecker_gammas(cfg.m)
        shift = np.full(cfg.m, 0.5) if restart == 0 else rng.random(cfg.m)
        idx = np.arange(1, n + 1)[:, None]
        U = (idx * gammas[None, :] + shift[None, :]) % 1.0
        phi = _angles_from_unit_cube(U)
        G = _angles_to_points(phi)
    else:
        X, _ = load_real_pointset(cfg.init_file)
        if X.m != cfg.m:
            raise ValueError(
                f"init file lives on S^{X.m}, config expects S^{cfg.m}"
            )
        if cfg.symmetric:
            if X.npoints == cfg.N and X.symmetric:
                G = np.array(X.points[: n])
            elif X.npoints == n:
                G = np.array(X.points)
            else:
                raise ValueError("init file size does not match N")
        else:
            if X.npoints != cfg.N:
                raise ValueError("init file size does not match N")
            G = np.array(X.points)
    return _full_pointset(cfg, G)


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
    if m > 1:
        prefix[:, 1:] = np.cumprod(S[:, : m - 1], axis=1)
    return prefix * (C * B - S * gX[..., :m])


def _free_mask(n, m):
    # row i moves in its first min(i, m) angles; the rest are pinned at 0
    mask = np.zeros((n, m), dtype=bool)
    for i in range(n):
        mask[i, : min(i, m)] = True
    return mask


def _canonicalize(G):
    """Rotate so point i lies in span(e_1..e_{i+1}) with positive leading
    entries, zero the structural components exactly, and renormalize."""
    n, dim = G.shape
    k = min(dim, n)
    Q, R = np.linalg.qr(G[:k].T, mode="complete")
    signs = np.ones(dim)
    for i in range(k):
        if R[i, i] < 0.0:
            signs[i] = -1.0
    Q = Q * signs[None, :]
    W = G @ Q
    for i in range(min(n, dim - 1)):
        W[i, i + 1 :] = 0.0
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return W


def _objective_factory(cfg, phi0, flat_idx):
    n, m = phi0.shape
    kernel = ZonalKernel(cfg.t, cfg.m, symmetric_variant=cfg.symmetric)
    base = phi0.copy()

    def fun(theta):
        phi = base.copy()
        phi.ravel()[flat_idx] = theta
        X = _angles_to_points(phi)
        U = np.clip(X @ X.T, -1.0, 1.0)
        vals, ders = kernel(U)
        V = float(np.sum(vals)) / n**2
        gX = (2.0 / n**2) * (ders @ X)
        gphi = _angle_gradient(phi, gX)
        return V, gphi.ravel()[flat_idx]

    return fun


def _polish(cfg, base, theta, flat_idx):
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
    n = base.shape[0]
    tmax = int(E.max())
    coord = np.arange(dim)[:, None]
    step = max(1, _TABLE_BYTES // (8 * dim * n))
    blocks = [(lo, E[lo : lo + step].T) for lo in range(0, len(E), step)]

    def build(theta_vec):
        phi = base.copy()
        phi.ravel()[flat_idx] = theta_vec
        X = _angles_to_points(phi)
        pw = np.ones((dim, tmax + 1, n))
        for a in range(1, tmax + 1):
            pw[:, a] = pw[:, a - 1] * X.T
        return phi, pw

    # for a block of rows Et (dim, rows), pw[coord, Et][k, r, i] is
    # x_ik ** Et[k, r], coordinate k's factor of monomial r
    def residuals(theta_vec):
        _, pw = build(theta_vec)
        means = [pw[coord, Et].prod(axis=0).mean(axis=1) for _, Et in blocks]
        return np.concatenate(means) - targets

    def jacobian(theta_vec):
        phi, pw = build(theta_vec)
        J = np.empty((len(E), theta_vec.size))
        for lo, Et in blocks:
            F = pw[coord, Et]
            ones = np.ones((1,) + F.shape[1:])
            # the product of the other factors: exclusive prefix times suffix
            pre = np.concatenate([ones, np.cumprod(F[:-1], axis=0)])
            suf = np.concatenate([np.cumprod(F[:0:-1], axis=0)[::-1], ones])
            dF = pw[coord, np.maximum(Et - 1, 0)]
            gX = (Et[:, :, None] / n) * pre * suf * dF
            # +0.0, not 0 * (negative product) = -0.0: the SVD in
            # least_squares sees zero signs
            gX[Et == 0] = 0.0
            rows = _angle_gradient(phi, np.moveaxis(gX, 0, -1))
            J[lo : lo + Et.shape[1]] = rows.reshape(Et.shape[1], -1)[:, flat_idx]
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


def solve_feasibility(X0, cfg):
    """Descend V from X0 until the solver stalls or the budget runs out.

    The returned verdict is is_spherical_design of the final points at
    cfg.feasibility_tol; an already-feasible X0 returns immediately.
    Accepted iterates never increase V and points stay exactly unit-norm
    through the angle parametrization (both checked; a violation raises
    RuntimeError), and symmetric runs keep antipodal pairs exact by
    construction.
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

    n = _generator_count(cfg)
    G = _canonicalize(np.array(X0.points[:n]))
    phi0 = np.array([point_to_angles(row) for row in G])
    flat_idx = np.flatnonzero(_free_mask(n, cfg.m).ravel())
    fun = _objective_factory(cfg, phi0, flat_idx)
    theta0 = phi0.ravel()[flat_idx]

    iterations = 0
    if theta0.size:
        history = []
        cache = {}

        def wrapped(theta):
            V, g = fun(theta)
            if len(cache) > 64:
                cache.clear()
            cache[theta.tobytes()] = V
            return V, g

        def on_iterate(theta):
            V = cache.get(theta.tobytes())
            if V is None:
                V = fun(theta)[0]
            if history and V > history[-1] + 1e-15 * max(1.0, abs(history[-1])):
                raise RuntimeError(
                    f"descent increased V from {history[-1]:.3e} to {V:.3e}"
                )
            history.append(V)

        res = minimize(
            wrapped,
            theta0,
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
        # polish only when the descent actually reached the basin floor;
        # a stalled positive local minimum is not worth refining
        if res.fun <= 1e-9:
            theta_final = _polish(cfg, phi0, theta_final, flat_idx)
    else:
        theta_final = theta0

    phi = phi0.copy()
    phi.ravel()[flat_idx] = theta_final
    G_final = _angles_to_points(phi)
    drift = float(np.max(np.abs(np.linalg.norm(G_final, axis=1) - 1.0)))
    if not drift < 1e-14:
        raise RuntimeError(f"final points are off the unit sphere by {drift:.3e}")
    X = _full_pointset(cfg, G_final)
    report = is_spherical_design(X, cfg.t, cfg.feasibility_tol)
    return _result(cfg, X, report, iterations)


def _run_restart(args):
    cfg, restart = args
    X0 = initial_configuration(cfg, restart=restart)
    return restart, solve_feasibility(X0, cfg)


def find_design(cfg, log_csv=None, threads=1):
    """Multistart search: best mesh ratio among converged restarts wins.

    Ties go to the earlier restart. If nothing converges, the result with
    the smallest V is returned with converged=False. log_csv, when given,
    receives one row per restart: restart, iterations, final_V, separation,
    covering, mesh_ratio. threads is the number of worker processes, 0 for
    one per core; it is capped at cfg.restarts, because the pool starts all
    its workers at once.
    """
    if threads < 0:
        raise ValueError("threads must be >= 0")
    jobs = [(cfg, r) for r in range(cfg.restarts)]
    workers = min(threads or os.cpu_count() or 1, cfg.restarts)
    if workers == 1:
        outcomes = [_run_restart(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_restart, jobs))
    outcomes.sort(key=lambda pair: pair[0])
    results = [res for _, res in outcomes]

    if log_csv is not None:
        with open(log_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["restart", "iterations", "final_V", "separation",
                 "covering", "mesh_ratio"]
            )
            for r, res in outcomes:
                writer.writerow(
                    [r, res.iterations, f"{res.final_V:.16e}",
                     f"{res.metrics.separation:.16e}",
                     f"{res.metrics.covering:.16e}",
                     f"{res.mesh_ratio:.16e}"]
                )

    converged = [res for res in results if res.converged]
    if converged:
        return min(converged, key=lambda res: res.mesh_ratio)
    return min(results, key=lambda res: res.final_V)
