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
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, fsum

import numpy as np
from scipy.optimize import least_squares, minimize
from scipy.special import betaincinv

from .criteria import per_degree_sums
from .metrics import CoveringOptions, MetricsReport, mesh_ratio
from .orthopoly import ZonalKernel, dim_harm
from .sphere import RealPointSet, load_real_pointset, point_to_angles

__all__ = [
    "OptimizerConfig",
    "SolveResult",
    "initial_configuration",
    "solve_feasibility",
    "find_design",
    "real_design_lower_bound",
]

_INIT_STRATEGIES = ("random_uniform", "spiral_like", "file")


def real_design_lower_bound(m, t):
    """Smallest N a real t-design on S^m can possibly have."""
    k = t // 2
    if t % 2:
        return 2 * comb(m + k, m)
    return comb(m + k, m) + comb(m + k - 1, m)


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

    final_V is the variational criterion of the returned points, assembled
    from the per-degree sums as sum_ell Z(m, ell) max(W_ell, 0) / N^2. Each
    W_ell is N^2 times a squared norm, so clamping only removes rounding
    noise and final_V is never negative. per_degree_max is max_ell
    W_ell / N^2, the quantity the verdict compares against the tolerance.
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
        G = _points_from_angles(phi)
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
    if cfg.symmetric:
        return RealPointSet(points=np.vstack([G, -G]), symmetric=True)
    return RealPointSet(points=G)


def _points_from_angles(phi):
    """Vectorized angle-to-point map for an (n, m) array of angles."""
    n, m = phi.shape
    S = np.sin(phi)
    C = np.cos(phi)
    P = np.cumprod(S, axis=1)
    X = np.empty((n, m + 1))
    X[:, 0] = C[:, 0]
    if m > 1:
        X[:, 1:m] = C[:, 1:] * P[:, : m - 1]
    X[:, m] = P[:, m - 1]
    return X


def _angle_gradient(phi, gX):
    """Contract an ambient gradient through the angle parametrization.

    Division-free backward recursion: with A_k = g_k cos(phi_k) (A_m = g_m)
    and B_j = A_{j+1} + sin(phi_{j+1}) B_{j+1}, the angle partial is
    dV/dphi_j = prefix_{j-1} * (cos(phi_j) B_j - sin(phi_j) g_j).
    """
    n, m = phi.shape
    S = np.sin(phi)
    C = np.cos(phi)
    A = np.empty((n, m + 1))
    A[:, :m] = gX[:, :m] * C
    A[:, m] = gX[:, m]
    B = np.empty((n, m))
    B[:, m - 1] = A[:, m]
    for j in range(m - 2, -1, -1):
        B[:, j] = A[:, j + 1] + S[:, j + 1] * B[:, j + 1]
    prefix = np.ones((n, m))
    if m > 1:
        prefix[:, 1:] = np.cumprod(S[:, : m - 1], axis=1)
    return prefix * (C * B - S * gX[:, :m])


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


def _objective_factory(cfg, phi0, mask):
    n, m = phi0.shape
    kernel = ZonalKernel.create(cfg.t, cfg.m, symmetric_variant=cfg.symmetric)
    base = phi0.copy()
    flat_idx = np.flatnonzero(mask.ravel())

    def fun(theta):
        phi = base.copy()
        phi.ravel()[flat_idx] = theta
        X = _points_from_angles(phi)
        U = np.clip(X @ X.T, -1.0, 1.0)
        vals, ders = kernel(U)
        V = float(np.sum(vals)) / n**2
        gX = (2.0 / n**2) * (ders @ X)
        gphi = _angle_gradient(phi, gX)
        return V, gphi.ravel()[flat_idx]

    return fun


def _sphere_moment(dim, gamma):
    """Exact uniform-measure moment of x^gamma on the unit sphere in R^dim."""
    if any(g % 2 for g in gamma):
        return 0.0
    num = Fraction(1)
    for g in gamma:
        for odd in range(1, g, 2):
            num *= odd
    half_total = sum(gamma) // 2
    den = Fraction(1)
    for j in range(half_total):
        den *= dim + 2 * j
    return float(num / den)


def _moment_exponents(dim, t, even_only):
    out = []
    for total in range(1, t + 1):
        if even_only and total % 2:
            continue
        stack = [(total, ())]
        while stack:
            left, head = stack.pop()
            if len(head) == dim - 1:
                out.append(head + (left,))
                continue
            for take in range(left, -1, -1):
                stack.append((left - take, head + (take,)))
    return out


def _polish(cfg, base, mask, theta, flat_idx):
    """Gauss-Newton finish on the monomial moment residuals.

    Near a minimizer the variational value sits below the rounding noise of
    its own evaluation, so quasi-Newton steps stop improving around
    V ~ 1e-16. The moment residuals (mean of x^gamma minus the exact
    moment) are each O(1) quantities with O(eps) evaluation noise, so a
    least-squares pass on them pushes the true defect several orders
    further down, to the level the quadrature accuracy targets need.
    """
    exps = _moment_exponents(cfg.m + 1, cfg.t, even_only=cfg.symmetric)
    if not exps or theta.size == 0:
        return theta
    targets = np.array([_sphere_moment(cfg.m + 1, g) for g in exps])
    E = np.array(exps)
    n = base.shape[0]
    tmax = int(E.max())

    def build(theta_vec):
        phi = base.copy()
        phi.ravel()[flat_idx] = theta_vec
        X = _points_from_angles(phi)
        pw = np.ones((n, cfg.m + 1, tmax + 1))
        for a in range(1, tmax + 1):
            pw[:, :, a] = pw[:, :, a - 1] * X
        return phi, X, pw

    def residuals(theta_vec):
        _, _, pw = build(theta_vec)
        r = np.empty(len(exps))
        for row, gamma in enumerate(exps):
            prod = np.ones(n)
            for k, g in enumerate(gamma):
                if g:
                    prod = prod * pw[:, k, g]
            r[row] = np.mean(prod) - targets[row]
        return r

    def jacobian(theta_vec):
        phi, _, pw = build(theta_vec)
        J = np.empty((len(exps), theta_vec.size))
        dim = cfg.m + 1
        for row, gamma in enumerate(exps):
            cols = [pw[:, k, gamma[k]] for k in range(dim)]
            pre = np.ones((n, dim))
            for k in range(1, dim):
                pre[:, k] = pre[:, k - 1] * cols[k - 1]
            suf = np.ones((n, dim))
            for k in range(dim - 2, -1, -1):
                suf[:, k] = suf[:, k + 1] * cols[k + 1]
            gX = np.zeros((n, dim))
            for k, g in enumerate(gamma):
                if g:
                    gX[:, k] = (g / n) * pre[:, k] * suf[:, k] * pw[:, k, g - 1]
            J[row] = _angle_gradient(phi, gX).ravel()[flat_idx]
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
    if cfg.symmetric:
        return RealPointSet(points=np.vstack([G, -G]), symmetric=True)
    return RealPointSet(points=G)


def _result(cfg, X, W, iterations):
    """Verdict, V and metrics of X, given its per-degree sums W."""
    nsq = X.npoints**2
    defect = float(np.max(W)) / nsq
    V = fsum(
        dim_harm(cfg.m, ell) * max(float(w), 0.0)
        for ell, w in enumerate(W, start=1)
    ) / nsq
    report = mesh_ratio(X, CoveringOptions(seed=cfg.seed))
    return SolveResult(
        points=X,
        final_V=V,
        per_degree_max=defect,
        iterations=iterations,
        converged=defect <= cfg.feasibility_tol,
        mesh_ratio=report.mesh_ratio,
        metrics=report,
    )


def solve_feasibility(X0, cfg):
    """Descend V from X0 until the solver stalls or the budget runs out.

    The returned verdict compares the per-degree sums of the final points
    against cfg.feasibility_tol; an already-feasible X0 returns immediately.
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

    W0 = per_degree_sums(X0, cfg.t)
    if float(np.max(W0)) / cfg.N**2 <= cfg.feasibility_tol:
        return _result(cfg, X0, W0, iterations=0)

    n = _generator_count(cfg)
    G = _canonicalize(np.array(X0.points[:n]))
    phi0 = np.array([point_to_angles(row) for row in G])
    mask = _free_mask(n, cfg.m)
    fun = _objective_factory(cfg, phi0, mask)
    theta0 = phi0.ravel()[np.flatnonzero(mask.ravel())]

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
            flat_idx = np.flatnonzero(mask.ravel())
            theta_final = _polish(cfg, phi0, mask, theta_final, flat_idx)
    else:
        theta_final = theta0

    phi = phi0.copy()
    phi.ravel()[np.flatnonzero(mask.ravel())] = theta_final
    G_final = _points_from_angles(phi)
    drift = float(np.max(np.abs(np.linalg.norm(G_final, axis=1) - 1.0)))
    if not drift < 1e-14:
        raise RuntimeError(f"final points are off the unit sphere by {drift:.3e}")
    X = _full_pointset(cfg, G_final)
    return _result(cfg, X, per_degree_sums(X, cfg.t), iterations)


def _run_restart(args):
    cfg, restart = args
    X0 = initial_configuration(cfg, restart=restart)
    return restart, solve_feasibility(X0, cfg)


def find_design(cfg, log_csv=None, threads=1):
    """Multistart search: best mesh ratio among converged restarts wins.

    Ties go to the earlier restart. If nothing converges, the result with
    the smallest V is returned with converged=False. log_csv, when given,
    receives one row per restart: restart, iterations, final_V, separation,
    covering, mesh_ratio.
    """
    jobs = [(cfg, r) for r in range(cfg.restarts)]
    if threads == 1 or cfg.restarts == 1:
        outcomes = [_run_restart(job) for job in jobs]
    else:
        workers = threads if threads > 0 else None
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
