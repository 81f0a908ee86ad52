"""Feasibility search: initialization, parametrization, descent, verdicts.

Oracles: hand-computed lower-bound values, central finite differences for
the polish Jacobian, direct per-row moment defects for its residuals, and
the criteria module's independent verdict on returned configurations.
"""

import csv
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from cxdesign import criteria, metrics, optimize
from cxdesign import (
    OptimizerConfig,
    RealPointSet,
    find_design,
    initial_configuration,
    is_spherical_design,
    point_to_angles,
    real_design_lower_bound,
    save_pointset,
    solve_feasibility,
    symmetrize,
    variational_value,
)
from cxdesign.criteria import monomial_exponents, real_sphere_moment
from cxdesign.optimize import (
    _angle_gradient,
    _canonicalize,
    _free_mask,
    _polish,
)
from conftest import random_unit_points


def _cross_polytope(dim):
    return symmetrize(np.eye(dim))


def test_lower_bound_known_values():
    # tight families meet the bound: simplex at t = 2, cross-polytope at t = 3
    assert real_design_lower_bound(3, 2) == 5
    assert real_design_lower_bound(3, 3) == 8
    assert real_design_lower_bound(5, 3) == 12
    assert real_design_lower_bound(3, 1) == 2
    # odd t: 2 C(m + k, m); even t: C(m + k, m) + C(m + k - 1, m)
    assert real_design_lower_bound(3, 5) == 2 * 10
    assert real_design_lower_bound(3, 4) == 10 + 4


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(t=0, m=3, N=8)
    with pytest.raises(ValueError):
        OptimizerConfig(t=3, m=3, N=9, symmetric=True)  # odd N
    with pytest.raises(ValueError):
        OptimizerConfig(t=3, m=3, N=8, restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(t=3, m=3, N=8, init_strategy="bogus")
    with pytest.raises(ValueError):
        OptimizerConfig(t=3, m=3, N=8, init_strategy="file")


def test_config_warns_below_lower_bound():
    with pytest.warns(UserWarning, match="lower bound"):
        OptimizerConfig(t=3, m=3, N=6)


def test_initial_configuration_deterministic_and_valid():
    cfg = OptimizerConfig(t=3, m=3, N=10, symmetric=True, seed=5)
    a = initial_configuration(cfg, restart=0)
    b = initial_configuration(cfg, restart=0)
    c = initial_configuration(cfg, restart=1)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.symmetric and a.npoints == 10
    assert np.allclose(np.linalg.norm(a.points, axis=1), 1.0, atol=1e-12)


def test_initial_configuration_spiral():
    cfg = OptimizerConfig(
        t=3, m=3, N=12, symmetric=False, seed=5, init_strategy="spiral_like"
    )
    a = initial_configuration(cfg, restart=0)
    b = initial_configuration(cfg, restart=0)
    assert np.array_equal(a.points, b.points)  # restart 0 is deterministic
    assert np.allclose(np.linalg.norm(a.points, axis=1), 1.0, atol=1e-12)
    # low-discrepancy start: no two points nearly coincide
    gram = a.points @ a.points.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 0.999


def test_initial_configuration_from_file(tmp_path):
    rng = np.random.default_rng(501)
    full = symmetrize(random_unit_points(rng, 5, 4))
    path = tmp_path / "start.sdf"
    save_pointset(path, full)
    cfg = OptimizerConfig(
        t=3, m=3, N=10, symmetric=True, init_strategy="file",
        init_file=str(path),
    )
    loaded = initial_configuration(cfg)
    assert np.array_equal(loaded.points, full.points)
    # generator-only file for a symmetric run is expanded by symmetrization
    gen_path = tmp_path / "gen.sdf"
    save_pointset(gen_path, RealPointSet(points=full.points[:5]))
    loaded2 = initial_configuration(
        OptimizerConfig(
            t=3, m=3, N=10, symmetric=True, init_strategy="file",
            init_file=str(gen_path),
        )
    )
    assert np.array_equal(loaded2.points, full.points)


def test_canonicalize_preserves_the_criterion():
    rng = np.random.default_rng(502)
    G = random_unit_points(rng, 6, 4)
    fixed = _canonicalize(G)
    before = variational_value(symmetrize(G), 5)
    after = variational_value(symmetrize(fixed), 5)
    assert after == pytest.approx(before, rel=1e-10, abs=1e-12)
    # pinned triangle: row i has coordinates i+1.. exactly zero
    for i in range(min(4 - 1, 6)):
        assert np.all(fixed[i, i + 1:] == 0.0)


def test_solve_feasibility_early_exit_on_design():
    cp = _cross_polytope(4)
    cfg = OptimizerConfig(t=3, m=3, N=8, symmetric=True)
    result = solve_feasibility(cp, cfg)
    assert result.converged
    assert result.iterations == 0  # input already at tolerance
    assert np.array_equal(result.points.points, cp.points)


def test_solve_feasibility_finds_cross_polytope_quality():
    cfg = OptimizerConfig(t=3, m=3, N=8, symmetric=True, restarts=1, seed=2)
    X0 = initial_configuration(cfg)
    result = solve_feasibility(X0, cfg)
    assert result.converged
    report = is_spherical_design(result.points, 3, tol=1e-12)
    assert report.is_design
    assert result.per_degree_max <= 1e-12


def test_find_design_deterministic():
    cfg = OptimizerConfig(t=2, m=3, N=6, symmetric=True, restarts=3, seed=9)
    a = find_design(cfg)
    b = find_design(cfg)
    assert np.array_equal(a.points.points, b.points.points)
    assert a.final_V == b.final_V


def test_find_design_parallel_matches_sequential():
    cfg = OptimizerConfig(t=3, m=3, N=8, symmetric=True, restarts=4, seed=17)
    seq = find_design(cfg, threads=1)
    par = find_design(cfg, threads=2)
    assert np.array_equal(seq.points.points, par.points.points)
    assert seq.final_V == par.final_V
    assert seq.mesh_ratio == par.mesh_ratio


def test_find_design_caps_workers_at_the_restart_count(monkeypatch):
    # a stand-in pool that records its size and maps in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(optimize, "ProcessPoolExecutor", SerialPool)
    cfg = OptimizerConfig(t=2, m=3, N=6, symmetric=True, restarts=2, seed=9)
    pooled = find_design(cfg, threads=64)
    assert sizes == [2]
    assert np.array_equal(pooled.points.points, find_design(cfg).points.points)
    with pytest.raises(ValueError, match="threads"):
        find_design(cfg, threads=-1)
    assert sizes == [2]


def test_find_design_small_search_converges(design_library):
    result = design_library.get(2, 3)  # t = 3, N = 10 on S^3
    assert result.converged
    report = is_spherical_design(result.points, 3, tol=1e-12)
    assert report.is_design
    assert result.mesh_ratio == pytest.approx(1.4833, abs=2e-3)


def test_find_design_csv_log_columns(tmp_path):
    path = tmp_path / "log.csv"
    cfg = OptimizerConfig(t=2, m=3, N=6, symmetric=True, restarts=2, seed=9)
    find_design(cfg, log_csv=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "restart", "iterations", "final_V", "separation", "covering",
        "mesh_ratio",
    ]
    assert len(rows) == 3
    assert [int(r[0]) for r in rows[1:]] == [0, 1]


def test_find_design_reports_failure_when_infeasible():
    # N below the lower bound cannot reach tolerance
    with pytest.warns(UserWarning, match="lower bound"):
        cfg = OptimizerConfig(
            t=3, m=3, N=6, symmetric=True, restarts=1, seed=0,
            max_iterations=300,
        )
    result = find_design(cfg)
    assert not result.converged
    assert result.final_V > 1e-6


def test_find_design_log_csv_measures_each_restart_once(tmp_path, monkeypatch):
    calls = []
    original = metrics.covering_estimate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "covering_estimate", counting)
    cfg = OptimizerConfig(t=2, m=3, N=6, symmetric=True, restarts=2, seed=9)
    result = find_design(cfg, log_csv=str(tmp_path / "log.csv"))
    assert len(calls) == 2
    with open(tmp_path / "log.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    best = [r for r in rows[1:] if float(r[5]) == result.mesh_ratio]
    assert best
    assert float(best[0][4]) == result.metrics.covering
    assert float(best[0][3]) == result.metrics.separation


def test_final_V_is_nonnegative_and_matches_the_kernel_sum():
    cfg = OptimizerConfig(t=5, m=3, N=24, symmetric=True, restarts=1, seed=3)
    result = solve_feasibility(initial_configuration(cfg), cfg)
    assert result.converged
    assert result.final_V >= 0.0
    # the reported V is the verdict's V, the one `verify` prints
    report = is_spherical_design(result.points, cfg.t, cfg.feasibility_tol)
    assert result.final_V == report.V
    assert result.per_degree_max == report.max_defect
    # off a design, the per-degree form is the kernel sum up to rounding
    rng = np.random.default_rng(505)
    X = RealPointSet(points=random_unit_points(rng, 60, 4))
    loose = OptimizerConfig(t=4, m=3, N=60, feasibility_tol=1.0)
    early = solve_feasibility(X, loose)
    assert early.iterations == 0
    assert early.final_V == pytest.approx(
        criteria.variational_value(X, 4), rel=1e-12, abs=1e-15
    )


def test_unit_norm_check_survives_optimized_mode(monkeypatch):
    original = optimize._angles_to_points

    def off_sphere(phi):
        X = original(phi)
        X[0] *= 1.0 + 1e-9
        return X

    monkeypatch.setattr(optimize, "_angles_to_points", off_sphere)
    cfg = OptimizerConfig(
        t=2, m=3, N=6, symmetric=True, seed=9, max_iterations=5
    )
    rng = np.random.default_rng(506)
    X0 = symmetrize(random_unit_points(rng, 3, 4))
    with pytest.raises(RuntimeError, match="unit sphere"):
        solve_feasibility(X0, cfg)


def test_solve_feasibility_input_validation():
    cfg = OptimizerConfig(t=3, m=3, N=8, symmetric=True)
    rng = np.random.default_rng(504)
    with pytest.raises(TypeError):
        solve_feasibility(np.eye(4), cfg)
    wrong_count = symmetrize(random_unit_points(rng, 3, 4))
    with pytest.raises(ValueError):
        solve_feasibility(wrong_count, cfg)
    wrong_dim = symmetrize(random_unit_points(rng, 4, 6))
    with pytest.raises(ValueError):
        solve_feasibility(wrong_dim, cfg)
    plain = RealPointSet(points=random_unit_points(rng, 8, 4))
    with pytest.raises(ValueError):
        solve_feasibility(plain, cfg)  # symmetric cfg needs a symmetric set


def _polish_callables(monkeypatch, cfg, rng):
    """The residual and Jacobian callables the polish hands to
    least_squares, set up at a random start, plus the start's angles."""
    captured = {}

    def capture(fun, x0, jac, **kwargs):
        captured.update(fun=fun, jac=jac)
        return types.SimpleNamespace(x=x0)

    monkeypatch.setattr(optimize, "least_squares", capture)
    n = cfg.N // 2 if cfg.symmetric else cfg.N
    G = _canonicalize(random_unit_points(rng, n, cfg.m + 1))
    phi = np.array([point_to_angles(row) for row in G])
    flat_idx = np.flatnonzero(_free_mask(n, cfg.m).ravel())
    theta = phi.ravel()[flat_idx]
    _polish(cfg, phi, theta, flat_idx)
    return phi, theta, captured["fun"], captured["jac"]


@pytest.mark.parametrize("symmetric", [True, False])
def test_polish_jacobian_matches_finite_differences(monkeypatch, symmetric):
    cfg = OptimizerConfig(t=4, m=3, N=16, symmetric=symmetric)
    _, theta, fun, jac = _polish_callables(
        monkeypatch, cfg, np.random.default_rng(507)
    )
    J = jac(theta)
    h = 1e-6
    fd = np.empty_like(J)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        fd[:, j] = (fun(theta + step) - fun(theta - step)) / (2.0 * h)
    assert J.shape == (fun(theta).size, theta.size)
    assert np.max(np.abs(J - fd)) < 1e-8


def test_polish_residuals_are_the_graded_moment_defects(monkeypatch):
    # rows: even totals 2..t (symmetric), graded, increasing lexicographic
    cfg = OptimizerConfig(t=5, m=3, N=20, symmetric=True)
    phi, theta, fun, _ = _polish_callables(
        monkeypatch, cfg, np.random.default_rng(508)
    )
    X = optimize._angles_to_points(phi)
    rows = sorted(
        (g for g in monomial_exponents(4, 5) if sum(g) and sum(g) % 2 == 0),
        key=lambda g: (sum(g), g),
    )
    r = fun(theta)
    assert r.shape == (len(rows),)
    for row, gamma in enumerate(rows):
        mono = np.prod(X ** np.array(gamma), axis=1)
        exact = real_sphere_moment(4, gamma)
        assert r[row] == pytest.approx(np.mean(mono) - exact, abs=1e-15)


def test_angle_gradient_batches_bit_for_bit():
    rng = np.random.default_rng(509)
    phi = rng.uniform(0.0, np.pi, (7, 3))
    gX = rng.standard_normal((5, 7, 4))
    batched = _angle_gradient(phi, gX)
    assert batched.shape == (5, 7, 3)
    for b in range(5):
        assert np.array_equal(batched[b], _angle_gradient(phi, gX[b]))


def test_invariants_hold_under_python_O():
    # the checks must raise with assert statements stripped
    script = textwrap.dedent("""
        import numpy as np
        from cxdesign import OptimizerConfig, optimize, orthopoly, symmetrize

        print("debug", __debug__)
        original = optimize._angles_to_points

        def off_sphere(phi):
            X = original(phi)
            X[0] *= 1.0 + 1e-9
            return X

        optimize._angles_to_points = off_sphere
        cfg = OptimizerConfig(t=2, m=3, N=6, symmetric=True, seed=9,
                              max_iterations=5)
        G = np.random.default_rng(506).standard_normal((3, 4))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        orthopoly.dim_complex_harm = lambda d, k, l: 1
        calls = {
            "unit-norm": lambda: optimize.solve_feasibility(symmetrize(G), cfg),
            "space-dim": lambda: orthopoly.dim_complex_space(2, 3),
        }
        for name, call in calls.items():
            try:
                call()
            except RuntimeError:
                print(name, "RuntimeError")
            else:
                print(name, "passed")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "debug False", "unit-norm RuntimeError", "space-dim RuntimeError",
    ]


def test_polish_row_blocks_do_not_change_the_bits(monkeypatch):
    cfg = OptimizerConfig(t=4, m=3, N=16)
    _, theta, fun, jac = _polish_callables(
        monkeypatch, cfg, np.random.default_rng(510)
    )
    monkeypatch.setattr(optimize, "_TABLE_BYTES", 1)  # one row per block
    _, theta_rows, fun_rows, jac_rows = _polish_callables(
        monkeypatch, cfg, np.random.default_rng(510)
    )
    assert np.array_equal(theta, theta_rows)
    assert np.array_equal(fun(theta), fun_rows(theta))
    assert np.array_equal(jac(theta), jac_rows(theta))
