"""Feasibility search: initialization, parametrization, descent, verdicts.

Oracles: exact sphere-moment closed forms checked against QMC sampling,
hand-computed lower-bound values, and the criteria module's independent
verdict on returned configurations.
"""

import csv
from fractions import Fraction

import numpy as np
import pytest

from cxdesign import criteria, metrics, optimize
from cxdesign import (
    OptimizerConfig,
    RealPointSet,
    find_design,
    initial_configuration,
    is_spherical_design,
    real_design_lower_bound,
    save_pointset,
    solve_feasibility,
    symmetrize,
    variational_value,
)
from cxdesign.optimize import _canonicalize, _moment_exponents, _sphere_moment
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


def test_sphere_moment_closed_forms():
    # E[x_k^2] = 1/dim, E[x_k^4] = 3/(dim (dim+2)),
    # E[x_j^2 x_k^2] = 1/(dim (dim+2)), odd exponents vanish
    for dim in (3, 4, 6):
        assert _sphere_moment(dim, (2,) + (0,) * (dim - 1)) == pytest.approx(
            float(Fraction(1, dim)), rel=1e-15
        )
        assert _sphere_moment(dim, (4,) + (0,) * (dim - 1)) == pytest.approx(
            float(Fraction(3, dim * (dim + 2))), rel=1e-15
        )
        assert _sphere_moment(dim, (2, 2) + (0,) * (dim - 2)) == pytest.approx(
            float(Fraction(1, dim * (dim + 2))), rel=1e-15
        )
        assert _sphere_moment(dim, (1,) + (0,) * (dim - 1)) == 0.0
        assert _sphere_moment(dim, (3, 2) + (0,) * (dim - 2)) == 0.0


def test_sphere_moment_matches_sampling():
    rng = np.random.default_rng(503)
    X = random_unit_points(rng, 200000, 4)
    for gamma in [(2, 0, 0, 0), (2, 2, 0, 0), (4, 0, 0, 0), (2, 1, 1, 0)]:
        sample = float(np.mean(np.prod(X ** np.array(gamma), axis=1)))
        exact = float(_sphere_moment(4, gamma))
        se = float(
            np.std(np.prod(X ** np.array(gamma), axis=1)) / np.sqrt(len(X))
        )
        assert abs(sample - exact) < 5 * se + 1e-12


def test_moment_exponents_cover_the_grid():
    # all exponent vectors with |gamma| <= t (even totals only when asked)
    full = list(_moment_exponents(4, 3, even_only=False))
    assert len(full) == len(set(full))
    assert all(sum(g) <= 3 for g in full)
    even = list(_moment_exponents(4, 4, even_only=True))
    assert all(sum(g) % 2 == 0 for g in even)
    assert all(sum(g) <= 4 for g in even)


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
    original = optimize._points_from_angles

    def off_sphere(phi):
        X = original(phi)
        X[0] *= 1.0 + 1e-9
        return X

    monkeypatch.setattr(optimize, "_points_from_angles", off_sphere)
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
