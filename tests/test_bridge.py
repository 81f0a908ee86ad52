"""Real-to-complex design transfer, tight families, and integration demos."""

import csv

import numpy as np
import pytest

from cxdesign import (
    ComplexPointSet,
    RealPointSet,
    complex_monomial_integral,
    integrate,
    inverse_square_distance,
    map_design,
    demo_error_curve,
    mesh_ratio,
    monomial_pairs,
    real_to_complex,
    symmetrize,
    tight_design,
    write_error_curve_csv,
)
from conftest import random_unit_points


def test_map_design_accepts_and_annotates():
    cp = symmetrize(np.eye(4))
    rule = map_design(cp, 3)
    assert rule.npoints == 8 and rule.d == 2
    assert rule.degree_claim == 3
    assert rule.weight == pytest.approx(1.0 / 8.0)
    assert rule.report is not None and rule.report.passed
    # folded nodes are the interleaved coordinates
    assert np.array_equal(rule.nodes.points, real_to_complex(cp.points))


def test_map_design_rejects_non_designs():
    rng = np.random.default_rng(601)
    X = RealPointSet(points=random_unit_points(rng, 12, 4))
    with pytest.raises(
        ValueError, match="not a degree-3 rule.*real per-degree max"
    ):
        map_design(X, 3)


def test_map_design_rejects_odd_ambient_dimension():
    rng = np.random.default_rng(602)
    X = RealPointSet(points=random_unit_points(rng, 6, 3))
    with pytest.raises(ValueError):
        map_design(X, 1)


def test_tight_families_all_dimensions():
    expected_counts = {1: lambda d: 2, 2: lambda d: 2 * d + 1, 3: lambda d: 4 * d}
    for d in (2, 3, 4, 5, 6):
        for t in (1, 2, 3):
            rule = tight_design(d, t)
            assert rule.npoints == expected_counts[t](d)
            assert rule.degree_claim == t
            assert rule.report.passed and rule.report.tolerance <= 1e-10
            assert rule.metrics is not None
            assert rule.metrics.covering_uncertainty == 0.0


def test_tight_family_analytic_metrics():
    # t = 1: antipodal pair
    pair = tight_design(2, 1)
    assert pair.metrics.separation == pytest.approx(np.pi, abs=1e-15)
    assert pair.metrics.covering == pytest.approx(np.pi / 2, abs=1e-15)
    assert pair.metrics.mesh_ratio == pytest.approx(1.0, abs=1e-15)
    # t = 2: simplex, separation arccos(-1/2d), covering arccos(1/2d)
    for d in (2, 4):
        simplex = tight_design(d, 2)
        assert simplex.metrics.separation == pytest.approx(
            np.arccos(-1.0 / (2 * d)), abs=1e-12
        )
        assert simplex.metrics.covering == pytest.approx(
            np.arccos(1.0 / (2 * d)), abs=1e-12
        )
    # t = 3: cross-polytope, separation pi/2, covering arccos(1/sqrt(2d))
    for d in (2, 5):
        cp = tight_design(d, 3)
        assert cp.metrics.separation == pytest.approx(np.pi / 2, abs=1e-15)
        assert cp.metrics.covering == pytest.approx(
            np.arccos(1.0 / np.sqrt(2 * d)), abs=1e-12
        )


def test_tight_metrics_agree_with_estimator():
    # analytic values must match the generic estimator: separation exactly,
    # covering within the refinement tolerance
    for d, t in [(2, 1), (2, 2), (2, 3), (3, 3)]:
        rule = tight_design(d, t)
        interleaved = np.empty((rule.npoints, 2 * d))
        interleaved[:, 0::2] = rule.nodes.points.real
        interleaved[:, 1::2] = rule.nodes.points.imag
        X = RealPointSet(points=interleaved)
        measured = mesh_ratio(X)
        assert measured.separation == pytest.approx(
            rule.metrics.separation, abs=1e-12
        )
        assert measured.covering == pytest.approx(rule.metrics.covering, abs=1e-3)


def test_tight_design_validation():
    for d in (0, 1):
        with pytest.raises(ValueError, match=r"need d >= 2"):
            tight_design(d, 3)
    with pytest.raises(ValueError):
        tight_design(2, 4)


def test_integrate_constant_and_monomials():
    rule = tight_design(2, 3)
    assert integrate(rule, lambda z: 1.0) == pytest.approx(1.0, abs=1e-15)
    val = integrate(rule, lambda z: z[0] * np.conj(z[0]))
    assert val == pytest.approx(0.5, abs=1e-14)  # int |z_1|^2 = 1/d
    assert abs(integrate(rule, lambda z: z[0])) < 1e-15


def test_integrate_matches_exact_on_low_degree():
    # every monomial within the claimed degree integrates exactly
    rule = tight_design(3, 2)
    for alpha, beta in monomial_pairs(3, 2):
        approx = integrate(
            rule,
            lambda z, a=alpha, b=beta: np.prod(z**np.array(a))
            * np.prod(np.conj(z) ** np.array(b)),
        )
        exact = complex_monomial_integral(3, alpha, beta)
        assert abs(approx - exact) < 1e-13


def test_double_degree_rule_handles_split_grid():
    # a rule exact through total degree 2t is exact on products where each
    # of the two factors has degree <= t: the pair grid max(|a|,|b|) <= 1
    # sits inside the degree-2 triangle
    rule = tight_design(2, 2)
    for alpha, beta in monomial_pairs(2, 2):
        if max(sum(alpha), sum(beta)) <= 1:
            approx = integrate(
                rule,
                lambda z, a=alpha, b=beta: np.prod(z**np.array(a))
                * np.prod(np.conj(z) ** np.array(b)),
            )
            exact = complex_monomial_integral(2, alpha, beta)
            assert abs(approx - exact) < 1e-14


def test_inverse_square_distance_demo_value():
    # harmonic integrand: exact value 1/|x0|^2
    x0 = np.array([1 + 1j, 1 + 1j])
    rule = tight_design(2, 3)
    f = inverse_square_distance(x0)
    approx = integrate(rule, f)
    assert abs(approx - 0.25) < 2e-2  # coarse rule, small but nonzero error
    assert abs(approx - 0.25) > 1e-6


def test_demo_error_curve_rows_and_csv(tmp_path):
    x0 = np.array([1 + 1j, 1 + 1j])
    rules = [tight_design(2, 3)]
    rows = demo_error_curve(rules, x0)
    assert len(rows) == 1
    t, n, err = rows[0]
    assert (t, n) == (3, 8)
    assert err == pytest.approx(abs(integrate(rules[0], inverse_square_distance(x0)) - 0.25), rel=1e-12)
    path = tmp_path / "curve.csv"
    write_error_curve_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["t", "N", "abs_error"]
    assert int(parsed[1][0]) == 3 and int(parsed[1][1]) == 8


def test_demo_error_curve_validation():
    rules = [tight_design(2, 3)]
    with pytest.raises(ValueError):
        demo_error_curve(rules, np.array([1 + 1j]))  # wrong shape
    with pytest.raises(ValueError):
        demo_error_curve(rules, np.array([0.5 + 0j, 0.5 + 0j]))  # inside
    with pytest.raises(ValueError):
        demo_error_curve([tight_design(3, 3)], np.array([1 + 1j, 1 + 1j]))


def test_computed_design_passes_square_grid(design_library):
    # degree-5 triangular rule: exact on the square grid max(|a|,|b|) <= 2
    result = design_library.get(2, 5)
    rule = map_design(result.points, 5, tol=1e-11)
    for alpha, beta in monomial_pairs(2, 5):
        if max(sum(alpha), sum(beta)) <= 2 and sum(alpha) + sum(beta) <= 4:
            approx = integrate(
                rule,
                lambda z, a=alpha, b=beta: np.prod(z**np.array(a))
                * np.prod(np.conj(z) ** np.array(b)),
            )
            exact = complex_monomial_integral(2, alpha, beta)
            assert abs(approx - exact) < 1e-12
