"""Design criterion, gradients, and exact monomial verification.

Oracles: a plain double-loop evaluation of the kernel sum, central finite
differences for gradients, itertools enumeration for the monomial sweep,
hand-computed closed-form integrals, and Monte Carlo sampling of the real
sphere moments.
"""

import itertools
import tracemalloc
from fractions import Fraction
from math import comb, fsum
from pathlib import Path

import numpy as np
import pytest

from cxdesign import (
    ComplexPointSet,
    OptimizerConfig,
    RealPointSet,
    complex_monomial_integral,
    dim_harm,
    is_spherical_design,
    load_real_pointset,
    monomial_pairs,
    per_degree_sums,
    real_to_complex,
    symmetrize,
    variational_gradient,
    variational_value,
    verify_triangular_design,
    zonal_psi,
)
from cxdesign import sphere
from cxdesign.criteria import monomial_exponents, real_sphere_moment
from cxdesign.orthopoly import legendre_normalized
from conftest import random_unit_points

# a stored feasible C^2, t = 13 design with N = 308
STORED_T13 = (
    Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
    / "c2_t13_n308.sdf"
)


def _variational_direct(points, t):
    # definitional double loop, independent of the vectorized gram path
    n, _ = points.shape
    m = points.shape[1] - 1
    terms = []
    for i in range(n):
        for j in range(n):
            u = min(1.0, max(-1.0, float(np.dot(points[i], points[j]))))
            terms.append(zonal_psi(t, m, u)[0])
    return fsum(terms) / n**2


def _cross_polytope(dim):
    return symmetrize(np.eye(dim))


def test_variational_value_matches_direct_sum():
    rng = np.random.default_rng(301)
    for m, t, n in [(3, 3, 7), (3, 5, 10), (5, 2, 8)]:
        X = RealPointSet(points=random_unit_points(rng, n, m + 1))
        direct = _variational_direct(X.points, t)
        fast = variational_value(X, t)
        assert fast == pytest.approx(direct, rel=1e-12, abs=1e-13)


def test_variational_value_nonnegative_and_zero_on_designs():
    # V >= 0 up to rounding on anything; = 0 on the cross-polytope for t <= 3
    rng = np.random.default_rng(302)
    X = RealPointSet(points=random_unit_points(rng, 9, 4))
    assert variational_value(X, 4) > -1e-12
    cp = _cross_polytope(4)
    for t in (1, 2, 3):
        assert abs(variational_value(cp, t)) < 1e-13


def test_cross_polytope_fails_degree_four_with_exact_value():
    # S^3 cross-polytope: V at t = 4 is Z(3,4) W_4 / N^2 = 25 * 25.6 / 64 = 10
    cp = _cross_polytope(4)
    assert variational_value(cp, 4) == pytest.approx(10.0, rel=1e-13)
    w = per_degree_sums(cp, 4)
    assert np.max(np.abs(w[:3])) < 1e-10  # degrees 1..3 vanish
    assert w[3] == pytest.approx(25.6, rel=1e-13)
    assert dim_harm(3, 4) == 25


def test_per_degree_sums_match_direct_oracle():
    rng = np.random.default_rng(303)
    X = RealPointSet(points=random_unit_points(rng, 6, 4))
    t = 4
    w = per_degree_sums(X, t)
    for ell in range(1, t + 1):
        direct = fsum(
            legendre_normalized(ell, X.m, min(1.0, max(-1.0, float(np.dot(a, b)))))
            for a in X.points
            for b in X.points
        )
        assert w[ell - 1] == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_per_degree_sums_memory_is_flat_in_degree():
    # a (t+1) x N x N table of every degree would take 32 * 2.9 MB here;
    # summing each degree as it is produced needs a few N x N arrays
    rng = np.random.default_rng(108)
    X = symmetrize(random_unit_points(rng, 300, 4))
    nbytes = 8 * X.npoints**2
    tracemalloc.start()
    try:
        per_degree_sums(X, 31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * nbytes


def test_verdict_memory_is_bounded_by_the_row_block():
    # C^2, t = 21 at the published N = 1184: one N x N Gram takes 10.7 MiB
    # and the whole-Gram verdict peaked at 42.8 MiB; measured 4.2 MiB
    rng = np.random.default_rng(109)
    X = symmetrize(random_unit_points(rng, 592, 4))
    tracemalloc.start()
    try:
        report = is_spherical_design(X, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.is_design
    assert peak < 16 * 2**20


def test_verdict_row_blocks_move_the_sums_by_rounding_only(monkeypatch):
    # the stored design fits one block; 3-row blocks take each product
    # apart from the symmetric one, so W_ell may move, but only by rounding
    X, _ = load_real_pointset(STORED_T13)
    one_block = is_spherical_design(X, 13)
    monkeypatch.setattr(sphere, "_BLOCK_BYTES", 8 * X.npoints * 3)
    rows = is_spherical_design(X, 13)
    diff = np.abs(rows.per_degree - one_block.per_degree)
    assert np.max(diff) <= 1e-18 * X.npoints**2
    assert rows.is_design == one_block.is_design


def test_design_report_consistency_invariant():
    # V must equal sum_ell Z(m, ell) W_ell / N^2 and W_ell >= -N^2 * 1e-12
    rng = np.random.default_rng(304)
    for n, dim, t in [(8, 4, 4), (12, 6, 3), (20, 4, 6)]:
        X = RealPointSet(points=random_unit_points(rng, n, dim))
        report = is_spherical_design(X, t)
        recon = sum(
            dim_harm(X.m, ell) * w for ell, w in enumerate(report.per_degree, 1)
        ) / X.npoints**2
        assert report.V == pytest.approx(recon, rel=1e-9, abs=1e-12)
        assert np.all(report.per_degree >= -X.npoints**2 * 1e-12)


def test_is_spherical_design_verdicts():
    cp = _cross_polytope(4)
    good = is_spherical_design(cp, 3, tol=1e-12)
    assert good.is_design and good.t == 3 and good.N == 8
    assert good.max_defect <= 1e-12
    bad = is_spherical_design(cp, 4, tol=1e-12)
    assert not bad.is_design
    assert bad.max_defect == pytest.approx(0.4, rel=1e-12)  # 25.6 / 64


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(305)
    h = 1e-6
    cases = 0
    for m in (3, 5):
        for t in (2, 3, 7):
            for symmetric in (False, True):
                n_gen = 6
                G = random_unit_points(rng, n_gen, m + 1)
                X = symmetrize(G) if symmetric else RealPointSet(points=G)
                grad = variational_gradient(X, t)
                assert grad.shape == (n_gen, m + 1)
                # tangency
                assert np.max(np.abs(np.sum(grad * G, axis=1))) < 1e-10
                i = int(rng.integers(n_gen))
                direction = rng.standard_normal(m + 1)
                direction -= np.dot(direction, G[i]) * G[i]
                direction /= np.linalg.norm(direction)

                def value_at(eps):
                    moved = G.copy()
                    y = G[i] + eps * direction
                    moved[i] = y / np.linalg.norm(y)
                    Xe = symmetrize(moved) if symmetric else RealPointSet(points=moved)
                    return variational_value(Xe, t)

                fd = (value_at(h) - value_at(-h)) / (2 * h)
                analytic = float(np.dot(grad[i], direction))
                assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-8)
                cases += 1
    assert cases == 12


def test_odd_degree_sums_vanish_on_symmetric_sets():
    rng = np.random.default_rng(306)
    for m, n_gen, t in [(3, 6, 5), (5, 8, 7)]:
        X = symmetrize(random_unit_points(rng, n_gen, m + 1))
        w = per_degree_sums(X, t)
        for ell in range(1, t + 1, 2):
            assert abs(w[ell - 1]) <= 1e-10 * X.npoints**2


def test_rotation_invariance():
    rng = np.random.default_rng(307)
    X = RealPointSet(points=random_unit_points(rng, 10, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = RealPointSet(points=X.points @ q.T)
    v0, v1 = variational_value(X, 5), variational_value(rotated, 5)
    assert v1 == pytest.approx(v0, rel=1e-10, abs=1e-12)


def _close_exact(value, expected):
    assert value.imag == 0.0
    assert value.real == pytest.approx(float(expected), rel=1e-15, abs=1e-16)


def test_complex_monomial_integral_closed_forms():
    # int 1 = 1; int |z_1|^2 = 1/d; int |z_1|^4 = 2/(d (d+1));
    # int |z_1 z_2|^2 = 1/(d (d+1)); any alpha != beta integrates to zero
    for d in (2, 3, 4):
        _close_exact(complex_monomial_integral(d, (0,) * d, (0,) * d), 1)
        e1 = (1,) + (0,) * (d - 1)
        _close_exact(complex_monomial_integral(d, e1, e1), Fraction(1, d))
        e2 = (2,) + (0,) * (d - 1)
        _close_exact(
            complex_monomial_integral(d, e2, e2), Fraction(2, d * (d + 1))
        )
        e11 = (1, 1) + (0,) * (d - 2)
        _close_exact(
            complex_monomial_integral(d, e11, e11), Fraction(1, d * (d + 1))
        )
        assert complex_monomial_integral(d, e1, (0,) * d) == 0
        other = (0, 1) + (0,) * (d - 2)
        assert complex_monomial_integral(d, e1, other) == 0


def test_complex_monomial_integral_general_formula():
    # equal bidegrees: (d-1)! prod alpha_k! / (d - 1 + |alpha|)!
    import math

    for d in (2, 3):
        for alpha in [(2, 1), (3, 0), (1, 1)]:
            a = alpha + (0,) * (d - 2)
            s = sum(a)
            expected = Fraction(
                math.factorial(d - 1) * int(np.prod([math.factorial(k) for k in a])),
                math.factorial(d - 1 + s),
            )
            _close_exact(complex_monomial_integral(d, a, a), expected)


def test_sphere_moment_closed_forms():
    # E[x_k^2] = 1/dim, E[x_k^4] = 3/(dim (dim+2)),
    # E[x_j^2 x_k^2] = 1/(dim (dim+2)), odd exponents vanish
    for dim in (3, 4, 6):
        assert real_sphere_moment(dim, (2,) + (0,) * (dim - 1)) == pytest.approx(
            float(Fraction(1, dim)), rel=1e-15
        )
        assert real_sphere_moment(dim, (4,) + (0,) * (dim - 1)) == pytest.approx(
            float(Fraction(3, dim * (dim + 2))), rel=1e-15
        )
        assert real_sphere_moment(
            dim, (2, 2) + (0,) * (dim - 2)
        ) == pytest.approx(float(Fraction(1, dim * (dim + 2))), rel=1e-15)
        assert real_sphere_moment(dim, (1,) + (0,) * (dim - 1)) == 0.0
        assert real_sphere_moment(dim, (3, 2) + (0,) * (dim - 2)) == 0.0


def test_sphere_moment_matches_sampling():
    rng = np.random.default_rng(503)
    X = random_unit_points(rng, 200000, 4)
    for gamma in [(2, 0, 0, 0), (2, 2, 0, 0), (4, 0, 0, 0), (2, 1, 1, 0)]:
        sample = float(np.mean(np.prod(X ** np.array(gamma), axis=1)))
        exact = float(real_sphere_moment(4, gamma))
        se = float(
            np.std(np.prod(X ** np.array(gamma), axis=1)) / np.sqrt(len(X))
        )
        assert abs(sample - exact) < 5 * se + 1e-12


def test_real_and_complex_moments_share_the_dirichlet_formula():
    # |z_1|^(2a) = (x_1^2 + x_2^2)^a, expanded binomially on S^(2d-1)
    for d in (2, 3):
        for a in range(5):
            e1 = (a,) + (0,) * (d - 1)
            cx = complex_monomial_integral(d, e1, e1)
            real = sum(
                comb(a, k) * real_sphere_moment(
                    2 * d, (2 * k, 2 * (a - k)) + (0,) * (2 * d - 2)
                )
                for k in range(a + 1)
            )
            assert cx.imag == 0.0
            assert cx.real == pytest.approx(real, rel=1e-15)


def test_moment_exponents_cover_the_grid():
    # all exponent vectors with |gamma| <= t, each once, graded
    for slots, t in [(4, 3), (4, 4), (2, 6)]:
        full = monomial_exponents(slots, t)
        brute = {
            g for g in itertools.product(range(t + 1), repeat=slots)
            if sum(g) <= t
        }
        assert len(full) == len(set(full)) == comb(slots + t, t)
        assert set(full) == brute
        totals = [sum(g) for g in full]
        assert totals == sorted(totals)


def test_monomial_pairs_enumeration():
    for d, t in [(2, 3), (2, 5), (3, 2)]:
        pairs = list(monomial_pairs(d, t))
        # brute-force itertools oracle
        brute = set()
        for combined in itertools.product(range(t + 1), repeat=2 * d):
            if sum(combined) <= t:
                brute.add((combined[:d], combined[d:]))
        assert len(pairs) == len(set(pairs)) == len(brute) == comb(2 * d + t, t)
        assert set(pairs) == brute
        # graded order: total degree never decreases
        totals = [sum(a) + sum(b) for a, b in pairs]
        assert totals == sorted(totals)


def test_verify_triangular_design_on_cross_polytope():
    cp = _cross_polytope(4)
    Z = ComplexPointSet(points=real_to_complex(cp.points))
    good = verify_triangular_design(Z, 3, tol=1e-12)
    assert good.passed and good.N == 8 and good.d == 2
    assert good.checked == comb(4 + 3, 3)
    bad = verify_triangular_design(Z, 4, tol=1e-12)
    assert not bad.passed
    # worst offender is the pure quartic z_1^4: it averages to 1/2 over the
    # folded cross-polytope (every nonzero node value is (+-1)^4 or (+-i)^4,
    # both 1) while the exact integral is 0
    assert bad.max_error == pytest.approx(0.5, rel=1e-12)


def _sweep_by_fsum(Z, t):
    """The per-monomial reference: compensated real and imaginary sums of
    each monomial's node values, the first largest error kept."""
    pts = Z.points
    N, d = pts.shape
    worst, max_error, checked = ((0,) * d, (0,) * d), 0.0, 0
    for alpha, beta in monomial_pairs(d, t):
        vals = np.prod(pts**np.array(alpha) * np.conj(pts) ** np.array(beta),
                       axis=1)
        avg = complex(fsum(vals.real) / N, fsum(vals.imag) / N)
        err = abs(avg - complex_monomial_integral(d, alpha, beta))
        checked += 1
        if err > max_error:
            worst, max_error = (alpha, beta), err
    return checked, worst, max_error


@pytest.mark.parametrize("d, n, t, source", [
    (2, 30, 5, 312), (2, 60, 7, 313), (3, 40, 4, 314),
    (2, 8, 5, None), (3, 12, 6, None),
    (2, 308, 13, STORED_T13.name), (2, 308, 14, STORED_T13.name),
])
def test_verify_matches_the_fsum_reference(d, n, t, source):
    # source: a seed for random points, None for the cross-polytope, or
    # the stored design, which passes at t = 13 and fails at t = 14
    if source is None:
        pts = _cross_polytope(2 * d).points
    elif source == STORED_T13.name:
        pts = load_real_pointset(STORED_T13)[0].points
    else:
        pts = random_unit_points(np.random.default_rng(source), n, 2 * d)
    assert pts.shape == (n, 2 * d)
    Z = ComplexPointSet(points=real_to_complex(pts))
    report = verify_triangular_design(Z, t)
    checked, worst, max_error = _sweep_by_fsum(Z, t)
    assert report.checked == checked
    assert report.worst_pair == worst
    assert all(type(k) is int for part in report.worst_pair for k in part)
    assert abs(report.max_error - max_error) <= 1e-15


def test_sweep_row_blocks_do_not_change_the_bits(monkeypatch):
    # 715 monomials over 60 nodes: 3 row blocks by default, then one each
    rng = np.random.default_rng(315)
    Z = ComplexPointSet(points=real_to_complex(random_unit_points(rng, 60, 4)))
    blocked = verify_triangular_design(Z, 9)
    monkeypatch.setattr(sphere, "_BLOCK_BYTES", 1)
    rows = verify_triangular_design(Z, 9)
    assert rows.checked == blocked.checked == comb(4 + 9, 9)
    assert rows.worst_pair == blocked.worst_pair
    assert rows.max_error == blocked.max_error > 0.0


def test_sweep_memory_is_bounded_by_the_row_block():
    # C^2, t = 21 at the published N = 1184: 12650 monomials, whose node
    # values alone would take 240 MB; measured peak 3.8 MiB
    rng = np.random.default_rng(316)
    Z = ComplexPointSet(points=real_to_complex(
        symmetrize(random_unit_points(rng, 592, 4)).points))
    tracemalloc.start()
    try:
        report = verify_triangular_design(Z, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == comb(4 + 21, 21)
    assert peak < 16 * 2**20


def test_verify_random_set_fails():
    rng = np.random.default_rng(308)
    Z = ComplexPointSet(points=real_to_complex(random_unit_points(rng, 28, 4)))
    report = verify_triangular_design(Z, 3)
    assert not report.passed


def test_input_validation():
    rng = np.random.default_rng(309)
    X = RealPointSet(points=random_unit_points(rng, 4, 4))
    with pytest.raises(ValueError):
        variational_value(X, 0)
    with pytest.raises(TypeError):
        variational_value(X.points, 3)
    with pytest.raises(ValueError):
        complex_monomial_integral(2, (1,), (1, 0))
    with pytest.raises(ValueError):
        complex_monomial_integral(2, (-1, 0), (0, 0))


def test_nan_tolerance_is_rejected():
    # tol <= 0 is False for NaN, so a NaN tolerance used to pass the check;
    # an infinite one passes any set
    cp = _cross_polytope(4)
    Z = ComplexPointSet(points=real_to_complex(cp.points))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            is_spherical_design(cp, 3, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            verify_triangular_design(Z, 3, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            OptimizerConfig(t=3, m=3, N=8, feasibility_tol=bad)
