"""Orthogonal polynomial kernel and counting formulas.

Oracles: scipy.special.eval_jacobi for polynomial values and for the
closed form of the zonal kernel, an explicit harmonic-dimension-weighted
Gegenbauer sum for the kernel series, exact rational arithmetic for the
recurrence, and math.comb arithmetic for every counting identity.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_jacobi

from cxdesign import (
    RealPointSet,
    ZonalKernel,
    dim_complex_harm,
    dim_complex_space,
    dim_harm,
    is_spherical_design,
    legendre_normalized,
    per_degree_sums,
    point_counts,
    zonal_psi,
)
from cxdesign import orthopoly
from cxdesign.orthopoly import _gegenbauer


def _scipy_normalized_legendre(ell, m, u):
    # independent route: Jacobi (alpha, alpha) with alpha = (m-2)/2,
    # scaled to equal one at u = 1
    a = (m - 2) / 2.0
    return eval_jacobi(ell, a, a, u) / eval_jacobi(ell, a, a, 1.0)


def _psi_series_oracle(t, m, u):
    # definitional expansion: psi_t(u) = sum_{ell=1}^t Z(m, ell) Pbar_ell(u)
    total = np.zeros_like(np.asarray(u, dtype=float))
    for ell in range(1, t + 1):
        total += dim_harm(m, ell) * _scipy_normalized_legendre(ell, m, u)
    return total


def test_legendre_normalized_is_one_at_north_pole():
    for m in (2, 3, 5, 9, 11):
        for ell in range(0, 32):
            assert legendre_normalized(ell, m, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_legendre_normalized_matches_scipy():
    rng = np.random.default_rng(102)
    u = rng.uniform(-1.0, 1.0, size=50)
    for m in (3, 5, 7, 9, 11):
        for ell in range(32):
            ours = legendre_normalized(ell, m, u)
            ref = _scipy_normalized_legendre(ell, m, u)
            assert np.all(np.abs(ours - ref) < 1e-10 * np.maximum(1, np.abs(ref)))


def test_gegenbauer_terms_stack_the_scalar_version():
    rng = np.random.default_rng(103)
    u = rng.uniform(-1.0, 1.0, size=(4, 6))
    terms = [p.copy() for p in _gegenbauer(9, 5, u)]
    assert len(terms) == 10
    for ell, term in enumerate(terms):
        assert np.allclose(term, legendre_normalized(ell, 5, u), atol=1e-13)


def test_zonal_psi_equals_weighted_gegenbauer_sum():
    rng = np.random.default_rng(104)
    u = rng.uniform(-1.0, 1.0, size=64)
    for m in (3, 5, 7, 9, 11):
        for t in (1, 2, 3, 7, 16, 31):
            ours, _ = zonal_psi(t, m, u)
            ref = _psi_series_oracle(t, m, u)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(ours - ref) / scale) < 1e-9


def test_zonal_psi_at_north_pole_is_sum_of_dimensions():
    # Pbar_ell(1) = 1 turns the expansion into a plain dimension count
    for m in (3, 5, 7):
        for t in (1, 4, 11):
            expected = float(sum(dim_harm(m, ell) for ell in range(1, t + 1)))
            assert zonal_psi(t, m, 1.0)[0] == pytest.approx(expected, rel=1e-11)


def _closed_form_oracle(t, m, u):
    # psi_t = c P_t^(m/2,(m-2)/2)(u) - 1 with c fixing psi_t(1) to the sum of
    # Z(m, ell), and its derivative c (t + m)/2 P_{t-1}^(m/2+1,m/2)(u)
    alpha, beta = m / 2.0, (m - 2.0) / 2.0
    total = math.comb(t + m, m) + math.comb(t + m - 1, m)
    c = total / eval_jacobi(t, alpha, beta, 1.0)
    val = c * eval_jacobi(t, alpha, beta, u) - 1.0
    der = c * (t + m) / 2.0 * eval_jacobi(t - 1, alpha + 1.0, beta + 1.0, u)
    return val, der


def test_kernel_matches_closed_form_oracle():
    rng = np.random.default_rng(107)
    u = np.concatenate([rng.uniform(-1.0, 1.0, size=64), [-1.0, 0.0, 1.0]])
    for m in (3, 5, 7, 11):
        for t in range(1, 32):
            val, der = _closed_form_oracle(t, m, u)
            val_n, der_n = _closed_form_oracle(t, m, -u)
            cases = [
                (False, val, der),
                (True, 0.5 * (val + val_n), 0.5 * (der - der_n)),
            ]
            for symmetric, ref_val, ref_der in cases:
                got_val, got_der = ZonalKernel(t, m, symmetric)(u)
                # relative to the kernel's scale psi_t(1) and psi_t'(1)
                scale_val = np.max(np.abs(val))
                scale_der = np.max(np.abs(der))
                assert np.max(np.abs(got_val - ref_val)) < 1e-13 * scale_val
                assert np.max(np.abs(got_der - ref_der)) < 1e-13 * scale_der


def test_zonal_kernel_value_and_derivative():
    rng = np.random.default_rng(105)
    u = rng.uniform(-0.95, 0.95, size=32)
    h = 1e-6
    for m, t in [(3, 3), (3, 8), (5, 5), (7, 4)]:
        kernel = ZonalKernel(t, m)
        vals, ders = kernel(u)
        assert np.allclose(vals, zonal_psi(t, m, u)[0], atol=1e-11)
        fd = (zonal_psi(t, m, u + h)[0] - zonal_psi(t, m, u - h)[0]) / (2 * h)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(ders - fd) / scale) < 1e-6


def test_symmetric_kernel_averages_antipodes():
    rng = np.random.default_rng(106)
    u = rng.uniform(-1.0, 1.0, size=16)
    for m, t in [(3, 5), (5, 3)]:
        plain = ZonalKernel(t, m)
        even = ZonalKernel(t, m, symmetric_variant=True)
        v_plus, d_plus = plain(u)
        v_minus, d_minus = plain(np.negative(u))
        v_even, d_even = even(u)
        assert np.allclose(v_even, 0.5 * (v_plus + v_minus), atol=1e-11)
        assert np.allclose(d_even, 0.5 * (d_plus - d_minus), atol=1e-11)


def test_dim_harm_known_families():
    # S^2 harmonics have dimension 2 ell + 1; S^3 harmonics (ell + 1)^2
    for ell in range(20):
        assert dim_harm(2, ell) == 2 * ell + 1
        assert dim_harm(3, ell) == (ell + 1) ** 2
    # generic value against the raw combinatorial formula
    for m in (4, 7, 11):
        for ell in (1, 3, 10):
            expected = (2 * ell + m - 1) * math.comb(ell + m - 2, ell) // (m - 1)
            assert dim_harm(m, ell) == expected


def test_dim_complex_harm_small_cases():
    # bidegree (k, 0) on C^d is the space of holomorphic monomials of
    # degree k, dimension C(k + d - 1, k)
    for d in (2, 3, 4):
        for k in range(6):
            assert dim_complex_harm(d, k, 0) == math.comb(k + d - 1, k)
    # (1, 1) harmonics: d^2 - 1 traceless hermitian-form components
    for d in (2, 3, 4, 6):
        assert dim_complex_harm(d, 1, 1) == d * d - 1


def test_dim_complex_space_equals_bidegree_sum():
    for d in (2, 3, 5):
        for t in (1, 3, 6):
            total = sum(
                dim_complex_harm(d, k, s - k)
                for s in range(t + 1)
                for k in range(s + 1)
            )
            assert dim_complex_space(d, t) == total


def test_dim_complex_space_check_raises(monkeypatch):
    monkeypatch.setattr(orthopoly, "dim_complex_harm", lambda d, k, l: 1)
    with pytest.raises(RuntimeError, match="bidegree sum"):
        dim_complex_space(2, 3)


def _gegenbauer_exact(n, m, u):
    # the same normalized recurrence in rational arithmetic
    u = Fraction(u)
    p_prev, p_cur = Fraction(1), u
    for ell in range(2, n + 1):
        a = Fraction(2 * ell + m - 3, ell + m - 2)
        b = Fraction(ell - 1, ell + m - 2)
        p_prev, p_cur = p_cur, a * u * p_cur - b * p_prev
    return p_cur


def test_jacobi_recurrence_accurate_to_degree_100():
    # the normalized Gegenbauer recurrence (Jacobi with alpha = beta) on S^m
    # for the kernel value and on S^(m+2) for its derivative, well past the
    # published t = 31; Pbar_n(1) = 1, so the bound is absolute
    u = np.linspace(-1.0, 1.0, 41)
    n = 100
    for m in (3, 5, 7):
        for p in _gegenbauer(n, m, u):
            pass
        ref = np.array([float(_gegenbauer_exact(n, m, x)) for x in u])
        assert np.max(np.abs(p - ref)) < 1e-13


def test_degrees_beyond_the_measured_range_are_rejected():
    # the accuracy above is measured to degree 100, and nothing higher runs
    assert orthopoly._MAX_DEGREE == 100
    assert legendre_normalized(100, 3, 0.5) == pytest.approx(
        float(_gegenbauer_exact(100, 3, Fraction(1, 2))), abs=1e-13)
    ZonalKernel(100, 3)
    X = RealPointSet(points=np.eye(4)[:2])
    assert per_degree_sums(X, 100).shape == (100,)
    assert not is_spherical_design(X, 100).is_design
    for call in (lambda: ZonalKernel(101, 3),
                 lambda: ZonalKernel(101, 3, symmetric_variant=True),
                 lambda: zonal_psi(101, 3, 0.5),
                 lambda: legendre_normalized(101, 3, 0.5),
                 lambda: per_degree_sums(X, 101),
                 lambda: is_spherical_design(X, 101)):
        with pytest.raises(ValueError, match="100"):
            call()


def test_point_counts_formula_arithmetic():
    # the three counts re-derived from first principles
    for d in (2, 3, 4, 6):
        for t in (1, 2, 3, 5, 8, 13):
            counts = point_counts(d, t)
            m = 2 * d - 1
            k = t // 2
            if t % 2:
                nstar = 2 * math.comb(m + k, m)
            else:
                nstar = math.comb(m + k, m) + math.comb(m + k - 1, m)
            assert counts.nstar == nstar
            big_m = dim_complex_space(d, t)
            assert counts.nhat == -(-(big_m - 1) // m) + d
            if t % 2:
                big_k = math.comb(t + 2 * d - 2, 2 * d - 1)
                assert counts.nbar == 2 * (-(-(big_k - 1) // m) + d)
            else:
                assert counts.nbar is None


def test_point_counts_published_symmetric_values():
    expected_d2 = {
        5: 28, 7: 60, 9: 114, 11: 194, 13: 308, 15: 458, 17: 650,
        19: 890, 21: 1184, 23: 1538, 25: 1954, 27: 2440, 29: 3000,
        31: 3642,
    }
    for t, n in expected_d2.items():
        assert point_counts(2, t).nbar == n
    assert point_counts(3, 5).nbar == 56
    assert point_counts(3, 7).nbar == 192
    assert point_counts(3, 9).nbar == 522
    assert point_counts(3, 11).nbar == 1208
    assert point_counts(4, 5).nbar == 102
    assert point_counts(4, 7).nbar == 498
    assert point_counts(5, 5).nbar == 170
    assert point_counts(6, 5).nbar == 260


def test_input_validation():
    with pytest.raises(ValueError):
        zonal_psi(0, 3, 0.5)
    with pytest.raises(ValueError):
        zonal_psi(3, 3, 1.5)
    with pytest.raises(ValueError):
        dim_harm(1, 2)
    with pytest.raises(ValueError):
        point_counts(1, 3)
    with pytest.raises(ValueError):
        point_counts(2, 0)
