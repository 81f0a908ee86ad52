"""Orthogonal polynomial kernel and counting formulas.

Oracles: scipy.special.eval_jacobi for polynomial values, an explicit
harmonic-dimension-weighted Gegenbauer sum for the zonal kernel, and
math.comb arithmetic for every counting identity.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_jacobi

from cxdesign import (
    ZonalKernel,
    dim_complex_harm,
    dim_complex_space,
    dim_harm,
    jacobi_eval,
    kernel_expansion_coeffs,
    legendre_normalized,
    point_counts,
    zonal_psi,
)
from cxdesign import orthopoly
from cxdesign.orthopoly import _jacobi_values, legendre_normalized_all


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


def test_jacobi_matches_scipy():
    rng = np.random.default_rng(101)
    u = rng.uniform(-1.0, 1.0, size=40)
    h = 1e-6
    for n in range(13):
        for a, b in [(0.5, -0.5), (1.5, 0.5), (2.5, 1.5), (0.0, 0.0), (3.0, 1.0)]:
            val, der = jacobi_eval(n, a, b, u)
            ref = eval_jacobi(n, a, b, u)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(val - ref) / scale < 1e-12)
            fd = (eval_jacobi(n, a, b, u + h) - eval_jacobi(n, a, b, u - h)) / (2 * h)
            dscale = np.maximum(1.0, np.abs(fd))
            assert np.all(np.abs(der - fd) / dscale < 1e-6)


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


def test_legendre_normalized_all_stacks_the_scalar_version():
    rng = np.random.default_rng(103)
    u = rng.uniform(-1.0, 1.0, size=(4, 6))
    table = legendre_normalized_all(9, 5, u)
    for ell in range(10):
        assert np.allclose(table[ell], legendre_normalized(ell, 5, u), atol=1e-13)


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


def test_kernel_expansion_recovers_harmonic_dimensions():
    # quadrature projection of psi onto the normalized Gegenbauer basis
    for m in (3, 5, 9):
        for t in (2, 5, 12):
            coeffs = kernel_expansion_coeffs(t, m)
            expected = np.array([dim_harm(m, ell) for ell in range(1, t + 1)], float)
            assert coeffs.shape == (t + 1,)
            assert abs(coeffs[0]) < 1e-9
            assert np.max(np.abs(coeffs[1:] - expected) / expected) < 1e-9
            assert np.all(coeffs[1:] > 0)


def test_zonal_kernel_value_and_derivative():
    rng = np.random.default_rng(105)
    u = rng.uniform(-0.95, 0.95, size=32)
    h = 1e-6
    for m, t in [(3, 3), (3, 8), (5, 5), (7, 4)]:
        kernel = ZonalKernel.create(t, m)
        vals, ders = kernel(u)
        assert np.allclose(vals, zonal_psi(t, m, u)[0], atol=1e-11)
        fd = (zonal_psi(t, m, u + h)[0] - zonal_psi(t, m, u - h)[0]) / (2 * h)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(ders - fd) / scale) < 1e-6


def test_symmetric_kernel_averages_antipodes():
    rng = np.random.default_rng(106)
    u = rng.uniform(-1.0, 1.0, size=16)
    for m, t in [(3, 5), (5, 3)]:
        plain = ZonalKernel.create(t, m)
        even = ZonalKernel.create(t, m, symmetric_variant=True)
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


def _jacobi_exact(n, alpha, beta, u):
    # the same upward recurrence in rational arithmetic
    a, b, u = Fraction(alpha), Fraction(beta), Fraction(u)
    p_prev, p_cur = Fraction(1), (a + 1) + (a + b + 2) * (u - 1) / 2
    for k in range(2, n + 1):
        s = 2 * k + a + b
        c1 = 2 * k * (k + a + b) * (s - 2)
        c2 = (s - 1) * (a * a - b * b)
        c3 = (s - 2) * (s - 1) * s
        c4 = 2 * (k + a - 1) * (k + b - 1) * s
        p_prev, p_cur = p_cur, ((c2 + c3 * u) * p_cur - c4 * p_prev) / c1
    return p_cur


def test_jacobi_recurrence_accurate_to_degree_100():
    # the kernel parameters (m/2, (m-2)/2), well past the published t = 31
    u = np.linspace(-1.0, 1.0, 41)
    n = 100
    for m in (3, 5):
        alpha, beta = m / 2.0, (m - 2.0) / 2.0
        got = _jacobi_values(n, alpha, beta, u)
        ref = np.array([float(_jacobi_exact(n, alpha, beta, x)) for x in u])
        at_one = float(_jacobi_exact(n, alpha, beta, 1.0))
        assert np.max(np.abs(got - ref)) < 1e-13 * abs(at_one)


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
