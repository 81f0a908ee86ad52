"""Point containers, angle charts, the real/complex fold, and SDF files."""

import numpy as np
import pytest

from cxdesign import (
    ComplexPointSet,
    RealPointSet,
    angles_to_point,
    complex_to_real,
    geodesic_complex,
    geodesic_real,
    load_complex_pointset,
    load_real_pointset,
    point_to_angles,
    real_to_complex,
    save_pointset,
    symmetrize,
)
from conftest import random_unit_points


def test_pointset_validation():
    good = np.eye(3)
    ps = RealPointSet(points=good)
    assert ps.npoints == 3 and ps.m == 2
    assert not ps.points.flags.writeable
    with pytest.raises(ValueError):
        RealPointSet(points=2.0 * np.eye(3))
    with pytest.raises(ValueError):
        RealPointSet(points=np.eye(4), symmetric=True)  # no antipodal pairing
    sym = RealPointSet(points=np.vstack([np.eye(2), -np.eye(2)]), symmetric=True)
    assert sym.symmetric
    with pytest.raises(ValueError, match="empty"):
        RealPointSet(points=np.empty((0, 4)))


def test_complex_pointset_dimensions():
    z = np.array([[1.0 + 0j, 0j], [0j, 1j]])
    ps = ComplexPointSet(points=z)
    assert ps.npoints == 2 and ps.d == 2
    with pytest.raises(ValueError):
        ComplexPointSet(points=2.0 * z)


def test_angle_roundtrip_from_angles():
    rng = np.random.default_rng(201)
    for m in (2, 3, 5, 9):
        phi = np.empty(m)
        phi[: m - 1] = rng.uniform(0.05, np.pi - 0.05, size=m - 1)
        phi[m - 1] = rng.uniform(0.0, 2.0 * np.pi)
        x = angles_to_point(phi)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        back = point_to_angles(x)
        assert np.max(np.abs(back - phi)) < 1e-10


def test_angle_roundtrip_from_points():
    rng = np.random.default_rng(202)
    for m in (1, 2, 3, 5, 9):
        for x in random_unit_points(rng, 20, m + 1):
            y = angles_to_point(point_to_angles(x))
            assert np.max(np.abs(y - x)) < 1e-12


def test_angle_chart_poles_use_canonical_zeros():
    # at the pole every later angle is unidentifiable; the chart picks 0
    for m in (3, 5):
        pole = np.zeros(m + 1)
        pole[0] = 1.0
        phi = point_to_angles(pole)
        assert np.all(phi == 0.0)


def test_angle_chart_azimuthal_branch():
    # a negative final coordinate lands in the (pi, 2 pi) azimuthal branch
    x = np.array([0.0, 0.6, -0.8])
    phi = point_to_angles(x)
    assert phi[-1] > np.pi
    assert np.max(np.abs(angles_to_point(phi) - x)) < 1e-12


def test_angle_range_validation():
    with pytest.raises(ValueError):
        angles_to_point(np.array([np.pi + 0.1, 1.0, 1.0]))
    with pytest.raises(ValueError):
        angles_to_point(np.array([1.0, 1.0, -0.5]))


def test_fold_identity_and_inverse():
    rng = np.random.default_rng(203)
    X = random_unit_points(rng, 30, 6)
    Z = real_to_complex(X)
    assert Z.shape == (30, 3)
    # interleaving: z_k = x_{2k} + i x_{2k+1}
    assert np.array_equal(Z.real, X[:, 0::2])
    assert np.array_equal(Z.imag, X[:, 1::2])
    assert np.array_equal(complex_to_real(Z), X)  # exact inverse


def test_fold_preserves_inner_product_real_part():
    # Re <u, v> equals the real dot product of the unfoldings
    rng = np.random.default_rng(204)
    X = random_unit_points(rng, 12, 8)
    Z = real_to_complex(X)
    gram_c = Z @ Z.conj().T
    gram_r = X @ X.T
    assert np.max(np.abs(gram_c.real - gram_r)) < 1e-14


def test_geodesics():
    rng = np.random.default_rng(205)
    x, y = random_unit_points(rng, 2, 4)
    expected = np.arccos(np.clip(np.dot(x, y), -1, 1))
    assert geodesic_real(x, y) == pytest.approx(expected, abs=1e-14)
    assert geodesic_real(x, x) == 0.0
    u, v = real_to_complex(np.vstack([x, y]))
    assert geodesic_complex(u, v) == pytest.approx(expected, abs=1e-14)


def test_symmetrize():
    rng = np.random.default_rng(206)
    G = random_unit_points(rng, 5, 4)
    S = symmetrize(G)
    assert S.symmetric and S.npoints == 10
    assert np.array_equal(S.points[:5], G)
    assert np.array_equal(S.points[5:], -G)
    with pytest.raises(ValueError, match="empty"):
        symmetrize(np.empty((0, 4)))


def test_sdf_roundtrip_real(tmp_path):
    rng = np.random.default_rng(207)
    X = symmetrize(random_unit_points(rng, 6, 4))
    path = tmp_path / "set.sdf"
    save_pointset(path, X, degree=3, extra_header={"note": "roundtrip"})
    loaded, header = load_real_pointset(path)
    assert np.array_equal(loaded.points, X.points)  # 17 digits reproduce exactly
    assert loaded.symmetric
    assert header["degree"] == 3
    assert header["npoints"] == 12
    assert header["dim"] == 4
    assert header["note"] == "roundtrip"


def test_sdf_roundtrip_complex(tmp_path):
    rng = np.random.default_rng(208)
    Z = ComplexPointSet(points=real_to_complex(random_unit_points(rng, 7, 6)))
    path = tmp_path / "rule.sdf"
    save_pointset(path, Z, degree=5)
    loaded, header = load_complex_pointset(path)
    assert np.array_equal(loaded.points, Z.points)
    assert header["degree"] == 5 and header["dim"] == 6


def test_sdf_headerless_inference(tmp_path):
    rng = np.random.default_rng(209)
    X = random_unit_points(rng, 4, 4)
    path = tmp_path / "bare.sdf"
    path.write_text(
        "\n".join(" ".join(f"{v:.16e}" for v in row) for row in X) + "\n"
    )
    loaded, header = load_real_pointset(path)
    assert np.max(np.abs(loaded.points - X)) < 1e-15
    assert not loaded.symmetric


def test_sdf_malformed_rejected(tmp_path):
    ragged = tmp_path / "ragged.sdf"
    ragged.write_text("1.0 0.0 0.0\n0.0 1.0\n")
    with pytest.raises(ValueError):
        load_real_pointset(ragged)
    wrong_dim = tmp_path / "wrongdim.sdf"
    wrong_dim.write_text("# dim: 5\n1.0 0.0 0.0 0.0\n")
    with pytest.raises(ValueError):
        load_real_pointset(wrong_dim)
    odd_cols = tmp_path / "odd.sdf"
    odd_cols.write_text("1.0 0.0 0.0\n")
    with pytest.raises(ValueError):
        load_complex_pointset(odd_cols)
