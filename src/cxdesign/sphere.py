"""Points and point sets on real spheres S^m and complex spheres, plus I/O.

Cartesian coordinates are the source of truth everywhere; the angle
parametrization is a view used by the optimizer. The real <-> complex bridge
interleaves coordinates, so z_j = x_{2j-1} + i x_{2j} and real inner products
equal real parts of Hermitian inner products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "RealPointSet",
    "ComplexPointSet",
    "angles_to_point",
    "point_to_angles",
    "geodesic_real",
    "geodesic_complex",
    "real_to_complex",
    "complex_to_real",
    "symmetrize",
    "save_pointset",
    "load_real_pointset",
    "load_complex_pointset",
]

_TWO_PI = 2.0 * np.pi
_ANGLE_SLACK = 1e-9
_NORM_TOL = 1e-10


def _as_matrix(points, dtype):
    arr = np.array(points, dtype=dtype, order="C")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("point set must be an (N, dim) array with dim >= 2")
    if arr.shape[0] == 0:
        raise ValueError("point set is empty")
    return arr


@dataclass(frozen=True)
class RealPointSet:
    """Ordered set of N unit vectors on S^m, optionally antipodally symmetric.

    When symmetric, row n/2 + i is exactly -1 times row i; the optimizer
    relies on that pairing holding bit for bit.
    """

    points: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        arr = _as_matrix(self.points, float)
        norms = np.linalg.norm(arr, axis=1)
        if np.max(np.abs(norms - 1.0)) > _NORM_TOL:
            raise ValueError("points must lie on the unit sphere")
        if self.symmetric:
            n = arr.shape[0]
            if n % 2:
                raise ValueError("symmetric set needs an even point count")
            if not np.array_equal(arr[n // 2 :], -arr[: n // 2]):
                raise ValueError("symmetric flag requires exact antipodal pairing")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def m(self):
        """Sphere dimension (ambient dimension minus one)."""
        return self.points.shape[1] - 1


@dataclass(frozen=True)
class ComplexPointSet:
    """Ordered set of N unit vectors on the complex sphere in C^d."""

    points: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.points, complex)
        norms = np.linalg.norm(arr, axis=1)
        if np.max(np.abs(norms - 1.0)) > _NORM_TOL:
            raise ValueError("points must lie on the complex unit sphere")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def npoints(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


def angles_to_point(phi):
    """Cartesian coordinates on S^m from m spherical angles.

    x_1 = cos(phi_1), x_k = cos(phi_k) prod_{j<k} sin(phi_j), and the last
    coordinate is the full product of sines. The first angle lives in
    [0, pi], the rest in [0, 2 pi); for m = 1 the single angle is the
    azimuthal one with range [0, 2 pi).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size < 1:
        raise ValueError("phi must be a nonempty vector of angles")
    m = phi.size
    lo, hi = -_ANGLE_SLACK, _TWO_PI + _ANGLE_SLACK
    if phi.min() < lo or phi.max() > hi:
        raise ValueError("angle outside its admissible range")
    if m > 1 and phi[0] > np.pi + _ANGLE_SLACK:
        raise ValueError("polar angle must lie in [0, pi]")
    return _angles_to_points(phi[None, :])[0]


def _angles_to_points(phi):
    """Rows of angles_to_point for an (n, m) array, without the range
    check: the optimizer iterates on unconstrained angles."""
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


def point_to_angles(x):
    """Spherical angles for a unit vector, inverse of angles_to_point.

    At parametrization singularities (a vanishing tail) the remaining angles
    are set to 0, the lexicographically smallest representative; elsewhere the
    round trip reproduces the point to ~1e-15.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a coordinate vector with at least 2 entries")
    if abs(np.linalg.norm(x) - 1.0) > _NORM_TOL:
        raise ValueError("x must be a unit vector")
    m = x.size - 1
    # tail[k] = norm of x[k:], computed from the far end for accuracy
    tail = np.sqrt(np.cumsum(x[::-1] ** 2)[::-1])
    phi = np.zeros(m)
    for k in range(m - 1):
        if tail[k] > 0.0:
            phi[k] = np.arccos(np.clip(x[k] / tail[k], -1.0, 1.0))
        else:
            return phi
    if tail[m - 1] > 0.0:
        last = np.arccos(np.clip(x[m - 1] / tail[m - 1], -1.0, 1.0))
        if x[m] < 0.0:
            last = _TWO_PI - last
        phi[m - 1] = last
    return phi


def geodesic_real(x, y):
    """Great-circle distance between unit vectors, in [0, pi]."""
    d = float(np.dot(np.asarray(x, float), np.asarray(y, float)))
    return float(np.arccos(np.clip(d, -1.0, 1.0)))


def geodesic_complex(u, v):
    """Distance on the complex sphere: arccos of Re of the Hermitian product."""
    d = float(np.real(np.vdot(np.asarray(v, complex), np.asarray(u, complex))))
    return float(np.arccos(np.clip(d, -1.0, 1.0)))


def real_to_complex(x):
    """Fold a vector on S^(2d-1) into C^d by interleaving: z_j = x_{2j-1} + i x_{2j}.

    Works on a single vector or an (N, 2d) matrix.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("need an even number of real coordinates")
    return x[..., 0::2] + 1j * x[..., 1::2]


def complex_to_real(u):
    """Unfold a vector in C^d into R^(2d); exact inverse of real_to_complex."""
    u = np.asarray(u, dtype=complex)
    shape = u.shape[:-1] + (2 * u.shape[-1],)
    x = np.empty(shape, dtype=float)
    x[..., 0::2] = u.real
    x[..., 1::2] = u.imag
    return x


def symmetrize(X):
    """Append exact antipodes: N points become 2N with the symmetric flag set."""
    pts = X.points if isinstance(X, RealPointSet) else np.asarray(X, float)
    return RealPointSet(points=np.vstack([pts, -pts]), symmetric=True)


# ---------------------------------------------------------------------------
# SDF text format: '#'-prefixed "key: value" header lines, then one point per
# row with 17 significant digits. Real rows have m+1 columns; complex rows
# interleave re,im for 2d columns. The `dim` key records the column count.
# Headerless files are accepted, with the dimension inferred from the columns.
# ---------------------------------------------------------------------------


def _format_header(header):
    lines = []
    for key, value in header.items():
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"# {key}: {value}")
    return lines


def save_pointset(path, X, degree=None, extra_header=None):
    """Write a RealPointSet or ComplexPointSet as an SDF text file."""
    if isinstance(X, ComplexPointSet):
        matrix = complex_to_real(X.points)
        symmetric = None
    elif isinstance(X, RealPointSet):
        matrix = X.points
        symmetric = X.symmetric
    else:
        raise TypeError("expected a RealPointSet or ComplexPointSet")
    header = {
        "dim": matrix.shape[1],
        "npoints": matrix.shape[0],
        "degree": degree,
        "symmetric": symmetric,
    }
    if extra_header:
        header.update(extra_header)
    lines = _format_header(header)
    for row in matrix:
        lines.append(" ".join(f"{v:.16e}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_header_value(raw):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _load_matrix(path):
    header = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    header[key.strip().lower()] = _parse_header_value(value)
                continue
            rows.append([float(tok) for tok in line.split()])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged rows in {path}")
    matrix = np.array(rows, dtype=float)
    if "dim" in header and header["dim"] != matrix.shape[1]:
        raise ValueError(
            f"header dim {header['dim']} does not match {matrix.shape[1]} columns"
        )
    if "npoints" in header and header["npoints"] != matrix.shape[0]:
        raise ValueError("header npoints does not match the row count")
    return matrix, header


def load_real_pointset(path):
    """Read an SDF file as points on S^(cols-1). Returns (set, header)."""
    matrix, header = _load_matrix(path)
    symmetric = bool(header.get("symmetric", False))
    return RealPointSet(points=matrix, symmetric=symmetric), header


def load_complex_pointset(path):
    """Read an SDF file as interleaved re,im points in C^(cols/2)."""
    matrix, header = _load_matrix(path)
    if matrix.shape[1] % 2:
        raise ValueError("complex point files need an even column count")
    return ComplexPointSet(points=real_to_complex(matrix)), header
