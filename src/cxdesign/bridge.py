"""Quadrature rules on complex spheres: bridging real designs, the three
analytic tight families, and the inverse-square-distance integration demo.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .criteria import (
    MonomialReport,
    is_spherical_design,
    verify_triangular_design,
)
from .metrics import MetricsReport
from .sphere import ComplexPointSet, RealPointSet, _write_csv, real_to_complex

__all__ = [
    "QuadratureRule",
    "map_design",
    "tight_design",
    "integrate",
    "inverse_square_distance",
    "demo_error_curve",
    "write_error_curve_csv",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Equal-weight quadrature rule on the complex sphere in C^d.

    Every node carries weight 1/N. degree_claim is the polynomial degree
    the rule is exact through; shipped rules carry the monomial
    verification report backing that claim, and the analytic families also
    carry exact metric values.
    """

    nodes: ComplexPointSet
    degree_claim: int
    report: MonomialReport | None = None
    metrics: MetricsReport | None = None

    @property
    def npoints(self):
        return self.nodes.npoints

    @property
    def d(self):
        return self.nodes.d

    @property
    def weight(self):
        return 1.0 / self.nodes.npoints


def map_design(X, t, tol=1e-10):
    """Fold a real design on S^(2d-1) into a verified rule on the complex
    sphere in C^d. Rejects inputs whose monomial sweep fails at tol."""
    if not isinstance(X, RealPointSet):
        raise TypeError("expected a RealPointSet")
    if (X.m + 1) % 2:
        raise ValueError("the real sphere dimension must be odd to fold")
    nodes = ComplexPointSet(points=real_to_complex(X.points))
    report = verify_triangular_design(nodes, t, tol)
    if not report.passed:
        real_report = is_spherical_design(X, t)
        raise ValueError(
            f"not a degree-{t} rule: worst monomial pair {report.worst_pair} "
            f"errs {report.max_error:.3e} (tol {tol:.1e}); real per-degree "
            f"max {real_report.max_defect:.3e}"
        )
    return QuadratureRule(nodes=nodes, degree_claim=t, report=report)


def _simplex_generators(dim):
    # dim+1 unit vectors in R^dim with pairwise inner products -1/dim
    n = dim + 1
    centered = np.eye(n) - np.full((n, n), 1.0 / n)
    U, s, _ = np.linalg.svd(centered)
    G = U[:, :dim] * s[:dim]
    return G / np.linalg.norm(G, axis=1, keepdims=True)


def tight_design(d, t):
    """The analytic minimal family for t in {1, 2, 3} on the complex
    sphere in C^d, with exact metric values attached.

    t=1: an antipodal pair. t=2: the regular simplex of 2d+1 points.
    t=3: the cross-polytope {±e_j, ±i e_j} of 4d points.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if t == 1:
        real = np.zeros((2, 2 * d))
        real[0, 0] = 1.0
        real[1, 0] = -1.0
        sep = np.pi
        cov = np.pi / 2.0
    elif t == 2:
        real = _simplex_generators(2 * d)
        sep = float(np.arccos(-1.0 / (2 * d)))
        cov = float(np.arccos(1.0 / (2 * d)))
    elif t == 3:
        eye = np.eye(2 * d)
        real = np.vstack([eye, -eye])
        sep = np.pi / 2.0
        cov = float(np.arccos(1.0 / np.sqrt(2 * d)))
    else:
        raise ValueError("tight families are available for t in {1, 2, 3}")
    nodes = ComplexPointSet(points=real_to_complex(real))
    report = verify_triangular_design(nodes, t, 1e-10)
    metrics = MetricsReport(
        separation=sep,
        covering=cov,
        covering_uncertainty=0.0,
        mesh_ratio=2.0 * cov / sep,
        N=real.shape[0],
    )
    return QuadratureRule(
        nodes=nodes, degree_claim=t, report=report, metrics=metrics
    )


def integrate(rule, f):
    """Equal-weight average of f over the rule's nodes, compensated."""
    vals = [complex(f(z)) for z in rule.nodes.points]
    n = len(vals)
    return complex(
        fsum(v.real for v in vals) / n, fsum(v.imag for v in vals) / n
    )


def inverse_square_distance(x0):
    """The integrand 1/|z - x0|^2 with a pole at x0 outside the sphere."""
    x0 = np.asarray(x0, dtype=complex)

    def f(z):
        diff = z - x0
        return 1.0 / float(np.real(np.vdot(diff, diff)))

    return f


def demo_error_curve(rules, x0):
    """Integration errors of 1/|z - x0|^2 on the complex sphere in C^2.

    The integrand is harmonic as a function on R^4 when |x0| > 1, so the
    exact integral is its value at the origin, 1/|x0|^2. Returns one
    (t, N, abs_error) row per rule.
    """
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (2,):
        raise ValueError("x0 must be a point in C^2")
    norm2 = float(np.real(np.vdot(x0, x0)))
    if norm2 <= 1.0:
        raise ValueError("x0 must lie outside the unit sphere")
    f = inverse_square_distance(x0)
    exact = 1.0 / norm2
    rows = []
    for rule in rules:
        if rule.d != 2:
            raise ValueError("the demo runs on C^2 rules only")
        approx = integrate(rule, f)
        rows.append((rule.degree_claim, rule.npoints, abs(approx - exact)))
    return rows


def write_error_curve_csv(path, rows):
    """Columns: t, N, abs_error; one row per rule."""
    return _write_csv(path, ["t", "N", "abs_error"], rows)
