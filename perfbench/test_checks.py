"""Each independent check accepts the program's output on a true design and
rejects a perturbed one.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from run import INPUTS, _read_sdf  # noqa: E402

from cxdesign.metrics import CoveringOptions, mesh_ratio  # noqa: E402
from cxdesign.sphere import RealPointSet  # noqa: E402


def _load(name):
    return _read_sdf(INPUTS / name)[0]


def _nudge(X, row=0, eps=1e-6):
    """Move one point a small step along the sphere."""
    Y = X.copy()
    Y[row, -1] += eps
    Y[row] /= np.linalg.norm(Y[row])
    return Y


def _report(X):
    rep = mesh_ratio(RealPointSet(points=X), CoveringOptions(seed=3))
    return {"separation": rep.separation, "covering": rep.covering,
            "covering_uncertainty": rep.covering_uncertainty,
            "mesh_ratio": rep.mesh_ratio}


@pytest.fixture(scope="module")
def design():
    return _load("c2_t13_n308.sdf")


def test_exact_moments_match_known_values():
    assert checks.real_sphere_moment(3, (2, 0, 0)) == checks.Fraction(1, 3)
    assert checks.real_sphere_moment(4, (2, 2, 0, 0)) == checks.Fraction(1, 24)
    assert checks.dirichlet_moment(2, (1, 0), (1, 0)) == checks.Fraction(1, 2)
    assert checks.dirichlet_moment(3, (1, 1, 0), (1, 1, 0)) == checks.Fraction(1, 12)
    assert checks.dirichlet_moment(2, (1, 0), (0, 1)) == 0
    assert len(checks.exponents(4, 13)) == 2380


def test_real_moments_reject_perturbed_design(design):
    assert checks.check_real_design(design, 13) < 1e-12
    with pytest.raises(checks.CheckFailed, match="real moments"):
        checks.check_real_design(_nudge(design), 13)


def test_complex_moments_reject_perturbed_rule(design):
    worst, checked = checks.check_complex_design(checks.fold(design), 13)
    assert checked == len(checks.exponents(4, 13))
    with pytest.raises(checks.CheckFailed, match="complex moments"):
        checks.check_complex_design(checks.fold(_nudge(design)), 13)


def test_norms_and_pairing_reject_perturbed_design(design):
    checks.check_unit_norms(design)
    checks.check_antipodal(design)
    off = design.copy()
    off[3] *= 1.0 + 1e-12
    with pytest.raises(checks.CheckFailed, match="unit norms"):
        checks.check_unit_norms(off)
    with pytest.raises(checks.CheckFailed, match="antipodal"):
        checks.check_antipodal(_nudge(design, row=len(design) - 1, eps=1e-15))


def test_fold_rejects_perturbed_nodes(design):
    checks.check_fold(design, checks.fold(design))
    with pytest.raises(checks.CheckFailed, match="fold"):
        checks.check_fold(design, checks.fold(_nudge(design)))


def test_metrics_checks_reject_perturbed_design():
    X = _load("tight_c2_t3.sdf")
    rep = _report(X)
    rng = np.random.default_rng(0)
    checks.check_metrics(X, rep, rng, samples=1 << 14)
    # a point moved onto its neighbour closes the separation ...
    Y = X.copy()
    Y[0] = X[1]
    with pytest.raises(checks.CheckFailed, match="separation"):
        checks.check_separation(Y, rep)
    # ... and leaves a hole the old covering radius does not reach
    with pytest.raises(checks.CheckFailed, match="random sample"):
        checks.check_covering_sample(Y, rep, rng, 1 << 14)
    bad = dict(rep, covering=0.4 * rep["separation"])
    bad["mesh_ratio"] = 2.0 * bad["covering"] / bad["separation"]
    with pytest.raises(checks.CheckFailed, match="below half"):
        checks.check_mesh_ratio(bad)


@pytest.mark.parametrize("name,t", [("tight_c2_t2.sdf", 2),
                                    ("tight_c2_t3.sdf", 3),
                                    ("tight_c3_t2.sdf", 2),
                                    ("tight_c3_t3.sdf", 3)])
def test_tight_covering_rejects_perturbed_rule(name, t):
    X = _load(name)
    Z = checks.fold(X)
    checks.check_tight_covering(Z, t, _report(X))
    with pytest.raises(checks.CheckFailed, match="tight"):
        checks.tight_covering_radius(checks.fold(_nudge(X, row=1, eps=1e-3)), t)


def test_integration_rejects_perturbed_rule():
    X = _load("c2_t13_n308.sdf")
    Z = checks.fold(X)
    x0 = np.array([1 + 1j, 1 + 1j])
    exact = 0.25
    err = abs(np.mean(1.0 / np.sum(np.abs(Z - x0) ** 2, axis=1)) - exact)
    checks.check_integration(Z, 13, x0, err)
    with pytest.raises(checks.CheckFailed, match="reported error"):
        checks.check_integration(checks.fold(_nudge(X, eps=1e-3)), 13, x0, err)
    # a degree-3 rule does not meet the degree-13 bound
    T = checks.fold(_load("tight_c2_t3.sdf"))
    low = abs(np.mean(1.0 / np.sum(np.abs(T - x0) ** 2, axis=1)) - exact)
    checks.check_integration(T, 3, x0, low)
    with pytest.raises(checks.CheckFailed, match="bound"):
        checks.check_integration(T, 13, x0, low)
