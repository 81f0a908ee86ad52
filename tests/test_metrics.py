"""Separation, covering radius estimation, mesh ratio, and figure exports.

Oracles: brute-force pairwise loops for separation, analytic covering radii
of the tight families, and the packing bound covering >= separation / 2.
Tests of the net estimator call `metrics._net_candidates` or use points on
S^7, because on S^3 and S^5 `covering_estimate` takes the hull path.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from scipy.stats import qmc

from cxdesign import metrics, sphere

from cxdesign import (
    CoveringOptions,
    RealPointSet,
    covering_estimate,
    mesh_ratio,
    separation,
    sorted_inner_products,
    stereographic_projection,
    symmetrize,
    write_inner_products_csv,
    write_stereographic_csv,
)
from conftest import random_unit_points


def _brute_separation(points):
    best = np.inf
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            u = min(1.0, max(-1.0, float(np.dot(points[i], points[j]))))
            best = min(best, np.arccos(u))
    return best


def _cross_polytope(dim):
    return symmetrize(np.eye(dim))


def _simplex(dim, rng):
    # dim + 1 unit vectors in R^dim with pairwise inner product -1/dim,
    # randomly rotated so no facet is axis-aligned
    centred = np.eye(dim + 1) - 1.0 / (dim + 1)
    _, _, vt = np.linalg.svd(centred)
    pts = centred @ vt[:dim].T
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return RealPointSet(points=pts @ rotation)


def _net_max(pts, opts):
    values, _ = metrics._net_candidates(pts, opts)
    return float(np.max(values))


def test_separation_matches_brute_force():
    rng = np.random.default_rng(401)
    for n, dim in [(6, 4), (15, 6), (9, 3)]:
        X = RealPointSet(points=random_unit_points(rng, n, dim))
        assert separation(X) == pytest.approx(_brute_separation(X.points), abs=1e-14)


def test_separation_known_values():
    assert separation(_cross_polytope(4)) == pytest.approx(np.pi / 2, abs=0)
    pair = RealPointSet(
        points=np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]), symmetric=True
    )
    assert separation(pair) == pytest.approx(np.pi, abs=1e-15)


def test_separation_of_coincident_points_is_zero():
    # arccos of an inner product that rounds to 1 - 2**-53 is 1.49e-8, so a
    # repeated row needs the chord to come out as exactly 0
    rng = np.random.default_rng(420)
    opts = CoveringOptions(seeds=2**6, refine_iters=2)
    for _ in range(200):
        pts = random_unit_points(rng, 5, 4)
        X = RealPointSet(points=np.vstack([pts, pts[:1]]))
        assert separation(X) == 0.0
        assert mesh_ratio(X, opts).mesh_ratio == np.inf


def test_separation_prefers_a_coincident_pair_over_a_near_one():
    # rows 0 and 3 coincide; rows 1 and 2 are 1e-9 apart, and their inner
    # product rounds higher than that of the coincident pair
    rng = np.random.default_rng(421)
    pts = random_unit_points(rng, 2, 4)
    tangent = random_unit_points(rng, 1, 4)[0]
    tangent -= np.dot(tangent, pts[1]) * pts[1]
    tangent /= np.linalg.norm(tangent)
    near = np.cos(1e-9) * pts[1] + np.sin(1e-9) * tangent
    X = RealPointSet(points=np.vstack([pts, near, pts[:1]]))
    gram = X.points @ X.points.T
    assert gram[1, 2] > gram[0, 3]
    assert separation(X) == 0.0
    pair = RealPointSet(points=X.points[1:3])
    assert separation(pair) == pytest.approx(1e-9, rel=1e-6)


def test_separation_resolves_coincident_points_across_blocks(monkeypatch):
    # one row per block, so the tied rows sit in different Gram blocks
    monkeypatch.setattr(sphere, "_BLOCK_BYTES", 1)
    test_separation_of_coincident_points_is_zero()
    test_separation_prefers_a_coincident_pair_over_a_near_one()


def test_separation_memory_is_bounded_by_the_row_block():
    # one 1184 x 1184 Gram takes 10.7 MiB; measured peak 1.0 MiB
    rng = np.random.default_rng(430)
    X = RealPointSet(points=random_unit_points(rng, 1184, 4))
    tracemalloc.start()
    try:
        sep = separation(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gram = X.points @ X.points.T
    np.fill_diagonal(gram, -2.0)
    assert sep == np.arccos(np.max(gram))
    assert peak < 4 * 2**20


def test_sorted_inner_products():
    # the full Gram's upper triangle, sorted descending; 400 points on S^3
    # take two Gram row blocks (362 rows fit in one), whose products may
    # round differently from the one full product
    rng = np.random.default_rng(402)
    for n in (8, 400):
        X = RealPointSet(points=random_unit_points(rng, n, 4))
        vals = sorted_inner_products(X)
        gram = X.points @ X.points.T
        expected = np.sort(gram[np.triu_indices(n, k=1)])[::-1]
        assert vals.shape == (n * (n - 1) // 2,)
        assert np.max(np.abs(vals - expected)) <= 4 * np.finfo(float).eps
        assert np.all(np.diff(vals) <= 0)
    assert len(sphere._row_slices(n, 8 * n)) > 1


def test_covering_tight_families_hit_analytic_values():
    # antipodal pair on S^3: covering exactly pi/2
    pair = RealPointSet(
        points=np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]), symmetric=True
    )
    value, unc = covering_estimate(pair)
    assert value == pytest.approx(np.pi / 2, abs=1e-9)
    assert unc > 0
    # cross-polytopes: covering arccos(1 / sqrt(dim))
    for dim in (4, 6, 8):
        X = _cross_polytope(dim)
        value, _ = covering_estimate(X)
        assert value == pytest.approx(np.arccos(1 / np.sqrt(dim)), abs=1e-6)


def test_covering_estimate_is_a_lower_bound():
    # the estimator reports an exactly-evaluated nearest-point distance, so
    # it can never exceed the true covering radius
    for dim in (4, 6):
        X = _cross_polytope(dim)
        value, _ = covering_estimate(X)
        assert value <= np.arccos(1 / np.sqrt(dim)) + 1e-12


def test_covering_monotone_under_insertion():
    # adding a point cannot increase the covering radius (same net, seed)
    rng = np.random.default_rng(403)
    base = random_unit_points(rng, 10, 4)
    extra = random_unit_points(rng, 1, 4)
    opts = CoveringOptions(seeds=2**13, refine_iters=25, seed=7)
    before = _net_max(base, opts)
    after = _net_max(np.vstack([base, extra]), opts)
    assert after <= before + 1e-9


def test_covering_deterministic():
    # on S^7, so covering_estimate runs the net path
    rng = np.random.default_rng(404)
    X = RealPointSet(points=random_unit_points(rng, 12, 8))
    opts = CoveringOptions(seeds=2**12, refine_iters=20, seed=3)
    a = covering_estimate(X, opts)
    b = covering_estimate(X, opts)
    assert a == b


def _dense_top_starts(pts, seeds, seed):
    # reference ranking: the full chunk x N Gram of every net chunk
    dim = pts.shape[1]
    engine = qmc.Sobol(d=dim, scramble=True, seed=seed)
    vals = np.empty(0)
    cand = np.empty((0, dim))
    for lo in range(0, seeds, metrics._CHUNK):
        Y = metrics._net_on_sphere(min(metrics._CHUNK, seeds - lo), dim, engine)
        F = np.arccos(np.max(np.clip(Y @ pts.T, -1.0, 1.0), axis=1))
        vals = np.concatenate([vals, F])
        cand = np.vstack([cand, Y])
    order = np.argsort(vals)[::-1][: metrics._TOP_K]
    return cand[order], vals[order]


@pytest.mark.parametrize("block_bytes", [2**24, 8 * 40 * 100])
def test_blocked_seed_ranking_matches_dense(monkeypatch, block_bytes):
    # 2**24 bytes hold the whole chunk in one block; 8 * 40 * 100 bytes give
    # 100-row blocks, so the chunks below span many blocks with a ragged end
    monkeypatch.setattr(sphere, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(metrics, "_CHUNK", 2**11)
    rng = np.random.default_rng(409)
    pts = random_unit_points(rng, 40, 4)
    seeds = 2**12 + 300
    starts = metrics._top_starts(pts, seeds, seed=5)
    ref_pts, ref_vals = _dense_top_starts(pts, seeds, seed=5)
    assert np.array_equal(starts, ref_pts)
    blocked = np.arccos(np.clip(metrics._max_inner(starts, pts), -1.0, 1.0))
    assert np.max(np.abs(blocked - ref_vals)) <= 1e-15


def test_covering_memory_is_bounded():
    # the net is ranked in blocks, so the peak does not hold a chunk x N
    # Gram (2**18 x 1000 doubles, 2 GB)
    rng = np.random.default_rng(410)
    pts = random_unit_points(rng, 1000, 4)
    opts = CoveringOptions(seeds=2**18, refine_iters=2)
    tracemalloc.start()
    try:
        metrics._net_candidates(pts, opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_refinement_memory_is_bounded():
    # the N + 48 ascent starts are refined in row blocks, so the peak holds
    # no (N + 48) x N array (2048 x 2000 doubles, 33 MB each)
    rng = np.random.default_rng(412)
    pts = random_unit_points(rng, 2000, 4)
    opts = CoveringOptions(seeds=2**10, refine_iters=2)
    tracemalloc.start()
    try:
        metrics._net_candidates(pts, opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_refinement_blocks_do_not_change_the_estimate(monkeypatch):
    rng = np.random.default_rng(413)
    pts = random_unit_points(rng, 40, 4)
    opts = CoveringOptions(seeds=2**12, refine_iters=20, seed=3)
    one_block = _net_max(pts, opts)
    monkeypatch.setattr(sphere, "_BLOCK_BYTES", 8 * 40 * 3)  # 3 rows
    assert _net_max(pts, opts) == one_block


def test_zero_seeds_rejected():
    X = _cross_polytope(4)
    with pytest.raises(ValueError, match="seeds"):
        covering_estimate(X, CoveringOptions(seeds=0))


def test_negative_refine_iters_rejected():
    # options are checked on construction, so the hull path rejects them too
    with pytest.raises(ValueError, match="refine_iters"):
        CoveringOptions(refine_iters=-1)
    assert CoveringOptions(refine_iters=0).refine_iters == 0


def test_hull_hits_the_closed_forms():
    # cross-polytope: arccos(1 / sqrt(dim)); simplex: the antipode of a
    # vertex, arccos(1 / dim)
    rng = np.random.default_rng(414)
    for dim in (4, 6):
        for X, exact in [
            (_cross_polytope(dim), np.arccos(1.0 / np.sqrt(dim))),
            (_simplex(dim, rng), np.arccos(1.0 / dim)),
        ]:
            value, unc = covering_estimate(X)
            assert abs(value - exact) <= 1e-14
            assert 0.0 < unc < 1e-12


def test_hull_is_at_least_the_net_estimate():
    # the hull reaches the deepest hole; the net estimate is a lower bound
    rng = np.random.default_rng(415)
    opts = CoveringOptions(seeds=2**12, refine_iters=20, seed=1)
    for k in range(20):
        dim = 4 if k % 2 == 0 else 6
        pts = random_unit_points(rng, int(rng.integers(30, 60)), dim)
        hull = metrics._hull_candidates(pts)
        assert hull is not None
        assert np.max(hull[0]) >= _net_max(pts, opts) - 1e-15


def test_hull_value_is_the_min_distance_at_the_winning_normal():
    rng = np.random.default_rng(416)
    for dim in (4, 6):
        pts = random_unit_points(rng, 50, dim)
        value, unc = covering_estimate(RealPointSet(points=pts))
        eq = ConvexHull(pts).equations
        normals = eq[:, :-1] / np.linalg.norm(eq[:, :-1], axis=1, keepdims=True)
        values, _ = metrics._hull_candidates(pts)
        assert values.shape == (len(normals),)
        best = normals[np.argmax(values)]
        brute = min(
            math.acos(min(1.0, max(-1.0, math.fsum(best * x)))) for x in pts
        )
        assert abs(value - brute) <= unc


def test_hull_ignores_seed_and_coordinate_order():
    rng = np.random.default_rng(417)
    for dim in (4, 6):
        pts = random_unit_points(rng, 80, dim)
        a, ua = covering_estimate(RealPointSet(points=pts))
        assert covering_estimate(
            RealPointSet(points=pts), CoveringOptions(seed=9, seeds=2**10)
        ) == (a, ua)
        perm = rng.permutation(dim)
        b, ub = covering_estimate(RealPointSet(points=pts[:, perm]))
        assert abs(a - b) <= ua + ub


def test_degenerate_sets_take_the_net_path():
    # the antipodal pair has no full-dimensional hull; points inside one
    # hemisphere have a hull that misses the origin, and their deepest hole
    # (beyond pi/2) lies off every facet normal
    pair = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    assert metrics._hull_candidates(pair) is None
    value, unc = covering_estimate(RealPointSet(points=pair))
    assert value == pytest.approx(np.pi / 2, abs=1e-9)
    assert unc == pytest.approx(np.pi * (2 * metrics._SEED_FACTOR) ** (-1 / 3))
    rng = np.random.default_rng(418)
    cap = random_unit_points(rng, 30, 4)
    cap[:, 0] = np.abs(cap[:, 0]) + 0.5
    cap /= np.linalg.norm(cap, axis=1, keepdims=True)
    assert metrics._hull_candidates(cap) is None
    value, unc = covering_estimate(RealPointSet(points=cap))
    assert value > np.pi / 2 and unc > 1e-3


def test_hull_memory_is_bounded():
    # 3642 points of S^3 (the largest published count) have about 24k
    # facets; the normals are evaluated in row blocks, never facets x N
    rng = np.random.default_rng(419)
    X = RealPointSet(points=random_unit_points(rng, 3642, 4))
    tracemalloc.start()
    try:
        covering_estimate(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_hull_candidates_have_one_value_per_facet():
    values, _ = metrics._hull_candidates(_cross_polytope(4).points)
    assert values.shape == (16,)
    assert np.all(np.abs(values - np.pi / 3) <= 1e-15)


def test_mesh_ratio_report():
    X = _cross_polytope(4)
    report = mesh_ratio(X)
    assert report.N == 8
    assert report.separation == pytest.approx(np.pi / 2, abs=0)
    assert report.covering == pytest.approx(np.arccos(0.5), abs=1e-6)
    assert report.mesh_ratio == pytest.approx(
        report.covering / (0.5 * report.separation), rel=1e-12
    )
    assert report.mesh_ratio == pytest.approx(4.0 / 3.0, abs=2e-3)


def test_mesh_ratio_at_least_one():
    # covering radius always dominates half the separation
    rng = np.random.default_rng(405)
    for n, dim in [(8, 4), (20, 6)]:
        X = RealPointSet(points=random_unit_points(rng, n, dim))
        report = mesh_ratio(X, CoveringOptions(seeds=2**13))
        assert report.mesh_ratio >= 1.0 - 1e-9


_E1 = np.array([1.0, 0.0, 0.0, 0.0])


def _stereographic_inverse(Y, pole):
    # the unit sphere of R^3 maps to the equator of the pole's frame, the
    # origin to the antipode of the pole
    r2 = np.sum(Y * Y, axis=1)
    W = np.column_stack([(r2 - 1.0) / (r2 + 1.0), 2.0 * Y / (r2 + 1.0)[:, None]])
    return W @ metrics._pole_frame(pole)


def test_stereographic_roundtrip():
    rng = np.random.default_rng(406)
    X = RealPointSet(points=random_unit_points(rng, 25, 4))
    Y = stereographic_projection(X, _E1)
    assert Y.shape == (25, 3)
    back = _stereographic_inverse(Y, _E1)
    assert np.max(np.abs(back - X.points)) < 1e-12


def test_stereographic_general_pole():
    rng = np.random.default_rng(407)
    X = RealPointSet(points=random_unit_points(rng, 10, 4))
    pole = random_unit_points(rng, 1, 4)[0]
    Y = stereographic_projection(X, pole=pole)
    back = _stereographic_inverse(Y, pole)
    assert np.max(np.abs(back - X.points)) < 1e-12


def test_stereographic_pole_is_required(tmp_path):
    X = _cross_polytope(4)
    with pytest.raises(TypeError):
        stereographic_projection(X)
    with pytest.raises(TypeError):
        write_stereographic_csv(tmp_path / "st.csv", X)


def test_stereographic_projects_a_found_design(design_library):
    # the search pins the first point at e_1, which no default pole avoids
    X = design_library.get(2, 3).points
    assert np.array_equal(X.points[0], _E1)
    pole = np.array([0.3, -1.2, 0.5, 0.77])
    pole /= np.linalg.norm(pole)
    Y = stereographic_projection(X, pole)
    assert np.max(np.abs(_stereographic_inverse(Y, pole) - X.points)) < 1e-12
    with pytest.raises(ValueError, match="pole"):
        stereographic_projection(X, _E1)


def test_stereographic_rejects_bad_input():
    pole_hit = RealPointSet(points=np.array([[1.0, 0, 0, 0]]))
    with pytest.raises(ValueError):
        stereographic_projection(pole_hit, _E1)
    wrong_dim = RealPointSet(points=np.eye(3))
    with pytest.raises(ValueError):
        stereographic_projection(wrong_dim, _E1)


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(408)
    X = RealPointSet(points=random_unit_points(rng, 6, 4))

    ip_path = tmp_path / "ip.csv"
    write_inner_products_csv(ip_path, X)
    with open(ip_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "inner_product"]
    assert len(rows) == 1 + 6 * 5 // 2

    st_path = tmp_path / "st.csv"
    write_stereographic_csv(st_path, X, _E1)
    with open(st_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y1", "y2", "y3"]
    assert len(rows) == 7
