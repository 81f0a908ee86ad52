"""Command-line contract: flags, exit codes, and emitted artifacts."""

import csv
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cxdesign import (
    RealPointSet,
    load_complex_pointset,
    mesh_ratio,
    load_real_pointset,
    save_pointset,
)
from cxdesign.cli import run
from conftest import random_unit_points

ROOT = Path(__file__).resolve().parents[1]


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["bogus-subcommand"]) == 2
    assert run(["gen", "--complex-dim", "2"]) == 2  # missing --degree/--out
    assert run(["verify"]) == 2
    assert run(["tight", "--complex-dim", "2", "--degree", "4", "--out", "x"]) == 2
    capsys.readouterr()


def test_counts_published_example(capsys):
    assert run(["counts", "--complex-dim", "2", "--degree", "21"]) == 0
    out = capsys.readouterr().out
    assert "1184" in out
    assert "3795" in out  # polynomial space dimension


def test_counts_writes_csv(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    assert run(
        ["counts", "--complex-dim", "3", "--degree", "5", "--out", str(out)]
    ) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "d"
    assert rows[1][:2] == ["3", "5"]
    assert rows[1][-1] == "56"
    capsys.readouterr()


def test_counts_rejects_bad_dimension(capsys):
    assert run(["counts", "--complex-dim", "1", "--degree", "3"]) == 2
    assert capsys.readouterr().err == "error: need d >= 2 and t >= 1\n"


def test_tight_rejects_bad_dimension(tmp_path, capsys):
    sdf = tmp_path / "never.sdf"
    assert run(
        ["tight", "--complex-dim", "1", "--degree", "3", "--out", str(sdf)]
    ) == 2
    assert capsys.readouterr().err == "error: need d >= 2\n"
    assert not sdf.exists()


def test_tight_verify_roundtrip(tmp_path, capsys):
    sdf = tmp_path / "tight.sdf"
    assert run(
        ["tight", "--complex-dim", "2", "--degree", "3", "--out", str(sdf)]
    ) == 0
    assert run(["verify", str(sdf), "--degree", "3", "--complex"]) == 0
    report_csv = tmp_path / "tight.verify.csv"
    assert report_csv.exists()
    capsys.readouterr()


def test_full_pipeline_roundtrip(tmp_path, capsys):
    # gen -> verify -> metrics -> map -> verify --complex, all exit 0
    real_sdf = tmp_path / "design.sdf"
    code = run(
        [
            "gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
            "--restarts", "6", "--seed", "11", "--out", str(real_sdf),
        ]
    )
    assert code == 0
    assert run(["verify", str(real_sdf), "--degree", "3"]) == 0
    assert run(["metrics", str(real_sdf)]) == 0
    assert (tmp_path / "design.metrics.csv").exists()

    complex_sdf = tmp_path / "rule.sdf"
    assert run(["map", str(real_sdf), "--out", str(complex_sdf)]) == 0
    assert run(["verify", str(complex_sdf), "--degree", "3", "--complex"]) == 0

    # the mapped file is the interleaved fold of the real one
    X, header = load_real_pointset(real_sdf)
    Z, zheader = load_complex_pointset(complex_sdf)
    assert header["degree"] == 3 and zheader["degree"] == 3
    assert np.array_equal(Z.points.real, X.points[:, 0::2])
    out = capsys.readouterr().out
    assert "PASS" in out


def test_gen_defaults_to_published_count(tmp_path, capsys):
    # symmetric odd degree: N defaults to the symmetric working count
    sdf = tmp_path / "default_n.sdf"
    assert run(
        [
            "gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
            "--restarts", "6", "--seed", "11", "--out", str(sdf),
        ]
    ) == 0
    X, _ = load_real_pointset(sdf)
    assert X.npoints == 10
    capsys.readouterr()


def test_gen_failure_exits_one(tmp_path, capsys):
    sdf = tmp_path / "fail.sdf"
    with pytest.warns(UserWarning, match="lower bound"):
        code = run(
            [
                "gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
                "--points", "6", "--restarts", "1", "--seed", "0",
                "--max-iterations", "300", "--out", str(sdf),
            ]
        )
    assert code == 1
    assert sdf.exists()  # best effort is still written
    out = capsys.readouterr().out
    assert "NOT converged" in out


def test_gen_negative_threads_exits_two(tmp_path, capsys):
    sdf = tmp_path / "never.sdf"
    code = run(
        [
            "gen", "--complex-dim", "2", "--degree", "3", "--points", "10",
            "--restarts", "1", "--threads", "-1", "--out", str(sdf),
        ]
    )
    assert code == 2
    assert not sdf.exists()
    assert "threads" in capsys.readouterr().err


def test_gen_bad_dimension_or_tolerance_exits_two(tmp_path, capsys):
    sdf = tmp_path / "never.sdf"
    base = ["gen", "--degree", "5", "--restarts", "1", "--out", str(sdf)]
    for extra in ([], ["--points", "8"]):
        assert run(base + ["--complex-dim", "1"] + extra) == 2
        assert capsys.readouterr().err == "error: need d >= 2 and t >= 1\n"
    # an infinite tolerance would take the random start as converged
    assert run(base + ["--complex-dim", "2", "--tol", "inf"]) == 2
    assert "tol" in capsys.readouterr().err
    for budget in ("0", "-1"):
        code = run(base + ["--complex-dim", "2", "--max-iterations", budget])
        assert code == 2
        assert capsys.readouterr().err == "error: max_iterations must be >= 1\n"
    assert not sdf.exists()


def test_gen_start_choices(tmp_path, capsys):
    cross = np.vstack([np.eye(4), -np.eye(4)])
    start = tmp_path / "start.sdf"
    save_pointset(start, RealPointSet(points=cross, symmetric=True))
    out = tmp_path / "out.sdf"
    base = ["gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
            "--points", "8", "--restarts", "1", "--out", str(out)]
    assert run(base + ["--init-strategy", "spiral_like"]) == 2
    assert run(base + ["--init-strategy", "file"]) == 2
    assert not out.exists()
    capsys.readouterr()
    # --init-file alone selects the file start: a design returns unchanged
    for extra in ([], ["--init-strategy", "file"]):
        assert run(base + extra + ["--init-file", str(start)]) == 0
        assert "iterations = 0" in capsys.readouterr().out
        X, _ = load_real_pointset(out)
        assert np.array_equal(X.points, cross)


def test_gen_log_csv(tmp_path, capsys):
    sdf = tmp_path / "logged.sdf"
    log = tmp_path / "log.csv"
    assert run(
        [
            "gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
            "--restarts", "2", "--seed", "11", "--log-csv", str(log),
            "--out", str(sdf),
        ]
    ) == 0
    with open(log, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "restart", "iterations", "final_V", "separation", "covering",
        "mesh_ratio",
    ]
    assert len(rows) == 3
    capsys.readouterr()


def _printed_V(out):
    return [line.split("V = ")[1].split(",")[0]
            for line in out.splitlines() if "V = " in line]


def test_verify_prints_the_V_gen_printed(tmp_path, capsys):
    sdf = tmp_path / "design.sdf"
    assert run(
        [
            "gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
            "--restarts", "2", "--seed", "11", "--out", str(sdf),
        ]
    ) == 0
    assert run(["verify", str(sdf), "--degree", "3"]) == 0
    gen_V, verify_V = _printed_V(capsys.readouterr().out)
    assert verify_V == gen_V
    assert float(verify_V) >= 0.0


def test_verify_perturbed_design_exits_one(tmp_path, capsys):
    sdf = tmp_path / "good.sdf"
    assert run(
        [
            "gen", "--complex-dim", "2", "--degree", "3", "--symmetric",
            "--restarts", "6", "--seed", "11", "--out", str(sdf),
        ]
    ) == 0
    X, _ = load_real_pointset(sdf)
    pts = X.points.copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    pts[0, 0], pts[0, 1] = (
        c * pts[0, 0] - s * pts[0, 1],
        s * pts[0, 0] + c * pts[0, 1],
    )
    bad = tmp_path / "perturbed.sdf"
    save_pointset(bad, RealPointSet(points=pts), degree=3)
    assert run(["verify", str(bad), "--degree", "3", "--tol", "1e-10"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "garbage.sdf"
    bad.write_text("not a number at all\n")
    assert run(["verify", str(bad), "--degree", "3"]) == 2
    missing = tmp_path / "does_not_exist.sdf"
    assert run(["verify", str(missing), "--degree", "3"]) == 2
    capsys.readouterr()


def test_verify_above_the_degree_cap_exits_two(tmp_path, capsys):
    # degree 101 lies beyond the recurrence's measured range
    sdf = tmp_path / "pair.sdf"
    save_pointset(sdf, RealPointSet(points=np.eye(4)[:2]))
    assert run(["verify", str(sdf), "--degree", "101"]) == 2
    assert "100" in capsys.readouterr().err
    assert run(["verify", str(sdf), "--degree", "100"]) == 1
    capsys.readouterr()


def test_metrics_emits_report(tmp_path, capsys):
    rng = np.random.default_rng(701)
    sdf = tmp_path / "pts.sdf"
    save_pointset(sdf, RealPointSet(points=random_unit_points(rng, 8, 4)))
    assert run(["metrics", str(sdf), "--seeds", "4096"]) == 0
    with open(tmp_path / "pts.metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "N", "separation", "covering", "covering_uncertainty", "mesh_ratio",
    ]
    assert int(rows[1][0]) == 8
    assert float(rows[1][4]) >= 1.0
    assert "(uncertainty " in capsys.readouterr().out


def test_cli_import_does_not_load_scipy_stats():
    # only the covering net draws from scipy.stats.qmc, and it imports it
    # when it runs; a fresh interpreter shows what `import cxdesign.cli` loads
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    script = "import sys, cxdesign.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_map_without_degree_header_exits_two(tmp_path, capsys):
    cp = np.vstack([np.eye(4), -np.eye(4)])
    bare = tmp_path / "bare.sdf"
    bare.write_text(
        "\n".join(" ".join(f"{v:.16e}" for v in row) for row in cp) + "\n"
    )
    out = tmp_path / "out.sdf"
    assert run(["map", str(bare), "--out", str(out)]) == 2
    # so do a degree below 1 and a file on S^2, which cannot fold
    s2 = tmp_path / "s2.sdf"
    save_pointset(s2, RealPointSet(points=np.eye(3)), degree=1)
    for argv in ([str(bare), "--degree", "0"], [str(bare), "--degree", "-3"],
                 [str(s2)]):
        assert run(["map", *argv, "--out", str(out)]) == 2
    assert "rejected" not in capsys.readouterr().err
    assert not out.exists()
    # an explicit override fixes it
    assert run(["map", str(bare), "--degree", "3", "--out", str(out)]) == 0
    capsys.readouterr()


def test_map_rejection_exits_one(tmp_path, capsys):
    rng = np.random.default_rng(702)
    sdf = tmp_path / "random.sdf"
    save_pointset(
        sdf, RealPointSet(points=random_unit_points(rng, 12, 4)), degree=3
    )
    out = tmp_path / "out.sdf"
    assert run(["map", str(sdf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "rejected" in err
    # a t = 13 design swept one degree too high
    stored = ROOT / "perfbench" / "inputs" / "c2_t13_n308.sdf"
    assert run(["map", str(stored), "--degree", "14", "--out", str(out)]) == 1
    assert "not a degree-14 rule" in capsys.readouterr().err


def test_integrate_demo(tmp_path, capsys):
    sdf = tmp_path / "tight.sdf"
    assert run(
        ["tight", "--complex-dim", "2", "--degree", "3", "--out", str(sdf)]
    ) == 0
    assert run(["integrate", str(sdf), "--x0", "1+1i,1+1i"]) == 0
    with open(tmp_path / "tight.integrate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "N", "abs_error"]
    assert int(rows[1][1]) == 8
    assert 0 < float(rows[1][2]) < 0.05
    out = capsys.readouterr().out
    assert "0.25" in out


def test_integrate_pole_with_negative_leading_part(tmp_path, capsys):
    sdf = tmp_path / "tight.sdf"
    assert run(
        ["tight", "--complex-dim", "2", "--degree", "3", "--out", str(sdf)]
    ) == 0
    assert run(["integrate", str(sdf), "--x0", "-0.3+1.2i,0.5-0.2i"]) == 0
    assert run(["integrate", str(sdf), "--x0=-0.3+1.2i,0.5-0.2i"]) == 0
    out = capsys.readouterr().out
    assert out.count("x0=-0.3+1.2i,0.5-0.2i") == 2


def test_integrate_input_validation(tmp_path, capsys):
    # wrong complex dimension
    d3 = tmp_path / "d3.sdf"
    assert run(
        ["tight", "--complex-dim", "3", "--degree", "3", "--out", str(d3)]
    ) == 0
    assert run(["integrate", str(d3)]) == 2
    # malformed pole strings
    d2 = tmp_path / "d2.sdf"
    assert run(
        ["tight", "--complex-dim", "2", "--degree", "3", "--out", str(d2)]
    ) == 0
    assert run(["integrate", str(d2), "--x0", "1+1i"]) == 2
    assert run(["integrate", str(d2), "--x0", "zzz,1"]) == 2
    # pole inside the sphere
    assert run(["integrate", str(d2), "--x0", "0.1,0.1"]) == 2
    capsys.readouterr()


def test_nan_coordinates_exit_two(tmp_path, capsys):
    # the C^2 cross-polytope with one NaN entry: the monomial sweep skips
    # NaN errors, so without the container check it certifies the file
    pts = np.vstack([np.eye(4), -np.eye(4)])
    pts[0, 0] = np.nan
    sdf = tmp_path / "nan.sdf"
    sdf.write_text("\n".join(" ".join(map(str, row)) for row in pts) + "\n")
    assert run(["verify", str(sdf), "--degree", "3"]) == 2
    assert run(["verify", str(sdf), "--degree", "3", "--complex"]) == 2
    assert run(["map", str(sdf), "--degree", "3",
                "--out", str(tmp_path / "nanc.sdf")]) == 2
    assert capsys.readouterr().err.count("unit sphere") == 3


def test_coincident_points_have_infinite_mesh_ratio(tmp_path, capsys):
    pts = np.vstack([np.eye(4), -np.eye(4), np.eye(4)[:1]])
    report = mesh_ratio(RealPointSet(points=pts))
    assert report.separation == 0.0
    assert report.mesh_ratio == float("inf")
    sdf = tmp_path / "rep.sdf"
    save_pointset(sdf, RealPointSet(points=pts))
    assert run(["metrics", str(sdf)]) == 0
    with open(tmp_path / "rep.metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][4] == "inf"
    assert "mesh ratio    = inf" in capsys.readouterr().out


def test_run_gives_large_blocks_their_own_mapping(capsys):
    # after a 16 MiB block is freed, glibc's own rule would serve the next
    # 2 MiB block from the heap; run() fixes the threshold at 1 MiB instead
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        pytest.skip("needs glibc's mallinfo2")

    class MallInfo2(ctypes.Structure):
        _fields_ = [(name, ctypes.c_size_t) for name in (
            "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
            "fsmblks", "uordblks", "fordblks", "keepcost")]

    mallinfo2.restype = MallInfo2
    assert run(["counts", "--complex-dim", "2", "--degree", "3"]) == 0
    capsys.readouterr()
    big = np.ones(1 << 21)
    del big
    mapped = mallinfo2().hblkhd
    block = np.ones(1 << 18)
    assert mallinfo2().hblkhd - mapped >= block.nbytes
