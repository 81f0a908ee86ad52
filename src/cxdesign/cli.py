"""Command-line surface: gen, verify, metrics, map, tight, integrate, counts.

Exit codes: 0 success, 1 verification/convergence failure, 2 usage errors
(bad flags, malformed files, dimension mismatches). Every subcommand writes
a machine-readable artifact (SDF or CSV) and prints a short human summary.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import sys
from pathlib import Path

import numpy as np

from .bridge import (
    QuadratureRule,
    demo_error_curve,
    map_design,
    tight_design,
    write_error_curve_csv,
)
from .criteria import is_spherical_design, verify_triangular_design
from .metrics import CoveringOptions, mesh_ratio
from .optimize import OptimizerConfig, find_design
from .orthopoly import dim_complex_space, point_counts
from .sphere import (
    _BLOCK_BYTES,
    _write_csv,
    load_complex_pointset,
    load_real_pointset,
    save_pointset,
)

__all__ = ["run", "main"]

# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _pin_malloc_thresholds():
    """Give every block above the row-block budget a mapping of its own.

    glibc raises its mmap threshold to the size of each large block it
    frees, so when run() is called again and again in one process, later
    large arrays come from the heap; a small live block left between them
    then sends the next one to fresh pages while the freed ones stay
    resident, and the peak RSS jumps by a whole array now and then. Fixed
    thresholds (trim at twice the mmap one, as glibc pairs them) keep large
    blocks off the heap. Without glibc's mallopt this does nothing.
    """
    with contextlib.suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_TRIM_THRESHOLD, 2 * _BLOCK_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _BLOCK_BYTES)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="cxdesign",
        description="Equal-weight quadrature on complex spheres via real "
        "spherical designs.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("gen", help="search for a design and write it as SDF")
    g.add_argument("--complex-dim", type=int, required=True, metavar="d")
    g.add_argument("--degree", type=int, required=True, metavar="t")
    g.add_argument("--points", type=int, default=None, metavar="N")
    g.add_argument("--symmetric", action="store_true")
    g.add_argument("--restarts", type=int, default=10, metavar="k")
    g.add_argument("--seed", type=int, default=0, metavar="s")
    g.add_argument("--tol", type=float, default=1e-12)
    g.add_argument("--max-iterations", type=int, default=100000)
    g.add_argument(
        "--init-strategy",
        choices=("random_uniform", "file"),
        default="random_uniform",
        help="file requires --init-file, which alone selects the file start",
    )
    g.add_argument("--init-file", default=None)
    g.add_argument("--threads", type=int, default=1,
                   help="worker processes, at most one per restart; 0 means all cores")
    g.add_argument("--log-csv", default=None,
                   help="per-restart log (restart, iterations, final_V, ...)")
    g.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="check the design property of a file")
    v.add_argument("file")
    v.add_argument("--degree", type=int, required=True, metavar="t")
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--complex", action="store_true", dest="as_complex")
    v.add_argument("--out", default=None, help="report CSV path")

    m = sub.add_parser("metrics", help="separation / covering / mesh ratio")
    m.add_argument("file")
    m.add_argument("--seeds", type=int, default=None)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None, help="metrics CSV path")

    mp = sub.add_parser("map", help="fold a real design into a complex rule")
    mp.add_argument("file")
    mp.add_argument("--degree", type=int, default=None,
                    help="override the degree recorded in the file header")
    mp.add_argument("--out", required=True)

    tg = sub.add_parser("tight", help="write an analytic tight family rule")
    tg.add_argument("--complex-dim", type=int, required=True, metavar="d")
    tg.add_argument("--degree", type=int, required=True, choices=(1, 2, 3))
    tg.add_argument("--out", required=True)

    ig = sub.add_parser("integrate", help="inverse-square-distance demo")
    ig.add_argument("file")
    ig.add_argument("--x0", default="1+1i,1+1i",
                    help='pole, e.g. "1+1i,1+1i" (must lie outside the sphere)')
    ig.add_argument("--out", default=None, help="CSV path (t,N,abs_error)")

    c = sub.add_parser("counts", help="node-count formulas for (d, t)")
    c.add_argument("--complex-dim", type=int, required=True, metavar="d")
    c.add_argument("--degree", type=int, required=True, metavar="t")
    c.add_argument("--out", default=None, help="CSV path")
    return p


def _parse_x0(text):
    parts = [seg.strip().replace(" ", "") for seg in text.split(",")]
    if len(parts) != 2:
        raise ValueError("x0 needs two comma-separated complex components")
    return np.array([complex(seg.replace("i", "j")) for seg in parts])


def _default_out(input_path, tag):
    stem = Path(input_path).stem
    return str(Path(input_path).with_name(f"{stem}.{tag}.csv"))


def _default_points(d, t, symmetric):
    counts = point_counts(d, t)
    if symmetric and t % 2:
        return counts.nbar
    n = counts.nhat
    if symmetric and n % 2:
        n += 1
    return n


def _cmd_gen(args):
    d, t = args.complex_dim, args.degree
    if d < 2 or t < 1:
        print("error: need d >= 2 and t >= 1", file=sys.stderr)
        return 2
    if args.init_strategy == "file" and not args.init_file:
        print("error: --init-strategy file needs --init-file", file=sys.stderr)
        return 2
    N = args.points if args.points is not None else _default_points(
        d, t, args.symmetric
    )
    cfg = OptimizerConfig(
        t=t,
        m=2 * d - 1,
        N=N,
        symmetric=args.symmetric,
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        feasibility_tol=args.tol,
        seed=args.seed,
        init_file=args.init_file,
    )
    result = find_design(cfg, log_csv=args.log_csv, threads=args.threads)
    save_pointset(args.out, result.points, degree=t)
    status = "converged" if result.converged else "NOT converged"
    print(
        f"gen d={d} t={t} N={N} restarts={args.restarts}: {status}\n"
        f"  V = {result.final_V:.3e}, per-degree max = "
        f"{result.per_degree_max:.3e} (tol {cfg.feasibility_tol:.1e})\n"
        f"  mesh ratio = {result.mesh_ratio:.6f}, iterations = "
        f"{result.iterations}\n"
        f"  wrote {args.out}"
    )
    return 0 if result.converged else 1


def _cmd_verify(args):
    if args.as_complex:
        tol = args.tol if args.tol is not None else 1e-10
        Z, _ = load_complex_pointset(args.file)
        report = verify_triangular_design(Z, args.degree, tol)
        out = args.out or _default_out(args.file, "verify")
        alpha, beta = (" ".join(map(str, e)) for e in report.worst_pair)
        _write_csv(out, ["t", "N", "d", "max_error", "worst_alpha",
                         "worst_beta", "checked", "passed"],
                   [[report.t, report.N, report.d, report.max_error, alpha,
                     beta, report.checked, report.passed]])
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"verify (complex) t={args.degree} N={report.N} d={report.d}: "
            f"{verdict}\n  worst monomial error {report.max_error:.3e} at "
            f"{report.worst_pair} (tol {tol:.1e})\n  wrote {out}"
        )
        return 0 if report.passed else 1
    tol = args.tol if args.tol is not None else 1e-12
    X, _ = load_real_pointset(args.file)
    report = is_spherical_design(X, args.degree, tol)
    out = args.out or _default_out(args.file, "verify")
    _write_csv(out, ["ell", "W_ell", "W_ell_normalized"],
               [[ell, w_ell, w_ell / report.N**2]
                for ell, w_ell in enumerate(report.per_degree, start=1)])
    verdict = "PASS" if report.is_design else "FAIL"
    print(
        f"verify t={args.degree} N={report.N} on S^{X.m}: {verdict}\n"
        f"  V = {report.V:.3e}, per-degree max = {report.max_defect:.3e} "
        f"(tol {tol:.1e})\n  wrote {out}"
    )
    return 0 if report.is_design else 1


def _cmd_metrics(args):
    X, _ = load_real_pointset(args.file)
    opts = CoveringOptions(seeds=args.seeds, seed=args.seed)
    report = mesh_ratio(X, opts)
    out = args.out or _default_out(args.file, "metrics")
    _write_csv(out, ["N", "separation", "covering", "covering_uncertainty",
                     "mesh_ratio"],
               [[report.N, report.separation, report.covering,
                 report.covering_uncertainty, report.mesh_ratio]])
    print(
        f"metrics N={report.N} on S^{X.m}:\n"
        f"  separation    = {report.separation:.6f}\n"
        f"  covering      = {report.covering:.6f} "
        f"(uncertainty {report.covering_uncertainty:.2e})\n"
        f"  mesh ratio    = {report.mesh_ratio:.6f}\n"
        f"  wrote {out}"
    )
    return 0


def _cmd_map(args):
    X, header = load_real_pointset(args.file)
    t = args.degree if args.degree is not None else header.get("degree")
    if t is None or int(t) < 1 or X.m % 2 == 0:
        print("error: map needs a degree t >= 1 (file header or --degree) "
              "and a file on S^(2d-1)", file=sys.stderr)
        return 2
    try:
        rule = map_design(X, int(t))
    except ValueError as exc:
        print(f"map rejected: {exc}", file=sys.stderr)
        return 1
    save_pointset(args.out, rule.nodes, degree=rule.degree_claim)
    print(
        f"map: folded N={rule.npoints} real points into a degree-{t} rule "
        f"on C^{rule.d}\n  worst monomial error "
        f"{rule.report.max_error:.3e}\n  wrote {args.out}"
    )
    return 0


def _cmd_tight(args):
    rule = tight_design(args.complex_dim, args.degree)
    save_pointset(args.out, rule.nodes, degree=rule.degree_claim)
    met = rule.metrics
    print(
        f"tight t={args.degree} on C^{args.complex_dim}: N={rule.npoints}\n"
        f"  separation = {met.separation:.6f}, covering = "
        f"{met.covering:.6f}, mesh ratio = {met.mesh_ratio:.6f}\n"
        f"  monomial check: max error {rule.report.max_error:.3e}\n"
        f"  wrote {args.out}"
    )
    return 0


def _cmd_integrate(args):
    Z, header = load_complex_pointset(args.file)
    if Z.d != 2:
        print("error: the demo integrand lives on C^2", file=sys.stderr)
        return 2
    try:
        x0 = _parse_x0(args.x0)
    except ValueError as exc:
        print(f"error: bad --x0: {exc}", file=sys.stderr)
        return 2
    t = int(header.get("degree", 0))
    rows = demo_error_curve([QuadratureRule(nodes=Z, degree_claim=t)], x0)
    out = args.out or _default_out(args.file, "integrate")
    write_error_curve_csv(out, rows)
    _, n, err = rows[0]
    norm2 = float(np.real(np.vdot(x0, x0)))
    print(
        f"integrate 1/|z-x0|^2 with x0={args.x0} over N={n} nodes:\n"
        f"  exact = {1.0 / norm2:.12f}, |error| = {err:.6e}\n"
        f"  wrote {out}"
    )
    return 0


def _cmd_counts(args):
    d, t = args.complex_dim, args.degree
    counts = point_counts(d, t)
    dim = dim_complex_space(d, t)
    header = ["d", "t", "dim_poly_space", "nstar", "nhat", "nbar"]
    row = [d, t, dim, counts.nstar, counts.nhat,
           counts.nbar if counts.nbar is not None else ""]
    print(",".join(header))
    print(",".join(str(v) for v in row))
    print(
        f"counts d={d} t={t}: space dim M = {dim}, lower bound N* = "
        f"{counts.nstar}, generic N^ = {counts.nhat}, symmetric N- = "
        f"{counts.nbar if counts.nbar is not None else 'n/a (even t)'}"
    )
    if args.out:
        _write_csv(args.out, header, [row])
        print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "metrics": _cmd_metrics,
    "map": _cmd_map,
    "tight": _cmd_tight,
    "integrate": _cmd_integrate,
    "counts": _cmd_counts,
}


def _join_x0(argv):
    """Rewrite "--x0 VALUE" as "--x0=VALUE".

    argparse takes a separate value that starts with "-" for an option, so
    a pole like "-0.3+1.2i,0.5-0.2i" is only read in the joined form.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--x0":
            out[-1] = f"--x0={token}"
        else:
            out.append(token)
    return out


def run(argv=None):
    _pin_malloc_thresholds()
    parser = _build_parser()
    argv = _join_x0(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.subcommand](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
