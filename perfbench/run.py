#!/usr/bin/env python3
"""Benchmark of the cxdesign pipeline: gen -> verify -> map -> metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each workload runs the `cxdesign` subcommands in this process through
`cxdesign.cli.run`, on files written under .perfbench_out/ at the root of
the checkout, and checks every output with the independent computations in
checks.py. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a pass with spans follows each plain
pass and the metrics are the per-layer ones (see README.md).

The program is imported from src/ next to this directory. Without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
INPUTS = BENCH / "inputs"

# Restarts run one after another (--threads 1) and BLAS runs one thread: the
# Gram matrices of the search are at most 194 x 194, where a second thread
# adds no speed and does add run-to-run spread.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS thread setting)
import scipy  # noqa: E402

import checks  # noqa: E402
from spans import Instrument, Tracer  # noqa: E402

GEN_SEED = 11            # every search starts from the seed the tests use
SETUP_SAMPLES = 3        # fresh interpreters timed for setup_s
SAMPLE_POINTS = 1 << 15  # random witnesses for the covering lower bound
X0_RADIUS = 2.0          # |x0| of the integration pole

# name -> what one pass runs. Search workloads run `gen` from GEN_SEED;
# grade-large starts `gen` from a stored design, which is already feasible,
# so the descent and the polish do no work (see README.md). `repeat` is how
# often the cheap steps (verify, map, integrate) run in a pass: the median of
# several calls rides out this machine's second-to-second speed changes.
WORKLOADS = {
    "search-c2-t11-log": dict(
        repeat=10,
        search=dict(d=2, t=11, N=194, symmetric=True, restarts=1, log=True)),
    "grade-large": dict(
        repeat=4,
        stored=[dict(file="c2_t13_n308.sdf", d=2, t=13)],
        tight=[dict(file=f"tight_c{d}_t{t}.sdf", d=d, t=t)
               for d in (2, 3) for t in (2, 3)]),
}

# Metric names and units come from the benchmark's declaration.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Failure(Exception):
    pass


def _import_program():
    """Import cxdesign from this checkout's src/, and nowhere else."""
    if not (SRC / "cxdesign" / "cli.py").is_file():
        raise Failure(f"no program at {SRC / 'cxdesign'}")
    sys.path.insert(0, str(SRC))
    import cxdesign.cli  # noqa: F401  (numpy, scipy and every module)

    found = Path(sys.modules["cxdesign"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise Failure(f"cxdesign imported from {found}, not from {SRC}")
    return sys.modules["cxdesign.cli"]


# -- inputs ---------------------------------------------------------------


def _random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))[None, :]


def _read_sdf(path):
    """Minimal SDF reader, independent of cxdesign.sphere."""
    header, rows = {}, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition(":")
            header[key.strip()] = value.strip()
        elif line:
            rows.append([float(v) for v in line.split()])
    return np.array(rows), header


def _write_sdf(path, X, header):
    lines = [f"# {k}: {v}" for k, v in header.items()]
    lines += [" ".join(f"{v:.16e}" for v in row) for row in X]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def stage(workload, seed, work):
    """Make the run's inputs in `work`; they depend on the seed only.

    For grade-large the stored designs are checked as they are loaded,
    then rotated by a random orthogonal map drawn from the seed. A rotation
    keeps a real design a design (and its fold a complex one), keeps every
    distance, and keeps antipodal pairs exact, so the work is the same for
    every seed while the coordinates differ.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, 0])
    staged = {}
    for item in spec.get("stored", []):
        X, header = _read_sdf(INPUTS / item["file"])
        checks.check_unit_norms(X)
        checks.check_antipodal(X)
        checks.check_real_design(X, item["t"])
        Q = _random_rotation(rng, X.shape[1])
        half = X[: X.shape[0] // 2] @ Q.T
        half /= np.linalg.norm(half, axis=1, keepdims=True)
        Xr = np.vstack([half, -half])
        path = work / ("in_" + item["file"])
        _write_sdf(path, Xr, {"dim": Xr.shape[1], "npoints": Xr.shape[0],
                              "degree": item["t"], "symmetric": "true"})
        staged[item["file"]] = path
    for item in spec.get("tight", []):
        path = work / item["file"]
        shutil.copyfile(INPUTS / item["file"], path)
        staged[item["file"]] = path
    direction = rng.standard_normal(4)
    direction *= X0_RADIUS / np.linalg.norm(direction)
    staged["x0"] = np.array([direction[0] + 1j * direction[1],
                             direction[2] + 1j * direction[3]])
    return staged


def _x0_text(x0):
    # passed as --x0=..., since a leading minus sign would read as an option
    return ",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in x0)


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import and stage."""
    times = []
    for k in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--stage-only",
             "--workload", workload, "--seed", str(seed),
             "--work", str(OUT / f"stage-{os.getpid()}-{k}")],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise Failure(f"staging failed: {proc.stderr.strip()[-400:]}")
    return statistics.median(times)


# -- one pass -------------------------------------------------------------


class Pass:
    """One trip through a workload's steps, timing each CLI call.

    Cheap steps run `repeat` times, interleaved rather than back to back,
    and count with the median of their calls.
    """

    def __init__(self, cli, repeat):
        self.cli = cli
        self.repeat = repeat
        self.times = {}         # (category, step) -> [seconds per call]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, category, step, argv):
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.run([str(a) for a in argv])
        self.times.setdefault((category, step), []).append(
            time.perf_counter() - start)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"{step} exit {code}: "
                               f"{sink.getvalue().strip()[-300:]}")

    def seconds(self, category):
        """One pass's worth: the median of each step's calls, summed."""
        return sum(statistics.median(ts) for (c, _), ts in self.times.items()
                   if category in (c, "total"))


def run_pass(cli, workload, staged, work, seed, repeated):
    spec = WORKLOADS[workload]
    p = Pass(cli, spec["repeat"] if repeated else 1)
    outputs = []
    if "search" in spec:
        s = spec["search"]
        design = work / "design.sdf"
        argv = ["gen", "--complex-dim", s["d"], "--degree", s["t"],
                "--points", s["N"], "--restarts", s["restarts"],
                "--seed", GEN_SEED, "--threads", 1, "--out", design]
        if s["symmetric"]:
            argv.append("--symmetric")
        if s.get("log"):
            argv += ["--log-csv", work / "restarts.csv"]
        p.call("gen", "gen", argv)
        outputs.append(_grade(p, work, design, s["d"], s["t"], seed,
                              s["symmetric"], None))
    for item in spec.get("stored", []):
        design = work / ("design_" + item["file"])
        X, _ = _read_sdf(staged[item["file"]])
        p.call("gen", f"gen {design.stem}",
               ["gen", "--complex-dim", item["d"], "--degree", item["t"],
                "--points", X.shape[0], "--symmetric", "--restarts", 1,
                "--seed", GEN_SEED, "--threads", 1, "--init-strategy", "file",
                "--init-file", staged[item["file"]], "--out", design])
        outputs.append(_grade(p, work, design, item["d"], item["t"], seed,
                              True, staged["x0"] if item["d"] == 2 else None))
    for item in spec.get("tight", []):
        rule = staged[item["file"]]
        out = dict(kind="tight", rule=rule, t=item["t"],
                   cverify=work / (rule.stem + ".cverify.csv"),
                   metrics=work / (rule.stem + ".metrics.csv"))
        for _ in range(p.repeat):
            p.call("verify", f"verify --complex {rule.stem}",
                   ["verify", rule, "--degree", item["t"], "--complex",
                    "--out", out["cverify"]])
        p.call("metrics", f"metrics {rule.stem}",
               ["metrics", rule, "--seed", seed, "--out", out["metrics"]])
        outputs.append(out)
    return p, outputs


def _grade(p, work, design, d, t, seed, symmetric, x0):
    """verify, map, verify --complex, metrics (and integrate) on `design`."""
    stem = design.stem
    rule = work / f"{stem}.rule.sdf"
    out = dict(kind="design", design=design, rule=rule, d=d, t=t,
               symmetric=symmetric, x0=x0,
               verify=work / f"{stem}.verify.csv",
               cverify=work / f"{stem}.cverify.csv",
               metrics=work / f"{stem}.metrics.csv",
               integrate=work / f"{stem}.integrate.csv",
               log=work / "restarts.csv")
    for _ in range(p.repeat):
        p.call("verify", f"verify {stem}",
               ["verify", design, "--degree", t, "--out", out["verify"]])
        p.call("map", f"map {stem}", ["map", design, "--out", rule])
        p.call("verify", f"verify --complex {stem}",
               ["verify", rule, "--degree", t, "--complex",
                "--out", out["cverify"]])
        if x0 is not None:
            p.call("integrate", f"integrate {stem}",
                   ["integrate", rule, f"--x0={_x0_text(x0)}",
                    "--out", out["integrate"]])
    p.call("metrics", f"metrics {stem}",
           ["metrics", design, "--seed", seed, "--out", out["metrics"]])
    return out


# -- checks ---------------------------------------------------------------


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _metrics_report(path):
    row = _csv_rows(path)[0]
    return {k: float(v) for k, v in row.items()}


def check_outputs(outputs, seed, round_no, restarts_expected):
    """Run every independent check on a pass's outputs; returns failures."""
    failures = []
    record = []
    rng = np.random.default_rng([seed, 1, round_no])

    def attempt(label, fn, *args):
        try:
            return fn(*args)
        except (checks.CheckFailed, OSError, ValueError, KeyError,
                IndexError) as exc:
            failures.append(f"{label}: {exc}")
            return None

    for out in outputs:
        if out["kind"] == "tight":
            Z = checks.fold(_read_sdf(out["rule"])[0])
            attempt("tight design", checks.check_complex_design, Z, out["t"])
            rep = attempt("tight metrics", _metrics_report, out["metrics"])
            if rep is not None:
                X = np.column_stack([Z.real, Z.imag])
                attempt("tight metrics", checks.check_metrics, X, rep, rng,
                        SAMPLE_POINTS)
                attempt("tight covering", checks.check_tight_covering, Z,
                        out["t"], rep)
            attempt("tight sweep", _check_sweep, out["cverify"], Z, out["t"])
            continue
        t = out["t"]
        X, header = _read_sdf(out["design"])
        attempt("design header", _check_header, header, X, t)
        attempt("unit norms", checks.check_unit_norms, X)
        if out["symmetric"]:
            attempt("antipodal", checks.check_antipodal, X)
        moment = attempt("real moments", checks.check_real_design, X, t)
        attempt("verify report", _check_verify_csv, out["verify"], t)
        Z, _ = _read_sdf(out["rule"])
        Z = checks.fold(Z)
        attempt("map fold", checks.check_fold, X, Z)
        attempt("complex moments", checks.check_complex_design, Z, t)
        monomials = attempt("complex sweep", _check_sweep, out["cverify"], Z,
                            t)
        rep = attempt("metrics report", _metrics_report, out["metrics"])
        if rep is not None:
            attempt("metrics", checks.check_metrics, X, rep, rng,
                    SAMPLE_POINTS)
        if out["x0"] is not None:
            attempt("integrate", _check_integrate, out["integrate"], Z, t,
                    out["x0"])
        if restarts_expected and out["log"].exists():
            attempt("restart log", _check_log, out["log"], restarts_expected)
        record.append({"design": out["design"].name, "t": t,
                       "max_real_moment_error": moment,
                       "monomials_checked": monomials,
                       "mesh_ratio": rep["mesh_ratio"] if rep else None})
    return failures, record


def _check_header(header, X, t):
    if int(header.get("degree", -1)) != t or int(header["npoints"]) != len(X):
        raise checks.CheckFailed(f"header {header} does not match the rows")


def _check_verify_csv(path, t):
    rows = _csv_rows(path)
    if [int(r["ell"]) for r in rows] != list(range(1, t + 1)):
        raise checks.CheckFailed("verify report does not list ell = 1..t")


def _check_sweep(path, Z, t):
    row = _csv_rows(path)[0]
    worst, checked = checks.complex_moment_errors(Z, t)
    if int(row["checked"]) != checked:
        raise checks.CheckFailed(
            f"sweep checked {row['checked']} monomials, expected {checked}")
    if abs(float(row["max_error"]) - worst) > 1e-13:
        raise checks.CheckFailed(
            f"sweep worst error {row['max_error']}, recomputed {worst:.3e}")
    if row["passed"] != "True":
        raise checks.CheckFailed("sweep did not pass")
    return checked


def _check_integrate(path, Z, t, x0):
    row = _csv_rows(path)[0]
    return checks.check_integration(Z, t, x0, float(row["abs_error"]))


def _check_log(path, restarts):
    rows = _csv_rows(path)
    if [int(r["restart"]) for r in rows] != list(range(restarts)):
        raise checks.CheckFailed("restart log does not list every restart")
    for r in rows:
        ratio = 2.0 * float(r["covering"]) / float(r["separation"])
        if abs(ratio - float(r["mesh_ratio"])) > 1e-12 * ratio:
            raise checks.CheckFailed("restart log mesh ratio inconsistent")


# -- metrics --------------------------------------------------------------


def end_to_end(passes, setup_s, restarts_converged, mesh_ratios):
    med = lambda cat: statistics.median(p.seconds(cat) for p in passes)  # noqa: E731
    values = {
        "setup_s": setup_s,
        "gen_s": med("gen"),
        "verify_s": med("verify"),
        "map_s": med("map"),
        "metrics_s": med("metrics"),
        "total_s": med("total"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "restarts_converged": statistics.median(restarts_converged),
        "mesh_ratio": statistics.median(mesh_ratios),
    }
    return values


def per_layer(tracer, first_span, inst, final_V):
    total, self_time, calls = tracer.totals(first_span)
    c, pk = tracer.counts, tracer.peaks
    kernel_s = total.get("orthopoly.kernel", 0.0)
    entries = c.get("orthopoly.kernel.entries", 0.0)
    sweep_s = total.get("criteria.monomial_sweep", 0.0)
    monomials = c.get("criteria.monomials", 0.0)
    return {
        "orthopoly.kernel.calls": calls.get("orthopoly.kernel", 0),
        "orthopoly.kernel.s": kernel_s,
        "orthopoly.kernel.entries": entries,
        "orthopoly.kernel.ns_per_entry": 1e9 * kernel_s / entries if entries else 0.0,
        "optimize.restart.s": total.get("optimize.restart", 0.0),
        "optimize.descent.s": total.get("optimize.descent", 0.0),
        "optimize.descent.nit": c.get("optimize.descent.nit", 0.0),
        "optimize.descent.nfev": c.get("optimize.descent.nfev", 0.0),
        "optimize.objective.s": total.get("optimize.objective", 0.0),
        "optimize.objective.calls": calls.get("optimize.objective", 0),
        "optimize.objective.self_s": self_time.get("optimize.objective", 0.0),
        "optimize.lbfgs.self_s": self_time.get("optimize.descent", 0.0),
        "optimize.polish.s": total.get("optimize.polish", 0.0),
        "optimize.polish.calls": calls.get("optimize.polish", 0),
        "optimize.polish.nfev": c.get("optimize.polish.nfev", 0.0),
        "optimize.polish.njev": c.get("optimize.polish.njev", 0.0),
        "optimize.polish.residual.s": total.get("optimize.polish.residual", 0.0),
        "optimize.polish.jacobian.s": total.get("optimize.polish.jacobian", 0.0),
        "optimize.polish.self_s": self_time.get("optimize.polish", 0.0),
        "optimize.polish.residual_before": pk.get("optimize.polish.residual_before", 0.0),
        "optimize.polish.residual_after": pk.get("optimize.polish.residual_after", 0.0),
        "optimize.final_V": final_V,
        "criteria.per_degree_sums.s": total.get("criteria.per_degree_sums", 0.0),
        "criteria.per_degree_sums.calls": calls.get("criteria.per_degree_sums", 0),
        "criteria.variational_value.s": total.get("criteria.variational_value", 0.0),
        "criteria.monomial_sweep.s": sweep_s,
        "criteria.monomials": monomials,
        "criteria.monomials_per_s": monomials / sweep_s if sweep_s else 0.0,
        "metrics.covering.s": total.get("metrics.covering", 0.0),
        "metrics.covering.calls": calls.get("metrics.covering", 0),
        "metrics.covering.peak_mb": pk.get("metrics.covering.peak_mb", 0.0),
        "metrics.separation.s": total.get("metrics.separation", 0.0),
        "sphere.sdf.s": total.get("sphere.sdf", 0.0),
        "sphere.sdf.bytes": c.get("sphere.sdf.bytes", 0.0),
        "bridge.map.s": total.get("bridge.map", 0.0),
        "bridge.integrate.s": total.get("bridge.integrate", 0.0),
        "trace.missing": len(inst.missing),
    }


def _median_final_V(restarts):
    """V as gen reports it, over the converged restarts (all if none)."""
    pool = [r for r in restarts if r["converged"]] or restarts
    return statistics.median(r["final_V"] for r in pool) if pool else 0.0


def machine():
    info = {"nproc": NPROC, "blas_threads": int(BLAS_THREADS),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["ram_gb"] = round(int(line.split()[1]) / 2**20, 2)
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    return info


# -- entry points ---------------------------------------------------------


def run_workload(args):
    cli = _import_program()
    setup_s = measure_setup(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    staged = stage(args.workload, args.seed, work)

    tracer = Tracer(run_id=f"{args.workload}/{args.seed}/{os.getpid()}")
    inst = Instrument(tracer)
    inst.install_probes()
    if args.trace:
        inst.install_spans()
    spec = WORKLOADS[args.workload]
    restarts = spec["search"]["restarts"] if "search" in spec else 0
    log_restarts = restarts if spec.get("search", {}).get("log") else 0

    plain, traced, layers = [], [], []
    converged, ratios, errors, failures, rounds = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        modes = (False, True) if args.trace else (False,)
        for traced_pass in modes:
            inst.reset()
            first_span = len(tracer.spans)
            tracer.enabled = traced_pass
            p, outputs = run_pass(cli, args.workload, staged, work, args.seed,
                                  repeated=not args.trace)
            tracer.enabled = False
            attempted += p.attempted
            failed += p.failed
            errors += p.errors
            bad, record = check_outputs(outputs, args.seed, len(rounds),
                                        log_restarts)
            failures += bad
            rounds.append({
                "traced": traced_pass,
                "steps": [[c, step, ts] for (c, step), ts in p.times.items()],
                "restarts": list(inst.restarts),
                "descents": list(inst.descents),
                "checks": record,
            })
            (traced if traced_pass else plain).append(p)
            converged.append(sum(r["converged"] for r in inst.restarts))
            if record and record[0]["mesh_ratio"] is not None:
                ratios.append(record[0]["mesh_ratio"])
            if traced_pass:
                final_V = _median_final_V(inst.restarts)
                layers.append(per_layer(tracer, first_span, inst, final_V))
    inst.restore()

    if args.trace:
        metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.seconds("total") for p in traced)
            - statistics.median(p.seconds("total") for p in plain))
        units = PER_LAYER
    else:
        metrics = end_to_end(plain, setup_s, converged, ratios or [0.0])
        units = END_TO_END
    if restarts and "search" in spec:
        for r in rounds:
            if len(r["restarts"]) != restarts:
                failures.append("restart probe did not see every restart")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "missing_wraps": inst.missing,
              "errors": errors, "check_failures": failures, "rounds": rounds,
              "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{tag}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    if args.trace:
        tracer.write(str(OUT / "traces" / f"{tag}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)

    for name in units:
        print(f"{args.workload:22s} {name:34s} {metrics[name]:.6g} {units[name]}")
    for line in errors:
        print(f"FAILED {line}")
    for line in failures:
        print(f"CHECK FAILED {line}")
    if inst.missing:
        print(f"missing (not wrapped): {', '.join(inst.missing)}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }


def run_all(args):
    """Every workload in a fresh process of its own; one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise Failure(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
        print(f"{name:22s} attempted {res['attempted']} failed {res['failed']}"
              f" correct {res['correct']}")
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stage-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.stage_only:
            _import_program()
            work = Path(args.work)
            stage(args.workload, args.seed, work)
            shutil.rmtree(work)
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
