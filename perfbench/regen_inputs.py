#!/usr/bin/env python3
"""Regenerate the stored inputs of the grade-large workload.

    python3 perfbench/regen_inputs.py        # about a minute on 2 cores

Each design is made with `cxdesign gen` (or `cxdesign tight`) from the
seed recorded below, then checked with the same independent checks the
benchmark applies when it loads them. The files are inputs, not expected
outputs: the benchmark never compares a result against them.
"""

from __future__ import annotations

import sys

import checks
from run import INPUTS, WORKLOADS, _import_program, _read_sdf

# file -> cxdesign arguments that produce it
RECIPES = {
    "c2_t13_n308.sdf": ["gen", "--complex-dim", "2", "--degree", "13",
                        "--symmetric", "--points", "308", "--restarts", "2",
                        "--seed", "11", "--threads", "1"],
    "tight_c2_t2.sdf": ["tight", "--complex-dim", "2", "--degree", "2"],
    "tight_c2_t3.sdf": ["tight", "--complex-dim", "2", "--degree", "3"],
    "tight_c3_t2.sdf": ["tight", "--complex-dim", "3", "--degree", "2"],
    "tight_c3_t3.sdf": ["tight", "--complex-dim", "3", "--degree", "3"],
}


def main():
    cli = _import_program()
    INPUTS.mkdir(exist_ok=True)
    spec = WORKLOADS["grade-large"]
    degrees = {item["file"]: item for item in spec["stored"] + spec["tight"]}
    for name, argv in RECIPES.items():
        path = INPUTS / name
        code = cli.run(argv + ["--out", str(path)])
        if code != 0:
            print(f"{name}: cxdesign {argv[0]} exited {code}", file=sys.stderr)
            return 1
        X, _ = _read_sdf(path)
        t = degrees[name]["t"]
        checks.check_unit_norms(X)
        if name.startswith("tight"):
            checks.tight_covering_radius(checks.fold(X), t)
            checks.check_complex_design(checks.fold(X), t)
        else:
            checks.check_antipodal(X)
            checks.check_real_design(X, t)
        print(f"{name}: N={len(X)} checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
