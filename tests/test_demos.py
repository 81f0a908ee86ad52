"""The demos run to completion: they are the only callers of the figure
exports and of the stereographic pole outside the tests.

Each demo is copied into a temporary directory, so the output/ folder of
the demos that write one lands there. integration_convergence.py is left
out for its run time (~13 s).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["bridge_roundtrip.py", "compute_design.py", "tight_families.py"]
)
def test_demo_exits_zero(tmp_path, demo):
    script = shutil.copy(ROOT / "demos" / demo, tmp_path / demo)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
