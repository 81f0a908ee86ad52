"""Compute a degree-5 rule with 28 nodes on the complex 2-sphere.

The search works on the real sphere S^3: starting from random antipodal
configurations, a quasi-Newton descent drives the variational criterion V
down to 1e-9, a least-squares polish takes the monomial moments from there
to rounding level, and the per-degree exactness sums deliver the verdict.
The real design then folds into an equal-weight complex quadrature rule.

Run:  python3 demos/compute_design.py
"""

from pathlib import Path

from cxdesign import (
    OptimizerConfig,
    find_design,
    is_spherical_design,
    map_design,
    mesh_ratio,
    save_pointset,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

cfg = OptimizerConfig(t=5, m=3, N=28, symmetric=True, restarts=10, seed=11)
print(f"searching: degree {cfg.t}, {cfg.N} points on S^{cfg.m}, "
      f"{cfg.restarts} restarts ...")
result = find_design(cfg, log_csv=str(OUT / "search_log.csv"))
print(f"converged: {result.converged}  (V = {result.final_V:.3e}, "
      f"{result.iterations} iterations)")

report = is_spherical_design(result.points, 5)
print(f"per-degree exactness max: {report.max_defect:.3e}")

met = mesh_ratio(result.points)
print(f"separation {met.separation:.5f}, covering {met.covering:.5f}, "
      f"mesh ratio {met.mesh_ratio:.4f}")

rule = map_design(result.points, 5)
print(f"complex rule: {rule.npoints} nodes on C^{rule.d}, worst monomial "
      f"error {rule.report.max_error:.3e}")

save_pointset(OUT / "design_t5_n28.sdf", result.points, degree=5)
save_pointset(OUT / "rule_t5_n28.sdf", rule.nodes, degree=5)
print(f"wrote {OUT / 'design_t5_n28.sdf'} and {OUT / 'rule_t5_n28.sdf'}")
