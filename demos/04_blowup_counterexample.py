"""Reproduce finite-time blow-up for the polynomial counterexample.

The pair f = (u - u^2) v^2, g = u v^2 has f > 0 on 0 < u < 1, so no
constants (C, mu) can make f + mu*g <= 0 on u + v >= C.  Starting from
u = 0.75, v = 1, the strip 1/2 <= u <= 1 is invariant, g >= v^2/2
there, and comparison with w' = w^2/2 forces v to diverge before t = 2.
The run reproduces all three facts: the divergence verdict, the lower
comparison bound along the whole trajectory, and the invariant strip.
"""

import numpy as np

from rdcertify import BlowupExample, Grid, SchemeConfig, build_params, run

grid = Grid(31, 1.0)
u0 = np.full(grid.n_nodes, 0.75)
v0 = np.ones(grid.n_nodes)
cfg = SchemeConfig(a=1.0, b=1.0, t_end=3.0, rtol=1e-6, dt_init=1e-3,
                   dt_max=0.05, blowup_threshold=1e6)
params = build_params(cfg.a, cfg.b, 0.5, 0.0, 4, u0, v0)

series, verdict = run(BlowupExample(), cfg, grid, u0, v0, params)
print(f"verdict: {verdict.kind} at t* = {verdict.t:.6f}"
      f" ({len(series)} accepted steps)")

t = series.t
mask = t < verdict.t
lower = 1.0 / (1.0 - t[mask] / 2.0)
margin = np.min(series.sup_v[mask] - lower)
print(f"comparison bound v(t) >= 1/(1 - t/2): min margin {margin:.3e}")
print(f"invariant strip: u stays in [{series.sup_u.min():.4f},"
      f" {series.sup_u.max():.4f}] (subset of [0.5, 1])")

print()
print("  t        sup_v        1/(1-t/2)    dt")
for frac in (0.0, 0.5, 0.8, 0.95, 0.999):
    k = int(frac * (len(series) - 1))
    print(f"  {t[k]:.5f}  {series.sup_v[k]:.5e}  "
          f"{1.0 / (1.0 - t[k] / 2.0):.5e}  {series.dt[k]:.2e}")
