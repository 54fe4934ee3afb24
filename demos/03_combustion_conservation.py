"""Combustion with localized bumps: exact total-mass balance.

The combustion pair (-Y^m e^T, Y^m e^T) cancels pointwise, so with
no-flux boundaries the integral of Y + T is a conserved quantity.  The
scheme preserves it to round-off: the implicit diffusion solve respects
the discrete flux balance and the explicit reaction update cancels
exactly.  Whether the temperature maximum stays below its initial sup
is a separate question the run measures rather than assumes: here
diffusion flattens the bump faster than the reaction heats it, so the
candidate bound survives to t = 1.
"""

import numpy as np

from rdcertify import (Combustion, Grid, SchemeConfig, assemble_claim_report,
                       build_params, integrate, run)

grid = Grid(101, 1.0)
x = grid.nodes()
Y0 = 0.2 + np.exp(-((x - 0.5) / 0.12) ** 2)
T0 = 0.1 + 0.5 * np.exp(-((x - 0.4) / 0.15) ** 2)

cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, rtol=1e-6, dt_init=1e-4)
model = Combustion(1)
params = build_params(cfg.a, cfg.b, model.claimed_mu, model.claimed_C, 4,
                      Y0, T0)
series, verdict = run(model, cfg, grid, Y0, T0, params)

m0 = integrate(Y0 + T0, grid)
st = series.final_state
m1 = integrate(st.u + st.v, grid)
print(f"verdict: {verdict.kind} after {len(series)} accepted steps")
print(f"integral of Y+T at t=0: {m0:.15f}")
print(f"integral of Y+T at t=1: {m1:.15f}")
print(f"relative drift: {abs(m1 - m0) / m0:.3e}")

claim = assemble_claim_report(series)
print()
print(f"reactant bound held: {claim.bound_u_held}"
      f" (sup Y stays below {series.u_bar0:.4f})")
print(f"temperature bound held: {claim.bound_v_held}")
if claim.first_violation is not None:
    w = claim.first_violation
    print(f"first exceedance: t={w.t:.5f} node={w.node} {w.field}={w.value:.5f}"
          f" vs bound {w.bound:.4f}")
print(f"max of the excursion functional L: {claim.L_max:.3e}")
print(f"every dissipation value I <= 0: {bool(np.all(series.I <= 0.0))}")
