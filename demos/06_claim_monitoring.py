"""Measure a uniform-bound claim instead of assuming it.

For spatially homogeneous combustion the pair reduces to the two-ODE
system Y' = -Y e^T, T' = Y e^T with Y + T conserved, so T climbs from
T(0) = 1 toward 2 monotonically: the candidate bound sup T <= T(0)
fails immediately.  The run records exactly that -- the first violation
time and node, the excursion functional L turning positive at the same
step, and the sign history of the reaction term J -- and an independent
DOP853 integration of the reduced ODE (scipy) confirms the trajectory.
"""

import numpy as np
from scipy.integrate import solve_ivp

from rdcertify import (Combustion, Grid, SchemeConfig, assemble_claim_report,
                       build_params, run)

grid = Grid(11, 1.0)
u0 = np.ones(grid.n_nodes)
v0 = np.ones(grid.n_nodes)
cfg = SchemeConfig(a=1.0, b=2.0, t_end=2.0, rtol=1e-8, dt_init=1e-5)
model = Combustion(1)
params = build_params(cfg.a, cfg.b, model.claimed_mu, model.claimed_C, 4,
                      u0, v0)
series, verdict = run(model, cfg, grid, u0, v0, params)
claim = assemble_claim_report(series)

print(f"verdict: {verdict.kind}, candidate bounds"
      f" sup Y <= {series.u_bar0}, sup T <= {series.v_bar0}")
print(f"reactant bound held: {claim.bound_u_held}")
print(f"temperature bound held: {claim.bound_v_held}")
w = claim.first_violation
print(f"first violation: t={w.t:.2e} field={w.field}"
      f" value={w.value:.8f} bound={w.bound}")
first_L = int(np.flatnonzero(series.L > 0)[0])
print(f"L turns positive at step {first_L}"
      f" (t={series.t[first_L]:.2e}), L_max={claim.L_max:.3e}")
signs = claim.J_sign_history
print(f"J sign history: {int(np.sum(signs > 0))} positive,"
      f" {int(np.sum(signs == 0))} zero, {int(np.sum(signs < 0))} negative")

# independent DOP853 solution of the reduced ODE (rtol = atol = 1e-13)
ref = solve_ivp(lambda t, y: [-y[0] * np.exp(y[1]), y[0] * np.exp(y[1])],
                (0.0, 2.0), [1.0, 1.0], method="DOP853", rtol=1e-13,
                atol=1e-13, dense_output=True)
exact_u, exact_v = ref.sol(series.t)
err = max(np.max(np.abs(series.sup_u - exact_u)),
          np.max(np.abs(series.sup_v - exact_v)))
print(f"max deviation from the DOP853 oracle over [0, 2]: {err:.3e}")
print()
print("the measured outcome: the trajectory stays global (T -> 2) but the"
      " candidate uniform bound sup T <= T(0) is violated from the first"
      " step onward; the monitor reports it rather than asserting it away")
