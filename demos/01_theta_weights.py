"""Build and inspect the weight sequence behind the bound functional.

The functional weights theta_0..theta_p must satisfy two structural
conditions: the squared ratio theta^2 has to exceed (a+b)^2/(4ab) so the
gradient quadratics T_i are positive semidefinite, and theta_0/theta_1
has to stay below the mass-control constant mu.  A functional is built
for one diffusion pair, which it holds, and construction refuses any
parameters that break a condition, so every functional meets them.
This script builds the sequence for a few diffusion pairs, prints it,
verifies the conditions, and spot-checks the quadratics on random
gradient pairs.
"""

import numpy as np

from rdcertify import build_params, check_conditions, quadratic_Ti

ZEROS = np.zeros(3)

for a, b, mu in ((1.0, 1.0, 1.0), (1.0, 4.0, 0.5), (0.2, 3.0, 0.1)):
    params = build_params(a, b, mu, 0.0, 4, ZEROS, ZEROS)
    rep = check_conditions(params)
    print(f"a={params.a} b={params.b} mu={params.mu}")
    print(f"  lower bound (a+b)^2/(4ab) = {params.theta_sq_bound:.6g},"
          f" default theta^2 = {params.theta ** 2:.6g}")
    logs = params.log_theta_seq()
    print("  weights:", ", ".join(f"{w:.6g}" for w in np.exp(logs)))
    print("  log-weights:", ", ".join(f"{lg:.6g}" for lg in logs))
    print(f"  conditions pass: {rep.passed}"
          f" (recurrence residual {rep.recurrence_residual:.2e})")

    rng = np.random.default_rng(0)
    xi = rng.uniform(-10, 10, 5000)
    eta = rng.uniform(-10, 10, 5000)
    worst = min(np.min(quadratic_Ti(params, i, 1, 1, xi, eta))
                for i in range(params.p - 1))
    print(f"  min T_i over 5000 random gradient pairs: {worst:.6g} (>= 0)")
    print()

# a deliberately bad ratio parameter is refused at construction, with
# the violated condition in the message
try:
    build_params(1.0, 4.0, 0.5, 0.0, 4, ZEROS, ZEROS, theta=1.2)
except ValueError as exc:
    print("rejected theta=1.2 for a=1, b=4:", exc)
