"""rd-certify: a numerical laboratory for 2x2 reaction-diffusion systems.

Simulates coupled pairs u_t - a*Lap(u) = f(u, v), v_t - b*Lap(v) = g(u, v)
with no-flux boundaries on an interval, detects finite-time blow-up, and
mechanically evaluates the weighted positive-part (Lyapunov) machinery
that underpins uniform-boundedness claims for control-of-mass kinetics:
it builds the weight sequence, monitors the functional L and its
dissipation/reaction parts I and J along trajectories, verifies the
structural conditions by sampling, and reports whether the claimed
bounds hold or fail.
"""

from .integrator import SchemeConfig, run
from .kinetics import (Absorption, BlowupExample, Combustion, DoubleExp,
                       DoubleExpMinusPoly, Exp, GrowthFunction, Power,
                       ReactionModel, SubExp, find_threshold_A)
from .lyapunov import build_params, check_conditions, quadratic_Ti
from .mesh import Grid, integrate
from .verify import (assemble_claim_report, check_g_nonneg,
                     check_mass_control, sample_box)

__version__ = "0.1.0"

__all__ = [
    "Absorption", "BlowupExample", "Combustion", "DoubleExp",
    "DoubleExpMinusPoly", "Exp", "Grid", "GrowthFunction", "Power",
    "ReactionModel", "SchemeConfig", "SubExp", "assemble_claim_report",
    "build_params", "check_conditions", "check_g_nonneg",
    "check_mass_control", "find_threshold_A", "integrate", "quadratic_Ti",
    "run", "sample_box",
]
