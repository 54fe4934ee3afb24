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

from .integrator import (SchemeConfig, SimState, TimeSeries, Verdict, run,
                         solve_diffusion_implicit, step_imex)
from .kinetics import (Absorption, BlowupExample, Combustion, DoubleExp,
                       DoubleExpMinusPoly, Exp, GrowthFunction, Power,
                       ReactionModel, SubExp, find_threshold_A,
                       growth_from_spec)
from .lyapunov import (ConditionReport, FunctionalParams, build_params,
                       check_conditions, quadratic_Ti)
from .mesh import Grid, as_field, integrate, sup_norm
from .verify import (BoundEvent, ClaimReport, GNonNegReport,
                     MassControlReport, assemble_claim_report,
                     check_g_nonneg, check_mass_control, monitor_bounds,
                     sample_box)

__version__ = "0.1.0"

__all__ = [
    "Absorption", "BlowupExample", "BoundEvent", "ClaimReport",
    "Combustion", "ConditionReport", "DoubleExp", "DoubleExpMinusPoly",
    "Exp", "FunctionalParams", "GNonNegReport", "Grid", "GrowthFunction",
    "MassControlReport", "Power", "ReactionModel", "SchemeConfig",
    "SimState", "SubExp", "TimeSeries", "Verdict", "as_field",
    "assemble_claim_report", "build_params", "check_conditions",
    "check_g_nonneg", "check_mass_control", "find_threshold_A",
    "growth_from_spec", "integrate", "monitor_bounds", "quadratic_Ti",
    "run", "sample_box", "solve_diffusion_implicit", "step_imex",
    "sup_norm",
]
