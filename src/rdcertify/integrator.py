"""Method-of-lines time integration with blow-up detection.

One trial step of size dt advances (u, v) by Lie splitting: a forward
Euler reaction update followed by a backward Euler diffusion solve per
species (unconditionally stable, tridiagonal).  The trial is carried
out once with dt and twice with dt/2; the difference of the two results
is the local error estimate, accepted when it is below rtol times the
solution scale, and the kept state is the Richardson combination
2*fine - coarse.  On failure dt halves and the step retries; stepping
ends with one of three verdicts:

* ``completed``   -- reached t_end;
* ``blowup``      -- the sup norms crossed the divergence threshold M,
                     or the kinetics overflowed at the current state
                     (double-exponential reactions overflow long before
                     any threshold on the fields themselves);
* ``dt_underflow``-- halving would push dt below dt_min.

Accepted states are kept nonnegative: values in (-1e-12, 0) are clamped
to zero and anything below -1e-12 rejects the step.  This guard can be
switched off (``SchemeConfig.enforce_positivity``) for verification
runs with signed data, e.g. pure-diffusion convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import lyapunov, verify
from .mesh import Grid, as_field, sup_norm

NEGATIVITY_TOL = 1e-12

_gtsv, = get_lapack_funcs(("gtsv",), dtype=np.float64)


@dataclass(frozen=True)
class SchemeConfig:
    """Diffusion pair, horizon, and step-control knobs."""

    a: float
    b: float
    t_end: float
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.1
    rtol: float = 1e-6
    blowup_threshold: float = 1e6
    enforce_positivity: bool = True

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("diffusion coefficients a, b must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.dt_min <= self.dt_init <= self.dt_max:
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not self.rtol > 0:
            raise ValueError("rtol must be positive")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")


@dataclass
class SimState:
    """Solution pair at time t plus the current step-size suggestion."""

    t: float
    u: np.ndarray
    v: np.ndarray
    dt: float


@dataclass(frozen=True)
class Verdict:
    kind: str                  # "completed" | "blowup" | "dt_underflow"
    t: float | None = None     # divergence / underflow time

    @staticmethod
    def completed() -> "Verdict":
        return Verdict("completed")

    @staticmethod
    def blow_up(t: float) -> "Verdict":
        return Verdict("blowup", t)

    @staticmethod
    def dt_underflow(t: float) -> "Verdict":
        return Verdict("dt_underflow", t)

    @property
    def is_completed(self):
        return self.kind == "completed"

    @property
    def is_blowup(self):
        return self.kind == "blowup"

    @property
    def is_dt_underflow(self):
        return self.kind == "dt_underflow"


@dataclass
class TimeSeries:
    """Per-step diagnostics (t, sup_u, sup_v, L, I, J, dt, violation flag)
    plus the bound events collected while stepping."""

    u_bar0: float
    v_bar0: float
    rows: list = field(default_factory=list)
    events: list = field(default_factory=list)
    final_state: SimState | None = None

    COLUMNS = ("t", "sup_u", "sup_v", "L", "I", "J", "dt", "bound_violation")

    def append(self, t, sup_u, sup_v, L, I, J, dt, violated: bool):
        self.rows.append((t, sup_u, sup_v, L, I, J, dt, bool(violated)))

    def __len__(self):
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        idx = self.COLUMNS.index(name)
        return np.array([row[idx] for row in self.rows])

    @property
    def t(self):
        return self.column("t")

    @property
    def sup_u(self):
        return self.column("sup_u")

    @property
    def sup_v(self):
        return self.column("sup_v")

    @property
    def L(self):
        return self.column("L")

    @property
    def I(self):
        return self.column("I")

    @property
    def J(self):
        return self.column("J")


# ---------------------------------------------------------------------------
# Implicit diffusion solve
# ---------------------------------------------------------------------------

def solve_diffusion_implicit(f, coeff: float, dt: float, grid: Grid) -> np.ndarray:
    """Backward Euler diffusion: solve (I - dt*coeff*Lap) w = f.

    The matrix rows mirror the reflected-ghost Laplacian stencil, so the
    system is tridiagonal and strictly diagonally dominant.  It is
    solved by LAPACK ``?gtsv``, called directly: the routine that
    ``scipy.linalg.solve_banded`` uses for one sub- and one
    super-diagonal, without its per-call input validation.  The solve
    works on the deviation from f[0]: constants lie in the Neumann
    kernel, so a constant input returns exactly, with no round-off noise
    to re-excite stiff reaction modes on homogeneous states.
    """
    if not (coeff > 0 and dt > 0):
        raise ValueError("need coeff > 0 and dt > 0")
    f = as_field(f, grid)
    n = grid.n_nodes
    r = dt * coeff / grid.spacing ** 2
    lower = np.full(n - 1, -r)
    lower[-1] = -2.0 * r         # last row couples twice to node n-2
    diag = np.full(n, 1.0 + 2.0 * r)
    upper = np.full(n - 1, -r)
    upper[0] = -2.0 * r          # row 0 couples twice to node 1
    shift = f[0]
    *_, w, info = _gtsv(lower, diag, upper, f - shift, overwrite_dl=True,
                        overwrite_d=True, overwrite_du=True, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"?gtsv failed with info = {info}")
    w += shift
    return w


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _advance(u, v, dt, model, cfg: SchemeConfig, grid: Grid, rates=None):
    """One Lie-split substep; None when the reaction stage leaves the
    representable range (caller halves dt)."""
    if rates is None:
        rates = model.rates(u, v)
    f, g = rates
    with np.errstate(invalid="ignore"):
        u1 = u + dt * f
        v1 = v + dt * g
    if not (np.isfinite(u1).all() and np.isfinite(v1).all()):
        return None
    return (solve_diffusion_implicit(u1, cfg.a, dt, grid),
            solve_diffusion_implicit(v1, cfg.b, dt, grid))


class StepResult(NamedTuple):
    state: SimState | None      # advanced state (None when no step landed)
    verdict: Verdict | None     # None for an ordinary accepted step
    dt_used: float              # step size actually taken (after halvings)


def step_imex(state: SimState, model, cfg: SchemeConfig, grid: Grid,
              rates0=None) -> StepResult:
    """Advance one accepted step starting from ``state.dt``.

    The verdict is None for an ordinary accepted step, ``blowup`` when
    the accepted state crossed the divergence threshold (the result
    carries the diverged fields) or the kinetics already overflow at the
    current state (no new state), and ``dt_underflow`` when halving
    would drop below dt_min.  ``rates0`` is ``model.rates`` at the
    state, for a caller that already has it.
    """
    u, v, t = state.u, state.v, state.t
    if rates0 is None:
        rates0 = model.rates(u, v)
    if not (np.isfinite(rates0[0]).all() and np.isfinite(rates0[1]).all()):
        return StepResult(None, Verdict.blow_up(t), 0.0)

    dt = state.dt
    while True:
        accepted = None
        coarse = _advance(u, v, dt, model, cfg, grid, rates=rates0)
        if coarse is not None:
            half = _advance(u, v, 0.5 * dt, model, cfg, grid, rates=rates0)
            fine = None if half is None else _advance(
                half[0], half[1], 0.5 * dt, model, cfg, grid)
            if fine is not None:
                err = max(sup_norm(coarse[0] - fine[0]),
                          sup_norm(coarse[1] - fine[1]))
                scale = max(1.0, sup_norm(fine[0]), sup_norm(fine[1]))
                if err <= cfg.rtol * scale:
                    u_new = 2.0 * fine[0] - coarse[0]
                    v_new = 2.0 * fine[1] - coarse[1]
                    if cfg.enforce_positivity:
                        if min(u_new.min(), v_new.min()) >= -NEGATIVITY_TOL:
                            np.clip(u_new, 0.0, None, out=u_new)
                            np.clip(v_new, 0.0, None, out=v_new)
                            accepted = (u_new, v_new, err, scale)
                    else:
                        accepted = (u_new, v_new, err, scale)
        if accepted is None:
            if 0.5 * dt < cfg.dt_min:
                return StepResult(None, Verdict.dt_underflow(t), 0.0)
            dt *= 0.5
            continue

        u_new, v_new, err, scale = accepted
        if err == 0.0:
            factor = 2.0
        else:
            factor = min(2.0, max(0.2, 0.9 * math.sqrt(cfg.rtol * scale / err)))
        dt_next = min(cfg.dt_max, max(cfg.dt_min, dt * factor))
        new_state = SimState(t + dt, u_new, v_new, dt_next)
        diverged = (not (np.isfinite(u_new).all() and np.isfinite(v_new).all())
                    or sup_norm(u_new) + sup_norm(v_new) > cfg.blowup_threshold)
        verdict = Verdict.blow_up(new_state.t) if diverged else None
        return StepResult(new_state, verdict, dt)


def run(model, cfg: SchemeConfig, grid: Grid, u0, v0,
        functional: lyapunov.FunctionalParams):
    """Integrate from (u0, v0) until t_end, blow-up, or dt underflow.

    Every accepted step is logged with sup norms, the functional L, the
    dissipation and reaction diagnostics I and J, the step size taken,
    and a bound-violation flag; bound events carry the first offending
    node.  Identical inputs produce a bit-identical series.
    """
    u = as_field(u0, grid).copy()
    v = as_field(v0, grid).copy()
    if cfg.enforce_positivity and (u.min() < 0 or v.min() < 0):
        raise ValueError("initial data must be nonnegative "
                         "(or disable enforce_positivity)")

    series = TimeSeries(functional.u_bar0, functional.v_bar0)
    state = SimState(0.0, u, v, cfg.dt_init)
    rates = _log(series, state, cfg.dt_init, model, cfg, grid, functional)

    t_stop = cfg.t_end * (1.0 - 1e-12)
    verdict = None
    while verdict is None and state.t < t_stop:
        trial = SimState(state.t, state.u, state.v,
                         min(state.dt, cfg.t_end - state.t))
        result = step_imex(trial, model, cfg, grid, rates0=rates)
        if result.state is not None:
            state = result.state
            rates = _log(series, state, result.dt_used, model, cfg, grid,
                         functional)
        verdict = result.verdict
    series.final_state = state
    return series, verdict if verdict is not None else Verdict.completed()


def _log(series, state, dt_used, model, cfg, grid, functional):
    """Append the row of an accepted state; return the rates there, which
    J and the next step both use."""
    rates = model.rates(state.u, state.v)
    L = lyapunov.lyapunov_L(functional, state, grid)
    I = lyapunov.dissipation_I(functional, state, grid, cfg.a, cfg.b)
    J = lyapunov.reaction_J(functional, state, grid, model, rates=rates)
    event = verify.monitor_bounds(state, functional.u_bar0, functional.v_bar0)
    if event is not None:
        series.events.append(event)
    series.append(state.t, sup_norm(state.u), sup_norm(state.v),
                  L, I, J, dt_used, event is not None)
    return rates
