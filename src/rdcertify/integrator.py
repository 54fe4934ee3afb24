"""Method-of-lines time integration with blow-up detection.

The base substep of size h advances (u, v) by Lie splitting: a forward
Euler reaction update followed by a backward Euler diffusion solve per
species (unconditionally stable, tridiagonal).  A trial step of size dt
extrapolates that first-order substep over the harmonic sequence 1, 2,
3 (the linearly implicit Euler extrapolation of SEULEX/LIMEX; Hairer &
Wanner, *Solving ODEs II*, IV.9): level k takes k substeps of size dt/k
from (u, v), giving T1, T2, T3.  With d1 = T2 - T1 and d2 = T3 - T2 the
Aitken-Neville tableau is

    T22 = T2 + d1,   T32 = T3 + 2 d2,   T33 = T3 + (3.5 d2 - 0.5 d1),

written in increments, so that the corrections' round-off scales with
d1 and d2 rather than with T3.  T33 is kept.  The error estimate
is the larger of sup|T33 - T32| and sup|T32 - T22| over both species,
both O(dt^3); since T33 - T32 = (T32 - T22) / 2 that is sup|T32 - T22|.
Testing the smaller difference alone doubles the tolerance in effect
and lets a step through the blow-up's final approach run away.  A
trial is accepted when err is at most rtol times the solution scale,
and the next dt grows by (rtol * scale / err)^(1/3).
On failure dt halves and the step retries; stepping ends with one of
three verdicts, all decided by ``run``:

* ``completed``   -- reached t_end;
* ``blowup``      -- the kinetics are not finite at the current state
                     (double-exponential reactions overflow long before
                     any threshold on the fields themselves), or the row
                     of an accepted state has sup_u + sup_v above the
                     divergence threshold M, or not finite;
* ``dt_underflow``-- halving would push dt below dt_min.

Each accepted state is looked at once, when ``run`` logs its row: the
sup norms, L, I, J, and the flag for the sup-norm bound,
sup_u > u_bar0 or sup_v > v_bar0.  The divergence verdict, the first
bound violation and the claim report are all read from those rows.

Accepted states are kept nonnegative: values in (-1e-12, 0) are clamped
to zero and anything below -1e-12 rejects the step.  This guard can be
switched off (``SchemeConfig.enforce_positivity``) for verification
runs with signed data, e.g. pure-diffusion convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import lyapunov, verify
from .mesh import (Grid, ParamError, as_field, check_finite_data,
                   check_positive, sup_norm)

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
        check_positive(a=self.a, b=self.b, t_end=self.t_end)
        if not self.dt_min > 0:
            raise ParamError("dt_min", f"dt_min must be > 0, got {self.dt_min}")
        if not self.dt_min <= self.dt_init <= self.dt_max:
            raise ParamError("dt_init", f"need dt_min <= dt_init <= dt_max, got "
                             f"{self.dt_min}, {self.dt_init}, {self.dt_max}")
        if not self.rtol > 0:
            raise ParamError("rtol", f"rtol must be > 0, got {self.rtol}")
        if not self.blowup_threshold > 0:
            raise ParamError("blowup_threshold", "blowup_threshold must be > 0, "
                             f"got {self.blowup_threshold}")

    def check_grid(self, grid: Grid) -> None:
        """Raise ParamError naming ``length`` when, for a step dt <=
        min(dt_max, t_end), the diffusion solve's largest off-diagonal
        sum c = 2 * dt * max(a, b) / h^2 swamps the 1 on its diagonal
        (1 + c == c, or c overflows): the matrix is then singular in
        double precision."""
        dt = min(self.dt_max, self.t_end)
        c = 2.0 * dt * max(self.a, self.b) / grid.spacing ** 2
        if not 1.0 + c > c:
            raise ParamError("length", f"length = {grid.length} gives a "
                             f"spacing h = {grid.spacing} too small for the "
                             f"diffusion solve: 2 * dt * max(a, b) / h^2 = "
                             f"{c} at dt = {dt}")

    def check_initial_data(self, u0, v0) -> None:
        """The rules on initial data: raise ParamError naming ``u0`` or
        ``v0`` when it is not finite, or negative while positivity is
        enforced."""
        check_finite_data(u0, v0)
        if self.enforce_positivity:
            for name, data in (("u0", u0), ("v0", v0)):
                if np.min(data) < 0:
                    raise ParamError(name, "initial data must be nonnegative "
                                     "(or disable enforce_positivity)")


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


@dataclass
class TimeSeries:
    """One row per accepted state (t, sup_u, sup_v, L, I, J, dt, violation
    flag), plus the first bound violation: the first node over its bound
    in the first flagged row."""

    u_bar0: float
    v_bar0: float
    rows: list = field(default_factory=list)
    first_violation: verify.BoundEvent | None = None
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

def _advance(u, v, dt, rates, cfg: SchemeConfig, grid: Grid):
    """One Lie-split substep from the rates at (u, v); None when the
    reaction stage leaves the representable range (caller halves dt)."""
    f, g = rates
    with np.errstate(over="ignore", invalid="ignore"):
        u1 = u + dt * f
        v1 = v + dt * g
    if not (np.isfinite(u1).all() and np.isfinite(v1).all()):
        return None
    return (solve_diffusion_implicit(u1, cfg.a, dt, grid),
            solve_diffusion_implicit(v1, cfg.b, dt, grid))


def _trial(u, v, dt, rates0, model, cfg: SchemeConfig, grid: Grid):
    """One extrapolated trial of size dt: the accepted ``(u, v, err,
    scale)``, or None when it is rejected (a NaN err or minimum rejects).

    Level k in 1, 2, 3 takes k substeps of size dt/k from (u, v); each
    level's first substep uses ``rates0`` and every later one calls
    ``model.rates``, so a full trial costs 12 solves and 3 calls.  The
    kept state is T33 and err is sup|T32 - T22|, the tableau and error
    test of the module docstring.
    """
    levels = []
    for k in (1, 2, 3):
        w, rates = (u, v), rates0
        for i in range(k):
            if i:
                rates = model.rates(*w)
            w = _advance(*w, dt / k, rates, cfg, grid)
            if w is None:
                return None
        levels.append(w)

    kept, diffs = [], []
    for T1, T2, T3 in zip(*levels):
        d1 = T2 - T1
        d2 = T3 - T2
        T22 = T2 + d1
        T32 = T3 + 2.0 * d2
        kept.append(T3 + (3.5 * d2 - 0.5 * d1))     # T33
        diffs.append(sup_norm(T32 - T22))
    u_new, v_new = kept
    err = float(np.max(diffs))          # NaN-propagating, unlike max()
    scale = max(1.0, sup_norm(u_new), sup_norm(v_new))
    if not err <= cfg.rtol * scale:
        return None
    if cfg.enforce_positivity:
        if not min(u_new.min(), v_new.min()) >= -NEGATIVITY_TOL:
            return None
        np.clip(u_new, 0.0, None, out=u_new)
        np.clip(v_new, 0.0, None, out=v_new)
    return u_new, v_new, err, scale


class StepResult(NamedTuple):
    state: SimState | None      # advanced state (None on dt underflow)
    dt_used: float              # step size actually taken (after halvings)


def step_imex(state: SimState, model, cfg: SchemeConfig, grid: Grid,
              rates0) -> StepResult:
    """Advance one accepted step starting from ``state.dt``.

    ``rates0`` is ``model.rates`` at the state.  A rejected trial halves
    dt; the state is None when halving would drop below dt_min.  ``run``
    judges the outcome.
    """
    u, v, dt = state.u, state.v, state.dt
    while (accepted := _trial(u, v, dt, rates0, model, cfg, grid)) is None:
        if 0.5 * dt < cfg.dt_min:
            return StepResult(None, 0.0)
        dt *= 0.5

    u_new, v_new, err, scale = accepted
    if err == 0.0:
        factor = 2.0
    else:
        factor = min(2.0, max(0.2, 0.9 * (cfg.rtol * scale / err) ** (1 / 3)))
    dt_next = min(cfg.dt_max, max(cfg.dt_min, dt * factor))
    return StepResult(SimState(state.t + dt, u_new, v_new, dt_next), dt)


def run(model, cfg: SchemeConfig, grid: Grid, u0, v0,
        functional: lyapunov.FunctionalParams):
    """Integrate from (u0, v0) until t_end, blow-up, or dt underflow.

    Every accepted state is logged as one row: sup norms, the functional
    L, the dissipation and reaction diagnostics I and J, the step size
    taken, and the flag ``sup_u > u_bar0 or sup_v > v_bar0``.  The first
    flagged row is scanned once for the first offending node.  Every
    verdict is decided here: ``blowup`` at the current t when the
    kinetics there are not finite, ``dt_underflow`` at it when the step
    lands no state, and ``blowup`` at a row's t when its ``sup_u +
    sup_v`` is above the threshold or not finite.  Identical inputs
    produce a bit-identical series.  A grid too fine for the diffusion
    solve raises ParamError naming ``length``, and initial data that is
    not finite, or negative while positivity is enforced, one naming
    ``u0`` or ``v0``.
    """
    u = as_field(u0, grid).copy()
    v = as_field(v0, grid).copy()
    cfg.check_grid(grid)
    cfg.check_initial_data(u, v)

    series = TimeSeries(functional.u_bar0, functional.v_bar0)
    state = SimState(0.0, u, v, cfg.dt_init)
    rates = _log(series, state, cfg.dt_init, model, cfg, grid, functional)

    t_stop = cfg.t_end * (1.0 - 1e-12)
    verdict = Verdict("completed")
    while state.t < t_stop:
        if not (np.isfinite(rates[0]).all() and np.isfinite(rates[1]).all()):
            verdict = Verdict("blowup", state.t)
            break
        trial = SimState(state.t, state.u, state.v,
                         min(state.dt, cfg.t_end - state.t))
        result = step_imex(trial, model, cfg, grid, rates)
        if result.state is None:
            verdict = Verdict("dt_underflow", state.t)
            break
        state = result.state
        rates = _log(series, state, result.dt_used, model, cfg, grid,
                     functional)
        _, sup_u, sup_v = series.rows[-1][:3]
        if not sup_u + sup_v <= cfg.blowup_threshold:
            verdict = Verdict("blowup", state.t)
            break
    series.final_state = state
    return series, verdict


def _log(series, state, dt_used, model, cfg, grid, functional):
    """Append the row of an accepted state; return the rates there, which
    J and the next step both use."""
    rates = model.rates(state.u, state.v)
    L, I, J = lyapunov.diagnostics(functional, state, grid, cfg.a, cfg.b,
                                   rates)
    sup_u, sup_v = sup_norm(state.u), sup_norm(state.v)
    violated = sup_u > series.u_bar0 or sup_v > series.v_bar0
    if violated and series.first_violation is None:
        series.first_violation = verify.monitor_bounds(
            state, series.u_bar0, series.v_bar0)
    series.append(state.t, sup_u, sup_v, L, I, J, dt_used, violated)
    return rates
