"""Method-of-lines time integration with blow-up detection.

The base substep of size h advances (u, v) by Lie splitting: a forward
Euler reaction update followed by a backward Euler diffusion solve
(unconditionally stable, tridiagonal).  The pair is carried as one
(2, n) array, and both species are solved in one ``?gtsv`` call on a
block-diagonal band whose coupling entries between the blocks are zero,
so each species gets the bits of its own solve.  A trial step of size dt
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
sup norms, the flag for the sup-norm bound, sup_u > u_bar0 or
sup_v > v_bar0, and the first bound violation at once, since the
verdicts read them; L, I and J, which no verdict reads, come from one
``lyapunov.diagnostics_block`` call per block of queued rows.  The
divergence verdict, the first bound violation and the claim report are
all read from those rows.

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

# the queued rows' L, I and J are filled in once the rows hold this many
# elements of L's power table, (p + 1) * n_nodes each: 27 rows at p = 4,
# n = 31, and one row per block from (p + 1) * n_nodes >= 4096 on
DIAGNOSTICS_BLOCK = 4096

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
    r = dt * coeff / grid.spacing ** 2
    return _solve(_band([r], grid.n_nodes), f[None])[0]


def _band(rs, n: int):
    """The diagonals (lower, diag, upper) of the block-diagonal matrix
    with one block I - dt*coeff*Lap of n rows per r = dt*coeff/h^2 in
    ``rs``.  The two entries that would couple neighbouring blocks are
    zero, so ``?gtsv``'s elimination passes each block's rows through
    the arithmetic of that block solved alone."""
    r = np.array(rs, dtype=float)[:, None]
    lower, diag = np.empty((2, len(rs), n))
    lower[:] = -r
    upper = lower.copy()
    # row 0 couples twice to node 1, and the last row to node n-2
    lower[:, -2] = upper[:, 0] = -2.0 * r[:, 0]
    lower[:, -1] = upper[:, -1] = 0.0  # no coupling between blocks
    diag[:] = 1.0 + 2.0 * r
    return lower.ravel()[:-1], diag.ravel(), upper.ravel()[:-1]


def _solve(band, rhs: np.ndarray) -> np.ndarray:
    """Solve the ``_band`` system for one right-hand side per row of
    ``rhs``, each on its deviation from its first value; ``band`` is
    left intact for the next solve."""
    shift = rhs[:, :1]
    *_, w, info = _gtsv(*band, (rhs - shift).ravel(), overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"?gtsv failed with info = {info}")
    w = w.reshape(rhs.shape)
    w += shift
    return w


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _advance(w, dt, rates, band):
    """One Lie-split substep of the pair stacked as the rows of ``w``,
    from the rates there (stacked alike); None when the reaction stage
    leaves the representable range (caller halves dt)."""
    with np.errstate(over="ignore", invalid="ignore"):
        w1 = w + dt * rates
    if not np.isfinite(w1).all():
        return None
    return _solve(band, w1)


def _trial(w, dt, rates0, model, cfg: SchemeConfig, grid: Grid):
    """One extrapolated trial of size dt from the pair stacked as the
    rows of ``w``: the accepted ``(w_new, err, scale)``, or None when it
    is rejected (a NaN err or minimum rejects).

    Level k in 1, 2, 3 takes k substeps of size dt/k from w; each
    level's first substep uses ``rates0`` and every later one calls
    ``model.rates``, so a full trial costs 6 two-field solves (12 fields)
    and 3 calls.  Each level builds its two-block band once.  The kept
    state is T33 and err is sup|T32 - T22|, the tableau and error test
    of the module docstring.
    """
    spacing_sq = grid.spacing ** 2
    levels = []
    for k in (1, 2, 3):
        h = dt / k
        band = _band([h * cfg.a / spacing_sq, h * cfg.b / spacing_sq],
                     grid.n_nodes)
        level, rates = w, rates0
        for i in range(k):
            if i:
                rates = np.array(model.rates(*level))
            level = _advance(level, h, rates, band)
            if level is None:
                return None
        levels.append(level)

    T1, T2, T3 = levels
    d1 = T2 - T1
    d2 = T3 - T2
    T22 = T2 + d1
    T32 = T3 + 2.0 * d2
    kept = T3 + (3.5 * d2 - 0.5 * d1)               # T33
    err = float(np.max(np.abs(T32 - T22)))          # NaN-propagating
    sup_u, sup_v = np.abs(kept).max(axis=1)
    scale = max(1.0, float(sup_u), float(sup_v))
    if not err <= cfg.rtol * scale:
        return None
    if cfg.enforce_positivity:
        if not kept.min() >= -NEGATIVITY_TOL:
            return None
        np.clip(kept, 0.0, None, out=kept)
    return kept, err, scale


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
    w, dt = np.array((state.u, state.v)), state.dt
    rates0 = np.asarray(rates0, dtype=float)
    while (accepted := _trial(w, dt, rates0, model, cfg, grid)) is None:
        if 0.5 * dt < cfg.dt_min:
            return StepResult(None, 0.0)
        dt *= 0.5

    w_new, err, scale = accepted
    if err == 0.0:
        factor = 2.0
    else:
        factor = min(2.0, max(0.2, 0.9 * (cfg.rtol * scale / err) ** (1 / 3)))
    dt_next = min(cfg.dt_max, max(cfg.dt_min, dt * factor))
    return StepResult(SimState(state.t + dt, w_new[0], w_new[1], dt_next), dt)


def run(model, cfg: SchemeConfig, grid: Grid, u0, v0,
        functional: lyapunov.FunctionalParams):
    """Integrate from (u0, v0) until t_end, blow-up, or dt underflow.

    Every accepted state is logged as one row: sup norms, the functional
    L, the dissipation and reaction diagnostics I and J, the step size
    taken, and the flag ``sup_u > u_bar0 or sup_v > v_bar0``.  The first
    flagged row is scanned once for the first offending node.  L, I and
    J, which no verdict reads, are filled in a block of rows at a time
    (``DIAGNOSTICS_BLOCK``), and for the last rows before the return.
    Every verdict is decided here: ``blowup`` at the current t when the
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
    queue = []
    rates = _log(series, state, cfg.dt_init, model, queue)
    row_size = (functional.p + 1) * grid.n_nodes

    t_stop = cfg.t_end * (1.0 - 1e-12)
    verdict = Verdict("completed")
    while state.t < t_stop:
        if not np.isfinite(rates).all():
            verdict = Verdict("blowup", state.t)
            break
        trial = SimState(state.t, state.u, state.v,
                         min(state.dt, cfg.t_end - state.t))
        result = step_imex(trial, model, cfg, grid, rates)
        if result.state is None:
            verdict = Verdict("dt_underflow", state.t)
            break
        state = result.state
        rates = _log(series, state, result.dt_used, model, queue)
        if row_size * len(queue) >= DIAGNOSTICS_BLOCK:
            _fill_diagnostics(series, queue, cfg, grid, functional)
        _, sup_u, sup_v = series.rows[-1][:3]
        if not sup_u + sup_v <= cfg.blowup_threshold:
            verdict = Verdict("blowup", state.t)
            break
    _fill_diagnostics(series, queue, cfg, grid, functional)
    series.final_state = state
    return series, verdict


def _log(series, state, dt_used, model, queue):
    """Append the row of an accepted state, with L, I and J left to
    ``_fill_diagnostics`` and the state queued for it; return the rates
    there, stacked as one (2, n) array, which J and the next step both
    use."""
    rates = np.array(model.rates(state.u, state.v))
    sup_u, sup_v = sup_norm(state.u), sup_norm(state.v)
    violated = sup_u > series.u_bar0 or sup_v > series.v_bar0
    if violated and series.first_violation is None:
        series.first_violation = verify.monitor_bounds(
            state, series.u_bar0, series.v_bar0)
    series.append(state.t, sup_u, sup_v, None, None, None, dt_used, violated)
    queue.append((len(series) - 1, (state.u, state.v), rates))
    return rates


def _fill_diagnostics(series, queue, cfg, grid, functional):
    """Fill in L, I and J of the queued rows with one
    ``lyapunov.diagnostics_block`` call, and empty the queue."""
    if not queue:
        return
    rows, fields, rates = zip(*queue)
    L, I, J = lyapunov.diagnostics_block(functional, grid, cfg.a, cfg.b,
                                         np.array(fields), np.array(rates))
    for k, L_k, I_k, J_k in zip(rows, L.tolist(), I.tolist(), J.tolist()):
        row = series.rows[k]
        series.rows[k] = row[:3] + (L_k, I_k, J_k) + row[6:]
    queue.clear()
