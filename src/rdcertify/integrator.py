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
                     any threshold on the fields themselves), or a
                     stepped-to state has sup_u + sup_v above the
                     divergence threshold M, or not finite;
* ``dt_underflow``-- halving would push dt below dt_min.

Each accepted state is looked at once, by ``run``: its sup norms and
the first bound violation at once, since the verdicts read them; L, I
and J, which no verdict reads, from one ``lyapunov.diagnostics_block``
call per block of queued states.  ``run`` returns the columns as one
``TimeSeries``, built when the run ends; the claim report is read from
those columns.

Accepted states are kept nonnegative: values in (-1e-12, 0) are clamped
to zero and anything below -1e-12 rejects the step.  This guard can be
switched off (``SchemeConfig.enforce_positivity``) for verification
runs with signed data, e.g. pure-diffusion convergence studies.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, fields
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import lyapunov, verify
from .mesh import (Grid, ParamError, as_field, check_finite_data,
                   check_positive, sup_norm)

NEGATIVITY_TOL = 1e-12

# L, I and J of the queued states are computed once the states hold this
# many elements of L's power table, (p + 1) * n_nodes each: 27 states at
# p = 4, n = 31, and one state per block from (p + 1) * n_nodes >= 4096 on
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
        if not self.dt_max >= self.dt_min:
            raise ParamError("dt_max", "dt_max must be >= dt_min, got "
                             f"{self.dt_max}, {self.dt_min}")
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


@dataclass(eq=False)      # == on array fields has no single truth value
class TimeSeries:
    """The columns of a run, one entry per accepted state: t, sup_u,
    sup_v, L, I, J, the step dt taken to reach it, and the flag
    sup_u > u_bar0 or sup_v > v_bar0.  The positional fields are the
    columns in CSV order (``cli.CSV_HEADER`` is built from them); the
    keyword fields are the bounds, the first bound violation (the first
    node over its bound in the first flagged state) and the final
    state."""

    t: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    L: np.ndarray
    I: np.ndarray
    J: np.ndarray
    dt: np.ndarray
    bound_violation: np.ndarray
    _: KW_ONLY
    u_bar0: float
    v_bar0: float
    first_violation: verify.BoundEvent | None = None
    final_state: SimState | None = None

    def __len__(self):
        return len(self.t)

    @property
    def rows(self) -> list[tuple]:
        # kept only because bench/tracer.py:164 reads series.rows
        # (lyapunov.zero_rows_frac); nothing in the library does
        return list(zip(*(getattr(self, f.name).tolist()
                          for f in fields(self) if not f.kw_only)))


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
    """Integrate from (u0, v0) until t_end, blow-up, or dt underflow, and
    return the ``TimeSeries`` of every accepted state with the verdict.

    Each accepted state is looked at once: its rates (which J and the
    next step both use), its sup norms and, until the first bound
    violation is found, whether it is one.  L, I and J, which no verdict
    reads, come a block of states at a time (``DIAGNOSTICS_BLOCK``).
    The series is built once, when the run ends; its flag column is the
    rule ``sup_u > u_bar0 or sup_v > v_bar0`` taken on the sup-norm
    columns.  Every verdict is decided here: ``blowup`` at a stepped-to
    state's t when its ``sup_u + sup_v`` is above the threshold or not
    finite, ``blowup`` at the current t when the kinetics there are not
    finite, and ``dt_underflow`` at it when the step lands no state.
    Identical inputs produce a bit-identical series.  A grid too fine
    for the diffusion solve raises ParamError naming ``length``, and
    initial data that is not finite, or negative while positivity is
    enforced, one naming ``u0`` or ``v0``.
    """
    u = as_field(u0, grid).copy()
    v = as_field(v0, grid).copy()
    cfg.check_grid(grid)
    cfg.check_initial_data(u, v)

    u_bar0, v_bar0 = functional.u_bar0, functional.v_bar0
    row_size = (functional.p + 1) * grid.n_nodes
    t_stop = cfg.t_end * (1.0 - 1e-12)
    state, dt_used = SimState(0.0, u, v, cfg.dt_init), cfg.dt_init
    ts, sups, dts, queue, diagnostics = [], [], [], [], []
    first_violation = verdict = None
    while verdict is None:
        rates = np.array(model.rates(state.u, state.v))
        sup_u, sup_v = sup_norm(state.u), sup_norm(state.v)
        ts.append(state.t)
        sups.append((sup_u, sup_v))
        dts.append(dt_used)
        if first_violation is None and (sup_u > u_bar0 or sup_v > v_bar0):
            first_violation = verify.monitor_bounds(state, u_bar0, v_bar0)
        queue.append(((state.u, state.v), rates))
        if row_size * len(queue) >= DIAGNOSTICS_BLOCK:
            diagnostics.append(_diagnostics(queue, cfg, grid, functional))

        # the threshold judges the states a step reached, not the data
        if len(ts) > 1 and not sup_u + sup_v <= cfg.blowup_threshold:
            verdict = Verdict("blowup", state.t)
        elif not state.t < t_stop:
            verdict = Verdict("completed")
        elif not np.isfinite(rates).all():
            verdict = Verdict("blowup", state.t)
        else:
            trial = SimState(state.t, state.u, state.v,
                             min(state.dt, cfg.t_end - state.t))
            result = step_imex(trial, model, cfg, grid, rates)
            if result.state is None:
                verdict = Verdict("dt_underflow", state.t)
            else:
                state, dt_used = result.state, result.dt_used

    if queue:
        diagnostics.append(_diagnostics(queue, cfg, grid, functional))
    sup_u, sup_v = np.array(sups).T
    series = TimeSeries(np.array(ts), sup_u, sup_v,
                        *np.concatenate(diagnostics, axis=1), np.array(dts),
                        (sup_u > u_bar0) | (sup_v > v_bar0),
                        u_bar0=u_bar0, v_bar0=v_bar0,
                        first_violation=first_violation, final_state=state)
    return series, verdict


def _diagnostics(queue, cfg, grid, functional) -> np.ndarray:
    """The (3, k) rows L, I and J of the k queued states, from one
    ``lyapunov.diagnostics_block`` call; the queue is emptied."""
    states, rates = zip(*queue)
    queue.clear()
    return lyapunov.diagnostics_block(functional, grid, cfg.a, cfg.b,
                                      np.array(states), np.array(rates))
