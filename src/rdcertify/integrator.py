"""Method-of-lines time integration with blow-up detection.

The base substep of size h advances (u, v) by Lie splitting: a forward
Euler reaction update followed by a backward Euler diffusion solve
(unconditionally stable, tridiagonal).  A trial step of size dt
extrapolates that first-order substep over the harmonic sequence 1, 2,
3, as SEULEX/LIMEX do (Hairer & Wanner, *Solving ODEs II*, IV.9), but
their base step is linearly implicit Euler, while here the reaction is
explicit and only the diffusion implicit: level k takes k substeps of
size dt/k from (u, v), giving T1, T2, T3.

The levels do not depend on each other until the tableau, so a trial
advances them side by side in three rounds: the first substep of levels
1-3, the second of levels 2-3, the third of level 3.  The second and
third rounds each evaluate the kinetics once, on the stacked fields of
the levels they step, so a full trial makes 2 ``rates`` calls beyond
the one at the state.  The six fields [L1u, L1v, L2u, L2v, L3u, L3v]
sit in one row of a workspace that ``run`` allocates once, so that no
trial allocates the levels' fields or the band ``?gtsv`` overwrites.
Each round solves the suffix of the fields still stepping (6, 4, then
2) in one ``?gtsv`` call on the band of those fields' blocks, with
r = (dt/k) * {a, b} / h^2, written for that call.  The entries that
would couple neighbouring blocks are zero, so each field gets the bits
of its own solve.  One pass judges a round.  The solve works on the
fields' deviations from their first values, which are all zero only
when every field equals its first value and that value is finite.  A
round whose fields are all constant in space, and none of them zero, is
its own solution (a constant lies in the Neumann kernel): after one
comparison and one reduction it writes no band and calls no ``?gtsv``.
Any other round is rejected before its band when a deviation is not
finite: a stage that is not, or one whose spread overflows.  Uniform
data stays uniform bit for bit, so a run from it, like the paper's
blow-up example, writes no band and makes no ``?gtsv`` call.  ``?gtsv`` is
LAPACK's ``dgtsv`` from scipy, which the first call loads
(``_load_gtsv``), so such a run never loads scipy.  With d1 = T2 - T1
and d2 = T3 - T2 the Aitken-Neville tableau is

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

A trial runs in one ``np.errstate`` that ignores overflow and invalid
values, its ``rates`` calls included: a value that overflows in it is
not finite and rejects it quietly (or, in T33 alone, lands a state
that ends the run in ``blowup``).  It takes the kept state's per-field
sup norms once, after the positivity clip, and its error scale from
them; ``step_imex`` returns them with the state.  Each accepted state
is looked at once, by ``run``: its sup norms, which the step handed
over (``sup_norm`` is taken of the initial state alone), and the first
bound violation at once, since the verdicts read them; its ``rates``,
outside any errstate, so a custom model that overflows there warns;
L, I and J, which no verdict reads, from one
``lyapunov.diagnostics_block`` call per block of queued states.
``run`` returns the columns as one ``TimeSeries``, built when the run
ends; the claim report is read from those columns.

Accepted states are kept nonnegative: values in (-1e-12, 0) are clamped
to zero and anything below -1e-12 rejects the step.  This guard can be
switched off (``SchemeConfig.enforce_positivity``) for verification
runs with signed data, e.g. pure-diffusion convergence studies.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import KW_ONLY, dataclass, fields
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import NamedTuple

import numpy as np

from . import lyapunov, verify
from .mesh import (Grid, ParamError, as_field, check_finite_data,
                   check_positive, sup_norm)

NEGATIVITY_TOL = 1e-12

# L, I and J of the queued states are computed once the states hold this
# many elements of L's power table, (p + 1) * n_nodes each: 27 states at
# p = 4, n = 31, and one state per block from (p + 1) * n_nodes >= 4096 on
DIAGNOSTICS_BLOCK = 4096


@functools.cache
def _load_gtsv():
    """LAPACK ``dgtsv`` from scipy's f2py extension ``_flapack``: the
    wrapper ``scipy.linalg.get_lapack_funcs(("gtsv",), np.float64)``
    returns, loaded once per process, by the first ``?gtsv`` call.
    Importing the library loads neither scipy nor ``_flapack``, which
    maps scipy's bundled OpenBLAS (about 2.6 MB of resident memory), so
    ``check`` and a run whose rounds all skip the solve never load them.
    The extension is loaded without running ``scipy.linalg``'s package
    ``__init__``, which pulls in numpy.f2py, numpy.testing and numpy.ma
    through scipy's array-API layer, none of which is used here, and
    costs about half of a command's start-up.  Raises ImportError naming
    ``scipy.linalg._flapack`` when the extension cannot be found."""
    import scipy

    name = "scipy.linalg._flapack"
    spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgtsv


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
        # dt_max alone may be inf: no cap on the step
        check_positive(a=self.a, b=self.b, t_end=self.t_end,
                       dt_min=self.dt_min, dt_init=self.dt_init,
                       rtol=self.rtol, blowup_threshold=self.blowup_threshold)
        if not self.dt_max >= self.dt_min:
            raise ParamError("dt_max", "dt_max must be >= dt_min, got "
                             f"{self.dt_max}, {self.dt_min}")
        if not self.dt_min <= self.dt_init <= self.dt_max:
            raise ParamError("dt_init", f"need dt_min <= dt_init <= dt_max, got "
                             f"{self.dt_min}, {self.dt_init}, {self.dt_max}")

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
    """Solution pair at time t plus the size of the next step: the step
    control's suggestion, capped at t_end - t."""

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
    to re-excite stiff reaction modes on homogeneous states.  An f that
    is not finite is solved all the same (``?gtsv`` spreads its inf and
    NaN).
    """
    check_positive(coeff=coeff, dt=dt)
    w = as_field(f, grid).copy()
    _solve(([dt], [coeff], grid.spacing ** 2), w[None], reject=False)
    return w


def _band(rs, n: int, out=None) -> np.ndarray:
    """The (3, len(rs) * n) rows lower, diag, upper of the block-diagonal
    matrix with one block I - dt*coeff*Lap of n rows per r =
    dt*coeff/h^2 in ``rs``, written into the first columns of ``out``, a
    (3, >= len(rs) * n) buffer, when given.  The last entry of the lower
    and upper rows pads them to full length, and the entries that would
    couple neighbouring blocks are zero, so ``?gtsv``'s elimination
    passes each block's rows through the arithmetic of that block
    solved alone."""
    k = len(rs)
    band = (np.empty((3, k, n)) if out is None
            else out[:, :k * n].reshape(3, k, n))
    # per block the lower, diag and upper entries -r, 1 + 2r and -r, and
    # -2r where row 0 couples twice to node 1 and the last row to node n-2
    stencil = np.array([(-r, 1.0 + 2.0 * r, -r, -2.0 * r) for r in rs]).T
    band[:] = stencil[:3, :, None]
    band[0, :, -2] = band[2, :, 0] = stencil[3]
    band[::2, :, -1] = 0.0  # no coupling between blocks
    return band.reshape(3, -1)


def _solve(blocks, x: np.ndarray, out=None, *, reject=True) -> bool:
    """Overwrite the rows of ``x``, a C-contiguous (k, n) array that
    ``?gtsv`` solves in place, with the solution of the last k blocks
    named by ``blocks`` = (hs, coeffs, spacing_sq) for those right-hand
    sides, each taken on its deviation from its first value, and return
    True.  The blocks are I - h*c*Lap, r = h * c / spacing_sq, for h in
    hs and c in coeffs, in that order.

    One pass judges the call.  The deviations are all +0 or -0 only
    when every row equals its first value and that value is finite.  If
    then no row is zero, the call is its own solution, bit for bit:
    ``?gtsv`` turns such deviations into zeros, and a zero plus a
    nonzero shift is the shift.  So ``x`` is left as it is, after that
    one comparison and reduction, and no band is written and no
    ``?gtsv`` called.  A row of zeros still goes to ``?gtsv``: where its
    elimination swaps rows (r above about 2) it returns -0 for a +0
    right-hand side, and adding a shift of -0 keeps that -0.  Any other
    call takes the deviations in place; with ``reject``, one that is
    not finite (a row that is not, or a spread that overflows) returns
    False, ``x`` then holding the deviations; without it, such rows are
    solved like any other.

    A call that is solved writes the k blocks' band into ``out``
    (``_band``; a (3, >= x.size) buffer, allocated when None), which
    ``?gtsv`` then overwrites."""
    first = x[:, 0].tolist()
    if (np.logical_and.reduce(x == x[:, :1], axis=None)
            and 0.0 not in first and all(map(math.isfinite, first))):
        return True
    shift = x[:, :1].copy()
    x -= shift
    if reject and not np.logical_and.reduce(np.isfinite(x), axis=None):
        return False
    hs, coeffs, spacing_sq = blocks
    rs = [h * c / spacing_sq for h in hs for c in coeffs][-len(x):]
    lower, diag, upper = _band(rs, x.shape[1], out)
    # overwrite_dl, _d, _du and _b, passed positionally
    *_, info = _load_gtsv()(lower[:-1], diag, upper[:-1], x.reshape(-1),
                            True, True, True, True)
    if info != 0:
        raise np.linalg.LinAlgError(f"?gtsv failed with info = {info}")
    x += shift
    return True


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _workspace(n: int) -> np.ndarray:
    """The buffers of one trial at n nodes, reused from trial to trial:
    rows 0-2 the band that each ``?gtsv`` call is handed and overwrites,
    row 3 the six fields of the three levels."""
    return np.empty((4, 6 * n))


def _trial(w, dt, rates0, model, cfg: SchemeConfig, grid: Grid, work):
    """One extrapolated trial of size dt from the pair stacked as the
    rows of ``w``: the accepted ``(w_new, err, scale, sups)``, or None
    when it is rejected (a reaction stage or its deviation not finite,
    or a NaN err or minimum).

    Level k in 1, 2, 3 takes k substeps of size dt/k from w.  The levels
    do not depend on each other until the tableau, so they advance side
    by side in three rounds: the first substep of levels 1-3, from
    ``rates0``; the second of levels 2-3 and the third of level 3, each
    after one ``model.rates`` call on the stacked (k, n) fields of the
    levels it steps, so a full trial makes 2 calls.  Row 3 of the
    workspace ``work`` (``_workspace``) holds the levels' fields [L1u,
    L1v, L2u, L2v, L3u, L3v]; each round writes its reaction stages into
    the suffix of the levels it steps and hands that suffix to one
    ``_solve`` call, 6, 4, then 2 fields, which judges it in one pass:
    the trial is rejected when a stage, or a stage's deviation from its
    field's first value, is not finite, and otherwise the suffix is
    solved in place, with its blocks' band written into rows 0-2 of
    ``work`` unless the fields are all constant in space and nonzero.
    The row then holds T1, T2 and T3.  The kept state is T33 and err is
    sup|T32 - T22|, the tableau and error test of the module docstring;
    ``w_new`` is a new array, not a view of ``work``.

    The whole trial, its two ``model.rates`` calls included, runs in one
    ``np.errstate`` that ignores overflow and invalid values, so a trial
    that overflows raises no warning.  ``sups`` are the per-field sup
    norms of ``w_new``, taken once, after the positivity clip; the error
    scale is max(1, sup_u, sup_v).
    """
    n = grid.n_nodes
    hs = [dt / k for k in (1, 2, 3)]
    blocks = (hs, (cfg.a, cfg.b), grid.spacing ** 2)
    levels = work[3].reshape(3, 2, n)
    steps = np.array(hs)[:, None, None]
    # the reductions call the ufuncs' own: ndarray.all/max/min go through
    # numpy's Python wrappers first
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3):
            stages = levels[j:]
            if j == 0:
                np.multiply(steps, rates0, out=levels)
                levels += w
            else:
                # (f, g) of the stacked levels, back in (level, field, node)
                rates = np.asarray(model.rates(stages[:, 0], stages[:, 1]),
                                   dtype=float).swapaxes(0, 1)
                stages += steps[j:] * rates
            if not _solve(blocks, stages.reshape(-1, n), work[:3]):
                return None

        T2, T3 = levels[1:]
        d1, d2 = levels[1:] - levels[:-1]
        T22 = T2 + d1
        T32 = T3 + 2.0 * d2
        kept = T3 + (3.5 * d2 - 0.5 * d1)               # T33
        # a NaN anywhere makes err NaN, which fails the error test
        err = float(np.maximum.reduce(np.abs(T32 - T22), axis=None))
    if cfg.enforce_positivity:
        if not np.minimum.reduce(kept, axis=None) >= -NEGATIVITY_TOL:
            return None
        np.maximum(kept, 0.0, out=kept)
    # the scale is max(1, sup|T33|) before the clip, bit for bit: the clip
    # only moves values in (-1e-12, 0), and where it moves a sup the scale
    # is 1 either way.  A NaN in T33 comes with an err of inf or NaN, and
    # its sup, which max() would pass by, fails the test as it always did.
    sup_u, sup_v = np.maximum.reduce(np.abs(kept), axis=1).tolist()
    scale = max(1.0, sup_u, sup_v) if sup_u + sup_v >= 0.0 else math.nan
    if not err <= cfg.rtol * scale:
        return None
    return kept, err, scale, (sup_u, sup_v)


class StepResult(NamedTuple):
    state: SimState | None      # advanced state (None on dt underflow)
    dt_used: float              # step size actually taken (after halvings)
    sups: tuple | None = None   # (sup_u, sup_v) of the state


def step_imex(state: SimState, model, cfg: SchemeConfig, grid: Grid,
              rates0, work=None) -> StepResult:
    """Advance one accepted step starting from ``state.dt``.

    ``rates0`` is ``model.rates`` at the state, and ``work`` the trials'
    ``_workspace`` for the grid (allocated here when None; ``run`` passes
    one for the whole run).  A rejected trial halves dt; the state is
    None when halving would drop below dt_min.  The new state's dt is
    the step control's suggestion, capped at ``cfg.t_end`` minus its t.
    ``run`` judges the outcome, from the sup norms the result carries.
    """
    w, dt = np.array((state.u, state.v)), state.dt
    rates0 = np.asarray(rates0, dtype=float)
    if work is None:
        work = _workspace(grid.n_nodes)
    while (accepted := _trial(w, dt, rates0, model, cfg, grid, work)) is None:
        if 0.5 * dt < cfg.dt_min:
            return StepResult(None, 0.0)
        dt *= 0.5

    w_new, err, scale, sups = accepted
    if err == 0.0:
        factor = 2.0
    else:
        factor = min(2.0, max(0.2, 0.9 * (cfg.rtol * scale / err) ** (1 / 3)))
    t = state.t + dt
    dt_next = min(cfg.dt_max, max(cfg.dt_min, dt * factor), cfg.t_end - t)
    return StepResult(SimState(t, w_new[0], w_new[1], dt_next), dt, sups)


def run(model, cfg: SchemeConfig, grid: Grid, u0, v0,
        functional: lyapunov.FunctionalParams):
    """Integrate from (u0, v0) until t_end, blow-up, or dt underflow, and
    return the ``TimeSeries`` of every accepted state with the verdict.

    Each accepted state is looked at once: its rates (which J and the
    next step both use), its sup norms (the step's ``StepResult.sups``;
    ``sup_norm`` of the initial state) and, until the first bound
    violation is found, whether it is one.  L, I and J, which no verdict
    reads, come a block of states at a time (``DIAGNOSTICS_BLOCK``).
    The series is built once, when the run ends; its flag column is the
    rule ``sup_u > u_bar0 or sup_v > v_bar0`` taken on the sup-norm
    columns.  Every verdict is decided here: ``blowup`` at a stepped-to
    state's t when its ``sup_u + sup_v`` is above the threshold or not
    finite, ``blowup`` at the current t when the kinetics there are not
    finite, and ``dt_underflow`` at it when the step lands no state.
    Identical inputs produce a bit-identical series.  A functional
    built for a diffusion pair other than ``cfg``'s raises ParamError
    naming ``a`` or ``b``, a grid too fine for the diffusion solve one
    naming ``length``, and initial data that is not finite, or negative
    while positivity is enforced, one naming ``u0`` or ``v0``.
    """
    if (functional.a, functional.b) != (cfg.a, cfg.b):
        name = "a" if functional.a != cfg.a else "b"
        raise ParamError(name, "the functional is built for (a, b) = "
                         f"({functional.a}, {functional.b}), the scheme has "
                         f"({cfg.a}, {cfg.b})")
    u = as_field(u0, grid).copy()
    v = as_field(v0, grid).copy()
    cfg.check_grid(grid)
    cfg.check_initial_data(u, v)

    u_bar0, v_bar0 = functional.u_bar0, functional.v_bar0
    row_size = (functional.p + 1) * grid.n_nodes
    t_stop = cfg.t_end * (1.0 - 1e-12)
    state = SimState(0.0, u, v, min(cfg.dt_init, cfg.t_end))
    dt_used = cfg.dt_init
    sup_u, sup_v = sup_norm(u), sup_norm(v)
    work = _workspace(grid.n_nodes)
    ts, sups, dts, queue, diagnostics = [], [], [], [], []
    first_violation = verdict = None
    while verdict is None:
        rates = np.array(model.rates(state.u, state.v))
        ts.append(state.t)
        sups.append((sup_u, sup_v))
        dts.append(dt_used)
        if first_violation is None and (sup_u > u_bar0 or sup_v > v_bar0):
            first_violation = verify.monitor_bounds(state, u_bar0, v_bar0)
        queue.append(((state.u, state.v), rates))
        if row_size * len(queue) >= DIAGNOSTICS_BLOCK:
            diagnostics.append(_diagnostics(queue, grid, functional))

        # the threshold judges the states a step reached, not the data
        if len(ts) > 1 and not sup_u + sup_v <= cfg.blowup_threshold:
            verdict = Verdict("blowup", state.t)
        elif not state.t < t_stop:
            verdict = Verdict("completed")
        elif not np.logical_and.reduce(np.isfinite(rates), axis=None):
            verdict = Verdict("blowup", state.t)
        else:
            result = step_imex(state, model, cfg, grid, rates, work)
            if result.state is None:
                verdict = Verdict("dt_underflow", state.t)
            else:
                state, dt_used, (sup_u, sup_v) = result

    if queue:
        diagnostics.append(_diagnostics(queue, grid, functional))
    sup_u, sup_v = np.array(sups).T
    series = TimeSeries(np.array(ts), sup_u, sup_v,
                        *np.concatenate(diagnostics, axis=1), np.array(dts),
                        (sup_u > u_bar0) | (sup_v > v_bar0),
                        u_bar0=u_bar0, v_bar0=v_bar0,
                        first_violation=first_violation, final_state=state)
    return series, verdict


def _diagnostics(queue, grid, functional) -> np.ndarray:
    """The (3, k) rows L, I and J of the k queued states, from one
    ``lyapunov.diagnostics_block`` call; the queue is emptied."""
    states, rates = zip(*queue)
    queue.clear()
    return lyapunov.diagnostics_block(functional, grid, np.array(states),
                                      np.array(rates))
