import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import get_lapack_funcs, solve_banded

import rdcertify.integrator as integrator
from rdcertify.cli import parse_config_text
from rdcertify.integrator import (SchemeConfig, SimState, TimeSeries, Verdict,
                                  run, solve_diffusion_implicit, step_imex)
from rdcertify.kinetics import Absorption, BlowupExample, Combustion, Exp
from rdcertify.lyapunov import build_params
from rdcertify.mesh import Grid, ParamError, integrate, sup_norm

from test_pinned import CONFIGS, row_digest


def heat_params(u0, v0, a=1.0, b=1.0, mu=0.5, C=0.0, p=4):
    return build_params(a, b, mu, C, p, u0, v0)


# ---------------------------------------------------------------------------
# Implicit diffusion solve
# ---------------------------------------------------------------------------

def test_diffusion_solve_preserves_constants_exactly():
    grid = Grid(33, 1.0)
    f = np.full(33, 0.7)
    w = solve_diffusion_implicit(f, 2.0, 0.05, grid)
    assert np.array_equal(w, f)


def test_diffusion_solve_eigenfunction():
    # cos(pi x) is an exact eigenvector of the reflected stencil, so the
    # continuous eigenpair cos(pi x)/(1 + dt pi^2) is matched at O(h^2)
    grid = Grid(201, 1.0)
    x = grid.nodes()
    f = np.cos(np.pi * x)
    dt = 0.01
    w = solve_diffusion_implicit(f, 1.0, dt, grid)
    assert np.max(np.abs(w - f / (1.0 + dt * np.pi ** 2))) < 1e-5
    h = grid.spacing
    lam_h = 2.0 * (np.cos(np.pi * h) - 1.0) / h ** 2
    assert np.max(np.abs(w - f / (1.0 - dt * lam_h))) < 1e-13


def test_diffusion_solve_identity_limit():
    grid = Grid(41, 1.0)
    f = 1.0 + np.sin(2.0 * np.pi * grid.nodes())
    w = solve_diffusion_implicit(f, 1.0, 1e-12, grid)
    assert np.max(np.abs(w - f)) < 1e-9


def test_diffusion_solve_residual():
    # against the reflected-ghost three-point stencil
    def laplacian(w, grid):
        ghosted = np.concatenate(([w[1]], w, [w[-2]]))
        return (ghosted[:-2] - 2.0 * w + ghosted[2:]) / grid.spacing ** 2

    rng = np.random.default_rng(1)
    for n, coeff, dt in ((21, 1.0, 0.01), (101, 3.0, 1e-3), (201, 0.5, 0.05)):
        grid = Grid(n, 1.0)
        f = rng.normal(size=n)
        w = solve_diffusion_implicit(f, coeff, dt, grid)
        residual = w - dt * coeff * laplacian(w, grid) - f
        assert sup_norm(residual) <= 1e-12 * sup_norm(f)


def banded_reference(f, r):
    # the one-block band handed to solve_banded((1, 1), ...), with the
    # same shift by f[0]
    n = len(f)
    ab = np.empty((3, n))
    ab[0] = -r
    ab[0, 1] = -2.0 * r
    ab[1] = 1.0 + 2.0 * r
    ab[2] = -r
    ab[2, n - 2] = -2.0 * r
    return solve_banded((1, 1), ab, f - f[0]) + f[0]


@pytest.mark.parametrize("n", [3, 31, 2001])
def test_diffusion_solve_bit_identical_to_solve_banded(n):
    grid = Grid(n, 1.0)
    h2 = grid.spacing ** 2
    rng = np.random.default_rng(n)
    coeff = 1.5
    ratios = np.logspace(-12, 3, 16)                # dt*coeff/h^2
    for ratio in ratios:
        dt = ratio * h2 / coeff
        f = rng.normal(size=n)
        expect = banded_reference(f, dt * coeff / h2)
        assert np.array_equal(solve_diffusion_implicit(f, coeff, dt, grid),
                              expect)
    # a trial's 6 blocks with a different r per block (given as h = r
    # with c = h^2 = 1), and the suffixes of 4 and 2 blocks that its
    # later rounds solve, all through one shared out buffer, NaN-filled
    # so that a read of anything a call did not write shows: every block
    # keeps the bits of its own solve
    out = np.empty((3, 6 * n))
    for _ in range(4):
        rs = rng.permutation(ratios)[:6]
        rhs = rng.normal(size=(6, n))
        out.fill(np.nan)
        for blocks in (6, 4, 2):
            x = rhs[-blocks:].copy()
            integrator._solve((rs, (1.0,), 1.0), x, out)
            for row, f, r in zip(x, rhs[-blocks:], rs[-blocks:]):
                assert np.array_equal(row, banded_reference(f, r))


def test_diffusion_solve_is_scipys_gtsv_wrapper():
    # loaded by the first ?gtsv call without scipy.linalg's package init,
    # but the same object, and kept for the rest of the process
    gtsv, = get_lapack_funcs(("gtsv",), dtype=np.float64)
    integrator._load_gtsv.cache_clear()
    grid = Grid(9, 1.0)
    for coeff in (0.5, 1.0, 2.0):
        solve_diffusion_implicit(np.cos(grid.nodes()), coeff, 0.1, grid)
    info = integrator._load_gtsv.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert integrator._load_gtsv() is gtsv


def gtsv_reference(band, x):
    """``_solve`` without its skip: ``?gtsv`` on a copy of the band's
    suffix for the rows' deviations from their first values, plus those
    values."""
    copies = band[:, -x.size:].copy()
    shift = x[:, :1].copy()
    *_, solution, info = integrator._load_gtsv()(copies[0, :-1], copies[1],
                                                 copies[2, :-1],
                                                 (x - shift).reshape(-1))
    assert info == 0
    return solution.reshape(x.shape) + shift


def count_bands_and_gtsv(monkeypatch) -> list:
    """The list that "band" and "gtsv" are appended to, in call order,
    once ``integrator._band`` and ``integrator._load_gtsv`` are
    substituted by counting wrappers."""
    gtsv, band_of, calls = integrator._load_gtsv(), integrator._band, []

    def counted_gtsv(*args):
        calls.append("gtsv")
        return gtsv(*args)

    def counted_band(*args):
        calls.append("band")
        return band_of(*args)

    monkeypatch.setattr(integrator, "_load_gtsv", lambda: counted_gtsv)
    monkeypatch.setattr(integrator, "_band", counted_band)
    return calls


def test_diffusion_solve_skips_constant_rows_exactly(monkeypatch):
    # A call whose rows are all constant and nonzero writes no band and
    # calls no ?gtsv, and every call keeps the bits of the plain solve:
    # rows of signed zeros (the last blocks' r > 2 makes ?gtsv swap
    # rows, and return -0 at node n - 2 for +0 deviations), constants at
    # the ends of the double range, and one row that is not constant
    # among constant ones.
    n = 7
    rs = [1e-3, 0.5, 3.0, 40.0, 1e4, 2.5]
    band = integrator._band(rs, n)
    rows = {"+0": np.zeros(n), "-0": np.full(n, -0.0),
            "+0 mixed": np.where(np.arange(n) % 3, -0.0, 0.0),
            "-0 mixed": np.where(np.arange(n) % 2, 0.0, -0.0),
            "tiny": np.full(n, 1e-300), "huge": np.full(n, 1e300),
            "negative": np.full(n, -1.5), "bump": 1.0 + np.cos(np.arange(n))}
    constant = {"tiny", "huge", "negative"}     # and nonzero
    rng = np.random.default_rng(7)
    cases = [[name] for name in rows]
    cases += [list(pair) for pair in zip(rows, reversed(rows))]
    for k in (4, 6):
        cases += [rng.choice(list(rows), k).tolist() for _ in range(40)]
        for at in range(k):     # one bump among nonzero constants
            names = rng.choice(sorted(constant), k).tolist()
            names[at] = "bump"
            cases.append(names)
        cases.append(rng.choice(sorted(constant), k).tolist())
    calls = count_bands_and_gtsv(monkeypatch)
    out = np.empty((3, 6 * n))
    for names in cases:
        x = np.array([rows[name] for name in names])
        expect = gtsv_reference(band, x)
        calls.clear()
        out.fill(np.nan)
        integrator._solve((rs, (1.0,), 1.0), x, out)
        assert np.array_equal(x.view(np.int64), expect.view(np.int64)), names
        skipped = constant.issuperset(names)
        assert calls == ([] if skipped else ["band", "gtsv"]), names
        if skipped:
            assert np.array_equal(x, [rows[name] for name in names])
            assert np.isnan(out).all(), names
    assert {len(names) for names in cases} == {1, 2, 4, 6}


def test_uniform_data_makes_no_band_and_no_gtsv_call(monkeypatch):
    # Uniform data stays uniform, so a run from it writes no band and
    # makes no ?gtsv call, while each of its trials still calls _solve
    # for 6, 4 and 2 fields; a run from a bump writes one band for each
    # ?gtsv call, one per round.  _solve loads ?gtsv once per call.
    calls, fields = {"_band": 0, "_load_gtsv": 0, "_trial": 0}, []

    def counting(name):
        f = getattr(integrator, name)

        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(integrator, name, counting(name))
    solve = integrator._solve

    def counting_solve(blocks, rhs, out=None):
        fields.append(len(rhs))
        return solve(blocks, rhs, out)

    monkeypatch.setattr(integrator, "_solve", counting_solve)
    grid = Grid(15, 1.0)
    u0, v0 = np.full(15, 0.75), np.ones(15)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=3.0, rtol=1e-4, dt_init=1e-3,
                       dt_max=0.05)
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict.kind == "blowup"
    trials = calls["_trial"]
    assert trials >= len(series) - 1 > 10
    assert fields == [6, 4, 2] * trials
    assert calls["_band"] == calls["_load_gtsv"] == 0
    assert np.ptp(series.final_state.u) == np.ptp(series.final_state.v) == 0

    calls.update(dict.fromkeys(calls, 0))
    fields.clear()
    grid = Grid(21, 1.0)
    u0, v0 = np.ones(21), 0.5 + 0.1 * np.cos(np.pi * grid.nodes())
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=0.3, rtol=1e-5)
    series, verdict = run(Combustion(1), cfg, grid, u0, v0,
                          heat_params(u0, v0, a=1.0, b=2.0))
    assert verdict.kind == "completed"
    trials = calls["_trial"]
    assert trials >= len(series) - 1 > 10
    assert fields == [6, 4, 2] * trials
    assert calls["_band"] == calls["_load_gtsv"] == 3 * trials


class NaNRates:
    # f is NaN everywhere: the stages of a trial's second round are not
    # finite, while its first round's come from the rates handed to it
    calls = 0

    def rates(self, u, v):
        self.calls += 1
        return np.full_like(u, np.nan), np.zeros_like(v)


def test_overflowing_deviation_is_rejected_before_any_band(monkeypatch):
    # The first round's stages are finite, but u's spread overflows: its
    # deviation from u[0] is inf.  The round's one judge rejects the trial
    # there, with no band written and no ?gtsv call.
    calls = count_bands_and_gtsv(monkeypatch)
    grid = Grid(5, 1.0)
    w = np.array([[-1e308, 0.0, 1e308, 0.5, -1e308], np.ones(5)])
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, enforce_positivity=False)
    model = NaNRates()
    with np.errstate(over="ignore"):
        assert np.isinf(w[0] - w[0, 0]).any() and np.isfinite(w).all()
    assert integrator._trial(w, 1e-3, np.zeros((2, 5)), model, cfg, grid,
                             integrator._workspace(5)) is None
    assert calls == [] and model.calls == 0


@pytest.mark.parametrize("bad", ["inf_shift", "nan_inside",
                                 "constant_inf_row", "nan_later_round"])
def test_non_finite_stage_is_rejected_before_its_band(bad, monkeypatch):
    # A stage that is not finite rejects the trial in its round, before
    # that round writes a band: an inf first value (the shift, whose own
    # deviation is inf - inf), a NaN inside a row, a row of -inf, which
    # is constant in space but not its own solution, and NaN rates in the
    # second round, after the first round's one band and ?gtsv call.
    calls = count_bands_and_gtsv(monkeypatch)
    n = 6
    grid = Grid(n, 1.0)
    w = np.array([1.0 + 0.1 * np.cos(np.arange(n)), np.full(n, 0.5)])
    rates0 = np.zeros((2, n))
    if bad == "inf_shift":
        rates0[0, 0] = np.inf
    elif bad == "nan_inside":
        rates0[1, 3] = np.nan
    elif bad == "constant_inf_row":
        rates0[1] = -np.inf
        w[0] = 1.0
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0)
    model = NaNRates()
    assert integrator._trial(w, 1e-2, rates0, model, cfg, grid,
                             integrator._workspace(n)) is None
    later = bad == "nan_later_round"
    assert calls == (["band", "gtsv"] if later else [])
    assert model.calls == later


# int64 views of the doubles -NaN (the NaN that x86-64 arithmetic makes),
# +NaN and +inf
NEG_NAN, POS_NAN, POS_INF = (-0x8000000000000, 0x7ff8000000000000,
                             0x7ff0000000000000)


@pytest.mark.parametrize("f, pinned", [
    ([1.0, np.inf, 1.0, 1.0, 1.0, 1.0, 1.0], [NEG_NAN] * 5 + [POS_INF] * 2),
    ([np.inf, 2.0, 3.0, 2.0, 1.0, 0.0, 1.0], [NEG_NAN] * 7),
    ([1.0, 2.0, np.nan, 1.0, 1.0, 1.0, 1.0], [POS_NAN] * 7),
    ([-np.inf] * 7, [NEG_NAN] * 7),
    ([-1e308, 0.0, 1e308, 0.0, 0.0, 0.0, 0.0], [NEG_NAN] * 5 + [POS_INF] * 2),
])
def test_diffusion_solve_of_a_non_finite_rhs_keeps_its_bits(f, pinned):
    # solve_diffusion_implicit solves a right-hand side that is not
    # finite, or whose spread overflows, as it always did: the pinned
    # bits, those of the plain ?gtsv solve on its deviations, shifted
    # back, and never the deviations themselves
    grid = Grid(7, 1.0)
    f = np.array(f)
    coeff, dt = 1.5, 0.02
    band = integrator._band([dt * coeff / grid.spacing ** 2], 7)
    with np.errstate(over="ignore", invalid="ignore"):
        expect = gtsv_reference(band, f[None])[0]
        got = solve_diffusion_implicit(f, coeff, dt, grid)
        deviations = f - f[0]
    assert got.view(np.int64).tolist() == pinned
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    # a row of -inf has all-NaN deviations and solution alike
    if not np.isnan(deviations).all():
        assert not np.array_equal(got.view(np.int64),
                                  deviations.view(np.int64))


def test_diffusion_solve_validates_arguments():
    grid = Grid(11, 1.0)
    with pytest.raises(ValueError):
        solve_diffusion_implicit(np.ones(11), -1.0, 0.1, grid)
    with pytest.raises(ValueError):
        solve_diffusion_implicit(np.ones(11), 1.0, 0.0, grid)
    with pytest.raises(ValueError):
        solve_diffusion_implicit(np.ones(7), 1.0, 0.1, grid)
    # an infinite coefficient or step once gave a field of NaN
    for coeff, dt, param in ((np.inf, 0.1, "coeff"), (1.0, np.inf, "dt")):
        with pytest.raises(ParamError) as err:
            solve_diffusion_implicit(np.ones(11), coeff, dt, grid)
        assert err.value.param == param


# ---------------------------------------------------------------------------
# Single step
# ---------------------------------------------------------------------------

def test_step_matches_hand_composition():
    # Combustion m=1 with v = 0 gives f = -u, g = u at t = 0.  Level k of
    # the tableau is k substeps of dt/k, each an explicit reaction then a
    # dense implicit diffusion solve (rebuilt here by hand); the kept
    # state is the extrapolated T33 = (9 T3 - 8 T2 + T1) / 2.
    grid = Grid(7, 1.0)
    x = grid.nodes()
    u0 = 0.5 + np.exp(-((x - 0.5) / 0.2) ** 2)
    v0 = np.zeros(7)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, dt_init=1e-3, rtol=1e9)
    model = Combustion(1)

    h2 = grid.spacing ** 2
    A = np.zeros((7, 7))
    for j in range(1, 6):
        A[j, j - 1] = A[j, j + 1] = 1.0 / h2
        A[j, j] = -2.0 / h2
    A[0, 0] = A[6, 6] = -2.0 / h2
    A[0, 1] = A[6, 5] = 2.0 / h2

    def substep(u, v, dt):
        f, g = -u * np.exp(v), u * np.exp(v)
        u1, v1 = u + dt * f, v + dt * g
        un = np.linalg.solve(np.eye(7) - dt * cfg.a * A, u1)
        vn = np.linalg.solve(np.eye(7) - dt * cfg.b * A, v1)
        return un, vn

    def level(k, dt):
        u, v = u0, v0
        for _ in range(k):
            u, v = substep(u, v, dt / k)
        return np.array([u, v])

    dt = cfg.dt_init
    T1, T2, T3 = (level(k, dt) for k in (1, 2, 3))
    expect_u, expect_v = (9.0 * T3 - 8.0 * T2 + T1) / 2.0

    result = step_imex(SimState(0.0, u0, v0, dt), model, cfg, grid,
                       model.rates(u0, v0))
    assert result.state is not None
    assert result.dt_used == dt
    assert np.allclose(result.state.u, expect_u, atol=1e-12)
    assert np.allclose(result.state.v, expect_v, atol=1e-12)
    assert result.state.t == dt


def test_step_conserves_sum_for_cancelling_reactions():
    # f + g = 0 pointwise: homogeneous u + v stays 2 through t = 1
    grid = Grid(9, 1.0)
    u0 = np.ones(9)
    v0 = np.ones(9)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=1e-6, dt_init=1e-4)
    model = Absorption(Exp(), Exp())
    series, verdict = run(model, cfg, grid, u0, v0, heat_params(u0, v0))
    assert verdict.kind == "completed"
    st = series.final_state
    assert np.max(np.abs(st.u + st.v - 2.0)) < 1e-6


def test_pure_heat_equation_against_separation_of_variables():
    grid = Grid(101, 1.0)
    x = grid.nodes()
    u0 = np.cos(np.pi * x)
    v0 = np.zeros_like(x)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.1, rtol=1e-6, dt_init=1e-4,
                       enforce_positivity=False)
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict.kind == "completed"
    st = series.final_state
    exact = np.exp(-np.pi ** 2 * st.t) * np.cos(np.pi * x)
    assert np.max(np.abs(st.u - exact)) <= 1e-3
    assert np.array_equal(st.v, np.zeros_like(x))


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------

# Crossing of u + v = 1e6 by the uniform-data ODE u' = (u - u^2) v^2,
# v' = u v^2 from (0.75, 1): scipy DOP853 at rtol = atol = 1e-13.
BLOWUP_T_STAR = 1.1224527129123567


@pytest.mark.parametrize("rtol", [1e-4, 1e-5, 1e-6, 1e-7])
def test_run_blowup_example_diverges(rtol):
    # The divergence time is found to within 2 rtol at every tolerance,
    # and u stays in its invariant region on every row: a looser error
    # test lets a step of the final approach run away (u far above 1,
    # then dt underflow).
    grid = Grid(15, 1.0)
    u0 = np.full(15, 0.75)
    v0 = np.ones(15)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=3.0, rtol=rtol, dt_init=1e-3,
                       dt_max=0.05)
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict.kind == "blowup"
    assert verdict.t <= 2.0
    assert abs(verdict.t - BLOWUP_T_STAR) <= 2.0 * rtol
    assert verdict.t == series.t[-1]
    assert series.sup_u[-1] + series.sup_v[-1] > cfg.blowup_threshold
    # comparison bound v(t) >= 1/(1 - t/2) before the divergence time
    t = series.t
    mask = t < verdict.t
    assert np.all(series.sup_v[mask] >= 1.0 / (1.0 - t[mask] / 2.0) - 1e-2)
    # invariant region for the reactant
    assert series.sup_u.min() >= 0.5
    assert series.sup_u.max() <= 1.0


def test_temporal_order_on_coupled_kinetics():
    # Homogeneous combustion (the criterion-6 case) against a DOP853
    # reference: the error stays below rtol and the steps grow by at most
    # x2.5 per decade of rtol (a dt ~ rtol^(1/2) controller: about x3.1).
    grid = Grid(11, 1.0)
    u0 = v0 = np.ones(11)
    ref = solve_ivp(lambda t, y: [-y[0] * np.exp(y[1]), y[0] * np.exp(y[1])],
                    (0.0, 2.0), [1.0, 1.0], method="DOP853", rtol=1e-13,
                    atol=1e-13, dense_output=True)
    steps = []
    for rtol in (1e-5, 1e-6, 1e-7, 1e-8):
        cfg = SchemeConfig(a=1.0, b=2.0, t_end=2.0, rtol=rtol, dt_init=1e-5)
        series, verdict = run(Combustion(1), cfg, grid, u0, v0,
                              heat_params(u0, v0, b=2.0))
        assert verdict.kind == "completed"
        exact_u, exact_v = ref.sol(series.t)
        err = max(np.max(np.abs(series.sup_u - exact_u)),
                  np.max(np.abs(series.sup_v - exact_v)))
        assert err <= rtol
        steps.append(len(series) - 1)
    assert all(fine <= 2.5 * coarse for coarse, fine in zip(steps, steps[1:]))


def test_step_leaves_divergence_to_run():
    # step_imex accepts a state above the threshold without a verdict;
    # run judges the logged row of each accepted step, not the initial row
    grid = Grid(11, 1.0)
    u0, v0 = np.ones(11), np.ones(11)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, blowup_threshold=1.0)
    result = step_imex(SimState(0.0, u0, v0, cfg.dt_init), BlowupExample(),
                       cfg, grid, BlowupExample().rates(u0, v0))
    assert result.state is not None
    assert sup_norm(result.state.u) + sup_norm(result.state.v) > 1.0
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict.kind == "blowup"
    assert len(series) == 2
    assert verdict.t == series.t[-1] == result.state.t
    assert np.array_equal(series.final_state.u, result.state.u)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_run_ends_on_non_finite_accepted_state(bad, monkeypatch):
    # a non-finite row has an inf or NaN sup: not <= the threshold
    def step_to_bad_state(state, model, cfg, grid, rates0, work):
        u = state.u.copy()
        u[3] = bad
        return integrator.StepResult(
            SimState(state.t + state.dt, u, state.v, state.dt), state.dt,
            (sup_norm(u), sup_norm(state.v)))

    monkeypatch.setattr(integrator, "step_imex", step_to_bad_state)
    grid = Grid(11, 1.0)
    u0, v0 = np.full(11, 0.5), np.full(11, 0.5)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0)
    series, verdict = run(Combustion(1), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict == Verdict("blowup", cfg.dt_init)
    assert len(series) == 2 and series.t[-1] == verdict.t


def test_run_combustion_equilibrium():
    grid = Grid(11, 1.0)
    zeros = np.zeros(11)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, rtol=1e-6)
    series, verdict = run(Combustion(1), cfg, grid, zeros, zeros,
                          heat_params(zeros, zeros, a=1.0, b=2.0))
    assert verdict.kind == "completed"
    assert np.all(series.sup_u == 0.0)
    assert np.all(series.sup_v == 0.0)
    assert np.array_equal(series.final_state.u, zeros)


def test_run_absorption_sup_u_nonincreasing():
    # f <= 0: the maximum principle caps u by its initial maximum
    grid = Grid(41, 1.0)
    x = grid.nodes()
    u0 = 0.5 + np.exp(-((x - 0.4) / 0.15) ** 2)
    v0 = 0.2 + 0.5 * np.exp(-((x - 0.6) / 0.2) ** 2)
    cfg = SchemeConfig(a=1.0, b=1.5, t_end=5.0, rtol=1e-5, dt_init=1e-3)
    series, verdict = run(Absorption(Exp(), Exp()), cfg, grid, u0, v0,
                          heat_params(u0, v0, a=1.0, b=1.5))
    assert verdict.kind == "completed"
    assert np.all(np.diff(series.sup_u) <= 1e-10)


def test_run_positivity_guard():
    grid = Grid(21, 1.0)
    x = grid.nodes()
    u0 = np.exp(-((x - 0.5) / 0.1) ** 2)    # tails at +0
    v0 = np.exp(-((x - 0.5) / 0.1) ** 2)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=0.5, rtol=1e-6)
    series, verdict = run(Combustion(1), cfg, grid, u0, v0,
                          heat_params(u0, v0, a=1.0, b=2.0))
    assert verdict.kind == "completed"
    st = series.final_state
    assert st.u.min() >= 0.0
    assert st.v.min() >= 0.0
    # negative data is refused while the guard is on
    with pytest.raises(ParamError) as err:
        run(Combustion(1), cfg, grid, -u0, v0,
            heat_params(u0, v0, a=1.0, b=2.0))
    assert err.value.param == "u0"


@pytest.mark.parametrize("a, b, name", [(1.0, 1.0, "b"), (2.0, 2.0, "a"),
                                        (2.0, 1.0, "a")])
def test_run_refuses_a_functional_for_another_pair(a, b, name):
    # the functional's weights meet theta^2 > (a+b)^2/(4ab) for the pair
    # it was built for alone
    grid = Grid(11, 1.0)
    u0 = v0 = np.ones(11)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=0.1)
    with pytest.raises(ParamError, match="built for") as err:
        run(Combustion(1), cfg, grid, u0, v0, heat_params(u0, v0, a=a, b=b))
    assert err.value.param == name


@pytest.mark.parametrize("guard,dt_used,u_min", [
    (True, 0.0125, 0.15952737417927945),
    (False, 0.1, -305926.906786895),
])
def test_step_positivity_guard_rejects_negative_trials(guard, dt_used, u_min):
    # homogeneous combustion from (1, 5): the error test passes at any dt
    # (rtol = 1e9), so only the guard halves dt (three times when on)
    grid = Grid(5, 1.0)
    u0, v0 = np.ones(5), np.full(5, 5.0)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=1e9, dt_init=0.1,
                       enforce_positivity=guard)
    model = Combustion(1)
    result = step_imex(SimState(0.0, u0, v0, cfg.dt_init), model, cfg, grid,
                       model.rates(u0, v0))
    assert result.dt_used == dt_used
    assert result.state.u.min() == pytest.approx(u_min, rel=1e-9)
    assert (result.state.u.min() >= 0.0) == guard


def test_run_combustion_conserves_total_mass():
    grid = Grid(61, 1.0)
    x = grid.nodes()
    Y0 = 0.2 + np.exp(-((x - 0.5) / 0.12) ** 2)
    T0 = 0.1 + 0.5 * np.exp(-((x - 0.4) / 0.15) ** 2)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, rtol=1e-6, dt_init=1e-4)
    series, verdict = run(Combustion(1), cfg, grid, Y0, T0,
                          heat_params(Y0, T0, a=1.0, b=2.0))
    assert verdict.kind == "completed"
    m0 = integrate(Y0 + T0, grid)
    st = series.final_state
    m1 = integrate(st.u + st.v, grid)
    assert abs(m1 - m0) <= 10.0 * cfg.rtol * cfg.t_end * m0


def test_refining_rtol_never_worsens_heat_error():
    grid = Grid(101, 1.0)
    x = grid.nodes()
    u0 = np.cos(np.pi * x)
    v0 = np.zeros_like(x)

    def final_error(rtol):
        cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.1, rtol=rtol, dt_init=1e-4,
                           enforce_positivity=False)
        series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                              heat_params(u0, v0))
        assert verdict.kind == "completed"
        st = series.final_state
        return np.max(np.abs(st.u - np.exp(-np.pi ** 2 * st.t) * u0))

    errors = [final_error(r) for r in (1e-3, 1e-4, 1e-5)]
    assert errors[1] <= errors[0] + 1e-12
    assert errors[2] <= errors[1] + 1e-12


def test_run_is_deterministic():
    grid = Grid(31, 1.0)
    x = grid.nodes()
    u0 = 0.3 + np.exp(-((x - 0.5) / 0.2) ** 2)
    v0 = 0.1 + 0.4 * np.exp(-((x - 0.3) / 0.25) ** 2)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=0.4, rtol=1e-6)

    def one():
        return run(Combustion(1), cfg, grid, u0, v0,
                   heat_params(u0, v0, a=1.0, b=2.0))

    s1, v1 = one()
    s2, v2 = one()
    assert v1 == v2
    for f in dataclasses.fields(TimeSeries):
        if not f.kw_only:
            assert np.array_equal(getattr(s1, f.name), getattr(s2, f.name))


def test_nonuniform_blowup_rows_pinned():
    # Every shipped blow-up run starts from uniform data, on which the
    # diffusion solve returns its shift exactly; here the band and the
    # stacked rates calls of the later rounds reach every row
    grid = Grid(31, 1.0)
    x = grid.nodes()
    u0 = 0.7 + 0.2 * np.exp(-((x - 0.4) / 0.2) ** 2)
    v0 = np.ones(31)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.5, rtol=1e-6)
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict == Verdict("completed")
    assert len(series) == 130
    assert row_digest(series) == "24f3fa0b88893a44"


def test_dt_underflow_verdict():
    grid = Grid(21, 1.0)
    x = grid.nodes()
    u0 = np.cos(np.pi * x) + 1.0
    v0 = np.zeros_like(x)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=1e-16,
                       dt_init=1e-3, dt_min=1e-3)
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict.kind == "dt_underflow"
    assert verdict.t == 0.0
    assert len(series) == 1           # only the initial row was logged


def test_kinetics_overflow_reports_blowup(monkeypatch):
    # e^v overflows at the initial state already: divergence, not a crash,
    # and run decides it before any step is tried
    steps = []

    def counting_step(*args, **kwargs):
        steps.append(1)
        return step_imex(*args, **kwargs)

    monkeypatch.setattr(integrator, "step_imex", counting_step)
    grid = Grid(11, 1.0)
    u0 = np.ones(11)
    v0 = np.full(11, 800.0)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=1e-6)
    series, verdict = run(Combustion(1), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict == Verdict("blowup", 0.0)
    assert steps == []


def test_overflowing_reaction_stage_is_rejected_quietly():
    # v + dt*g overflows for every dt down to dt_min: each trial is
    # rejected without a RuntimeWarning (an error under pytest's filter)
    grid = Grid(5, 1.0)
    u0, v0 = np.ones(5), np.full(5, 1e154)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=20.0, dt_init=10.0, dt_max=10.0,
                       rtol=1e9)
    model = BlowupExample()
    result = step_imex(SimState(0.0, u0, v0, cfg.dt_init), model, cfg, grid,
                       model.rates(u0, v0))
    assert result == integrator.StepResult(None, 0.0)


class CliffCombustion(Combustion):
    # g is infinite once v passes 1.5: a trial's first reaction stage,
    # taken from the finite rates at the state, is finite, while a later
    # stage of that trial need not be
    def rates(self, u, v):
        f, g = super().rates(u, v)
        return f, np.where(v > 1.5, np.inf, g)


def test_workspace_reuse_matches_a_fresh_workspace(monkeypatch):
    # One workspace carried across steps of different dt, and across
    # trials rejected in round 2 or 3 by a non-finite reaction stage,
    # gives the bits of a fresh workspace (filled with NaN, so that a read
    # of anything a trial did not write shows), returns states that share
    # no memory with it, and raises no RuntimeWarning.
    rounds = []
    solve = integrator._solve

    def counting_solve(band, rhs, copies=None):
        rounds.append(len(rhs))
        return solve(band, rhs, copies)

    monkeypatch.setattr(integrator, "_solve", counting_solve)
    grid = Grid(21, 1.0)
    model = CliffCombustion(1)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, dt_init=0.5, dt_max=0.5,
                       rtol=1e-3)
    v0 = 1.0 + 0.1 * np.cos(np.pi * grid.nodes())
    state = SimState(0.0, np.ones(21), v0, cfg.dt_init)
    work = integrator._workspace(grid.n_nodes)
    dts, late_rejections = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        while True:
            rates = np.array(model.rates(state.u, state.v))
            if not np.isfinite(rates).all():        # run's blowup verdict
                break
            rounds.clear()
            reused = step_imex(state, model, cfg, grid, rates, work)
            # a trial that passes round 1 solves 6 fields, and only a
            # full one reaches round 3's 2
            late_rejections += rounds.count(6) - rounds.count(2)
            fresh = step_imex(state, model, cfg, grid, rates,
                              np.full_like(work, np.nan))
            assert reused.dt_used == fresh.dt_used
            assert np.array_equal(reused.state.u, fresh.state.u)
            assert np.array_equal(reused.state.v, fresh.state.v)
            assert reused.state.dt == fresh.state.dt
            assert not np.shares_memory(reused.state.u, work)
            assert not np.shares_memory(reused.state.v, work)
            dts.append(reused.dt_used)
            state = reused.state
    assert late_rejections >= 2
    assert len(set(dts)) == len(dts) > 3


def test_timeseries_time_strictly_increasing():
    grid = Grid(21, 1.0)
    u0 = np.ones(21)
    v0 = np.full(21, 0.5)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.3, rtol=1e-5)
    series, verdict = run(Combustion(1), cfg, grid, u0, v0,
                          heat_params(u0, v0))
    assert verdict.kind == "completed"
    assert np.all(np.diff(series.t) > 0.0)
    assert series.t[-1] == pytest.approx(cfg.t_end, rel=1e-12)


class CountingRates:
    calls = 0

    def rates(self, u, v):
        self.calls += 1
        return super().rates(u, v)


class CountingCombustion(CountingRates, Combustion):
    pass


class CountingBlowup(CountingRates, BlowupExample):
    pass


@pytest.mark.parametrize("case", ["completed", "threshold", "overflow"])
def test_rates_calls_per_row_and_trial(case, monkeypatch):
    # One rates call per logged row, shared by J and the next step, plus
    # one per later round, on the stacked levels it steps (2 and 3, then
    # 3); every trial here runs all three rounds, one solve each of the
    # 6, 4 and 2 fields of the levels still stepping, so it solves
    # exactly 12 fields.
    fields = []
    solve = integrator._solve

    def counting_solve(band, rhs, copies=None):
        fields.append(len(rhs))
        return solve(band, rhs, copies)

    monkeypatch.setattr(integrator, "_solve", counting_solve)
    if case == "completed":
        grid = Grid(21, 1.0)
        u0, v0 = np.ones(21), np.full(21, 0.5)
        model = CountingCombustion(1)
        cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.3, rtol=1e-5)
    elif case == "threshold":
        grid = Grid(15, 1.0)
        u0, v0 = np.full(15, 0.75), np.ones(15)
        model = CountingBlowup()
        cfg = SchemeConfig(a=1.0, b=1.0, t_end=3.0, rtol=1e-4, dt_init=1e-3,
                           dt_max=0.05)
    else:
        grid = Grid(11, 1.0)
        u0, v0 = np.ones(11), np.full(11, 800.0)
        model = CountingCombustion(1)
        cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=1e-6)
    series, verdict = run(model, cfg, grid, u0, v0, heat_params(u0, v0))
    assert verdict.kind == ("completed" if case == "completed" else "blowup")
    if case == "threshold":
        assert series.sup_u[-1] + series.sup_v[-1] > cfg.blowup_threshold
        assert verdict.t == series.t[-1]
    if case == "overflow":          # rates overflow at t = 0: no step lands
        assert len(series) == 1 and verdict.t == 0.0
    assert sum(fields) % 12 == 0
    trials = sum(fields) // 12
    assert fields == [6, 4, 2] * trials
    assert trials >= len(series) - 1
    assert model.calls == len(series) + 2 * trials


def _config_run(name):
    cfg = parse_config_text((CONFIGS / f"{name}.ini").read_text())
    return cfg.model, cfg.scheme, cfg.grid, cfg.u0, cfg.v0, cfg.params


def _signed_heat_run():
    grid = Grid(41, 1.0)
    u0 = np.cos(np.pi * grid.nodes())
    v0 = -0.5 * u0
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=0.05, rtol=1e-6, dt_init=1e-4,
                       enforce_positivity=False)
    return BlowupExample(), cfg, grid, u0, v0, heat_params(u0, v0, b=2.0)


def _clipped_run():
    # u burns out to within round-off of 0 while v > 5: some accepted
    # states are clipped from (-1e-12, 0) up to 0
    grid = Grid(21, 1.0)
    x = grid.nodes()
    u0 = 1e-3 * (1.0 + np.cos(np.pi * x))
    v0 = 5.0 + 0.5 * np.cos(np.pi * x)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, rtol=1e-6, dt_init=1e-3)
    return Combustion(1), cfg, grid, u0, v0, heat_params(u0, v0, b=2.0)


@pytest.mark.parametrize("case", ["blowup", "combustion_bump", "signed_heat",
                                  "clipped"])
def test_sup_columns_are_the_accepted_states_own(case, monkeypatch):
    # each step hands run the sup norms of the state it lands, taken
    # after the positivity clip; the columns hold those, bit for bit
    args = {"signed_heat": _signed_heat_run, "clipped": _clipped_run}.get(
        case, lambda: _config_run(case))()
    states, clipped = [args[3:5]], 0
    trial = integrator._trial

    def recording_step(*step_args):
        result = step_imex(*step_args)
        if result.state is not None:
            states.append((result.state.u, result.state.v))
        return result

    def unclipped_twin_trial(w, dt, rates0, model, cfg, grid, work):
        nonlocal clipped
        accepted = trial(w, dt, rates0, model, cfg, grid, work)
        if accepted is not None and cfg.enforce_positivity:
            free = dataclasses.replace(cfg, enforce_positivity=False)
            kept = trial(w, dt, rates0, model, free, grid, work)[0]
            if kept.min() < 0.0:
                assert np.array_equal(accepted[0], np.maximum(kept, 0.0))
                clipped += 1
        return accepted

    monkeypatch.setattr(integrator, "step_imex", recording_step)
    monkeypatch.setattr(integrator, "_trial", unclipped_twin_trial)
    series, verdict = run(*args)
    assert len(series) == len(states) > 10
    for k, (u, v) in enumerate(states):
        assert series.sup_u[k].tobytes() == np.float64(sup_norm(u)).tobytes()
        assert series.sup_v[k].tobytes() == np.float64(sup_norm(v)).tobytes()
    if case == "signed_heat":
        assert min(u.min() for u, _ in states) < 0.0
    assert (clipped > 0) == (case == "clipped")


class ExpHeat:
    # u' = 1e-300 e^v, v' = 1, with no errstate of its own: e^v overflows,
    # with a RuntimeWarning, once v passes log(DBL_MAX) = 709.78...
    def __init__(self):
        self.v_max = -np.inf

    def rates(self, u, v):
        self.v_max = max(self.v_max, np.max(v))
        return 1e-300 * np.exp(v), np.ones_like(v)


V_OVERFLOW = np.log(np.finfo(float).max)


def test_trial_overflow_is_quiet_and_rejects():
    # the first trial's round 2 and 3 rates overflow; the trial is rejected
    # with no RuntimeWarning, and a smaller dt lands a finite state
    grid = Grid(5, 1.0)
    u0, v0 = np.ones(5), np.full(5, 709.5)
    model = ExpHeat()
    rates0 = model.rates(u0, v0)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=10.0, dt_init=0.5, dt_max=0.5,
                       rtol=1e-3, blowup_threshold=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = step_imex(SimState(0.0, u0, v0, cfg.dt_init), model, cfg,
                           grid, rates0)
    assert model.v_max > V_OVERFLOW
    assert result.dt_used < cfg.dt_init
    assert np.isfinite(result.state.u).all()
    assert result.state.v.max() < V_OVERFLOW


def test_overflow_at_an_accepted_state_still_warns():
    # a step lands past log(DBL_MAX) with every stage of its trial below:
    # the rates call run makes at that state, outside any errstate, warns
    grid = Grid(5, 1.0)
    u0, v0 = np.ones(5), np.full(5, 709.5)
    model = ExpHeat()
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=10.0, dt_init=0.5, dt_max=0.5,
                       rtol=1e-3, blowup_threshold=1e300)
    with pytest.warns(RuntimeWarning, match="overflow") as record:
        series, verdict = run(model, cfg, grid, u0, v0, heat_params(u0, v0))
    assert len(record) == 1
    assert verdict == Verdict("blowup", series.t[-1])
    assert len(series) > 2
    assert series.sup_v[-1] > V_OVERFLOW > series.sup_v[-2]


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(a=0.0, b=1.0, t_end=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(a=1.0, b=1.0, t_end=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig(a=1.0, b=1.0, t_end=1.0, dt_init=1.0, dt_max=0.1)
    with pytest.raises(ValueError):
        SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=0.0)
    # every setting but dt_max must be finite
    inf = np.inf
    for settings, param in (
            ({"rtol": inf}, "rtol"),
            ({"blowup_threshold": inf}, "blowup_threshold"),
            ({"dt_init": inf, "dt_max": inf}, "dt_init"),
            ({"dt_min": inf, "dt_init": inf, "dt_max": inf}, "dt_min")):
        with pytest.raises(ParamError) as err:
            SchemeConfig(a=1.0, b=1.0, t_end=1.0, **settings)
        assert err.value.param == param
    SchemeConfig(a=1.0, b=1.0, t_end=1.0, dt_max=np.inf)


@pytest.mark.parametrize("length", [1e-155, 1e-7])
def test_run_refuses_grid_too_fine_for_the_diffusion_solve(length):
    # 2 * dt_max * max(a, b) / h^2 overflows (1e-155) or swamps the 1 on
    # the diagonal (1e-7): the solve's matrix is singular in double
    # precision, so run refuses before its first step; 1e-6 passes
    u0 = np.zeros(21)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=0.5)
    with pytest.raises(ParamError) as err:
        run(Combustion(1), cfg, Grid(21, length), u0, u0,
            heat_params(u0, u0, b=2.0))
    assert err.value.param == "length"
    cfg.check_grid(Grid(21, 1e-6))


def test_verdict_is_kind_and_time():
    assert Verdict("completed") == Verdict("completed", None)
    verdict = Verdict("blowup", 1.5)
    assert (verdict.kind, verdict.t) == ("blowup", 1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdict.t = 2.0
