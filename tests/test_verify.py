import dataclasses
import math

import numpy as np
import pytest

from rdcertify import verify
from rdcertify.integrator import SchemeConfig, SimState, TimeSeries, run
from rdcertify.kinetics import (Absorption, BlowupExample, Combustion, Exp,
                                Power, ReactionModel)
from rdcertify.lyapunov import build_params
from rdcertify.mesh import Grid, ParamError
from rdcertify.verify import (DEFAULT_SEED, BoundEvent, BoxSample,
                              assemble_claim_report, check_g_nonneg,
                              check_mass_control, default_box,
                              monitor_bounds, report_lines, sample_box,
                              sampling_seed, search_mu)


class SignFlip(ReactionModel):
    """Extension-point model whose g turns negative for u < 1/2."""

    def rates(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return -u * v, (u - 0.5) * v


# ---------------------------------------------------------------------------
# Control-of-mass checking
# ---------------------------------------------------------------------------

def test_combustion_passes_mass_control():
    report = check_mass_control(sample_box(Combustion(1), 10.0, 41), 0.0, 0.5)
    assert report.passed
    assert report.violations == []
    assert report.samples_tested > 0
    assert report.samples_indeterminate == 0


def test_absorption_exp_passes_mass_control():
    model = Absorption(Exp(), Exp())
    report = check_mass_control(sample_box(model, 10.0, 41), 0.0, 0.5)
    assert report.passed


def test_blowup_example_fails_with_positive_f_witness():
    sample = sample_box(BlowupExample(), 10.0, 41)
    for C in (0.0, 1.0):
        report = check_mass_control(sample, C, 0.5)
        assert not report.passed
        assert report.violations
        assert any(w.f > 0.0 for w in report.violations)
        assert all(w.which == "f_plus_mu_g_le_0" for w in report.violations)
        assert all(w.u + w.v >= C for w in report.violations)
    text = "\n".join(report.to_lines())
    assert "witness_1" in text and "passed: false" in text


def test_overflow_samples_are_indeterminate_not_passes():
    # the box reaches past e^v representability: those samples are
    # reported separately and the finite ones still decide the verdict
    report = check_mass_control(sample_box(Combustion(1), 800.0, 31), 0.0, 0.5)
    assert report.samples_indeterminate > 0
    assert report.passed


def test_mass_control_monotone_in_mu():
    # for g >= 0, shrinking mu keeps f + mu g <= f + mu' g <= 0
    sample = sample_box(Absorption(Exp(), Exp()), 10.0, 21)
    for mu in (0.5, 0.25, 0.125):
        assert check_mass_control(sample, 0.0, mu).passed
    # and a failing model cannot be rescued by shrinking mu
    sample = sample_box(BlowupExample(), 10.0, 21)
    for mu in (0.5, 2.0 ** -10):
        assert not check_mass_control(sample, 0.0, mu).passed


def test_mass_control_monotone_in_C():
    counts = []
    sample = sample_box(BlowupExample(), 4.0, 9)
    for C in (0.0, 2.0, 5.0):
        report = check_mass_control(sample, C, 0.5)
        counts.append(len(report.violations))
    assert counts[0] >= counts[1] >= counts[2]


def test_mass_control_seed_is_reproducible(monkeypatch):
    r1 = check_mass_control(sample_box(BlowupExample(), 4.0, 9, seed=123),
                            0.0, 0.5)
    r2 = check_mass_control(sample_box(BlowupExample(), 4.0, 9, seed=123),
                            0.0, 0.5)
    assert r1.seed == 123
    assert r1.violations == r2.violations
    # sampling never reads the environment; only sampling_seed does
    monkeypatch.setenv("RD_CERTIFY_SEED", "123")
    sample = sample_box(BlowupExample(), 4.0, 9)
    assert check_mass_control(sample, 0.0, 0.5).seed == DEFAULT_SEED
    assert search_mu(sample, 0.0).seed == DEFAULT_SEED
    assert sampling_seed() == 123
    for bad in ("abc", "-1"):
        monkeypatch.setenv("RD_CERTIFY_SEED", bad)
        with pytest.raises(ParamError) as err:
            sampling_seed()
        assert err.value.param == "seed"


def test_mass_control_validates_arguments():
    sample = sample_box(Combustion(1), 10.0, 11)
    with pytest.raises(ValueError):
        check_mass_control(sample, 0.0, -0.5)
    with pytest.raises(ValueError):
        sample_box(Combustion(1), 10.0, 1)
    with pytest.raises(ValueError):
        sample_box(Combustion(1), 0.0, 11)
    with pytest.raises(ValueError, match="seed"):   # as default_rng(-1)
        sample_box(Combustion(1), 10.0, 11, seed=-1)
    # C outside [0, inf) or an infinite mu is refused by name (an
    # infinite C or mu once left no point to judge: a vacuous pass)
    for call, param in (
            (lambda: check_mass_control(sample, 0.0, math.inf), "mu"),
            (lambda: check_mass_control(sample, -1.0, 0.5), "C"),
            (lambda: check_mass_control(sample, math.inf, 0.5), "C"),
            (lambda: check_mass_control(sample, math.nan, 0.5), "C"),
            (lambda: search_mu(sample, math.inf), "C"),
            (lambda: sample_box(Combustion(1), math.inf, 8), "edge")):
        with pytest.raises(ParamError) as err:
            call()
        assert err.value.param == param


def test_search_mu_finds_largest_passing():
    report = search_mu(sample_box(Absorption(Exp(), Exp()), 10.0, 21), 0.0)
    assert report.passed
    # f + g = 0 for F = G, so every mu <= 1 passes and 1 is returned
    assert report.mu == 1.0
    failed = search_mu(sample_box(BlowupExample(), 10.0, 21), 0.0)
    assert not failed.passed
    assert failed.mu == 2.0 ** -20


# seeds of one to seven 32-bit words: SeedSequence hashes up to four
# into its pool and mixes the rest in (2**128 + 3 and 10**60)
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, DEFAULT_SEED,
                                  2 ** 64 + 1, 2 ** 128 + 3, 10 ** 60])
@pytest.mark.parametrize("n", [9, 64])   # and the CLI's n_per_axis
@pytest.mark.parametrize("edge", [4.0, 13.37, 1e-300, 1e300])
def test_sample_box_points_are_the_lattice_then_seeded_points(seed, n, edge):
    # the seeded points are numpy's default_rng stream, bit for bit
    sample = sample_box(BlowupExample(), edge, n, seed=seed)
    axis = np.linspace(0.0, edge, n)
    rand = np.random.default_rng(seed).uniform(0.0, edge, size=(n * n, 2))
    u = np.concatenate([np.tile(axis, n), rand[:, 0]])
    v = np.concatenate([np.repeat(axis, n), rand[:, 1]])
    assert sample.u.tobytes() == u.tobytes()
    assert sample.v.tobytes() == v.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = BlowupExample().rates(u, v)
    assert sample.f.tobytes() == f.tobytes()
    assert sample.g.tobytes() == g.tobytes()
    # the points are shared by the samples of one box, so read-only
    again = sample_box(Combustion(1), edge, n, seed=seed)
    assert again.u is sample.u and again.v is sample.v
    for points in (sample.u, sample.v):
        assert not points.flags.writeable
        with pytest.raises(ValueError):
            points[0] = 1.0
    # another box of the same seed and n scales the one draw
    misses = verify._uniform.cache_info().misses
    other = sample_box(Combustion(1), 2.0 * edge, n, seed=seed)
    assert other.u.tobytes() == (2.0 * u).tobytes()
    assert verify._uniform.cache_info().misses == misses


def reference_check(sample, C, mu):
    """One mu judged as it was before the masks: copy the points with
    u + v >= C out of the sample, then judge the copies."""
    keep = sample.u + sample.v >= C
    u, v, f, g = (x[keep] for x in (sample.u, sample.v, sample.f, sample.g))
    with np.errstate(over="ignore", invalid="ignore"):
        fpm = f + mu * g
        finite = np.isfinite(f) & np.isfinite(g) & np.isfinite(fpm)
        first = f > fpm
        bad = finite & (first | (fpm > 0.0))
    violations = [(u[i], v[i], f[i], fpm[i], bool(first[i]))
                  for i in np.flatnonzero(bad)[:100]]
    return violations, int(finite.sum()), int((~finite).sum())


def ladder(sample, C):
    """search_mu written out: check mu = 1, 1/2, ..., 2**-20 in turn and
    return the first passing report, or the last."""
    for k in range(21):
        report = check_mass_control(sample, C, 2.0 ** -k)
        if report.passed:
            break
    return report


def hand_made(f, g):
    n = len(f)
    return BoxSample(1.0, 2, 0, np.ones(n), np.ones(n), np.array(f),
                     np.array(g))


SEARCHED = {
    "blowup": (sample_box(BlowupExample(), 10.0, 21), 0.0),
    "absorption_fails": (sample_box(Absorption(Power(0.5), Exp()), 10.0, 21),
                         0.0),
    "absorption_passes": (sample_box(Absorption(Exp(), Exp()), 10.0, 21),
                          0.0),
    "sign_flip": (sample_box(SignFlip(), 2.0, 21), 0.0),
    "blowup_dropped": (sample_box(BlowupExample(), 4.0, 9), 5.0),
    "absorption_dropped": (sample_box(Absorption(Power(0.5), Exp()), 10.0,
                                      21), 3.0),
    "overflow": (sample_box(Combustion(1), 800.0, 31), 100.0),
    # f + g overflows at mu = 1 (indeterminate) and fails at mu = 1/2: no
    # sure failure, and mu = 1 passes on the other point
    "overflow_then_fails": (hand_made([1e308, -1.0], [1e308, 1.0]), 0.0),
    # the first point fails at mu = 1 and passes at 1/2; f + mu*g of the
    # second is > 0 at every mu and overflows at 1 and 1/2, so a sure
    # failure needs a finite f + g: the ladder passes at 1/2
    "overflow_at_two_mus": (hand_made([-1.0, 1e308], [1.5, 1.7e308]), 0.0),
    # fails until mu = 2**-5 = 1/32 <= 1/20
    "passes_late": (hand_made([-1.0, -2.0], [20.0, 1.0]), 0.0),
}


@pytest.mark.parametrize("name", sorted(SEARCHED))
def test_search_mu_is_the_plain_ladder(name):
    sample, C = SEARCHED[name]
    got, want = search_mu(sample, C), ladder(sample, C)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert got.to_lines() == want.to_lines()
    violations, tested, indeterminate = reference_check(sample, C, got.mu)
    assert (got.samples_tested, got.samples_indeterminate) == (
        tested, indeterminate)
    assert [(w.u, w.v, w.f, w.f_plus_mu_g, w.which == "f_le_f_plus_mu_g")
            for w in got.violations] == violations
    expected = {"blowup": (False, 2.0 ** -20),
                "absorption_fails": (False, 2.0 ** -20),
                "absorption_passes": (True, 1.0),
                "overflow_then_fails": (True, 1.0),
                "overflow_at_two_mus": (True, 0.5),
                "passes_late": (True, 2.0 ** -5)}
    if name in expected:
        assert (got.passed, got.mu) == expected[name]
    if name.startswith("overflow_"):
        assert (got.samples_tested, got.samples_indeterminate) == (1, 1)


def test_default_box():
    assert default_box(0.0, 0.0, 0.0) == 10.0
    assert default_box(0.0, 1.0, 2.0) == 10.0
    # each of 2C, 2 u_bar0 and 2 v_bar0 decides the edge when it is largest
    assert default_box(12.0, 1.0, 1.0) == 24.0
    assert default_box(12.0, 12.0, 12.0) == 24.0
    assert default_box(0.0, 30.0, 2.0) == 60.0
    assert default_box(0.0, 2.0, 30.0) == 60.0
    assert default_box(1e307, 1e307, 1e307) == 2e307
    # a box edge that doubles past the finite range names its source
    for args, param in (((1e308, 1e308, 1e308), "C"),
                        ((0.0, 1e308, 2.0), "u0"),
                        ((0.0, 2.0, 1e308), "v0")):
        with pytest.raises(ParamError) as err:
            default_box(*args)
        assert err.value.param == param


# ---------------------------------------------------------------------------
# g >= 0 checking
# ---------------------------------------------------------------------------

def test_g_nonneg_catalog_models():
    for model in (Combustion(2), Absorption(Exp(), Exp()), BlowupExample()):
        assert check_g_nonneg(sample_box(model, 10.0, 31)).passed


def test_g_nonneg_counts_split_the_lattice():
    # e^v overflows past v ~ 709.78: those lattice points with u > 0 have
    # g = inf and count as indeterminate, the rest as tested
    sample = sample_box(Combustion(1), 1000.0, 31)
    report = check_g_nonneg(sample)
    g = sample.g[:31 ** 2]
    assert report.samples_tested == int(np.isfinite(g).sum()) > 0
    assert report.samples_indeterminate == int(np.isinf(g).sum()) > 0
    assert report.samples_tested + report.samples_indeterminate == 31 ** 2
    assert {type(report.samples_tested),
            type(report.samples_indeterminate)} == {int}


def test_g_nonneg_catches_sign_flip():
    sample = sample_box(SignFlip(), 2.0, 21)
    report = check_g_nonneg(sample)
    assert not report.passed
    u, v, g = report.violations[0]
    assert g < 0.0 and u < 0.5
    # the witnesses are the lattice points with g < 0, read one scalar
    # at a time, in order, as Python floats
    bad = np.flatnonzero(sample.g[:21 ** 2] < 0.0)[:100]
    assert report.violations == [
        (float(sample.u[i]), float(sample.v[i]), float(sample.g[i]))
        for i in bad]
    assert {type(x) for w in report.violations for x in w} == {float}
    assert "passed: false" in "\n".join(report.to_lines())


# ---------------------------------------------------------------------------
# Bound monitoring
# ---------------------------------------------------------------------------

def state_of(u, v, t=0.0):
    return SimState(t, np.asarray(u, dtype=float),
                    np.asarray(v, dtype=float), 1e-3)


def test_monitor_bounds_nonstrict():
    st = state_of(np.full(5, 2.0), np.zeros(5))
    assert monitor_bounds(st, 2.0, 1.0) is None
    assert monitor_bounds(state_of(np.zeros(3), np.zeros(3)), 0.0, 0.0) is None


def test_monitor_bounds_reports_first_offender():
    u = np.zeros(10)
    v = np.zeros(10)
    v[7] = 1.3
    event = monitor_bounds(state_of(u, v, t=0.4), 1.0, 1.0)
    assert event == BoundEvent(t=0.4, node=7, field="v", value=1.3, bound=1.0)
    assert event.exceedance == pytest.approx(0.3)


def test_monitor_bounds_compares_absolute_values():
    u = np.array([0.5, -1.5, 2.0])
    event = monitor_bounds(state_of(u, np.zeros(3), t=0.2), 1.0, 1.0)
    assert event == BoundEvent(t=0.2, node=1, field="u", value=-1.5,
                               bound=1.0)
    assert event.exceedance == 0.5
    assert monitor_bounds(state_of(-u, np.zeros(3)), 2.0, 0.0) is None


def test_monitor_bounds_scan_order():
    st = state_of(np.full(4, 5.0), np.full(4, 5.0))
    assert monitor_bounds(st, np.inf, np.inf) is None
    event = monitor_bounds(st, 1.0, 1.0)
    assert (event.field, event.node) == ("u", 0)


# ---------------------------------------------------------------------------
# Claim reports
# ---------------------------------------------------------------------------

def series_with(rows, first_violation=None, u_bar0=1.0, v_bar0=1.0):
    return TimeSeries(*map(np.array, zip(*rows)), u_bar0=u_bar0,
                      v_bar0=v_bar0, first_violation=first_violation)


def test_assemble_claim_report_clean_run():
    rows = [(0.0, 0.5, 0.5, 0.0, -0.0, 0.0, 1e-3, False),
            (0.1, 0.6, 0.7, 0.0, -1e-9, -2.0, 1e-3, False)]
    report = assemble_claim_report(series_with(rows))
    assert report.bound_u_held and report.bound_v_held
    assert report.first_violation is None
    assert np.all(report.J_sign_history <= 0)
    assert report.L_max == 0.0
    assert "first_violation: none" in "\n".join(report.to_lines())


def test_assemble_claim_report_with_violation():
    rows = [(0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 1e-3, False),
            (0.4, 0.6, 1.2, 0.3, -1e-9, 5.0, 1e-3, True),
            (0.5, 0.6, 1.5, 0.9, -1e-9, 7.0, 1e-3, True)]
    first = BoundEvent(t=0.4, node=3, field="v", value=1.2, bound=1.0)
    report = assemble_claim_report(series_with(rows, first))
    assert report.bound_u_held
    assert not report.bound_v_held
    assert report.first_violation.t == 0.4
    assert report.L_max == 0.9
    assert list(report.J_sign_history) == [0.0, 1.0, 1.0]
    text = "\n".join(report.to_lines())
    assert "t=0.4" in text and "field=v" in text


def test_claim_report_flag_consistency():
    # first_violation present exactly when some flag is false
    clean = assemble_claim_report(
        series_with([(0.0, 0.1, 0.1, 0.0, 0.0, 0.0, 1e-3, False)]))
    assert (clean.first_violation is None) == (clean.bound_u_held
                                               and clean.bound_v_held)
    dirty = assemble_claim_report(
        series_with([(0.0, 2.0, 0.1, 0.0, 0.0, 0.0, 1e-3, True)],
                    BoundEvent(t=0.0, node=0, field="u", value=2.0,
                               bound=1.0)))
    assert not dirty.bound_u_held
    assert dirty.first_violation is not None


def test_report_lines_format():
    # the one writer of the reports: bools lowercased (not read as the
    # ints they are), strings as they are, numbers by repr, then the
    # witnesses numbered from 1
    items = {"passed": True, "held": False, "box": "[0,1.0]x[0,1.0]",
             "mu": 0.1, "tiny": 5e-324, "inf": math.inf, "count": 1}
    assert report_lines("x", items, iter(["u=1", "u=2"])) == [
        "x.passed: true", "x.held: false", "x.box: [0,1.0]x[0,1.0]",
        "x.mu: 0.1", "x.tiny: 5e-324", "x.inf: inf", "x.count: 1",
        "x.witness_1: u=1", "x.witness_2: u=2"]
    assert report_lines("x", {}) == []


@pytest.mark.parametrize("enforce_positivity", [True, False])
def test_run_flags_agree_with_the_claim_report(enforce_positivity):
    # one rule: each row's flag is its sup norms against the bounds, the
    # first violation sits on the first flagged row, and the held flags
    # follow; with positivity off the data here is negative and |u| grows
    grid = Grid(11, 1.0)
    sign = 1.0 if enforce_positivity else -1.0
    u0, v0 = np.full(11, sign * 0.5), np.ones(11)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.5,
                       enforce_positivity=enforce_positivity)
    series, verdict = run(BlowupExample(), cfg, grid, u0, v0,
                          build_params(1.0, 1.0, 0.5, 0.0, 4, u0, v0))
    assert verdict.kind == "completed"
    flags = series.bound_violation
    assert np.array_equal(flags, (series.sup_u > series.u_bar0)
                          | (series.sup_v > series.v_bar0))
    assert flags.any()
    first = series.first_violation
    assert first.t == series.t[np.argmax(flags)]
    assert first.exceedance > 0.0
    report = assemble_claim_report(series)
    assert report.first_violation is first
    assert report.bound_u_held == (first.field != "u")
