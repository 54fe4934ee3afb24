"""Property tests: the sign of I, positivity of a step, and the monotone
structure of the sampled mass-control check, over drawn inputs.

The draws are derandomized, so every run tries the same examples.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdcertify.integrator import SchemeConfig, SimState, step_imex
from rdcertify.kinetics import (Absorption, BlowupExample, Combustion, Exp,
                                ReactionModel)
from rdcertify.lyapunov import build_params, check_conditions, diagnostics
from rdcertify.mesh import Grid
from rdcertify.verify import check_mass_control, sample_box, search_mu

PROPERTIES = settings(derandomize=True, database=None, deadline=None,
                      max_examples=100)


def positive(lo, hi):
    """Floats drawn log-uniformly from [lo, hi] (the ends included)."""
    return st.floats(math.log(lo), math.log(hi)).map(
        lambda x: min(max(math.exp(x), lo), hi))


def nodal(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


# ---------------------------------------------------------------------------
# I <= 0 whenever the weight conditions hold
# ---------------------------------------------------------------------------

@st.composite
def functional_and_state(draw):
    a, b = draw(positive(1e-2, 1e2)), draw(positive(1e-2, 1e2))
    p = draw(st.integers(2, 8))
    # theta^2 = (1 + delta) (a+b)^2/(4ab), so theta^2 > the bound > 1
    delta = draw(positive(1e-6, 10.0))
    theta = math.sqrt((1.0 + delta) * (a + b) ** 2 / (4.0 * a * b))
    mu, C = draw(positive(1e-3, 10.0)), draw(st.floats(0.0, 2.0))
    n = draw(st.integers(3, 12))
    u0 = np.full(n, draw(st.floats(0.0, 2.0)))
    v0 = np.full(n, draw(st.floats(0.0, 2.0)))
    params = build_params(a, b, mu, C, p, u0, v0, theta=theta)
    # excursions of up to 5 past each bound, clipped at 0
    u = np.maximum(params.u_bar0 + draw(nodal(n, -2.0, 5.0)), 0.0)
    v = np.maximum(params.v_bar0 + draw(nodal(n, -2.0, 5.0)), 0.0)
    return a, b, params, Grid(n, draw(positive(0.1, 10.0))), u, v


@PROPERTIES
@given(functional_and_state())
def test_dissipation_is_nonpositive(drawn):
    a, b, params, grid, u, v = drawn
    assume(check_conditions(params, a, b).passed)
    assume((u > params.u_bar0).any() or (v > params.v_bar0).any())
    state = SimState(0.0, u, v, 1e-3)
    _, I, _ = diagnostics(params, state, grid, a, b,
                          Combustion(1).rates(u, v))
    assert I <= 0.0


# ---------------------------------------------------------------------------
# One step from nonnegative data stays nonnegative
# ---------------------------------------------------------------------------

MODELS = [Combustion(1), Combustion(3), Absorption(Exp(), Exp()),
          BlowupExample()]


@PROPERTIES
@given(model=st.sampled_from(MODELS), n=st.integers(3, 16),
       data=st.data(), a=positive(1e-2, 1e2), b=positive(1e-2, 1e2),
       dt=positive(1e-6, 0.1), rtol=positive(1e-8, 1e-2))
def test_step_from_nonnegative_data_is_nonnegative(model, n, data, a, b,
                                                   dt, rtol):
    u = data.draw(nodal(n, 0.0, 3.0))
    v = data.draw(nodal(n, 0.0, 3.0))
    cfg = SchemeConfig(a=a, b=b, t_end=1.0, dt_init=dt, rtol=rtol)
    result = step_imex(SimState(0.0, u, v, dt), model, cfg, Grid(n, 1.0),
                       model.rates(u, v))
    if result.state is not None:
        assert result.state.u.min() >= 0.0
        assert result.state.v.min() >= 0.0


# ---------------------------------------------------------------------------
# The sampled mass-control check is monotone in C and mu
# ---------------------------------------------------------------------------

class Crowding(ReactionModel):
    """f = u (2 - u - v), g = u v: f + mu g <= 0 holds where
    u + (1 - mu) v >= 2, so the check passes from some C on when mu < 1
    and fails for every C when mu > 1."""

    def rates(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return u * (2.0 - u - v), u * v


# every rate is finite on these boxes: no sample is indeterminate
SAMPLES = [sample_box(model, 10.0, 41) for model in (
    Crowding(), Combustion(1), Absorption(Exp(), Exp(), lam=0.9))]


def test_samples_hold_passes_and_fails():
    reports = [check_mass_control(sample, C, mu) for sample in SAMPLES
               for C in (0.0, 15.0) for mu in (0.5, 2.0)]
    assert all(r.samples_indeterminate == 0 for r in reports)
    assert {r.passed for r in reports} == {True, False}
    assert [check_mass_control(SAMPLES[0], C, 0.5).passed
            for C in (0.0, 15.0)] == [False, True]


@PROPERTIES
@given(sample=st.sampled_from(SAMPLES), C=st.floats(0.0, 20.0),
       mu=positive(1e-3, 4.0), dC=st.floats(0.0, 20.0),
       shrink=positive(1e-3, 1.0))
def test_mass_control_pass_is_monotone(sample, C, mu, dC, shrink):
    assume(check_mass_control(sample, C, mu).passed)
    assert check_mass_control(sample, C + dC, mu).passed
    assert check_mass_control(sample, C, mu * shrink).passed
    assert check_mass_control(sample, C + dC, mu * shrink).passed


@PROPERTIES
@given(sample=st.sampled_from(SAMPLES), C=st.floats(0.0, 20.0))
def test_search_mu_report_is_the_check_at_its_mu(sample, C):
    # so the mu it returns passes exactly when its report says so
    report = search_mu(sample, C)
    assert check_mass_control(sample, C, report.mu) == report
