"""Property tests: the sign of I, the sign of the J integrand, the
functional's conditions holding for every instance it can build,
positivity and mass balance of a step, and the monotone structure of
the sampled mass-control check, over drawn inputs.

The draws are derandomized, so every run tries the same examples.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdcertify.integrator import (NEGATIVITY_TOL, SchemeConfig, SimState,
                                  step_imex)
from rdcertify.kinetics import (Absorption, BlowupExample, Combustion, Exp,
                                ReactionModel)
from rdcertify.lyapunov import build_params, check_conditions, diagnostics
from rdcertify.mesh import Grid, ParamError, integrate
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
# Every functional meets its conditions, so I <= 0
# ---------------------------------------------------------------------------

def maybe_bad(good):
    """Floats from ``good``, or any float: inf, NaN, 0, negative and
    subnormal values included."""
    return st.one_of(good, st.floats())


@PROPERTIES
@given(a=maybe_bad(positive(1e-3, 1e3)), b=maybe_bad(positive(1e-3, 1e3)),
       mu=maybe_bad(positive(1e-3, 10.0)), C=maybe_bad(st.floats(0.0, 2.0)),
       p=st.integers(0, 1010),
       theta=st.one_of(st.none(), st.floats(0.5, 4.0), st.floats()))
def test_every_functional_passes_its_conditions(a, b, mu, C, p, theta):
    # construction either refuses, naming a parameter, or gives a
    # functional that meets the weight conditions for its pair
    data = np.ones(3)
    try:
        params = build_params(a, b, mu, C, p, data, data, theta=theta)
    except ParamError as err:
        assert err.param in ("a", "b", "mu", "C", "p", "theta")
        # the default theta meets its rules, and p is refused only
        # outside [2, 1000]
        assert err.param != "theta" or theta is not None
        assert err.param != "p" or not 2 <= p <= 1000
    else:
        assert (params.a, params.b) == (a, b)
        assert check_conditions(params).passed


def draw_functional(draw):
    """(params, n): weights for constant initial data on n nodes."""
    a, b = draw(positive(1e-2, 1e2)), draw(positive(1e-2, 1e2))
    p = draw(st.integers(2, 8))
    # theta^2 = (1 + delta) (a+b)^2/(4ab), so theta^2 > the bound > 1
    delta = draw(positive(1e-6, 10.0))
    theta = math.sqrt((1.0 + delta) * (a + b) ** 2 / (4.0 * a * b))
    mu, C = draw(positive(1e-3, 10.0)), draw(st.floats(0.0, 2.0))
    n = draw(st.integers(3, 12))
    u0 = np.full(n, draw(st.floats(0.0, 2.0)))
    v0 = np.full(n, draw(st.floats(0.0, 2.0)))
    return build_params(a, b, mu, C, p, u0, v0, theta=theta), n


@st.composite
def functional_and_state(draw):
    params, n = draw_functional(draw)
    # excursions of up to 5 past each bound, clipped at 0
    u = np.maximum(params.u_bar0 + draw(nodal(n, -2.0, 5.0)), 0.0)
    v = np.maximum(params.v_bar0 + draw(nodal(n, -2.0, 5.0)), 0.0)
    return params, Grid(n, draw(positive(0.1, 10.0))), u, v


@PROPERTIES
@given(functional_and_state())
def test_dissipation_is_nonpositive(drawn):
    params, grid, u, v = drawn
    assume((u > params.u_bar0).any() or (v > params.v_bar0).any())
    state = SimState(0.0, u, v, 1e-3)
    _, I, _ = diagnostics(params, state, grid, Combustion(1).rates(u, v))
    assert I <= 0.0


@st.composite
def functional_above_bounds(draw):
    """Valid weights and a state with both fields above their bounds at
    every node, with rates that have the control-of-mass structure
    f <= f + mu g <= 0 there.  The bounds are at least C, so the state
    lies in the region u + v >= C where the structure is claimed."""
    params, n = draw_functional(draw)
    u = params.u_bar0 + draw(nodal(n, 1e-3, 5.0))
    v = params.v_bar0 + draw(nodal(n, 1e-3, 5.0))
    g = draw(nodal(n, 0.0, 10.0))
    f = -params.mu * g - draw(nodal(n, 0.0, 10.0))
    return params, Grid(n, draw(positive(0.1, 10.0))), u, v, f, g


@PROPERTIES
@given(functional_above_bounds())
def test_reaction_integrand_is_nonpositive_above_both_bounds(drawn):
    # theta_{i+1} f + theta_i g <= theta_{i+1} (f + mu g) <= 0 term by
    # term, since theta_i / theta_{i+1} < mu and g >= 0: so J <= 0 for a
    # state whose every node lies in the set
    params, grid, u, v, f, g = drawn
    _, _, J = diagnostics(params, SimState(0.0, u, v, 1e-3), grid, (f, g))
    assert J <= 0.0


@PROPERTIES
@given(a=positive(1e-2, 1e2), b=positive(1e-2, 1e2), p=st.integers(2, 8),
       mu=positive(1e-3, 10.0), delta=positive(1e-12, 0.5),
       above=st.booleans())
def test_conditions_fail_once_theta_sq_crosses_its_bound(a, b, p, mu, delta,
                                                         above):
    data = np.ones(3)
    params = build_params(a, b, mu, 0.0, p, data, data)
    bound = params.theta_sq_bound
    theta = math.sqrt(bound * (1.0 + delta if above else 1.0 - delta))
    # construction refuses a theta^2 at or below the bound, the one site
    # of the condition, so no instance fails it
    if above:
        assert check_conditions(dataclasses.replace(params, theta=theta)).passed
    else:
        with pytest.raises(ParamError) as err:
            dataclasses.replace(params, theta=theta)
        assert err.value.param == "theta"


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


@PROPERTIES
@given(m=st.integers(1, 3), n=st.integers(3, 16), data=st.data(),
       a=positive(1e-2, 1e2), b=positive(1e-2, 1e2),
       length=positive(0.1, 10.0), dt=positive(1e-6, 0.1),
       rtol=positive(1e-8, 1e-2))
def test_combustion_step_keeps_the_mass(m, n, data, a, b, length, dt, rtol):
    # f + g = 0, and the Neumann backward-Euler solve keeps the trapezoid
    # integral of each field: the mass of u + v changes by round-off and
    # by the clamp of values in (-NEGATIVITY_TOL, 0) to zero
    u = data.draw(nodal(n, 0.0, 3.0))
    v = data.draw(nodal(n, 0.0, 3.0))
    model, grid = Combustion(m), Grid(n, length)
    cfg = SchemeConfig(a=a, b=b, t_end=1.0, dt_init=dt, rtol=rtol)
    result = step_imex(SimState(0.0, u, v, dt), model, cfg, grid,
                       model.rates(u, v))
    assume(result.state is not None)
    m0 = integrate(u + v, grid)
    m1 = integrate(result.state.u + result.state.v, grid)
    eps = np.finfo(float).eps
    assert abs(m1 - m0) <= 64 * n * eps * m0 + NEGATIVITY_TOL * length


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
