import dataclasses
import hashlib
import math

import numpy as np
import pytest

from rdcertify.integrator import SimState
from rdcertify.kinetics import BlowupExample, Combustion
from rdcertify.lyapunov import (FunctionalParams, build_params,
                                check_conditions, diagnostics,
                                diagnostics_block, dissipation_I,
                                lyapunov_L, quadratic_Ti, reaction_J)
from rdcertify.mesh import Grid, ParamError

ZEROS = np.zeros(3)


def params_128(p=2):
    """Weights 1/2, 1, 4, 32, ..., half of 1, 2, 8, 64, ... (theta0 = mu/2
    = 1/2, theta1 = 1, theta^2 = 2), for the pair (1, 1), with zero
    bounds."""
    return FunctionalParams(a=1.0, b=1.0, p=p, theta=math.sqrt(2.0), mu=1.0,
                            C=0.0, u_bar0=0.0, v_bar0=0.0)


def recurrence_logs(params):
    """Independent reconstruction of the weight logs by iterating
    log t_{i+2} = 2 log theta + 2 log t_{i+1} - log t_i."""
    logs = [math.log(params.mu / 2.0), 0.0]
    for _ in range(params.p - 1):
        logs.append(2.0 * params.log_theta + 2.0 * logs[-1] - logs[-2])
    return np.array(logs[:params.p + 1])


# ---------------------------------------------------------------------------
# Construction and the weight sequence
# ---------------------------------------------------------------------------

def bounds(C, u0, v0):
    params = build_params(1.0, 1.0, 1.0, C, 4, u0, v0)
    return params.u_bar0, params.v_bar0


def test_bound_constants():
    u0 = np.array([0.0, 5.0, -1.0])
    v0 = np.array([1.0, 0.5, 0.0])
    assert bounds(2.0, u0, v0) == (5.0, 2.0)
    assert bounds(0.0, u0, v0) == (5.0, 1.0)
    assert bounds(10.0, np.ones(3), np.ones(3)) == (10.0, 10.0)


def test_default_theta():
    p = build_params(1.0, 1.0, 1.0, 0.0, 4, ZEROS, ZEROS)
    assert p.theta == pytest.approx(math.sqrt(1.1))
    # for a=1, b=4 the lower bound is 25/16 = 1.5625
    p2 = build_params(1.0, 4.0, 1.0, 0.0, 4, ZEROS, ZEROS)
    assert p2.theta ** 2 == pytest.approx(1.1 * 1.5625)


def test_supplied_theta_below_bound_rejected():
    with pytest.raises(ValueError, match=r"\(a\+b\)\^2/\(4ab\)"):
        build_params(1.0, 4.0, 1.0, 0.0, 4, ZEROS, ZEROS, theta=1.2)
    with pytest.raises(ValueError, match="must be > 1"):
        build_params(1.0, 1.0, 1.0, 0.0, 4, ZEROS, ZEROS, theta=0.9)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_params(1.0, 1.0, 1.0, 0.0, 1, ZEROS, ZEROS)
    with pytest.raises(ValueError):
        build_params(0.0, 1.0, 1.0, 0.0, 4, ZEROS, ZEROS)
    with pytest.raises(ValueError):
        build_params(1.0, 1.0, -0.5, 0.0, 4, ZEROS, ZEROS)
    for C in (-1.0, math.inf, math.nan):
        with pytest.raises(ParamError, match="finite and >= 0") as err:
            build_params(1.0, 1.0, 1.0, C, 4, ZEROS, ZEROS)
        assert err.value.param == "C"
    with pytest.raises(ParamError, match="finite") as err:
        build_params(1.0, 1.0, 1.0, 0.0, 4, ZEROS, np.full(3, np.nan))
    assert err.value.param == "v0"


def test_theta_sequence_1_2_8_64_1024():
    params = params_128(p=4)
    values = list(2.0 * np.exp(params.log_theta_seq()))
    assert values == pytest.approx([1.0, 2.0, 8.0, 64.0, 1024.0], rel=1e-12)
    # anchors are the first two weights, mu/2 = 1/2 and 1, doubled
    assert values[0] == pytest.approx(1.0)
    assert values[1] == 2.0
    # second-order ratio is theta^2 = 2 all along
    for i in range(3):
        ratio = values[i] * values[i + 2] / values[i + 1] ** 2
        assert ratio == pytest.approx(2.0, rel=1e-12)
    # and the closed form matches the recurrence iteration
    assert np.allclose(params.log_theta_seq(), recurrence_logs(params),
                       atol=1e-12)


def test_theta_at_log_and_linear_agree():
    # each entry of the sequence is, bit for bit, the scalar closed form
    # at its index in integer arithmetic, and exponentiates to the weight
    params = params_128(p=4)
    logs = params.log_theta_seq()
    log_theta0 = math.log(params.mu / 2.0)
    for i in range(5):
        closed = (log_theta0 - i * log_theta0
                  + i * (i - 1) * params.log_theta)
        assert logs[i] == closed
        assert math.exp(logs[i]) == pytest.approx(
            2.0 ** (i * (i + 1) / 2 - 1), rel=1e-14)


def test_theta_at_overflow_reports_inf():
    # large p with theta0 = 4, theta1 = 1, theta^2 = 4: theta_40 = 2^1482
    params = FunctionalParams(a=1.0, b=1.0, p=40, theta=2.0, mu=8.0, C=0.0,
                              u_bar0=0.0, v_bar0=0.0)
    log40 = params.log_theta_seq()[40]
    assert math.isfinite(log40)
    with np.errstate(over="ignore"):
        assert math.isinf(np.exp(log40))


def test_check_conditions_for_random_valid_params():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.05, 4.0))
        p = int(rng.integers(2, 13))
        params = build_params(a, b, mu, 0.0, p, ZEROS, ZEROS)
        report = check_conditions(params)
        assert report.passed, report
        assert report.recurrence_residual <= 1e-9
        assert np.allclose(params.log_theta_seq(), recurrence_logs(params),
                           atol=1e-9)


def test_weight_ratios_decrease_so_first_check_suffices():
    params = build_params(1.0, 2.0, 0.7, 0.0, 6, ZEROS, ZEROS)
    logs = params.log_theta_seq()
    ratios = logs[:-1] - logs[1:]          # log(theta_i / theta_{i+1})
    assert np.all(np.diff(ratios) < 0.0)
    assert ratios[0] < math.log(params.mu)


class Tampered(FunctionalParams):
    """A functional whose weight sequence starts at theta0 = 0.6 > mu/2,
    past construction's reach; the recurrence still holds."""

    def log_theta_seq(self):
        i = np.arange(self.p + 1, dtype=float)
        return (1.0 - i) * math.log(0.6) + i * (i - 1.0) * self.log_theta


def test_tampered_weights_fail_ratio_check():
    # theta0 / theta1 = 0.6 > mu = 0.5
    params = build_params(1.0, 1.0, 0.5, 0.0, 4, ZEROS, ZEROS)
    report = check_conditions(Tampered(**dataclasses.asdict(params)))
    assert not report.mu_condition_ok
    assert not report.passed
    # the ratio check is the one that fails
    assert report.theta_condition_ok and report.recurrence_ok


# ---------------------------------------------------------------------------
# Positive parts and H
# ---------------------------------------------------------------------------

def test_positive_parts():
    # the kink: a node exactly on its bound has sgn(0) = 0, so its square
    # term drops out of T_i.  u ramps up to u_bar0, reached at the last
    # node with slope 1, and V = 1 keeps the pure-V monomial alive: only
    # b*v_x^2 remains, and v is constant, so I is exactly zero.
    grid = Grid(11, 1.0)
    params = dataclasses.replace(params_128(p=2), u_bar0=1.0, v_bar0=2.0)
    ramp = np.linspace(0.0, 1.0, 11)
    on_bound = SimState(0.0, ramp, np.full(11, 3.0), 1e-3)
    assert dissipation_I(params, on_bound, grid) == 0.0
    # just above the bound the flag is 1 and the a*u_x^2 term counts
    above = SimState(0.0, ramp + 1e-9, np.full(11, 3.0), 1e-3)
    assert dissipation_I(params, above, grid) < 0.0


def H(params, u, v):
    """H(u, v) as L of the constant fields over a unit interval."""
    grid = Grid(3, 1.0)
    state = SimState(0.0, np.full(3, u), np.full(3, v), 1e-3)
    return lyapunov_L(params, state, grid)


def test_h_value_examples():
    params = params_128(p=2)
    assert H(params, 0.0, 0.0) == 0.0
    # binom * theta * U^i V^(2-i): 1*(1/2)*1 + 2*1*1 + 1*4*1 = 6.5
    assert H(params, 1.0, 1.0) == pytest.approx(6.5)
    # only the pure-V monomial survives: theta_0 * 3^2 = 4.5
    assert H(params, 0.0, 3.0) == pytest.approx(4.5)


def test_h_value_nonnegative():
    rng = np.random.default_rng(4)
    params = build_params(1.0, 3.0, 0.8, 2.0, 4,
                          np.full(3, 1.0), np.full(3, 0.5))
    for _ in range(200):
        u, v = rng.uniform(0.0, 10.0, size=2)
        assert H(params, float(u), float(v)) >= 0.0


def test_h_value_flags_non_finite():
    params = params_128()
    assert math.isinf(H(params, math.inf, 0.0))
    assert math.isinf(H(params, math.nan, 0.0))


def test_lyapunov_L_zero_iff_below_bounds():
    grid = Grid(21, 1.0)
    params = build_params(1.0, 1.0, 0.5, 0.0, 4,
                          np.full(21, 2.0), np.full(21, 1.0))
    u = np.full(21, 2.0)
    v = np.full(21, 1.0)
    assert lyapunov_L(params, SimState(0.0, u, v, 1e-3), grid) == 0.0
    # one node barely above a bound makes L strictly positive
    v2 = v.copy()
    v2[13] += 1e-8
    assert lyapunov_L(params, SimState(0.0, u, v2, 1e-3), grid) > 0.0


def test_lyapunov_L_homogeneous_value():
    grid = Grid(11, 1.0)
    params = params_128(p=2)
    state = SimState(0.0, np.ones(11), np.ones(11), 1e-3)
    assert lyapunov_L(params, state, grid) == pytest.approx(6.5)


def test_lyapunov_L_quadrature_refinement():
    # trapezoid order: refining the grid changes L at O(h^2)
    params = build_params(1.0, 1.0, 0.5, 0.0, 4, ZEROS, ZEROS)

    def L_at(n):
        grid = Grid(n, 1.0)
        x = grid.nodes()
        u = 0.5 + np.exp(x) * x
        v = 0.3 + x ** 3
        return lyapunov_L(params, SimState(0.0, u, v, 1e-3), grid)

    d1 = abs(L_at(51) - L_at(101))
    d2 = abs(L_at(101) - L_at(201))
    assert d2 < d1 / 2.5


# ---------------------------------------------------------------------------
# Gradient quadratics, dissipation, reaction
# ---------------------------------------------------------------------------

def test_quadratic_Ti_sign_cases():
    params = params_128(p=2)
    assert quadratic_Ti(params, 0, 0, 0, 3.0, -2.0) == 0.0
    # single square term with sgnV = 0: a * (theta_2/theta_1) * xi^2
    val = quadratic_Ti(params, 0, 1, 0, 3.0, -2.0)
    assert val == pytest.approx(1.0 * 4.0 * 9.0)
    assert quadratic_Ti(params, 0, 0, 1, 3.0, -2.0) >= 0.0


def test_quadratic_Ti_normalized_example():
    # with the weights 1, 2, 8 raw arithmetic gives 1*8 - 2*2 + 1*1 = 5;
    # the function reports the theta_1-normalized value 5/2, same sign,
    # which the weights 1/2, 1, 4 share
    params = params_128(p=2)
    val = quadratic_Ti(params, 0, 1, 1, 1.0, -1.0)
    assert val == pytest.approx(2.5)
    assert val * 2.0 == pytest.approx(5.0)
    # discriminant (a+b)^2 t1^2 - 4ab t0 t2 = 16 - 32 < 0
    assert (2.0 ** 2) * 4.0 - 4.0 * 1.0 * 8.0 < 0.0


def test_quadratic_Ti_positive_semidefinite_sampled():
    rng = np.random.default_rng(5)
    params = build_params(1.0, 3.0, 0.7, 0.0, 6, ZEROS, ZEROS)
    xi = rng.uniform(-10.0, 10.0, size=2000)
    eta = rng.uniform(-10.0, 10.0, size=2000)
    for i in range(5):
        for sU, sV in ((0, 0), (1, 0), (0, 1), (1, 1)):
            vals = quadratic_Ti(params, i, sU, sV, xi, eta)
            assert np.all(np.asarray(vals) >= 0.0)
    with pytest.raises(IndexError):
        quadratic_Ti(params, 5, 1, 1, 1.0, 1.0)


def brute_force_I(params, state, grid):
    """Plain-loop rebuild of the dissipation sum, weights from the
    recurrence iteration rather than the closed form."""
    a, b = params.a, params.b
    logs = recurrence_logs(params)
    th = np.exp(logs - logs.max())
    h = grid.spacing
    n = grid.n_nodes
    u, v = state.u, state.v
    du = np.empty(n)
    dv = np.empty(n)
    for j in range(n):
        if j == 0:
            du[j] = (u[1] - u[0]) / h
            dv[j] = (v[1] - v[0]) / h
        elif j == n - 1:
            du[j] = (u[-1] - u[-2]) / h
            dv[j] = (v[-1] - v[-2]) / h
        else:
            du[j] = (u[j + 1] - u[j - 1]) / (2 * h)
            dv[j] = (v[j + 1] - v[j - 1]) / (2 * h)
    p = params.p
    total = 0.0
    for j in range(n):
        U = max(u[j] - params.u_bar0, 0.0)
        V = max(v[j] - params.v_bar0, 0.0)
        sU = 1.0 if U > 0 else 0.0
        sV = 1.0 if V > 0 else 0.0
        acc = 0.0
        for i in range(p - 1):
            Ti = (a * th[i + 2] * sU * du[j] ** 2
                  + (a + b) * th[i + 1] * sU * sV * du[j] * dv[j]
                  + b * th[i] * sV * dv[j] ** 2)
            acc += math.comb(p - 2, i) * Ti * U ** i * V ** (p - 2 - i)
        w = h / 2 if j in (0, n - 1) else h
        total += w * acc
    return -p * (p - 1) * total


def test_dissipation_trivial_cases():
    grid = Grid(21, 1.0)
    params = build_params(1.0, 2.0, 0.5, 0.0, 4,
                          np.full(21, 5.0), np.full(21, 5.0))
    rng = np.random.default_rng(6)
    below = SimState(0.0, rng.uniform(0, 4, 21), rng.uniform(0, 4, 21), 1e-3)
    assert dissipation_I(params, below, grid) == 0.0
    homogeneous = SimState(0.0, np.full(21, 9.0), np.full(21, 9.0), 1e-3)
    assert dissipation_I(params, homogeneous, grid) == 0.0


# L, -I and J on fixed non-uniform states above the bounds, recorded with
# float.hex: -I before T_i was shared by quadratic_Ti and dissipation_I,
# L and J before the three were computed in one diagnostics pass
PINNED_L_MINUS_I_J = {
    2: ("0x1.bfd29c012538fp+3", "0x1.874c66ad619c3p+6", "-0x1.58d0859cade02p+5"),
    4: ("0x1.1cf78fc49a0fcp+11", "0x1.5255844aef4a2p+9", "-0x1.f9d3a15882005p+5"),
    8: ("0x1.fcd6a22bca0b4p+37", "0x1.128b43abc004dp+11", "-0x1.5ef98312937e2p+9"),
}


@pytest.mark.parametrize("p", sorted(PINNED_L_MINUS_I_J))
def test_dissipation_I_pinned_bit_for_bit(p):
    # pins L and J beside I: any reordering of their sums shows here
    grid = Grid(17, 1.3)
    rng = np.random.default_rng(100 + p)
    u = rng.uniform(0.0, 3.0, grid.n_nodes)
    v = rng.uniform(0.0, 3.0, grid.n_nodes)
    params = build_params(0.7, 2.5, 0.5, 0.0, p, ZEROS, ZEROS)
    params = dataclasses.replace(params, u_bar0=1.0, v_bar0=1.0)
    state = SimState(0.0, u, v, 1e-3)
    L = lyapunov_L(params, state, grid)
    I = dissipation_I(params, state, grid)
    J = reaction_J(params, state, grid, BlowupExample())
    assert (L.hex(), (-I).hex(), J.hex()) == PINNED_L_MINUS_I_J[p]


def test_dissipation_nonpositive_and_matches_brute_force():
    rng = np.random.default_rng(7)
    grid = Grid(17, 1.3)
    for _ in range(20):
        a = float(rng.uniform(0.2, 5.0))
        b = float(rng.uniform(0.2, 5.0))
        params = build_params(a, b, 0.5, 0.0, 4, ZEROS, ZEROS)
        params = dataclasses.replace(params, u_bar0=1.0, v_bar0=1.0)
        u = rng.uniform(0.0, 3.0, grid.n_nodes)
        v = rng.uniform(0.0, 3.0, grid.n_nodes)
        state = SimState(0.0, u, v, 1e-3)
        val = dissipation_I(params, state, grid)
        assert val <= 0.0
        ref = brute_force_I(params, state, grid)
        assert val == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_reaction_J_trivial_zero():
    grid = Grid(11, 1.0)
    params = build_params(1.0, 1.0, 0.5, 0.0, 4,
                          np.full(11, 3.0), np.full(11, 3.0))
    state = SimState(0.0, np.ones(11), np.ones(11), 1e-3)
    assert reaction_J(params, state, grid, BlowupExample()) == 0.0


def test_reaction_J_positive_for_blowup_node():
    # one node above both bounds where f > 0 and g > 0
    grid = Grid(11, 1.0)
    params = build_params(1.0, 1.0, 0.5, 0.5, 4, ZEROS, ZEROS)
    assert (params.u_bar0, params.v_bar0) == (0.5, 0.5)
    u = np.zeros(11)
    v = np.zeros(11)
    u[5] = 0.75                      # U = 0.25, f = 0.1875 * v^2 > 0
    v[5] = params.v_bar0 + 1.0       # V = 1.0
    state = SimState(0.0, u, v, 1e-3)
    assert reaction_J(params, state, grid, BlowupExample()) > 0.0


def test_reaction_J_combustion_boundary_term():
    # U = 0 everywhere, V > 0: only theta_0 * g * V^(p-1) survives
    grid = Grid(11, 1.0)
    p = 4
    params = build_params(1.0, 2.0, 0.5, 0.0, p,
                          np.full(11, 1.0), np.full(11, 1.0))
    state = SimState(0.0, np.full(11, 1.0), np.full(11, 2.0), 1e-3)
    model = Combustion(1)
    val = reaction_J(params, state, grid, model)
    logs = recurrence_logs(params)
    g = 1.0 * math.exp(2.0)
    expected = p * math.exp(logs[0] - logs.max()) * g * 1.0 ** (p - 1)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0.0
    # with the reactant absent, g = 0 and the term vanishes exactly
    state0 = SimState(0.0, np.zeros(11), np.full(11, 2.0), 1e-3)
    assert reaction_J(params, state0, grid, model) == 0.0


def test_scale_consistency():
    # multiplying every weight by a common factor leaves the signs of I
    # and J and the zero set of L unchanged (I, J are exactly unchanged:
    # the shared normalization divides the factor out; L scales by it)
    grid = Grid(15, 1.0)
    rng = np.random.default_rng(8)
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, ZEROS, ZEROS)
    params = dataclasses.replace(params, u_bar0=0.5, v_bar0=0.5)
    c = 37.0

    class Scaled(FunctionalParams):
        def log_theta_seq(self):
            return super().log_theta_seq() + math.log(c)

    scaled = Scaled(**dataclasses.asdict(params))
    u = rng.uniform(0.0, 2.0, 15)
    v = rng.uniform(0.0, 2.0, 15)
    state = SimState(0.0, u, v, 1e-3)
    model = BlowupExample()
    assert dissipation_I(scaled, state, grid) == pytest.approx(
        dissipation_I(params, state, grid), rel=1e-12)
    assert reaction_J(scaled, state, grid, model) == pytest.approx(
        reaction_J(params, state, grid, model), rel=1e-12)
    L1 = lyapunov_L(params, state, grid)
    L2 = lyapunov_L(scaled, state, grid)
    assert L2 == pytest.approx(c * L1, rel=1e-12)
    below = SimState(0.0, np.full(15, 0.2), np.full(15, 0.2), 1e-3)
    assert lyapunov_L(params, below, grid) == 0.0
    assert lyapunov_L(scaled, below, grid) == 0.0


# ---------------------------------------------------------------------------
# Exact values below the bounds
# ---------------------------------------------------------------------------

def assert_zero_with_sign(value, sign):
    assert value == 0.0
    assert math.copysign(1.0, value) == sign


@pytest.mark.parametrize("n", [3, 31, 2001])
@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize("theta", [None, 1e30])   # 1e30: exp overflows for p >= 4
def test_below_bounds_values_are_signed_zeros(n, p, theta):
    # the bounds are the state's own sup norms, so the largest node of
    # each field sits exactly on its bound and none lies above it
    grid = Grid(n, 1.0)
    rng = np.random.default_rng(n * p)
    u = rng.uniform(0.0, 2.0, n)
    v = rng.uniform(0.0, 3.0, n)
    params = build_params(1.0, 2.0, 0.5, 0.0, p, u, v, theta=theta)
    state = SimState(0.0, u, v, 1e-3)
    assert_zero_with_sign(lyapunov_L(params, state, grid), 1.0)
    assert_zero_with_sign(dissipation_I(params, state, grid), -1.0)
    for model in (BlowupExample(), Combustion(1)):
        assert_zero_with_sign(reaction_J(params, state, grid, model), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["u", "v"])
def test_nonfinite_field_values(bad, field):
    grid = Grid(31, 1.0)
    params = build_params(1.0, 2.0, 0.5, 0.0, 4,
                          np.full(31, 2.0), np.full(31, 3.0))
    u = np.ones(31)
    v = np.ones(31)
    (u if field == "u" else v)[15] = bad
    state = SimState(0.0, u, v, 1e-3)
    assert lyapunov_L(params, state, grid) == math.inf
    assert math.isnan(dissipation_I(params, state, grid))
    assert math.isnan(reaction_J(params, state, grid, BlowupExample()))


def test_nonfinite_rates_below_bounds_give_nan_J():
    # e^800 overflows: f = -inf, g = inf at every node, and 0 * inf = NaN
    grid = Grid(31, 1.0)
    u = np.ones(31)
    v = np.full(31, 800.0)
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, u, v)
    state = SimState(0.0, u, v, 1e-3)
    assert_zero_with_sign(lyapunov_L(params, state, grid), 1.0)
    assert_zero_with_sign(dissipation_I(params, state, grid), -1.0)
    assert math.isnan(reaction_J(params, state, grid, Combustion(1)))


def test_gradient_overflow_below_bounds_gives_nan_I():
    # finite fields whose gradient squares past double precision: the
    # zero sign flags meet inf and I is NaN, while L and J stay zero
    grid = Grid(31, 1.0)
    u = np.zeros(31)
    u[0] = 1e300
    v = np.ones(31)
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, u, v)
    state = SimState(0.0, u, v, 1e-3)
    assert_zero_with_sign(lyapunov_L(params, state, grid), 1.0)
    assert math.isnan(dissipation_I(params, state, grid))
    assert_zero_with_sign(reaction_J(params, state, grid, Combustion(1)), 1.0)


@pytest.mark.parametrize("theta, p", [(math.inf, 4), (1e200, 4), (None, 1100)])
def test_build_params_refuses_nonfinite_theta_and_large_p(theta, p):
    # theta = inf would make the log weights NaN, theta = 1e200 has a
    # square past double precision and p = 1100 overflows the binomials;
    # all are refused, so check_conditions, I and J never see them
    with pytest.raises(ParamError) as err:
        build_params(1.0, 2.0, 0.5, 0.0, p, ZEROS, ZEROS, theta=theta)
    assert err.value.param == ("p" if theta is None else "theta")
    assert build_params(1.0, 2.0, 0.5, 0.0, 1000, ZEROS, ZEROS).p == 1000


@pytest.mark.parametrize("field, value", [
    ("theta", math.inf), ("theta", math.nan), ("theta", 1e200),
    ("theta", 0.0), ("mu", 5e-324), ("p", 1), ("p", 1001), ("p", 4.0),
])
def test_every_params_instance_has_finite_weights(field, value):
    # mu = 5e-324 would make theta0 = mu/2 = 0, its log -inf
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, ZEROS, ZEROS)
    with pytest.raises(ParamError) as err:
        dataclasses.replace(params, **{field: value})
    assert err.value.param == field


@pytest.mark.parametrize("a, b, name", [
    (1e308, 1e308, "a"), (1.0, 1e308, "b"), (1e-320, 1.0, "a"),
])
def test_construction_refuses_a_pair_without_finite_default_theta(a, b,
                                                                  name):
    # (a+b)^2/(4ab) overflows, so no instance has an a + b past double
    # precision, which would meet the zero sign flags of T_i below the
    # bounds and make I NaN there
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, ZEROS, ZEROS)
    for build in (lambda: dataclasses.replace(params, a=a, b=b),
                  lambda: build_params(a, b, 0.5, 0.0, 4, ZEROS, ZEROS)):
        with pytest.raises(ParamError, match="no finite default") as err:
            build()
        assert err.value.param == name


def test_derived_constants_follow_replace():
    # derived from the fields on each access, so an instance from
    # dataclasses.replace never meets the old constants
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, ZEROS, ZEROS)
    assert list(params.binomials[4]) == [1, 4, 6, 4, 1]
    other = dataclasses.replace(params, p=6, mu=0.1)
    assert sorted(other.binomials) == [4, 5, 6]
    assert list(other.binomials[6]) == [1, 6, 15, 20, 15, 6, 1]
    logs = other.log_theta_seq()
    assert np.array_equal(other.weights, np.exp(logs))
    assert np.array_equal(other.normalized_weights, np.exp(logs - logs.max()))


# ---------------------------------------------------------------------------
# One diagnostics pass
# ---------------------------------------------------------------------------

# sha256 prefix of the five states' "L I J" float.hex lines, one per
# (case, p), recorded before L, I and J became delegates of diagnostics:
# every shortcut and every mixed case keeps those bits
PINNED_DIAGNOSTICS = {
    ("above", 2): "cc23ae1159ed26d9", ("above", 4): "488adf5254c3f2b2",
    ("above", 8): "e124853bd474e887",
    **{(case, p): digest for p in (2, 4, 8) for case, digest in (
        ("below", "01f9920f0d306dda"), ("nan_field", "f55da09c3a81901e"),
        ("nonfinite_rates_below", "ef97863fc148ac60"),
        ("steep_gradient_below", "a4c61cbd5d56b1ef"))},
    ("inf_field", 2): "f55da09c3a81901e", ("inf_field", 4): "b7cf0da0a11c4ef8",
    ("inf_field", 8): "8eda74c9a0de9fdf",
}


@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize("case", [
    "above", "below", "nan_field", "inf_field", "nonfinite_rates_below",
    "steep_gradient_below",
])
def test_diagnostics_matches_the_three_functions(case, p):
    # one pass gives the recorded bits and the separate calls' values, in
    # the mixed cases too, where the gate hands the state to the full sums
    grid = Grid(31, 1.0)
    rng = np.random.default_rng(p)
    # Combustion's rates stay finite at u = 1e300 and overflow at v = 800
    model = Combustion(1) if case.endswith("_below") else BlowupExample()
    params = build_params(0.7, 2.5, 0.5, 0.0, p, ZEROS, ZEROS)
    lines = []
    for _ in range(5):
        u = rng.uniform(0.0, 3.0, grid.n_nodes)
        v = rng.uniform(0.0, 3.0, grid.n_nodes)
        node = int(rng.integers(grid.n_nodes))
        if case == "nan_field":
            u[node] = math.nan
        elif case == "inf_field":
            v[node] = math.inf
        elif case == "nonfinite_rates_below":
            v += 800.0                  # e^v overflows: f = -inf, g = inf
        elif case == "steep_gradient_below":
            u[node] = 1e300             # finite, but its slope squares to inf
        bars = ((1.0, 1.0) if case in ("above", "nan_field", "inf_field")
                else (float(u.max()), float(v.max())))
        params = dataclasses.replace(params, u_bar0=bars[0], v_bar0=bars[1])
        state = SimState(0.0, u, v, 1e-3)
        separate = (lyapunov_L(params, state, grid),
                    dissipation_I(params, state, grid),
                    reaction_J(params, state, grid, model))
        fused = diagnostics(params, state, grid, model.rates(u, v))
        assert [x.hex() for x in fused] == [x.hex() for x in separate]
        lines.append(" ".join(x.hex() for x in fused))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == PINNED_DIAGNOSTICS[case, p]


@pytest.mark.parametrize("n", [3, 31, 33, 2001])
@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_diagnostics_block_rows_match_one_state_calls(p, n):
    # a block mixes gated rows, rows above the bounds, rows with an inf or
    # NaN field and rows whose rates are not finite; each row of the block
    # keeps the bits of the one-state call.  A row above the bounds at one
    # node only lets one node's rounding reach L.
    grid = Grid(n, 1.0)
    rng = np.random.default_rng(100 * p + n)
    params = build_params(0.7, 2.5, 0.5, 0.0, p, ZEROS, ZEROS)
    params = dataclasses.replace(params, u_bar0=1.0, v_bar0=1.0)
    kinds = ["below", "above", "one_node_above", "inf_field", "nan_field",
             "nonfinite_rates", "above_nonfinite_rates"] * 3
    kinds += ["one_node_above"] * 30
    rng.shuffle(kinds)
    fields, rates = [], []
    for kind in kinds:
        u = rng.uniform(0.0, 3.0, n)
        v = rng.uniform(0.0, 3.0, n)
        node = int(rng.integers(n))
        if kind in ("below", "nonfinite_rates", "one_node_above"):
            u, v = u / 3.0, v / 3.0
        if kind == "one_node_above":
            u[node] += 1.0
            v[node] += 1.0
        if kind == "inf_field":
            u[node] = math.inf
        elif kind == "nan_field":
            v[node] = math.nan
        f, g = BlowupExample().rates(u, v)
        if kind.endswith("nonfinite_rates"):
            (f if rng.uniform() < 0.5 else g)[node] = rng.choice(
                [math.inf, -math.inf, math.nan])
        fields.append((u, v))
        rates.append((f, g))
    block = diagnostics_block(params, grid, np.array(fields),
                              np.array(rates))
    assert block.shape == (3, len(kinds))
    for j, ((u, v), row_rates) in enumerate(zip(fields, rates)):
        alone = diagnostics(params, SimState(0.0, u, v, 1e-3), grid,
                            row_rates)
        assert [x.hex() for x in block[:, j].tolist()] == \
            [x.hex() for x in alone], kinds[j]
