import itertools
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from rdcertify.kinetics import (Absorption, BlowupExample, Combustion,
                                DoubleExp, DoubleExpMinusPoly, Exp,
                                GrowthFunction, Power, ReactionModel, SubExp,
                                find_threshold_A, growth_from_spec)
from rdcertify import kinetics
from rdcertify.mesh import ParamError
from rdcertify.verify import sample_box


def evaluate(model, u, v):
    """``model.rates`` at one point, as a pair of floats."""
    f, g = model.rates(u, v)
    return float(f), float(g)


def test_evaluate_combustion_at_origin_temperature():
    assert evaluate(Combustion(1), 1.0, 0.0) == (-1.0, 1.0)


def test_evaluate_blowup_example():
    # direct arithmetic: f = (0.75 - 0.5625) * 1 = 0.1875, g = 0.75
    f, g = evaluate(BlowupExample(), 0.75, 1.0)
    assert f == pytest.approx(0.1875)
    assert g == pytest.approx(0.75)


def test_evaluate_absorption_exp():
    model = Absorption(Exp(), Exp())
    assert evaluate(model, 2.0, 0.0) == (-2.0, 2.0)


def test_evaluate_overflow_flags_divergence():
    f, g = evaluate(Combustion(1), 1.0, 800.0)
    assert math.isinf(f) and math.isinf(g)
    assert f < 0 < g


def test_combustion_f_plus_g_identically_zero():
    rng = np.random.default_rng(0)
    u = rng.uniform(0.0, 5.0, size=200)
    v = rng.uniform(0.0, 5.0, size=200)
    for m in (1, 2, 3):
        f, g = Combustion(m).rates(u, v)
        assert np.array_equal(f + g, np.zeros_like(u))


@pytest.mark.parametrize("model", [
    Combustion(1), Combustion(2),
    Absorption(Exp(), Exp()),
    Absorption(Power(2.0), Power(2.0)),
    Absorption(SubExp(0.5), SubExp(0.5)),
])
def test_f_nonpositive_g_nonnegative(model):
    rng = np.random.default_rng(1)
    u = rng.uniform(0.0, 6.0, size=500)
    v = rng.uniform(0.0, 6.0, size=500)
    f, g = model.rates(u, v)
    assert np.all(f <= 0.0)
    assert np.all(g >= 0.0)


def test_absorption_vanishes_at_zero_reactant():
    # f(0, v) = g(0, v) = 0 exactly, even where F(v) overflows
    model = Absorption(DoubleExp(), DoubleExp())
    v = np.array([0.0, 1.0, 7.0, 1000.0])
    f, g = model.rates(np.zeros_like(v), v)
    assert np.array_equal(f, np.zeros_like(v))
    assert np.array_equal(g, np.zeros_like(v))


def test_blowup_example_positive_f_region():
    # f > 0 on 0 < u < 1, v > 0: the control-of-mass inequality cannot hold
    rng = np.random.default_rng(2)
    u = rng.uniform(0.01, 0.99, size=300)
    v = rng.uniform(0.01, 5.0, size=300)
    f, g = BlowupExample().rates(u, v)
    assert np.all(f > 0.0)
    assert np.all(g >= 0.0)


def zero_where_zero(base, factor):
    # base * factor with the convention 0 * inf = 0 (reactant absent)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(base == 0, 0, base * factor)


def two_pass_rates(model, u, v):
    """(f, g) by the formulas written out factor by factor, one product
    and one zeroing per rate."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, BlowupExample):
            v2 = v * v
            return zero_where_zero(u - u * u, v2), zero_where_zero(u, v2)
        if isinstance(model, Combustion):
            g = zero_where_zero(u ** model.m, np.exp(v))
            return -g, g
        return (-zero_where_zero(u, model.F.value(v)),
                zero_where_zero(u, model.G.value(v)))


@pytest.mark.parametrize("model", [
    BlowupExample(), Combustion(1), Combustion(2), Combustion(3),
    Absorption(Exp(), Exp()), Absorption(DoubleExp(), Exp()),
    Absorption(DoubleExpMinusPoly((1e308, 1e308)), Exp()),
])
def test_one_pass_rates_match_the_formulas_bit_for_bit(model):
    # every (u, v) of the grid below, where v^2, e^v or F(v) overflows
    # and u, or 1 - u, is 0: f = 0 at u = 1, v = inf for BlowupExample,
    # and f = -0.0 where u = 0 for Absorption and Combustion.  u = -0.0
    # passes the positivity clip np.maximum(u, 0.0), so it reaches rates
    u, v = (np.array(axis) for axis in zip(*itertools.product(
        [0.0, -0.0, 1e-300, 0.5, 1.0], [0.0, 2.0, 1e200, 800.0, np.inf])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f, g = model.rates(u, v)
        stacked = np.array(model.rates(u.reshape(5, 5), v.reshape(5, 5)))
        rows = [model.rates(*pair) for pair in zip(u.reshape(5, 5),
                                                   v.reshape(5, 5))]
    want_f, want_g = two_pass_rates(model, u, v)
    assert np.asarray(f).tobytes() == want_f.tobytes()
    assert np.asarray(g).tobytes() == want_g.tobytes()
    assert stacked.tobytes() == np.array(rows).swapaxes(0, 1).tobytes()
    assert stacked.reshape(2, -1).tobytes() == np.array((f, g)).tobytes()


@pytest.mark.parametrize("model", [
    Absorption(Exp(), Exp()), Absorption(DoubleExp(), Power(2.0)),
    BlowupExample(), Combustion(1),
])
def test_rates_on_a_sampled_box_keep_temporaries_to_one_field(model):
    # a stacked (2, N) temporary is 128 KiB at a box's 8,192 points,
    # glibc's mmap threshold: a process checking many claims would map
    # and fault it in afresh on every claim.  The traced peak of one
    # call, results included, stays below 4 N doubles
    sample = sample_box(model, 10.0, 64)
    u, v = sample.u, sample.v
    assert u.size == 8192
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = model.rates(u, v)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert f.shape == g.shape == u.shape
    assert peak < 4 * u.size * u.itemsize


@pytest.mark.parametrize("model", [
    BlowupExample(), Combustion(2), Absorption(Exp(), Exp()),
])
@pytest.mark.parametrize("shapes", [((5,), ()), ((2,), ()), ((), (5,)),
                                    ((2, 5), (5,)), ((2, 1), (2, 5))])
def test_rates_broadcast_u_against_v(model, shapes):
    # u and v of different shapes get the rates of the broadcast pair;
    # a u of length 2 must not pair the stacking axis with the data
    rng = np.random.default_rng(5)
    u, v = (rng.uniform(0.0, 2.0, size=shape) for shape in shapes)
    f, g = model.rates(u, v)
    want_f, want_g = two_pass_rates(model, *np.broadcast_arrays(u, v))
    assert np.shape(f) == np.shape(g) == np.broadcast_shapes(*shapes)
    assert np.asarray(f).tobytes() == want_f.tobytes()
    assert np.asarray(g).tobytes() == want_g.tobytes()


# ---------------------------------------------------------------------------
# Growth laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("growth", [
    Power(1.0), Power(2.5), Exp(), SubExp(0.5), SubExp(0.9),
    DoubleExp(), DoubleExpMinusPoly([0.0, 1.0]),
])
def test_log_value_matches_log_of_value(growth):
    s = np.linspace(0.1, 3.0, 40)
    vals = growth.value(s)
    assert np.all(vals > 0)
    assert np.allclose(growth.log_value(s), np.log(vals), rtol=1e-10, atol=1e-10)


def test_overflow_guards():
    # past the representable range the value is not finite (flagged, not
    # raised)
    assert math.isinf(float(DoubleExp().value(7.0)))
    assert math.isinf(float(Exp().value(800.0)))
    assert np.isfinite(float(DoubleExp().value(6.5)))


def test_double_exp_minus_poly_nonpositive_region():
    # P(s) = 10 exceeds e^(e^s) near s = 0, so F <= 0 there: log is -inf
    growth = DoubleExpMinusPoly([10.0])
    assert float(growth.value(0.0)) == pytest.approx(math.e - 10.0)
    assert float(growth.log_value(0.0)) == -math.inf
    assert np.isfinite(float(growth.log_value(2.0)))


def decimal_log_value(coeffs, s):
    """log F(s) of DoubleExpMinusPoly(coeffs) at the double s, from 60
    significant digits of F(s), or -inf where F(s) <= 0."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(float(s))
        f = x.exp().exp() - sum(Decimal(c) * x ** k
                                for k, c in enumerate(coeffs))
        return float(f.ln()) if f > 0 else -math.inf


def test_double_exp_minus_poly_where_the_polynomial_overflows():
    # P(s) = 1e308 (1 + s) is inf in double, yet e^(e^s) outgrows it just
    # past s = 6.565: F <= 0 there, F > 0 from 6.57 on
    growth = DoubleExpMinusPoly((1e308, 1e308))
    s = np.array([6.565, 6.57, 6.6, 6.7, 7.0, 10.0])
    with np.errstate(over="ignore"):
        assert np.isinf(growth._poly(s)).all()
    want = [decimal_log_value(growth.coeffs, x) for x in s]
    assert want[0] == -math.inf and np.isfinite(want[1:]).all()
    got = growth.log_value(s)
    assert got[0] == -math.inf
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-15)
    assert [float(growth.log_value(x)) for x in s] == got.tolist()


def test_threshold_where_the_polynomial_overflows():
    # F / e^s > 1/2 from the grid point after 6.565, where F turns positive
    A = kinetics.find_threshold_A(DoubleExpMinusPoly((1e308, 1e308)), Exp(),
                                  0.5)
    assert A == kinetics._THRESHOLD_GRID[1313] == 6.565


def test_double_exp_minus_poly_keeps_its_bits_where_the_polynomial_is_finite():
    # the formula e^s + log1p(-P(s) e^(-e^s)), on the threshold grid and
    # past it, for coefficients of both signs
    rng = np.random.default_rng(3)
    s = np.concatenate([kinetics._THRESHOLD_GRID, rng.uniform(-30, 30, 200)])
    for count in range(1, 5):
        for _ in range(10):
            growth = DoubleExpMinusPoly(rng.uniform(-1.0, 1.0, count)
                                        * 10.0 ** rng.integers(0, 300))
            with np.errstate(all="ignore"):
                e, p = np.exp(s), growth._poly(s)
                rel = p * np.exp(-e)
                want = e + np.where(rel < 1.0,
                                    np.log1p(-np.minimum(rel, 1.0)), -np.inf)
            finite = np.isfinite(p)
            got = growth.log_value(s)
            assert got[finite].tobytes() == want[finite].tobytes()


@pytest.mark.parametrize("coeffs", [(0.5,), (1, 2), (1e308, 1e308),
                                    (-1, 0, 3)])
def test_double_exp_minus_poly_is_inf_at_inf(coeffs):
    # F(inf) = +inf for every P, though Horner's P(inf) is inf * 0 or
    # inf - inf; finite s keep the formulas' bits
    law = DoubleExpMinusPoly(coeffs)
    assert law.value(np.inf) == law.log_value(np.inf) == math.inf
    s = np.concatenate([np.linspace(0.0, 800.0, 4001),
                        [6.565, 6.6, 7.0, 10.0, np.inf]])
    with np.errstate(all="ignore"):
        value = np.exp(np.exp(s[:-1])) - law._poly(s[:-1])
        got = law.value(s), law.log_value(s)
        log_value = [law.log_value(x) for x in s[:-1]]
    assert got[0][:-1].tobytes() == value.tobytes()
    assert got[1][:-1].tobytes() == np.array(log_value).tobytes()
    assert got[0][-1] == got[1][-1] == math.inf


def test_poly_is_polyval_bit_for_bit():
    # the Horner loop written out does polyval's operations in its order
    from numpy.polynomial.polynomial import polyval
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, 1e-300, 3.0, 700.0, 1e300, np.inf,
                        -np.inf, np.nan])
    s = np.concatenate([special, rng.uniform(-50.0, 50.0, 40),
                        rng.standard_normal(20) * 1e200])
    for count in range(1, 6):
        for _ in range(10):
            coeffs = rng.standard_normal(count) * 10.0 ** rng.integers(
                -300, 300, count)
            law = DoubleExpMinusPoly(coeffs)
            with np.errstate(all="ignore"):
                got, want = law._poly(s), polyval(s, law.coeffs)
                scalars = [(law._poly(x), polyval(x, law.coeffs))
                           for x in special]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for one, other in scalars:
                assert np.float64(one).tobytes() == np.float64(other).tobytes()


def test_growth_spec_round_trip():
    for text, g in (("power:2.0", Power(2.0)), ("exp", Exp()),
                    ("subexp:0.5", SubExp(0.5)), ("doubleexp", DoubleExp()),
                    ("doubleexp-poly:0.0,1.0,2.5",
                     DoubleExpMinusPoly([0.0, 1.0, 2.5]))):
        back = growth_from_spec(text)
        assert type(back) is type(g)
        assert vars(back) == vars(g)
    with pytest.raises(ValueError):
        growth_from_spec("mystery:3")


@pytest.mark.parametrize("text", ["exp:3", "doubleexp:7", "exp:", "power",
                                  "power:1,2", "subexp:0.5,0.5"])
def test_growth_spec_rejects_wrong_arguments(text):
    with pytest.raises(ValueError, match="arguments"):
        growth_from_spec(text)


def test_growth_parameter_validation():
    with pytest.raises(ValueError):
        Power(0.0)
    with pytest.raises(ParamError, match="beta must be finite and > 0") as err:
        Power(math.inf)
    assert err.value.param == "beta"
    # each law converts its own argument, so numeric text is accepted
    assert Power("2.5").beta == 2.5
    assert SubExp("0.5").gamma == 0.5
    with pytest.raises(ValueError):
        SubExp(1.0)
    with pytest.raises(ValueError):
        DoubleExpMinusPoly([])


def test_exponential_laws_are_the_exp_of_their_log():
    # value is exp(log_value): bit for bit the direct formulas, overflowing
    # to inf without a RuntimeWarning
    s = np.linspace(0.0, 800.0, 4001)
    with np.errstate(over="ignore"):
        direct = [np.exp(s), np.exp(s ** 0.5), np.exp(np.exp(s))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [Exp().value(s), SubExp(0.5).value(s), DoubleExp().value(s)]
    for value, expected in zip(values, direct):
        assert value.dtype == np.float64
        assert value.tobytes() == expected.tobytes()
    assert np.isinf(values[0][-1]) and np.isinf(values[2][-1])


# ---------------------------------------------------------------------------
# Threshold search
# ---------------------------------------------------------------------------

def test_threshold_equal_growth_is_zero():
    # F/G = 1 > 0.5 everywhere, so the threshold sits at the first sample
    assert find_threshold_A(Exp(), Exp(), 0.5) == 0.0


def test_threshold_matches_dense_sampling_oracle():
    # oracle: ratio (e^(e^s) - s)/e^(e^s) = 1 - s*exp(-exp(s)) sampled on
    # the search's own grid, 2,001 points of [0, 10]
    s = np.linspace(0.0, 10.0, 2001)
    ratio = 1.0 - s * np.exp(-np.exp(s))
    F = DoubleExpMinusPoly([0.0, 1.0])
    G = DoubleExp()
    for lam in (0.9, 0.91):
        bad = np.flatnonzero(~(ratio > lam))
        expected = s[bad[-1]] if bad.size else 0.0
        assert find_threshold_A(F, G, lam) == pytest.approx(expected)
    # the ratio dips to ~0.9027, so 0.91 needs a strictly positive threshold
    assert find_threshold_A(F, G, 0.91) > 0.5


def test_threshold_grid_is_built_once_and_read_only():
    # every search reads the one module grid: 2,001 points of [0, 10]
    grid = kinetics._THRESHOLD_GRID
    assert grid.tobytes() == np.linspace(0.0, 10.0, 2001).tobytes()
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 1.0


def test_threshold_not_found_for_vanishing_ratio():
    # s/e^s -> 0, so no tail of (0, 10] keeps the ratio above 0.5
    assert find_threshold_A(Power(1.0), Exp(), 0.5) is None


def test_threshold_rejects_bad_lambda():
    with pytest.raises(ValueError):
        find_threshold_A(Exp(), Exp(), 1.0)
    with pytest.raises(ValueError):
        find_threshold_A(Exp(), Exp(), 0.0)


# ---------------------------------------------------------------------------
# Claimed constants
# ---------------------------------------------------------------------------

def test_claimed_constants():
    assert Combustion(1).claimed_C == 0.0
    assert Combustion(1).claimed_mu == 0.5
    model = Absorption(Exp(), Exp())
    assert model.claimed_C == 0.0
    assert model.claimed_mu == 0.5
    blow = BlowupExample()
    assert blow.claimed_C is None and blow.claimed_mu is None
    # a pair whose ratio collapses claims nothing
    hopeless = Absorption(Power(1.0), Exp())
    assert hopeless.claimed_C is None and hopeless.claimed_mu is None


def test_combustion_requires_positive_integer_order():
    with pytest.raises(ValueError):
        Combustion(0)
    with pytest.raises(ValueError):
        Combustion(1.5)


def test_extension_point_subclass():
    class Decay(ReactionModel):
        def rates(self, u, v):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            return -u, 0.0 * v

    f, g = evaluate(Decay(), 2.0, 3.0)
    assert (f, g) == (-2.0, 0.0)
