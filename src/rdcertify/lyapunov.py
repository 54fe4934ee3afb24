"""Weighted positive-part functionals for monitoring uniform bounds.

Given candidate bounds (u_bar0, v_bar0) and positive weights
theta_0..theta_p with constant second-order ratio
theta_i * theta_{i+2} / theta_{i+1}^2 = theta^2, the functional

    L(t) = integral of H(u, v),
    H(u, v) = sum_i binom(p, i) * theta_i * U^i * V^(p-i),
    U = (u - u_bar0)_+,   V = (v - v_bar0)_+,

vanishes exactly while the solution stays below the bounds and grows as
soon as either field exceeds them.  Its formal time derivative splits
into a dissipation part I (a weighted integral of the gradient
quadratics T_i, nonpositive whenever theta^2 > (a+b)^2/(4ab)) and a
reaction part J.  This module builds the weight sequence in the log
domain (theta_i grows like theta^(i*(i-1)), far past double precision
for large p), checks the structural conditions, and evaluates L, I, J
as discrete diagnostics: I and J are reported up to one shared positive
normalization constant (the weights are rescaled by their maximum), so
their signs and zero sets are exact while their raw magnitudes, which
carry no decision content, stay representable.

``diagnostics`` gives L, I and J of a state in one pass, with one gate:
while the fields are finite, no node lies above its bound, every
difference quotient squares to a finite number and a + b and the rates
are finite, every term has a zero factor that meets no inf, so it
returns L = 0.0, I = -0.0 (-p(p-1) times a zero integral, ``-0`` in the
CSV) and J = 0.0 without the sums.  Otherwise it runs the full sums for
all three, which keep their inf and NaN results.  The weights and
binomials are computed once per ``FunctionalParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (Grid, ParamError, as_field, check_finite_data,
                   check_positive, integrate, sup_norm)

#: tolerance on the log-domain residual of the weight recurrence, relative
#: to max(1, max |log theta_i|): the rounding of the closed form grows
#: with the logs, which reach about p^2 * log theta
RECURRENCE_TOL = 1e-9

# a gradient at most this large squares to a finite double
_SAFE_SLOPE = 1e154

# the binomials of degree n < p, and the products of their recurrence,
# stay below n * 2^n: finite for p up to this
_SAFE_P = 1000


@dataclass(frozen=True)
class FunctionalParams:
    """Everything the functional needs: degree p, ratio theta, the first
    two weights (as logs), the mass-control constants, and the candidate
    bounds derived from the initial data.

    Every instance has an integer p in [2, 1000] and finite theta and
    log weights, so the weights and binomials are finite; otherwise
    construction raises ParamError naming ``p`` or ``theta``.  Those
    constants are cached properties, computed on first use: derived from
    the fields, they cannot go stale under ``dataclasses.replace``.
    """

    p: int
    theta: float
    log_theta0: float
    log_theta1: float
    mu: float
    C: float
    u_bar0: float
    v_bar0: float

    def __post_init__(self):
        if not (isinstance(self.p, int) and 2 <= self.p <= _SAFE_P):
            raise ParamError("p", f"p must be an integer in [2, {_SAFE_P}], "
                             f"got {self.p}")
        for value in (self.theta, self.log_theta0, self.log_theta1):
            if not math.isfinite(value):
                raise ParamError("theta", "theta and the log weights must be "
                                 f"finite, got {value}")

    @property
    def log_theta(self) -> float:
        return math.log(self.theta)

    def log_theta_seq(self) -> np.ndarray:
        """log theta_i for i = 0..p from the closed form
        log theta_i = log theta_0 + i*(log theta_1 - log theta_0)
                      + i*(i-1)*log theta."""
        i = np.arange(self.p + 1, dtype=float)
        return (self.log_theta0
                + i * (self.log_theta1 - self.log_theta0)
                + i * (i - 1.0) * self.log_theta)

    @cached_property
    def weights(self) -> np.ndarray:
        """theta_0..theta_p; a weight past double precision is inf."""
        with np.errstate(over="ignore"):
            return _read_only(np.exp(self.log_theta_seq()))

    @cached_property
    def normalized_weights(self) -> np.ndarray:
        """theta_i / max theta: the positive scaling I and J share."""
        logs = self.log_theta_seq()
        return _read_only(np.exp(logs - logs.max()))

    @cached_property
    def binomials(self) -> dict:
        """binom(n, i) for i = 0..n, keyed by the degree n in p, p-1, p-2,
        from the recurrence binom(n, i+1) = binom(n, i)*(n-i)/(i+1)."""
        table = {}
        for n in (self.p, self.p - 1, self.p - 2):
            c = np.ones(n + 1)
            for i in range(n):
                c[i + 1] = c[i] * (n - i) / (i + 1)
            table[n] = _read_only(c)
        return table


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _theta_sq_bound(a: float, b: float) -> float:
    """(a+b)^2/(4ab): theta^2 must exceed it for T_i to be semidefinite.
    A bound whose default theta^2 = 1.1 * bound is not finite raises
    ParamError naming whichever of a and b lies farther from 1 in log
    scale."""
    try:
        bound = (a + b) ** 2 / (4.0 * a * b)
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    if not 1.1 * bound < math.inf:
        name = "a" if abs(math.log(a)) >= abs(math.log(b)) else "b"
        raise ParamError(name, f"the diffusion pair a = {a}, b = {b} has no "
                         "finite default theta^2 = 1.1 (a+b)^2/(4ab)")
    return bound


def build_params(a: float, b: float, mu: float, C: float, p: int,
                 u0, v0, theta: float | None = None) -> FunctionalParams:
    """Validate and assemble functional parameters.

    theta defaults to sqrt(1.1 * max((a+b)^2/(4ab), 1)); a supplied
    theta must satisfy theta > 1 and theta^2 > (a+b)^2/(4ab).  The first
    weights are theta0 = mu/2 and theta1 = 1, so theta0/theta1 < mu; mu/2
    must not underflow to 0.  C must be finite and >= 0, u0, v0 finite,
    and the default theta^2 = 1.1 * bound finite; a violation raises
    ParamError naming the parameter.  The candidate bounds are
    max(C, sup u0) and max(C, sup v0).
    """
    check_positive(a=a, b=b, mu=mu)
    if not 0 <= C < math.inf:
        raise ParamError("C", f"C must be finite and >= 0, got {C}")
    check_finite_data(u0, v0)
    sup_u, sup_v = sup_norm(u0), sup_norm(v0)

    bound = _theta_sq_bound(a, b)
    if theta is None:
        theta = math.sqrt(1.1 * max(bound, 1.0))
    else:
        theta = float(theta)
        if not theta > 1.0:
            raise ParamError("theta", f"theta must be > 1, got {theta}")
        if not theta ** 2 > bound:
            raise ParamError(
                "theta", f"theta^2 = {theta ** 2} violates the condition "
                f"theta^2 > (a+b)^2/(4ab) = {bound}"
            )

    theta0 = mu / 2.0
    if not theta0 > 0:
        raise ParamError("mu", f"mu = {mu} is too small: the first weight "
                         "theta0 = mu/2 underflows to 0")

    return FunctionalParams(p=p, theta=theta, log_theta0=math.log(theta0),
                            log_theta1=0.0, mu=mu, C=float(C),
                            u_bar0=max(float(C), sup_u),
                            v_bar0=max(float(C), sup_v))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three structural checks on the weights."""

    theta_condition_ok: bool      # theta^2 > (a+b)^2/(4ab)
    recurrence_ok: bool           # |log residual| <= scaled RECURRENCE_TOL
    recurrence_residual: float
    mu_condition_ok: bool         # theta_i/theta_{i+1} < mu for all i
    theta_sq: float
    theta_sq_bound: float

    @property
    def passed(self) -> bool:
        return (self.theta_condition_ok and self.recurrence_ok
                and self.mu_condition_ok)


def check_conditions(params: FunctionalParams, a: float, b: float) -> ConditionReport:
    """Verify the weight conditions for the given diffusion pair."""
    bound = _theta_sq_bound(a, b)
    theta_sq = params.theta ** 2
    logs = params.log_theta_seq()
    resid = logs[:-2] + logs[2:] - 2.0 * logs[1:-1] - 2.0 * params.log_theta
    residual = float(np.max(np.abs(resid)))
    tol = RECURRENCE_TOL * max(1.0, float(np.max(np.abs(logs))))
    log_mu = math.log(params.mu)
    mu_ok = bool(np.all(logs[:-1] - logs[1:] < log_mu))
    return ConditionReport(
        theta_condition_ok=theta_sq > bound,
        recurrence_ok=residual <= tol,
        recurrence_residual=residual,
        mu_condition_ok=mu_ok,
        theta_sq=theta_sq,
        theta_sq_bound=bound,
    )


# ---------------------------------------------------------------------------
# L, I and J
# ---------------------------------------------------------------------------

def _quadratic(a, b, w0, w1, w2, sU, sV, xi, eta):
    # T_i with theta_i, theta_{i+1}, theta_{i+2} scaled to w0, w1, w2; the
    # operation order is fixed, so both callers' values are pinned bit for bit
    return (a * w2 * sU * xi ** 2
            + (a + b) * w1 * sU * sV * xi * eta
            + b * w0 * sV * eta ** 2)


def quadratic_Ti(params: FunctionalParams, i: int, a: float, b: float,
                 sgnU, sgnV, xi, eta):
    """The gradient quadratic

        a*theta_{i+2}*sgnU*xi^2 + (a+b)*theta_{i+1}*sgnU*sgnV*xi*eta
        + b*theta_i*sgnV*eta^2

    evaluated with the weights divided by theta_{i+1} (a positive
    scaling, so the sign is exact while the factors stay representable).
    Accepts scalars or arrays for xi, eta.
    """
    if not 0 <= i <= params.p - 2:
        raise IndexError(f"quadratic index {i} outside 0..{params.p - 2}")
    l0, l1, l2 = params.log_theta_seq()[i:i + 3]
    out = _quadratic(a, b, math.exp(l0 - l1), 1.0, math.exp(l2 - l1),
                     sgnU, sgnV, np.asarray(xi, dtype=float),
                     np.asarray(eta, dtype=float))
    return float(out) if out.ndim == 0 else out


def _gradient(f: np.ndarray, h: float) -> np.ndarray:
    # the differences np.gradient(f, h) takes, without its per-call set-up:
    # central inside, one-sided at the two boundary nodes
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (f[1] - f[0]) / h
    out[-1] = (f[-1] - f[-2]) / h
    return out


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Add the rows one at a time, in order, to a row of +0.0."""
    total = np.zeros(terms.shape[1])
    for row in terms:
        total += row
    return total


def diagnostics(params: FunctionalParams, state, grid: Grid, a: float,
                b: float, rates) -> tuple[float, float, float]:
    """(L, I, J) of one state; ``rates`` is ``model.rates`` at the state.

    L is the trapezoid integral of the nodal H values (inf flags overflow
    or a non-finite field), and

        I = -p(p-1) * sum_i binom(p-2, i) * integral T_i * U^i * V^(p-2-i),
        J = p * sum_i binom(p-1, i) * integral
            (theta_{i+1}*sgnU*f + theta_i*sgnV*g) * U^i * V^(p-1-i)

    with the weights divided by their maximum (one shared positive
    constant per parameter set, so the signs are exact); I is
    nonpositive for every state whenever the weight conditions hold.
    """
    u, v = as_field(state.u, grid), as_field(state.v, grid)
    f, g = rates
    # NaN propagates into min and max, and a difference quotient is at
    # most (max - min) / spacing, so four reductions screen the fields
    lo_u, hi_u, lo_v, hi_v = (float(x) for x in (u.min(), u.max(),
                                                 v.min(), v.max()))
    finite = all(map(math.isfinite, (lo_u, hi_u, lo_v, hi_v)))
    # below the bounds every term has a zero factor; the sums give these
    # signed zeros unless a zero factor meets an inf, which a slope that
    # squares past double precision, a + b or the rates could bring
    if (finite and hi_u <= params.u_bar0 and hi_v <= params.v_bar0
            and max(hi_u - lo_u, hi_v - lo_v) / grid.spacing <= _SAFE_SLOPE
            and math.isfinite(a + b)
            and np.isfinite(f).all() and np.isfinite(g).all()):
        return 0.0, -0.0, 0.0

    p, binomials = params.p, params.binomials
    U = np.maximum(u - params.u_bar0, 0.0)
    V = np.maximum(v - params.v_bar0, 0.0)
    L = math.inf
    if finite:
        i = np.arange(p + 1)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (binomials[p][:, None] * params.weights[:, None]
                     * U[None] ** i * V[None] ** (p - i))
        # 0^0 = 1 keeps the pure-U and pure-V monomials alive; 0 * inf
        # means a zero excursion.  The terms are then >= 0, summed largest
        # first.
        terms = np.where(np.isnan(terms), 0.0, terms)
        L = integrate(_sum_rows(np.sort(terms, axis=0)[::-1]), grid)

    # I and J share the rows U^i, V^i for i < p, each ``U ** i`` with an
    # int i (an array of exponents, as in L, can differ in the last bit),
    # and the flags with sgn(0) = 0, the positive-part derivative at the
    # kink.  Row i of each array belongs to term i: every element goes
    # through the operations of the term-by-term sum, in order.
    sU, sV = (U > 0.0).astype(float), (V > 0.0).astype(float)
    th = params.normalized_weights[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        du, dv = _gradient(u, grid.spacing), _gradient(v, grid.spacing)
        Upow = np.array([U ** k for k in range(p)])
        Vpow = np.array([V ** k for k in range(p)])
        T = _quadratic(a, b, th[:-2], th[1:-1], th[2:], sU, sV, du, dv)
        I_sum = _sum_rows(binomials[p - 2][:, None] * T
                          * Upow[:p - 1] * Vpow[p - 2::-1])
        J_sum = _sum_rows(binomials[p - 1][:, None]
                          * (th[1:] * sU * f + th[:-1] * sV * g)
                          * Upow * Vpow[::-1])
    return (L, float(-p * (p - 1) * integrate(I_sum, grid)),
            float(p * integrate(J_sum, grid)))


# The three quantities one at a time.  Nothing in the library calls
# these; they stay because bench/tracer.py wraps them by name.

def lyapunov_L(params: FunctionalParams, state, grid: Grid) -> float:
    """L of ``diagnostics``."""
    return diagnostics(params, state, grid, 1.0, 1.0, (0.0, 0.0))[0]


def dissipation_I(params: FunctionalParams, state, grid: Grid,
                  a: float, b: float) -> float:
    """I of ``diagnostics``."""
    return diagnostics(params, state, grid, a, b, (0.0, 0.0))[1]


def reaction_J(params: FunctionalParams, state, grid: Grid, model) -> float:
    """J of ``diagnostics``, with the rates of ``model`` at the state."""
    rates = model.rates(as_field(state.u, grid), as_field(state.v, grid))
    return diagnostics(params, state, grid, 1.0, 1.0, rates)[2]
