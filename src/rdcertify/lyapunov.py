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

While the fields are finite and no node lies above its bound, U, V and
their sign flags vanish at every node, so every term of L, I and J
carries a zero factor.  L, I and J then return their exact values
without evaluating the sums: L = 0.0, J = 0.0 and I = -0.0, the signed
zero that -p(p-1) times a zero integral gives, printed as ``-0`` in the
CSV.  The shortcut also needs every other factor finite: the weights
and binomials, the rates for J, the diffusion pair and the squared
gradients for I.  Otherwise the full sums run, so their inf and NaN
results (0 * inf) are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import Grid, as_field, integrate, sup_norm

LOG_DBL_MAX = math.log(np.finfo(float).max)

#: tolerance on the log-domain residual of the weight recurrence
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
    bounds derived from the initial data."""

    p: int
    theta: float
    log_theta0: float
    log_theta1: float
    mu: float
    C: float
    u_bar0: float
    v_bar0: float

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


class ThetaValue(NamedTuple):
    log: float
    value: float   # inf when not representable in double precision


def bound_constants(C: float, u0, v0) -> tuple[float, float]:
    """Candidate uniform bounds: max of C and the initial sup norms."""
    return max(float(C), sup_norm(u0)), max(float(C), sup_norm(v0))


def build_params(a: float, b: float, mu: float, C: float, p: int,
                 u0, v0, theta: float | None = None,
                 theta0: float | None = None,
                 theta1: float | None = None) -> FunctionalParams:
    """Validate and assemble functional parameters.

    theta defaults to sqrt(1.1 * max((a+b)^2/(4ab), 1)); theta1 defaults
    to 1 and theta0 to mu/2, which guarantees theta0/theta1 < mu.
    Supplied values that violate theta > 1, theta^2 > (a+b)^2/(4ab) or
    theta0/theta1 < mu raise ValueError naming the violated condition.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"diffusion coefficients must be positive, got a={a}, b={b}")
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    if not C >= 0:
        raise ValueError(f"C must be >= 0, got {C}")
    if not (isinstance(p, int) and p >= 2):
        raise ValueError(f"p must be an integer >= 2, got {p}")

    bound = (a + b) ** 2 / (4.0 * a * b)
    if theta is None:
        theta = math.sqrt(1.1 * max(bound, 1.0))
    else:
        theta = float(theta)
        if not theta > 1.0:
            raise ValueError(f"theta must be > 1, got {theta}")
        if not theta ** 2 > bound:
            raise ValueError(
                f"theta^2 = {theta ** 2} violates the condition "
                f"theta^2 > (a+b)^2/(4ab) = {bound}"
            )

    theta1 = 1.0 if theta1 is None else float(theta1)
    theta0 = mu / 2.0 if theta0 is None else float(theta0)
    if not (theta0 > 0 and theta1 > 0):
        raise ValueError("theta0 and theta1 must be positive")
    log_theta0 = math.log(theta0)
    log_theta1 = math.log(theta1)
    if not log_theta0 - log_theta1 < math.log(mu):
        raise ValueError(
            f"theta0/theta1 = {theta0 / theta1} violates the condition "
            f"theta0/theta1 < mu = {mu}"
        )

    u_bar0, v_bar0 = bound_constants(C, u0, v0)
    return FunctionalParams(p=p, theta=theta, log_theta0=log_theta0,
                            log_theta1=log_theta1, mu=mu, C=float(C),
                            u_bar0=u_bar0, v_bar0=v_bar0)


def log_theta_at(params: FunctionalParams, i: int) -> float:
    if not 0 <= i <= params.p:
        raise IndexError(f"weight index {i} outside 0..{params.p}")
    return (params.log_theta0
            + i * (params.log_theta1 - params.log_theta0)
            + i * (i - 1) * params.log_theta)


def theta_at(params: FunctionalParams, i: int) -> ThetaValue:
    """Weight theta_i as (log, linear) pair; the linear value is inf
    when it exceeds double precision."""
    lg = log_theta_at(params, i)
    value = math.exp(lg) if lg <= LOG_DBL_MAX else math.inf
    return ThetaValue(lg, value)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three structural checks on the weights."""

    theta_condition_ok: bool      # theta^2 > (a+b)^2/(4ab)
    recurrence_ok: bool           # |log residual| <= RECURRENCE_TOL
    recurrence_residual: float
    mu_condition_ok: bool         # theta_i/theta_{i+1} < mu for all i
    theta_sq: float
    theta_sq_bound: float

    @property
    def passed(self) -> bool:
        return (self.theta_condition_ok and self.recurrence_ok
                and self.mu_condition_ok)

    def failures(self) -> list[str]:
        out = []
        if not self.theta_condition_ok:
            out.append("theta^2 > (a+b)^2/(4ab)")
        if not self.recurrence_ok:
            out.append("theta_i*theta_{i+2}/theta_{i+1}^2 = theta^2")
        if not self.mu_condition_ok:
            out.append("theta_i/theta_{i+1} < mu")
        return out


def check_conditions(params: FunctionalParams, a: float, b: float) -> ConditionReport:
    """Verify the weight conditions for the given diffusion pair."""
    bound = (a + b) ** 2 / (4.0 * a * b)
    theta_sq = params.theta ** 2
    logs = params.log_theta_seq()
    if params.p >= 2:
        resid = logs[:-2] + logs[2:] - 2.0 * logs[1:-1] - 2.0 * params.log_theta
        residual = float(np.max(np.abs(resid)))
    else:
        residual = 0.0
    log_mu = math.log(params.mu)
    mu_ok = bool(np.all(logs[:-1] - logs[1:] < log_mu))
    return ConditionReport(
        theta_condition_ok=theta_sq > bound,
        recurrence_ok=residual <= RECURRENCE_TOL,
        recurrence_residual=residual,
        mu_condition_ok=mu_ok,
        theta_sq=theta_sq,
        theta_sq_bound=bound,
    )


# ---------------------------------------------------------------------------
# Positive parts and the polynomial H
# ---------------------------------------------------------------------------

def positive_parts(params: FunctionalParams, u: float, v: float):
    """(U, V, sgnU, sgnV): excursions above the bounds and their sign
    flags, with sgn(0) = 0 (the positive-part derivative at the kink)."""
    U = max(u - params.u_bar0, 0.0)
    V = max(v - params.v_bar0, 0.0)
    return U, V, int(U > 0.0), int(V > 0.0)


def _field_parts(params: FunctionalParams, u: np.ndarray, v: np.ndarray):
    U = np.maximum(u - params.u_bar0, 0.0)
    V = np.maximum(v - params.v_bar0, 0.0)
    return U, V, (U > 0.0).astype(float), (V > 0.0).astype(float)


def _below_bounds(params: FunctionalParams, u: np.ndarray, v: np.ndarray,
                  grid: Grid | None = None) -> bool:
    """True when u and v are finite, no node lies above its bound, and
    the weights and binomials that scale the zero factors are finite.

    With a grid, also require every difference quotient of u and v to
    square to a finite number; otherwise I's 0 * inf products give NaN.
    A quotient is at most (max - min) / spacing, and rounding is
    monotone, so a bound on that ratio bounds all of them.
    """
    if not (params.p <= _SAFE_P and math.isfinite(
            params.log_theta0 + params.log_theta1 + params.log_theta)):
        return False
    for f, bar in ((u, params.u_bar0), (v, params.v_bar0)):
        hi = float(f.max())
        if not hi <= bar:               # also false for NaN
            return False
        lo = float(f.min())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return False
        if grid is not None and not (hi - lo) / grid.spacing <= _SAFE_SLOPE:
            return False
    return True


def _binomials(n: int) -> np.ndarray:
    # multiplicative recurrence binom(n, i+1) = binom(n, i)*(n-i)/(i+1)
    c = np.empty(n + 1)
    c[0] = 1.0
    for i in range(n):
        c[i + 1] = c[i] * (n - i) / (i + 1)
    return c


def _h_terms(params: FunctionalParams, U, V):
    """Stack of the p+1 monomial terms of H (any broadcastable shape)."""
    p = params.p
    with np.errstate(over="ignore"):
        thetas = np.exp(params.log_theta_seq())
    binom = _binomials(p)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    i = np.arange(p + 1).reshape((p + 1,) + (1,) * U.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (binom.reshape(i.shape) * thetas.reshape(i.shape)
                 * U[None, ...] ** i * V[None, ...] ** (p - i))
    # 0^0 = 1 keeps the pure-U and pure-V monomials alive; 0 * inf means
    # the excursion is zero and the term vanishes.
    return np.where(np.isnan(terms), 0.0, terms)


def _sum_descending(terms: np.ndarray) -> np.ndarray:
    """Sum the leading axis sequentially in descending magnitude order."""
    order = np.argsort(np.abs(terms), axis=0)[::-1]
    ordered = np.take_along_axis(terms, order, axis=0)
    total = np.zeros(terms.shape[1:])
    for row in ordered:
        total = total + row
    return total


def h_value(params: FunctionalParams, u: float, v: float) -> float:
    """H(u, v); inf flags overflow (or a non-finite input)."""
    if not (math.isfinite(u) and math.isfinite(v)):
        return math.inf
    U, V, _, _ = positive_parts(params, u, v)
    terms = _h_terms(params, np.asarray(U), np.asarray(V))
    return float(_sum_descending(terms))


def _h_field(params: FunctionalParams, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    U, V, _, _ = _field_parts(params, u, v)
    return _sum_descending(_h_terms(params, U, V))


def lyapunov_L(params: FunctionalParams, state, grid: Grid) -> float:
    """L = trapezoid integral of the nodal H values; inf flags overflow
    (or a non-finite field)."""
    u = as_field(state.u, grid)
    v = as_field(state.v, grid)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return math.inf
    if _below_bounds(params, u, v):
        return 0.0
    return integrate(_h_field(params, u, v), grid)


# ---------------------------------------------------------------------------
# Dissipation and reaction diagnostics
# ---------------------------------------------------------------------------

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
    l0 = log_theta_at(params, i)
    l1 = log_theta_at(params, i + 1)
    l2 = log_theta_at(params, i + 2)
    r2 = math.exp(l2 - l1)
    r0 = math.exp(l0 - l1)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = (a * r2 * sgnU * xi ** 2
           + (a + b) * sgnU * sgnV * xi * eta
           + b * r0 * sgnV * eta ** 2)
    return float(out) if out.ndim == 0 else out


def _gradient(f: np.ndarray, h: float) -> np.ndarray:
    # central differences inside, one-sided at the two boundary nodes
    return np.gradient(f, h)


def _normalized_thetas(params: FunctionalParams) -> np.ndarray:
    logs = params.log_theta_seq()
    return np.exp(logs - logs.max())


def dissipation_I(params: FunctionalParams, state, grid: Grid,
                  a: float, b: float) -> float:
    """Discrete dissipation term

        I = -p(p-1) * sum_i binom(p-2, i) * integral T_i * U^i * V^(p-2-i)

    up to the shared positive weight normalization; nonpositive for every
    state whenever the weight conditions hold.
    """
    p = params.p
    if p < 2:
        raise ValueError("dissipation requires p >= 2")
    u = as_field(state.u, grid)
    v = as_field(state.v, grid)
    if math.isfinite(a + b) and _below_bounds(params, u, v, grid):
        return -0.0
    U, V, sU, sV = _field_parts(params, u, v)
    du = _gradient(u, grid.spacing)
    dv = _gradient(v, grid.spacing)
    th = _normalized_thetas(params)
    binom = _binomials(p - 2)
    acc = np.zeros_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(p - 1):
            Ti = (a * th[i + 2] * sU * du ** 2
                  + (a + b) * th[i + 1] * sU * sV * du * dv
                  + b * th[i] * sV * dv ** 2)
            acc += binom[i] * Ti * U ** i * V ** (p - 2 - i)
    return float(-p * (p - 1) * integrate(acc, grid))


def reaction_J(params: FunctionalParams, state, grid: Grid, model,
               rates=None) -> float:
    """Discrete reaction term

        J = p * sum_i binom(p-1, i) * integral
            (theta_{i+1}*sgnU*f + theta_i*sgnV*g) * U^i * V^(p-1-i)

    with the same weight normalization as ``dissipation_I`` (one shared
    positive constant per parameter set): the sign is exact.  ``rates``
    is ``model.rates`` at the state, for a caller that already has it.
    """
    p = params.p
    if p < 1:
        raise ValueError("reaction term requires p >= 1")
    u = as_field(state.u, grid)
    v = as_field(state.v, grid)
    f, g = model.rates(u, v) if rates is None else rates
    if (_below_bounds(params, u, v)
            and np.isfinite(f).all() and np.isfinite(g).all()):
        return 0.0
    U, V, sU, sV = _field_parts(params, u, v)
    th = _normalized_thetas(params)
    binom = _binomials(p - 1)
    acc = np.zeros_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(p):
            acc += (binom[i] * (th[i + 1] * sU * f + th[i] * sV * g)
                    * U ** i * V ** (p - 1 - i))
    return float(p * integrate(acc, grid))
