"""Weighted positive-part functionals for monitoring uniform bounds.

Given candidate bounds (u_bar0, v_bar0) and positive weights
theta_0..theta_p with constant second-order ratio
theta_i * theta_{i+2} / theta_{i+1}^2 = theta^2, the functional

    L(t) = integral of H(u, v),
    H(u, v) = sum_i binom(p, i) * theta_i * U^i * V^(p-i),
    U = (u - u_bar0)_+,   V = (v - v_bar0)_+,

vanishes exactly while the solution stays below the bounds and grows as
soon as either field exceeds them.  Along a solution

    dL/dt = kappa * (I + J) + K,   kappa = max_i theta_i,

with a dissipation part I (a weighted integral of the gradient
quadratics T_i, nonpositive whenever theta^2 > (a+b)^2/(4ab)), a
reaction part J, and a level-set term K <= 0 from the crossings of
u = u_bar0 and v = v_bar0, where the monomials theta_1 U V^(p-1) and
theta_(p-1) U^(p-1) V are only continuous.  So dL/dt <= kappa (I + J),
while I alone is not the dissipation rate.  This module builds the
weight sequence in the log domain (theta_i grows like theta^(i*(i-1)),
far past double precision for large p), checks the structural
conditions, and evaluates L, I, J as discrete diagnostics: I and J are
reported divided by kappa (the weights are rescaled by their maximum),
so they stay representable, with exact signs and zero sets unless a
large theta or p log theta underflows a rescaled weight to 0 (theta =
1e100 at p = 4 zeroes I and J above the bounds).

A ``FunctionalParams`` is the functional for one diffusion pair (a, b),
which it holds: construction is the one site of every rule on a, b, p,
theta, mu and C, so every instance meets the weight conditions for its
pair, and the functions here read the pair from it.

``diagnostics_block`` gives L, I and J of a block of states in one
pass, with one gate per state: while the fields are finite, no node
lies above its bound, every difference quotient squares to a finite
number and the rates are finite, every term has a zero factor that
meets no inf (a + b is finite for every instance), so the state gets
L = 0.0, I = -0.0 (-p(p-1) times a zero integral, ``-0`` in the CSV)
and J = 0.0 without the sums.  The other states get the full sums of
all three, as one block, which keep their inf and NaN results.  Each
state's numbers are bit for bit those of ``diagnostics``, the same
function on a block of one.  The weights and binomials are derived from
the fields of ``FunctionalParams`` on each access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import (Grid, ParamError, as_field, check_finite_data,
                   check_nonnegative, check_positive, integrate, sup_norm)

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
    """The functional for one diffusion pair: the pair (a, b), degree p,
    ratio theta, the mass-control constants mu and C, and the candidate
    bounds derived from the initial data.  The first two weights are
    theta_0 = mu/2 and theta_1 = 1, so theta_0/theta_1 < mu.

    Construction is the one site of the rules on a, b, p, theta, mu and
    C, checked in this order: a, b and mu finite and > 0, C finite and
    >= 0, a default theta^2 = 1.1 (a+b)^2/(4ab) that is finite (else
    the error names whichever of a and b lies farther from 1 in log
    scale), theta > 1, mu/2 not underflowing to 0, an integer p in
    [2, 1000], a finite theta^2, and theta^2 > (a+b)^2/(4ab); a
    violation raises ParamError naming the parameter.  So every
    instance passes ``check_conditions``, and its weights, binomials
    and a + b are finite.  Those constants are properties, derived from
    the fields on each access, so they cannot go stale under
    ``dataclasses.replace``.
    """

    a: float
    b: float
    p: int
    theta: float
    mu: float
    C: float
    u_bar0: float
    v_bar0: float

    def __post_init__(self):
        check_positive(a=self.a, b=self.b, mu=self.mu)
        check_nonnegative(C=self.C)
        bound = self.theta_sq_bound
        if not 1.1 * bound < math.inf:
            far_a = abs(math.log(self.a)) >= abs(math.log(self.b))
            raise ParamError("a" if far_a else "b",
                             f"the diffusion pair a = {self.a}, b = {self.b} "
                             "has no finite default theta^2 = 1.1 (a+b)^2/(4ab)")
        if not self.theta > 1.0:
            raise ParamError("theta", f"theta must be > 1, got {self.theta}")
        if not self.mu / 2.0 > 0:
            raise ParamError("mu", f"mu = {self.mu} is too small: the first "
                             "weight theta0 = mu/2 underflows to 0")
        if not (isinstance(self.p, int) and 2 <= self.p <= _SAFE_P):
            raise ParamError("p", f"p must be an integer in [2, {_SAFE_P}], "
                             f"got {self.p}")
        # theta * theta is inf where theta ** 2 would raise OverflowError
        if not math.isfinite(self.theta * self.theta):
            raise ParamError("theta", f"theta^2 must be finite, got theta = "
                             f"{self.theta}")
        if not self.theta ** 2 > bound:
            raise ParamError("theta", f"theta^2 = {self.theta ** 2} violates "
                             f"the condition theta^2 > (a+b)^2/(4ab) = {bound}")

    @property
    def theta_sq_bound(self) -> float:
        """(a+b)^2/(4ab): theta^2 must exceed it for T_i to be semidefinite."""
        return _theta_sq_bound(self.a, self.b)

    @property
    def log_theta(self) -> float:
        return math.log(self.theta)

    def log_theta_seq(self) -> np.ndarray:
        """log theta_i for i = 0..p from the closed form
        log theta_i = (1 - i) log theta_0 + i*(i-1)*log theta,
        with log theta_0 = log(mu/2) and log theta_1 = 0."""
        i = np.arange(self.p + 1, dtype=float)
        log_theta0 = math.log(self.mu / 2.0)
        return log_theta0 - i * log_theta0 + i * (i - 1.0) * self.log_theta

    @property
    def weights(self) -> np.ndarray:
        """theta_0..theta_p; a weight past double precision is inf."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_theta_seq())

    @property
    def normalized_weights(self) -> np.ndarray:
        """theta_i / max theta: the positive scaling I and J share."""
        logs = self.log_theta_seq()
        return np.exp(logs - logs.max())

    @property
    def binomials(self) -> dict:
        """binom(n, i) for i = 0..n, keyed by the degree n in p, p-1, p-2,
        from the recurrence binom(n, i+1) = binom(n, i)*(n-i)/(i+1)."""
        table = {}
        for n in (self.p, self.p - 1, self.p - 2):
            c = np.ones(n + 1)
            for i in range(n):
                c[i + 1] = c[i] * (n - i) / (i + 1)
            table[n] = c
        return table


def _theta_sq_bound(a: float, b: float) -> float:
    """(a+b)^2/(4ab), or inf where it overflows or 4ab underflows to 0."""
    try:
        return (a + b) ** 2 / (4.0 * a * b)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def build_params(a: float, b: float, mu: float, C: float, p: int,
                 u0, v0, theta: float | None = None) -> FunctionalParams:
    """The functional for the pair (a, b), with the candidate bounds
    max(C, sup u0) and max(C, sup v0) of finite initial data (else
    ParamError naming ``u0`` or ``v0``).  theta defaults to
    sqrt(1.1 * max((a+b)^2/(4ab), 1)); every other rule is
    ``FunctionalParams``'s.
    """
    check_finite_data(u0, v0)
    if theta is None:
        theta = math.sqrt(1.1 * max(_theta_sq_bound(a, b), 1.0))
    return FunctionalParams(a=a, b=b, p=p, theta=float(theta), mu=mu,
                            C=float(C), u_bar0=max(float(C), sup_norm(u0)),
                            v_bar0=max(float(C), sup_norm(v0)))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three structural checks on the weights."""

    theta_condition_ok: bool      # theta^2 > (a+b)^2/(4ab)
    recurrence_ok: bool           # |log residual| <= scaled RECURRENCE_TOL
    recurrence_residual: float
    mu_condition_ok: bool         # theta_i/theta_{i+1} < mu for all i

    @property
    def passed(self) -> bool:
        return (self.theta_condition_ok and self.recurrence_ok
                and self.mu_condition_ok)


def check_conditions(params: FunctionalParams) -> ConditionReport:
    """Verify the weight conditions for the functional's diffusion pair."""
    logs = params.log_theta_seq()
    resid = logs[:-2] + logs[2:] - 2.0 * logs[1:-1] - 2.0 * params.log_theta
    residual = float(np.max(np.abs(resid)))
    tol = RECURRENCE_TOL * max(1.0, float(np.max(np.abs(logs))))
    log_mu = math.log(params.mu)
    mu_ok = bool(np.all(logs[:-1] - logs[1:] < log_mu))
    return ConditionReport(
        theta_condition_ok=params.theta ** 2 > params.theta_sq_bound,
        recurrence_ok=residual <= tol,
        recurrence_residual=residual,
        mu_condition_ok=mu_ok,
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


def quadratic_Ti(params: FunctionalParams, i: int, sgnU, sgnV, xi, eta):
    """The gradient quadratic, for the functional's pair (a, b),

        a*theta_{i+2}*sgnU*xi^2 + (a+b)*theta_{i+1}*sgnU*sgnV*xi*eta
        + b*theta_i*sgnV*eta^2

    evaluated with the weights divided by theta_{i+1} (a positive
    scaling, so the sign is exact while the factors stay representable).
    Accepts scalars or arrays for xi, eta.
    """
    if not 0 <= i <= params.p - 2:
        raise IndexError(f"quadratic index {i} outside 0..{params.p - 2}")
    l0, l1, l2 = params.log_theta_seq()[i:i + 3]
    out = _quadratic(params.a, params.b, math.exp(l0 - l1), 1.0,
                     math.exp(l2 - l1), sgnU, sgnV,
                     np.asarray(xi, dtype=float), np.asarray(eta, dtype=float))
    return float(out) if out.ndim == 0 else out


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Add terms[0], terms[1], ... one at a time, in order, to +0.0."""
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def diagnostics(params: FunctionalParams, state, grid: Grid,
                rates) -> tuple[float, float, float]:
    """(L, I, J) of one state; ``rates`` is ``model.rates`` at the state.

    L is the trapezoid integral of the nodal H values (inf flags overflow
    or a non-finite field), and

        I = -p(p-1) * sum_i binom(p-2, i) * integral T_i * U^i * V^(p-2-i),
        J = p * sum_i binom(p-1, i) * integral
            (theta_{i+1}*sgnU*f + theta_i*sgnV*g) * U^i * V^(p-1-i)

    with the weights divided by their maximum (one shared positive
    constant per parameter set, so the signs are exact while no divided
    weight underflows to 0); I is nonpositive for every state whenever
    the weight conditions hold.
    This is ``diagnostics_block`` on a block of one state.
    """
    fields = np.array([(as_field(state.u, grid), as_field(state.v, grid))])
    stacked = np.empty_like(fields)
    stacked[0, 0], stacked[0, 1] = rates
    L, I, J = diagnostics_block(params, grid, fields, stacked)
    return float(L[0]), float(I[0]), float(J[0])


def diagnostics_block(params: FunctionalParams, grid: Grid, fields,
                      rates) -> np.ndarray:
    """Rows (L, I, J) of a block of k states: ``fields[j]`` is the pair
    (u, v) of state j and ``rates[j]`` the pair (f, g) there, each of
    shape (k, 2, n_nodes).

    Every state gets the bits of ``diagnostics`` on that state alone:
    every element goes through the same operations in the same order,
    and the one power with an array of exponents (L's table U^i,
    V^(p-i)) runs one inner loop per state and exponent, as for a single
    state.
    """
    fields = np.asarray(fields, dtype=float)
    rates = np.asarray(rates, dtype=float)
    out = np.zeros((3, len(fields)))
    out[1] = -0.0
    # the reductions call the ufuncs' own: ndarray.all/max/min go through
    # numpy's Python wrappers first
    with np.errstate(over="ignore", invalid="ignore"):
        # NaN propagates into min and max, and a difference quotient is
        # at most (max - min) / spacing, so two reductions screen a pair:
        # a finite spread also says that both fields are finite
        lo = np.minimum.reduce(fields, axis=2)
        hi = np.maximum.reduce(fields, axis=2)
        # below the bounds every term has a zero factor; the sums give
        # these signed zeros unless a zero factor meets an inf, which a
        # slope that squares past double precision or the rates could
        # bring (a + b is finite for every instance)
        spread = np.maximum.reduce(hi - lo, axis=1)
        gated = spread / grid.spacing <= _SAFE_SLOPE
        gated &= np.logical_and.reduce(hi <= (params.u_bar0, params.v_bar0),
                                       axis=1)
        gated &= np.logical_and.reduce(np.isfinite(rates), axis=(1, 2))
        n_gated = np.count_nonzero(gated)
        if n_gated == len(gated):
            return out
        # the rows that get the sums: all of them, unless some are gated
        rows = slice(None)
        if n_gated:
            rows = np.flatnonzero(~gated)
            fields, rates = fields[rows], rates[rows]
            lo, hi = lo[rows], hi[rows]
        u, v = fields[:, 0], fields[:, 1]
        f, g = rates[:, 0], rates[:, 1]
        finite = np.logical_and.reduce(np.isfinite(lo) & np.isfinite(hi),
                                       axis=1)

        p, binomials = params.p, params.binomials
        U = np.maximum(u - params.u_bar0, 0.0)
        V = np.maximum(v - params.v_bar0, 0.0)
        L = np.full(len(fields), math.inf)
        if np.logical_or.reduce(finite):
            Uf, Vf = U[finite, None], V[finite, None]
            i = np.arange(p + 1)[:, None]
            terms = (binomials[p][:, None] * params.weights[:, None]
                     * Uf ** i * Vf ** (p - i))
            # 0^0 = 1 keeps the pure-U and pure-V monomials alive; 0 * inf
            # means a zero excursion.  The terms are then >= 0, summed
            # largest first.
            terms = np.where(np.isnan(terms), 0.0, terms)
            ordered = np.sort(terms, axis=1)[:, ::-1]
            L[finite] = integrate(_sum_rows(ordered.swapaxes(0, 1)), grid)
        out[0, rows] = L

        # I and J share the rows U^i, V^i for i < p, each ``U ** i`` with
        # an int i (an array of exponents, as in L, can differ in the last
        # bit), and the flags with sgn(0) = 0, the positive-part derivative
        # at the kink.  Axis 0 of each array is the term: every element
        # goes through the operations of the term-by-term sum, in order.
        sU, sV = (U > 0.0).astype(float), (V > 0.0).astype(float)
        th = params.normalized_weights[:, None, None]
        du, dv = _slopes(fields, grid.spacing).swapaxes(0, 1)
        Upow = np.array([U ** k for k in range(p)])
        Vpow = np.array([V ** k for k in range(p)])
        T = _quadratic(params.a, params.b, th[:-2], th[1:-1], th[2:], sU, sV,
                       du, dv)
        I_sum = _sum_rows(binomials[p - 2][:, None, None] * T
                          * Upow[:p - 1] * Vpow[p - 2::-1])
        J_sum = _sum_rows(binomials[p - 1][:, None, None]
                          * (th[1:] * sU * f + th[:-1] * sV * g)
                          * Upow * Vpow[::-1])
        out[1, rows] = -p * (p - 1) * integrate(I_sum, grid)
        out[2, rows] = p * integrate(J_sum, grid)
        return out


def _slopes(fields: np.ndarray, spacing: float) -> np.ndarray:
    """The difference quotients of ``fields`` along its last axis, bit for
    bit those of ``np.gradient(fields, spacing, axis=-1)``: central in
    the interior, one-sided (edge order 1) at the two ends, each the
    same subtraction and division in the same order, without the
    wrapper's argument handling."""
    slopes = np.empty_like(fields)
    np.subtract(fields[..., 2:], fields[..., :-2], out=slopes[..., 1:-1])
    slopes[..., 1:-1] /= 2.0 * spacing
    np.subtract(fields[..., 1], fields[..., 0], out=slopes[..., 0])
    np.subtract(fields[..., -1], fields[..., -2], out=slopes[..., -1])
    slopes[..., ::slopes.shape[-1] - 1] /= spacing
    return slopes


# The three quantities one at a time.  Nothing in the library calls
# these; they stay because bench/tracer.py wraps them by name.

def lyapunov_L(params: FunctionalParams, state, grid: Grid) -> float:
    """L of ``diagnostics``."""
    return diagnostics(params, state, grid, (0.0, 0.0))[0]


def dissipation_I(params: FunctionalParams, state, grid: Grid) -> float:
    """I of ``diagnostics``."""
    return diagnostics(params, state, grid, (0.0, 0.0))[1]


def reaction_J(params: FunctionalParams, state, grid: Grid, model) -> float:
    """J of ``diagnostics``, with the rates of ``model`` at the state."""
    rates = model.rates(as_field(state.u, grid), as_field(state.v, grid))
    return diagnostics(params, state, grid, rates)[2]
