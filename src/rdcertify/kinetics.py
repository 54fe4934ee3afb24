"""Catalog of reaction pairs (f, g) for two-species systems.

Growth laws F, G feed the absorption-type model

    f(u, v) = -u * F(v),      g(u, v) = u * G(v),

the combustion model uses f = -u^m e^v, g = u^m e^v, and ``BlowupExample``
is the polynomial pair f = (u - u^2) v^2, g = u v^2 whose solutions
diverge in finite time.  Each catalog entry carries the constants
(claimed_C, claimed_mu) it claims for the control-of-mass inequality
f <= f + mu*g <= 0 on u + v >= C; those claims are checked elsewhere
(see ``rdcertify.verify``), never assumed.

Growth laws can vastly exceed double precision (e^(e^s) overflows near
s = 6.565), so a law is defined by its log, ``log_value``, which stays
finite there and is used wherever only ratios matter; its ``value``
overflows to inf, flagged downstream rather than raised.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import ParamError, check_positive


# ---------------------------------------------------------------------------
# Growth laws
# ---------------------------------------------------------------------------

class GrowthFunction:
    """Scalar growth law s >= 0 -> F(s), defined by its log.

    Subclasses implement ``log_value`` (log F(s); -inf where F(s) <= 0).
    ``value`` is its exponential, overflowing to inf, unless a law
    computes F directly (``Power``, ``DoubleExpMinusPoly``).
    """

    def value(self, s):
        with np.errstate(over="ignore"):
            return np.exp(self.log_value(s))

    def log_value(self, s):
        raise NotImplementedError


class Power(GrowthFunction):
    """F(s) = s**beta, 0 < beta < inf."""

    def __init__(self, beta: float):
        self.beta = float(beta)
        check_positive(beta=self.beta)

    def value(self, s):
        with np.errstate(over="ignore"):
            return np.asarray(s, dtype=float) ** self.beta

    def log_value(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return self.beta * np.log(s)


class Exp(GrowthFunction):
    """F(s) = e**s."""

    def log_value(self, s):
        return np.asarray(s, dtype=float) + 0.0


class SubExp(GrowthFunction):
    """F(s) = e**(s**gamma), 0 < gamma < 1 (sub-exponential growth)."""

    def __init__(self, gamma: float):
        self.gamma = float(gamma)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")

    def log_value(self, s):
        return np.asarray(s, dtype=float) ** self.gamma


class DoubleExp(GrowthFunction):
    """F(s) = e**(e**s); representable only up to s ~ 6.565."""

    def log_value(self, s):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(s, dtype=float))


def _horner(c, s):
    """sum c[k] s**k by Horner's rule, the operations of numpy.polynomial's
    polyval"""
    p = c[-1] + s * 0
    for ck in reversed(c[:-1]):
        p = ck + p * s
    return p


class DoubleExpMinusPoly(GrowthFunction):
    """F(s) = e**(e**s) - P(s) for a polynomial P.

    ``coeffs[k]`` is the coefficient of s**k.  The log value is computed
    as e**s + log1p(-P(s) * e**(-e**s)) so the double exponential never
    has to be materialized; where P(s) >= e**(e**s) the value is not
    positive and log_value returns -inf.  Where P(s) itself overflows,
    the sign of F is decided in the log domain, by comparing log|P(s)|
    with e**s.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("coeffs must contain at least one coefficient")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"coeffs must be finite, got {self.coeffs}")

    def _poly(self, s):
        return _horner(self.coeffs, s)

    def _poly_in_F(self, s):
        """P(s), with P(0) at s = inf: F(inf) = +inf for every P, but
        Horner's P(inf) is inf * 0 or inf - inf, which makes F NaN."""
        return self._poly(np.where(s == np.inf, 0.0, s))

    def _log_abs_poly(self, s):
        """log|P(s)| and the sign of P(s) at finite s, without overflow:
        P(s) = c * sum (c_k / c) s**k for |s| <= 1, and c * s**d * sum
        (c_k / c) s**(k - d) for |s| > 1, with c = max |c_k| and d the
        degree, so neither sum exceeds d + 1 in size."""
        c = max(map(abs, self.coeffs))
        scaled = [ck / c for ck in self.coeffs]
        d = len(scaled) - 1
        far = np.abs(s) > 1.0
        x = np.where(far, 1.0 / s, s)
        h = np.where(far, _horner(scaled[::-1], x), _horner(scaled, x))
        log_abs = math.log(c) + np.where(far, d * np.log(np.abs(s)), 0.0)
        sign = np.where(far, np.sign(s) ** d, 1.0) * np.sign(h)
        return log_abs + np.log(np.abs(h)), sign

    def value(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(np.exp(s)) - self._poly_in_F(s)

    def log_value(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            e = np.exp(s)
            p = self._poly_in_F(s)
            rel = p * np.exp(-e)   # P(s) / e^(e^s)
            corr = np.where(rel < 1.0, np.log1p(-np.minimum(rel, 1.0)), -np.inf)
            # where P(s) overflows rel is inf * 0 = NaN: with t = log|P(s)|
            # - e^s, F = e^(e^s) (1 - e^t) for P > 0 and e^(e^s) (1 + e^t)
            # for P < 0
            over = np.isinf(p)
            if over.any():
                log_abs, sign = self._log_abs_poly(s[over])
                t = log_abs - e[over]
                corr[over] = np.where(
                    sign > 0.0,
                    np.where(t < 0.0, np.log1p(-np.exp(t)), -np.inf),
                    np.logaddexp(0.0, t))
        return e + corr


# kind -> constructor taking the comma-separated arguments as strings
_GROWTH_KINDS = {
    "power": Power,
    "exp": Exp,
    "subexp": SubExp,
    "doubleexp": DoubleExp,
    "doubleexp-poly": lambda *coeffs: DoubleExpMinusPoly(coeffs),
}


def growth_from_spec(text: str) -> GrowthFunction:
    """Build a growth law from its config string, e.g. ``power:2.0``.

    Raises ValueError for an unknown kind or a wrong argument list
    (``exp`` and ``doubleexp`` take none).
    """
    kind, sep, arg = text.strip().partition(":")
    if kind not in _GROWTH_KINDS:
        raise ValueError(
            f"unknown growth function {text!r}; expected one of "
            f"{sorted(_GROWTH_KINDS)}"
        )
    args = arg.split(",") if sep else []
    try:
        return _GROWTH_KINDS[kind](*args)
    except TypeError:        # the constructor rejected the argument count
        raise ValueError(f"wrong number of arguments in growth function "
                         f"{text!r}") from None


# ---------------------------------------------------------------------------
# Reaction models
# ---------------------------------------------------------------------------

class ReactionModel:
    """A reaction pair (f, g) plus the control-of-mass constants it claims.

    Extension point: user models subclass this and implement ``rates``;
    f and g must be continuously differentiable on u, v >= 0 with
    f(0, v) = 0 and g(u, 0) >= 0 so positivity of trajectories is
    preserved.  ``claimed_C``/``claimed_mu`` may be None when the model
    claims no control-of-mass constants.
    """

    claimed_C: float | None = None
    claimed_mu: float | None = None

    def rates(self, u, v):
        """Vectorized (f, g) without domain checks; may overflow to inf.

        Must be pointwise: f and g at a node depend on u and v at that
        node alone, on arrays of any shape, so that a stack of fields
        (k, n) gets each row's own (f, g), bit for bit.  The integrator
        calls it on such stacks; a model that reads ``len(u)``, ``u[0]``
        or ``u.mean()`` gets other numbers there.  It must not write
        into u or v, which may be views of the integrator's workspace."""
        raise NotImplementedError


def _fields(u, v):
    # u and v as float arrays of one shape, so that one mask of u serves
    # both of Absorption's products and the pair (u - u^2, u) can be
    # stacked on a new first axis
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    return u, v


class Absorption(ReactionModel):
    """f = -u F(v), g = u G(v): species u consumed, v produced.

    The claimed constants are C = A, mu = lam, where A is the threshold
    ``find_threshold_A`` samples on its fixed grid of [0, 10]: past A the
    ratio F/G stays above lam.  When that search fails the model claims
    nothing; it refuses a lam outside (0, 1).
    """

    def __init__(self, F: GrowthFunction, G: GrowthFunction, lam: float = 0.5):
        self.F = F
        self.G = G
        self.lam = float(lam)
        A = find_threshold_A(F, G, self.lam)
        if A is not None:
            self.claimed_C, self.claimed_mu = A, self.lam

    def rates(self, u, v):
        u, v = _fields(u, v)
        # u F(v) and u G(v), each 0 where u is (0 * inf = 0), under one
        # mask; a product, or F(v) - P(v), may overflow to inf or inf -
        # inf.  Two products, not one on a stacked (2, n) pair: every
        # temporary stays one field in size, below glibc's 128 KiB mmap
        # threshold at a sampled box's 8,192 points, so a process that
        # checks many claims reuses heap memory instead of mapping and
        # faulting in fresh pages on every claim
        zero = u == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            uF = np.where(zero, 0.0, u * self.F.value(v))
            uG = np.where(zero, 0.0, u * self.G.value(v))
        return -uF, uG


class Combustion(ReactionModel):
    """Exothermic combustion: f = -u^m e^v, g = u^m e^v (u is the
    reactant concentration, v the temperature).  f + g = 0 identically,
    and the pair claims C = 0, mu = 1/2."""

    claimed_C = 0.0
    claimed_mu = 0.5

    def __init__(self, m: int = 1):
        if not (isinstance(m, int) and m >= 1):
            raise ParamError("m", f"m must be a positive integer, got {m}")
        self.m = m

    def rates(self, u, v):
        u, v = _fields(u, v)
        with np.errstate(over="ignore", invalid="ignore"):
            um = u ** self.m
            g = np.where(um == 0.0, 0.0, um * np.exp(v))   # 0 * inf = 0
        return -g, g


class BlowupExample(ReactionModel):
    """f = (u - u^2) v^2, g = u v^2.

    Polynomial kinetics with f > 0 on 0 < u < 1, v > 0, so no constants
    (C, mu) can satisfy the control-of-mass inequality; solutions with
    1/2 <= u0 <= 1 blow up in finite time.  Claims nothing.
    """

    def rates(self, u, v):
        u, v = _fields(u, v)
        # f and g in one pass, each 0 where its factor of v^2 is, at
        # u = 1 as at u = 0 (0 * inf = 0).  One stack, which keeps the
        # integrator's per-trial calls on small grids cheap; it has at
        # least one axis, so it is multiplied by v^2 and zeroed in
        # place, and a call on a sampled box's points builds one (2, n)
        # array, not two (see Absorption.rates for why that counts)
        with np.errstate(over="ignore", invalid="ignore"):
            fg = np.array((u - u * u, u))
            zero = fg == 0.0
            fg *= v * v
        fg[zero] = 0.0
        return fg


# ---------------------------------------------------------------------------
# Threshold search for the ratio F/G
# ---------------------------------------------------------------------------

# the samples find_threshold_A tests, built once and read-only
_THRESHOLD_GRID = np.linspace(0.0, 10.0, 2001)
_THRESHOLD_GRID.flags.writeable = False


def find_threshold_A(F: GrowthFunction, G: GrowthFunction, lam: float):
    """Smallest sampled A with F(s)/G(s) > lam for every sample in (A, 10],
    on the fixed grid of 2,001 points of [0, 10].

    The ratio test runs entirely in the log domain (log F - log G >
    log lam), so F and G may individually overflow where their ratio is
    benign.  Returns None when the tail condition fails at s = 10 or the
    log ratio is unrepresentable there.  A lam outside (0, 1) raises
    ParamError naming ``lam``.
    """
    if not 0.0 < lam < 1.0:
        raise ParamError("lam", f"lam must lie in (0, 1), got {lam}")
    s = _THRESHOLD_GRID
    with np.errstate(invalid="ignore"):
        log_ratio = F.log_value(s) - G.log_value(s)
        ok = log_ratio > math.log(lam)        # NaN compares False
    if not ok[-1]:
        return None
    failed = np.flatnonzero(~ok)
    if failed.size == 0:
        return float(s[0])
    return float(s[failed[-1]])
