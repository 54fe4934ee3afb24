"""Sampled condition checking and claim monitoring.

The control-of-mass condition

    f(u, v) <= f(u, v) + mu * g(u, v) <= 0   for u, v >= 0, u + v >= C

is checked on a bounded box [0, edge]^2, sampled once by ``sample_box``:
the kinetics at a deterministic lattice plus an equal number of seeded
uniform points, numpy's ``default_rng(seed).uniform`` bit for bit, drawn
here so that no command imports ``numpy.random``.  The points depend on
(edge, n_per_axis, seed) alone, so consecutive samples of the same box
share one read-only pair of point arrays, and the draw is made once per
seed; only the kinetics are evaluated afresh.
``check_mass_control`` (one mu) and ``search_mu`` (mu = 1, 1/2, ...,
2**-20) share one judging loop, which judges the sample's own arrays
under a mask of the points with u + v >= C, and build one report, for
the mu returned; ``check_g_nonneg`` judges g >= 0 on the lattice.  A
report records the box, the seed, and up to 100 violation witnesses, so
every certificate is explicit about its scope.  Samples where the
kinetics overflow are counted as indeterminate, never as passes.

Once mu = 1 has failed, ``search_mu`` looks for a sure failure.  Where
g >= 0, mu -> fl(f + fl(mu g)) is non-decreasing, since rounding is
monotone.  So a kept point with g >= 0, fl(f + g) finite and
fl(f + 2**-20 g) > 0 has a finite f + mu g > 0 at every mu of the
ladder: no mu passes, and only the last is judged.  The report is the
one the full ladder ends on.

The candidate bounds (u_bar0, v_bar0) are sup-norm bounds:
||u(t)||_inf <= u_bar0 and ||v(t)||_inf <= v_bar0.  A run flags each
state whose sup norms break them, and calls ``monitor_bounds`` once, on
the first flagged state, for the first offending node.
``assemble_claim_report`` folds the run's series into a machine-readable
verdict on whether the bounds held.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .mesh import ParamError, check_nonnegative, check_positive

DEFAULT_SEED = 20240817
MAX_WITNESSES = 100


def report_lines(prefix: str, items: dict, witnesses=()) -> list[str]:
    """The one writer of report lines: ``prefix.key: value`` per entry of
    ``items``, in order, then ``prefix.witness_k: text`` per witness, k
    from 1.  A bool prints as true/false, a str as is, a number by repr."""
    def text(value):
        return (str(value).lower() if isinstance(value, bool) else
                value if isinstance(value, str) else repr(value))
    lines = [f"{prefix}.{key}: {text(value)}" for key, value in items.items()]
    return lines + [f"{prefix}.witness_{k}: {w}"
                    for k, w in enumerate(witnesses, start=1)]


def sampling_seed() -> int:
    """Seed for the random half of the sampling, as the CLI chooses it:
    the integer >= 0 in RD_CERTIFY_SEED when it is set (anything else
    raises ParamError naming ``seed``), DEFAULT_SEED otherwise.  The
    checks themselves never read the environment; they take ``seed``."""
    text = os.environ.get("RD_CERTIFY_SEED")
    if text is None:
        return DEFAULT_SEED
    if not text.strip().isdecimal():
        raise ParamError("seed", "RD_CERTIFY_SEED must be an integer >= 0, "
                         f"got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# Control-of-mass checking
# ---------------------------------------------------------------------------

@dataclass
class MassControlViolation:
    u: float
    v: float
    f: float
    f_plus_mu_g: float
    which: str   # "f_le_f_plus_mu_g" or "f_plus_mu_g_le_0"


@dataclass(frozen=True)
class BoxSample:
    """``model.rates`` at the n_per_axis^2 lattice of [0, edge]^2 (u
    running fastest), then at as many seeded uniform points; f and g
    may hold inf or nan where the kinetics overflow.  u and v are
    read-only: samples of the same box share them, so a caller that
    edits points edits a copy."""
    edge: float
    n_per_axis: int
    seed: int
    u: np.ndarray
    v: np.ndarray
    f: np.ndarray
    g: np.ndarray


# SeedSequence's hash of the seed, then PCG64 (O'Neill 2014): a 128-bit
# LCG with XSL-RR output
_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, step: int):
    """SeedSequence's hashmix of a 32-bit word; each call multiplies its
    hash constant by ``step``."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * step & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    entropy = [seed >> k & _M32
               for k in range(0, max(seed.bit_length(), 1), 32)]

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (entropy + [0] * 3)[:4]]
    for src, dst in ((a, b) for a in range(4) for b in range(4) if a != b):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    words = list(map(_hashmix(0x8B51F9DD, 0x58F38DED), pool * 2))
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


@functools.lru_cache(maxsize=1)
def _uniform(seed: int, count: int) -> np.ndarray:
    """``default_rng(seed).random(count)``, bit for bit, read-only."""
    # seeded from w = (state, stream): inc = 2 * stream + 1, then a step
    # from 0, + state and a step; a draw steps, then outputs
    w = _seed_state(seed)
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    s = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    hi, lo = np.empty(count, np.uint64), np.empty(count, np.uint64)
    high, low = memoryview(hi), memoryview(lo)
    for i in range(count):
        s = (s * _PCG_MULT + inc) & _M128
        high[i] = s >> 64
        low[i] = s & _M64
    x, rot = hi ^ lo, hi >> 58   # XSL-RR: hi ^ lo rotated by the top 6 bits
    out = ((x >> rot | x << (-rot & 63)) >> 11) * 2.0 ** -53
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1)
def _points(edge: float, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    # the box's points, kept for the next sample of the same box; only
    # the last box's pair stays alive
    axis = np.linspace(0.0, edge, n)
    # default_rng(seed).uniform(0.0, edge, (n * n, 2)): 0.0 + edge * d
    rand = edge * _uniform(seed, 2 * n * n)
    u = np.concatenate([np.tile(axis, n), rand[0::2]])
    v = np.concatenate([np.repeat(axis, n), rand[1::2]])
    u.flags.writeable = v.flags.writeable = False
    return u, v


def sample_box(model, edge: float, n_per_axis: int,
               seed: int = DEFAULT_SEED) -> BoxSample:
    """Sample the box and evaluate ``model.rates`` once on every point."""
    check_positive(edge=edge)
    if not n_per_axis >= 2:
        raise ValueError(f"n_per_axis must be >= 2, got {n_per_axis}")
    edge, n, seed = float(edge), int(n_per_axis), int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    u, v = _points(edge, n, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = model.rates(u, v)
    return BoxSample(edge, n, seed, u, v, f, g)


@dataclass
class MassControlReport:
    passed: bool
    mu: float
    C: float
    edge: float
    n_per_axis: int
    seed: int
    samples_tested: int
    samples_indeterminate: int
    violations: list = field(default_factory=list)

    def to_lines(self) -> list[str]:
        return report_lines("mass_control", {
            "passed": self.passed, "mu": self.mu, "C": self.C,
            "box": f"[0,{self.edge!r}]x[0,{self.edge!r}]",
            "n_per_axis": self.n_per_axis, "seed": self.seed,
            "samples_tested": self.samples_tested,
            "samples_indeterminate": self.samples_indeterminate,
            "violations": len(self.violations)},
            (f"u={w.u!r} v={w.v!r} f={w.f!r} f_plus_mu_g={w.f_plus_mu_g!r} "
             f"inequality={w.which}" for w in self.violations))


def _judge(sample: BoxSample, C: float, mus) -> MassControlReport:
    """The one judging loop: judge each mu on the points with u + v >= C
    (a mask on the sample's own arrays), and report the first mu that
    passes (or the last), with witnesses for that mu only.  ``mus``
    descends; after a failed first mu, a sure failure (module
    docstring) skips to the last."""
    check_nonnegative(C=C)
    f, g = sample.f, sample.g
    keep = sample.u + sample.v >= C
    fpm = np.empty(f.shape)    # f + mu*g, one buffer reused for every mu
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            np.multiply(mus[k], g, out=fpm)
            fpm += f
            # a finite f + mu*g (mu > 0) also says f and g are finite
            finite = np.isfinite(fpm) & keep
            first = f > fpm        # fails f <= f + mu*g, i.e. mu*g < 0
            bad = finite & (first | (fpm > 0.0))   # or fails f + mu*g <= 0
            if k == len(mus) - 1 or not bad.any():
                break
            sure = k == 0 and (finite & (g >= 0.0)
                               & (f + mus[-1] * g > 0.0)).any()
            k = len(mus) - 1 if sure else k + 1

    idx = np.flatnonzero(bad)[:MAX_WITNESSES]
    # the witnesses' u, v, f, f + mu*g and test, read out per array
    columns = (a[idx].tolist() for a in (sample.u, sample.v, f, fpm, first))
    violations = [MassControlViolation(
        *floats, "f_le_f_plus_mu_g" if fails_first else "f_plus_mu_g_le_0")
        for *floats, fails_first in zip(*columns)]
    tested = int(np.count_nonzero(finite))
    return MassControlReport(
        passed=not violations, mu=float(mus[k]), C=float(C),
        edge=sample.edge, n_per_axis=sample.n_per_axis, seed=sample.seed,
        samples_tested=tested,
        # keep & ~finite, as finite lies inside keep
        samples_indeterminate=int(np.count_nonzero(keep)) - tested,
        violations=violations)


def check_mass_control(sample: BoxSample, C: float,
                       mu: float) -> MassControlReport:
    """Judge f <= f + mu*g <= 0 on the sample's points with u + v >= C.

    ``passed`` is True exactly when no violation was found among the
    finite samples; overflowing samples are reported as indeterminate.
    """
    check_positive(mu=mu)
    return _judge(sample, C, [mu])


def search_mu(sample: BoxSample, C: float) -> MassControlReport:
    """Fallback when a model claims no mu: judge the sample at mu = 1,
    1/2, ..., 2**-20 and return the report of the largest passing value
    (or the last, fully failed attempt when none passes)."""
    return _judge(sample, C, [2.0 ** -k for k in range(21)])


@dataclass
class GNonNegReport:
    passed: bool
    edge: float
    samples_tested: int
    samples_indeterminate: int
    violations: list = field(default_factory=list)   # (u, v, g) triples

    def to_lines(self) -> list[str]:
        return report_lines("g_nonneg", {
            "passed": self.passed,
            "box": f"[0,{self.edge!r}]x[0,{self.edge!r}]",
            "samples_tested": self.samples_tested,
            "samples_indeterminate": self.samples_indeterminate,
            "violations": len(self.violations)},
            (f"u={u!r} v={v!r} g={g!r}" for u, v, g in self.violations))


def check_g_nonneg(sample: BoxSample) -> GNonNegReport:
    """Judge g >= 0 on the sample's lattice points."""
    n = sample.n_per_axis ** 2
    u, v, g = sample.u[:n], sample.v[:n], sample.g[:n]
    finite = np.isfinite(g)
    bad = np.flatnonzero(finite & (g < 0.0))[:MAX_WITNESSES]
    # the witnesses' (u, v, g), read out per array
    violations = list(zip(*(a[bad].tolist() for a in (u, v, g))))
    tested = int(np.count_nonzero(finite))
    return GNonNegReport(
        passed=not violations, edge=sample.edge, samples_tested=tested,
        samples_indeterminate=n - tested, violations=violations)


def default_box(C: float, u_bar0: float, v_bar0: float) -> float:
    """Default sampling box edge: max(2C, 10, 2 u_bar0, 2 v_bar0).

    Raises ParamError naming ``C``, ``u0`` or ``v0`` (the data behind
    the bound) when doubling it leaves the finite range.
    """
    for name, value in (("C", C), ("u0", u_bar0), ("v0", v_bar0)):
        if not math.isfinite(2.0 * value):
            raise ParamError(name, f"the sampling box edge 2 * {value!r} "
                             "overflows")
    return max(2.0 * C, 10.0, 2.0 * u_bar0, 2.0 * v_bar0)


# ---------------------------------------------------------------------------
# Bound monitoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundEvent:
    t: float
    node: int
    field: str     # "u" or "v"
    value: float
    bound: float

    @property
    def exceedance(self) -> float:
        return abs(self.value) - self.bound


def monitor_bounds(state, u_bar0: float, v_bar0: float) -> BoundEvent | None:
    """First node (u scanned before v) whose absolute value is strictly
    above its bound, or None.

    Bounds are non-strict: a value equal to the bound is not an event.
    The event keeps the signed nodal value.
    """
    for name, values, bound in (("u", state.u, u_bar0), ("v", state.v, v_bar0)):
        values = np.asarray(values)
        over = np.abs(values) > bound
        if over.any():
            idx = int(np.argmax(over))
            return BoundEvent(t=float(state.t), node=idx, field=name,
                              value=float(values[idx]), bound=float(bound))
    return None


@dataclass
class ClaimReport:
    bound_u_held: bool
    bound_v_held: bool
    first_violation: BoundEvent | None
    J_sign_history: np.ndarray
    L_max: float

    def to_lines(self) -> list[str]:
        signs, w = self.J_sign_history, self.first_violation
        return report_lines("claim", {
            "bound_u_held": self.bound_u_held,
            "bound_v_held": self.bound_v_held, "L_max": self.L_max,
            "J_sign_counts": f"neg={(signs < 0).sum()} zero="
                             f"{(signs == 0).sum()} pos={(signs > 0).sum()}",
            "first_violation": "none" if w is None else
                f"t={w.t!r} node={w.node} field={w.field} value={w.value!r} "
                f"bound={w.bound!r} exceedance={w.exceedance!r}"})


def assemble_claim_report(series) -> ClaimReport:
    """Fold a run's series into a ClaimReport.

    The per-field flags come from the sup-norm columns against the
    bounds stored on the series, the rule of its flag column; the first
    violation is the one the series recorded.
    """
    bound_u_held = not bool(np.any(series.sup_u > series.u_bar0))
    bound_v_held = not bool(np.any(series.sup_v > series.v_bar0))
    return ClaimReport(
        bound_u_held=bound_u_held,
        bound_v_held=bound_v_held,
        first_violation=series.first_violation,
        J_sign_history=np.sign(series.J),
        L_max=float(np.max(series.L)) if len(series) else 0.0,
    )
