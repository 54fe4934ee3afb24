"""Sampled condition checking and claim monitoring.

The control-of-mass condition

    f(u, v) <= f(u, v) + mu * g(u, v) <= 0   for u, v >= 0, u + v >= C

is checked on a bounded box [0, edge]^2, sampled once by ``sample_box``:
the kinetics at a deterministic lattice plus an equal number of seeded
uniform points.  ``check_mass_control`` (one mu) and ``search_mu`` (mu =
1, 1/2, ..., 2**-20) share one judging loop and build one report, for
the mu returned; ``check_g_nonneg`` judges g >= 0 on the lattice.  A
report records the box, the seed, and up to 100 violation witnesses, so
every certificate is explicit about its scope.  Samples where the
kinetics overflow are counted as indeterminate, never as passes.

The candidate bounds (u_bar0, v_bar0) are sup-norm bounds:
||u(t)||_inf <= u_bar0 and ||v(t)||_inf <= v_bar0.  A run flags each
state whose sup norms break them, and calls ``monitor_bounds`` once, on
the first flagged state, for the first offending node.
``assemble_claim_report`` folds the run's series into a machine-readable
verdict on whether the bounds held.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .mesh import ParamError

DEFAULT_SEED = 20240817
MAX_WITNESSES = 100


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

@dataclass(frozen=True)
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
    may hold inf or nan where the kinetics overflow."""
    edge: float
    n_per_axis: int
    seed: int
    u: np.ndarray
    v: np.ndarray
    f: np.ndarray
    g: np.ndarray


def sample_box(model, edge: float, n_per_axis: int,
               seed: int = DEFAULT_SEED) -> BoxSample:
    """Sample the box and evaluate ``model.rates`` once on every point."""
    if not edge > 0:
        raise ValueError(f"the box edge must be > 0, got {edge}")
    if not n_per_axis >= 2:
        raise ValueError(f"n_per_axis must be >= 2, got {n_per_axis}")
    n, seed = int(n_per_axis), int(seed)
    axis = np.linspace(0.0, edge, n)
    rand = np.random.default_rng(seed).uniform(0.0, edge, size=(n * n, 2))
    u = np.concatenate([np.tile(axis, n), rand[:, 0]])
    v = np.concatenate([np.repeat(axis, n), rand[:, 1]])
    with np.errstate(over="ignore", invalid="ignore"):
        f, g = model.rates(u, v)
    return BoxSample(float(edge), n, seed, u, v, f, g)


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
        prefix = "mass_control"
        lines = [
            f"{prefix}.passed: {str(self.passed).lower()}",
            f"{prefix}.mu: {self.mu!r}",
            f"{prefix}.C: {self.C!r}",
            f"{prefix}.box: [0,{self.edge!r}]x[0,{self.edge!r}]",
            f"{prefix}.n_per_axis: {self.n_per_axis}",
            f"{prefix}.seed: {self.seed}",
            f"{prefix}.samples_tested: {self.samples_tested}",
            f"{prefix}.samples_indeterminate: {self.samples_indeterminate}",
            f"{prefix}.violations: {len(self.violations)}",
        ]
        for k, w in enumerate(self.violations, start=1):
            lines.append(
                f"{prefix}.witness_{k}: u={w.u!r} v={w.v!r} f={w.f!r} "
                f"f_plus_mu_g={w.f_plus_mu_g!r} inequality={w.which}"
            )
        return lines


def _judge(sample: BoxSample, C: float, mus) -> MassControlReport:
    """The one judging loop: filter the points by u + v >= C once, judge
    each mu by its mask, and report the first that passes (or the last),
    with witnesses for that mu only."""
    if not C >= 0:
        raise ValueError(f"C must be >= 0, got {C}")
    keep = sample.u + sample.v >= C
    u, v, f, g = sample.u[keep], sample.v[keep], sample.f[keep], sample.g[keep]
    finite_fg = np.isfinite(f) & np.isfinite(g)
    fpm = np.empty(f.shape)    # f + mu*g, one buffer reused for every mu
    for mu in mus:
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(mu, g, out=fpm)
            fpm += f
        finite = finite_fg & np.isfinite(fpm)
        first = f > fpm        # fails f <= f + mu*g, i.e. mu*g < 0
        bad = finite & (first | (fpm > 0.0))   # or fails f + mu*g <= 0
        if not bad.any():
            break

    violations = [MassControlViolation(
        float(u[i]), float(v[i]), float(f[i]), float(fpm[i]),
        "f_le_f_plus_mu_g" if first[i] else "f_plus_mu_g_le_0")
        for i in np.flatnonzero(bad)[:MAX_WITNESSES]]
    return MassControlReport(
        passed=not violations, mu=float(mu), C=float(C), edge=sample.edge,
        n_per_axis=sample.n_per_axis, seed=sample.seed,
        samples_tested=int(finite.sum()),
        samples_indeterminate=int((~finite).sum()), violations=violations)


def check_mass_control(sample: BoxSample, C: float,
                       mu: float) -> MassControlReport:
    """Judge f <= f + mu*g <= 0 on the sample's points with u + v >= C.

    ``passed`` is True exactly when no violation was found among the
    finite samples; overflowing samples are reported as indeterminate.
    """
    if not mu > 0:
        raise ValueError(f"mu must be > 0, got {mu}")
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
        prefix = "g_nonneg"
        lines = [
            f"{prefix}.passed: {str(self.passed).lower()}",
            f"{prefix}.box: [0,{self.edge!r}]x[0,{self.edge!r}]",
            f"{prefix}.samples_tested: {self.samples_tested}",
            f"{prefix}.samples_indeterminate: {self.samples_indeterminate}",
            f"{prefix}.violations: {len(self.violations)}",
        ]
        for k, (u, v, g) in enumerate(self.violations, start=1):
            lines.append(f"{prefix}.witness_{k}: u={u!r} v={v!r} g={g!r}")
        return lines


def check_g_nonneg(sample: BoxSample) -> GNonNegReport:
    """Judge g >= 0 on the sample's lattice points."""
    n = sample.n_per_axis ** 2
    u, v, g = sample.u[:n], sample.v[:n], sample.g[:n]
    finite = np.isfinite(g)
    bad = np.flatnonzero(finite & (g < 0.0))[:MAX_WITNESSES]
    violations = [(float(u[i]), float(v[i]), float(g[i])) for i in bad]
    return GNonNegReport(
        passed=not violations, edge=sample.edge,
        samples_tested=int(finite.sum()),
        samples_indeterminate=int((~finite).sum()), violations=violations)


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
        prefix = "claim"
        signs = self.J_sign_history
        lines = [
            f"{prefix}.bound_u_held: {str(self.bound_u_held).lower()}",
            f"{prefix}.bound_v_held: {str(self.bound_v_held).lower()}",
            f"{prefix}.L_max: {self.L_max!r}",
            f"{prefix}.J_sign_counts: neg={int((signs < 0).sum())}"
            f" zero={int((signs == 0).sum())} pos={int((signs > 0).sum())}",
        ]
        if self.first_violation is None:
            lines.append(f"{prefix}.first_violation: none")
        else:
            w = self.first_violation
            lines.append(
                f"{prefix}.first_violation: t={w.t!r} node={w.node} "
                f"field={w.field} value={w.value!r} bound={w.bound!r} "
                f"exceedance={w.exceedance!r}"
            )
        return lines


def assemble_claim_report(series) -> ClaimReport:
    """Fold a run's series into a ClaimReport.

    The per-field flags come from the sup-norm columns against the
    bounds stored on the series, the rule of its flag column; the first
    violation is the one the series recorded.
    """
    with np.errstate(invalid="ignore"):
        bound_u_held = not bool(np.any(series.sup_u > series.u_bar0))
        bound_v_held = not bool(np.any(series.sup_v > series.v_bar0))
        signs = np.sign(series.J)
    return ClaimReport(
        bound_u_held=bound_u_held,
        bound_v_held=bound_v_held,
        first_violation=series.first_violation,
        J_sign_history=signs,
        L_max=float(np.max(series.L)) if len(series) else 0.0,
    )
