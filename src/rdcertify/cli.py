"""Driver: INI config parsing, experiment runs, reports, CSV output.

Config files are INI-style with ``key = value`` lines, ``#`` comments,
and case-sensitive keys; unknown sections or keys are rejected.  The
sections are::

    [model]      kind = combustion | absorption | blowup_example
                 m (combustion), F, G, lam (absorption),
                 claimed_C, claimed_mu (optional overrides)
    [grid]       n_nodes, length
    [scheme]     a, b, t_end; optional dt_init, dt_min, dt_max, rtol,
                 blowup_threshold, enforce_positivity
    [functional] p (default 4), optional theta
    [initial_u]  kind = uniform | bump | nodes, plus kind fields:
    [initial_v]  value | center,width,height,baseline | nodes=v0,v1,...
    [output]     csv, report, log_every

Growth functions use the strings of :func:`rdcertify.kinetics.growth_from_spec`
(``exp``, ``power:2.0``, ``subexp:0.5``, ``doubleexp``,
``doubleexp-poly:c0,c1,...``).  Bump data is a Gaussian profile
``baseline + height * exp(-((x - center)/width)^2)``.

The CSV time series has the fixed header
``t,sup_u,sup_v,L,I,J,dt,bound_violation`` with numbers written at 17
significant digits (bit-faithful for cross-run comparison), one row per
``log_every`` accepted steps plus the final state.  Reports are plain
text, one ``key: value`` per line.

Exit codes of ``rd-certify run``: 0 completed with bounds held,
2 blow-up, 3 completed with a bound violation, 4 step-size underflow,
1 config error.  ``rd-certify check``: 0 pass, 3 fail, 1 config error.
The range rules on values live in the library, which raises
:class:`rdcertify.mesh.ParamError`; this module maps the parameter it
names to its config key.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kinetics, lyapunov, verify
from .integrator import SchemeConfig, Verdict, run
from .mesh import Grid, ParamError, sup_norm

CSV_HEADER = "t,sup_u,sup_v,L,I,J,dt,bound_violation"
CHECK_N_PER_AXIS = 64


class ConfigError(Exception):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config error at {key}: {message}")


# library parameter name -> config key; theta0 = claimed_mu / 2 here
_CONFIG_KEYS = {
    "n_nodes": "grid.n_nodes", "length": "grid.length",
    "a": "scheme.a", "b": "scheme.b", "t_end": "scheme.t_end",
    "dt_min": "scheme.dt_min", "dt_init": "scheme.dt_init",
    "rtol": "scheme.rtol", "blowup_threshold": "scheme.blowup_threshold",
    "p": "functional.p", "theta": "functional.theta",
    "mu": "model.claimed_mu", "theta0": "model.claimed_mu",
    "C": "model.claimed_C", "u0": "initial_u", "v0": "initial_v",
}


@contextmanager
def _config_keys():
    """Re-raise a library ParamError as a ConfigError naming the key."""
    try:
        yield
    except ParamError as exc:
        raise ConfigError(_CONFIG_KEYS[exc.param], str(exc)) from exc


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    kind: str
    m: int = 1
    F: str | None = None
    G: str | None = None
    lam: float = 0.5
    claimed_C: float | None = None
    claimed_mu: float | None = None


@dataclass(frozen=True)
class FunctionalConfig:
    p: int = 4
    theta: float | None = None


@dataclass(frozen=True)
class InitialConfig:
    kind: str
    value: float | None = None
    center: float | None = None
    width: float | None = None
    height: float | None = None
    baseline: float | None = None
    nodes: tuple | None = None


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "run.csv"
    report: str = "run_report.txt"
    log_every: int = 1


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    grid: Grid
    scheme: SchemeConfig
    functional: FunctionalConfig
    initial_u: InitialConfig
    initial_v: InitialConfig
    output: OutputConfig


class _Section:
    """One config section with required/optional typed reads and a
    leftover-key check."""

    def __init__(self, name: str, mapping):
        self.name = name
        self.map = dict(mapping)
        self.used = set()

    _REQUIRED = object()

    def raw(self, key, default=_REQUIRED):
        if key in self.map:
            self.used.add(key)
            return self.map[key]
        if default is self._REQUIRED:
            raise ConfigError(f"{self.name}.{key}", "missing required key")
        return default

    def _convert(self, key, conv, text, kindname):
        try:
            return conv(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.name}.{key}",
                              f"expected {kindname}, got {text!r} ({exc})")

    def float(self, key, default=_REQUIRED, positive=False, nonnegative=False):
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        value = self._convert(key, float, text, "a number")
        if positive and not value > 0:
            raise ConfigError(f"{self.name}.{key}", f"must be > 0, got {value}")
        if nonnegative and not value >= 0:
            raise ConfigError(f"{self.name}.{key}", f"must be >= 0, got {value}")
        return value

    def int(self, key, default=_REQUIRED, minimum=None):
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        value = self._convert(key, int, text, "an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.name}.{key}",
                              f"must be >= {minimum}, got {value}")
        return value

    def bool(self, key, default=_REQUIRED):
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"{self.name}.{key}",
                          f"expected true or false, got {text!r}")

    def choice(self, key, choices, default=_REQUIRED):
        text = self.raw(key, default)
        if text not in choices:
            raise ConfigError(f"{self.name}.{key}",
                              f"expected one of {sorted(choices)}, got {text!r}")
        return text

    def finish(self):
        leftover = set(self.map) - self.used
        if leftover:
            key = sorted(leftover)[0]
            raise ConfigError(f"{self.name}.{key}", "unknown key")


_KNOWN_SECTIONS = ("model", "grid", "scheme", "functional",
                   "initial_u", "initial_v", "output")


def parse_config_text(text: str) -> RunConfig:
    """Parse and fully validate a config document."""
    cp = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=None, interpolation=None, strict=True,
        empty_lines_in_values=False)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", f"unparseable INI document: {exc}")

    for section in cp.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(section, "unknown section")

    def section(name):
        return _Section(name, cp[name] if cp.has_section(name) else {})

    # model
    sec = section("model")
    kind = sec.choice("kind", {"combustion", "absorption", "blowup_example"})
    m = sec.int("m", default=1, minimum=1) if kind == "combustion" else 1
    F = G = None
    lam = 0.5
    if kind == "absorption":
        F = _normalize_growth(sec, "F")
        G = _normalize_growth(sec, "G")
        lam = sec.float("lam", default=0.5)
        if not 0.0 < lam < 1.0:
            raise ConfigError("model.lam", f"must lie in (0, 1), got {lam}")
    claimed_C = sec.float("claimed_C", default=None, nonnegative=True)
    claimed_mu = sec.float("claimed_mu", default=None, positive=True)
    sec.finish()
    model = ModelConfig(kind=kind, m=m, F=F, G=G, lam=lam,
                        claimed_C=claimed_C, claimed_mu=claimed_mu)

    # grid
    sec = section("grid")
    n_nodes = sec.int("n_nodes")
    length = sec.float("length")
    sec.finish()
    with _config_keys():
        grid = Grid(n_nodes=n_nodes, length=length)

    # scheme
    sec = section("scheme")
    with _config_keys():
        scheme = SchemeConfig(
            a=sec.float("a"), b=sec.float("b"), t_end=sec.float("t_end"),
            dt_init=sec.float("dt_init", default="1e-3"),
            dt_min=sec.float("dt_min", default="1e-12"),
            dt_max=sec.float("dt_max", default="0.1"),
            rtol=sec.float("rtol", default="1e-6"),
            blowup_threshold=sec.float("blowup_threshold", default="1e6"),
            enforce_positivity=sec.bool("enforce_positivity", default=True))
    sec.finish()

    # functional
    sec = section("functional")
    functional = FunctionalConfig(p=sec.int("p", default=4),
                                  theta=sec.float("theta", default=None))
    sec.finish()
    # p and theta are checked by build_params; with mu = 1 and zero data
    # its other rules hold, so only theirs can fail
    with _config_keys():
        lyapunov.build_params(scheme.a, scheme.b, 1.0, 0.0, functional.p,
                              0.0, 0.0, theta=functional.theta)

    initial_u = _parse_initial(section("initial_u"), grid)
    initial_v = _parse_initial(section("initial_v"), grid)

    sec = section("output")
    output = OutputConfig(
        csv=sec.raw("csv", default="run.csv"),
        report=sec.raw("report", default="run_report.txt"),
        log_every=sec.int("log_every", default=1, minimum=1))
    sec.finish()

    return RunConfig(model=model, grid=grid, scheme=scheme,
                     functional=functional, initial_u=initial_u,
                     initial_v=initial_v, output=output)


def _normalize_growth(sec: _Section, key: str) -> str:
    text = sec.raw(key)
    try:
        return kinetics.growth_from_spec(text).spec
    except ValueError as exc:
        raise ConfigError(f"{sec.name}.{key}", str(exc))


def _parse_initial(sec: _Section, grid: Grid) -> InitialConfig:
    kind = sec.choice("kind", {"uniform", "bump", "nodes"})
    if kind == "uniform":
        cfg = InitialConfig(kind=kind, value=sec.float("value"))
    elif kind == "bump":
        width = sec.float("width", positive=True)
        cfg = InitialConfig(kind=kind, center=sec.float("center"),
                            width=width, height=sec.float("height"),
                            baseline=sec.float("baseline", default="0.0"))
    else:
        text = sec.raw("nodes")
        try:
            nodes = tuple(float(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"{sec.name}.nodes",
                              f"expected comma-separated numbers ({exc})")
        if len(nodes) != grid.n_nodes:
            raise ConfigError(f"{sec.name}.nodes",
                              f"{len(nodes)} values for a grid of "
                              f"{grid.n_nodes} nodes")
        cfg = InitialConfig(kind=kind, nodes=nodes)
    sec.finish()
    return cfg


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    return parse_config_text(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; reparsing yields an identical RunConfig."""
    lines = ["[model]", f"kind = {cfg.model.kind}"]
    if cfg.model.kind == "combustion":
        lines.append(f"m = {cfg.model.m}")
    if cfg.model.kind == "absorption":
        lines += [f"F = {cfg.model.F}", f"G = {cfg.model.G}",
                  f"lam = {cfg.model.lam!r}"]
    if cfg.model.claimed_C is not None:
        lines.append(f"claimed_C = {cfg.model.claimed_C!r}")
    if cfg.model.claimed_mu is not None:
        lines.append(f"claimed_mu = {cfg.model.claimed_mu!r}")

    lines += ["", "[grid]",
              f"n_nodes = {cfg.grid.n_nodes}",
              f"length = {cfg.grid.length!r}"]

    s = cfg.scheme
    lines += ["", "[scheme]",
              f"a = {s.a!r}", f"b = {s.b!r}", f"t_end = {s.t_end!r}",
              f"dt_init = {s.dt_init!r}", f"dt_min = {s.dt_min!r}",
              f"dt_max = {s.dt_max!r}", f"rtol = {s.rtol!r}",
              f"blowup_threshold = {s.blowup_threshold!r}",
              f"enforce_positivity = {str(s.enforce_positivity).lower()}"]

    lines += ["", "[functional]", f"p = {cfg.functional.p}"]
    if cfg.functional.theta is not None:
        lines.append(f"theta = {cfg.functional.theta!r}")

    for name, ic in (("initial_u", cfg.initial_u), ("initial_v", cfg.initial_v)):
        lines += ["", f"[{name}]", f"kind = {ic.kind}"]
        if ic.kind == "uniform":
            lines.append(f"value = {ic.value!r}")
        elif ic.kind == "bump":
            lines += [f"center = {ic.center!r}", f"width = {ic.width!r}",
                      f"height = {ic.height!r}", f"baseline = {ic.baseline!r}"]
        else:
            lines.append("nodes = " + ",".join(repr(x) for x in ic.nodes))

    o = cfg.output
    lines += ["", "[output]", f"csv = {o.csv}", f"report = {o.report}",
              f"log_every = {o.log_every}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Materialize config pieces
# ---------------------------------------------------------------------------

def make_model(mc: ModelConfig) -> kinetics.ReactionModel:
    if mc.kind == "combustion":
        model = kinetics.Combustion(m=mc.m)
    elif mc.kind == "absorption":
        model = kinetics.Absorption(kinetics.growth_from_spec(mc.F),
                                    kinetics.growth_from_spec(mc.G),
                                    lam=mc.lam)
    else:
        model = kinetics.BlowupExample()
    if mc.claimed_C is not None:
        model.claimed_C = mc.claimed_C
    if mc.claimed_mu is not None:
        model.claimed_mu = mc.claimed_mu
    return model


def make_initial_field(ic: InitialConfig, grid: Grid) -> np.ndarray:
    if ic.kind == "uniform":
        return np.full(grid.n_nodes, ic.value, dtype=float)
    if ic.kind == "bump":
        x = grid.nodes()
        return ic.baseline + ic.height * np.exp(-((x - ic.center) / ic.width) ** 2)
    return np.asarray(ic.nodes, dtype=float)


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{x:.17g}"


def write_csv(series, path, log_every: int):
    n = len(series)
    idx = list(range(0, n, log_every))
    if idx and idx[-1] != n - 1:
        idx.append(n - 1)
    lines = [CSV_HEADER]
    for i in idx:
        t, su, sv, L, I, J, dt, flag = series.rows[i]
        lines.append(",".join([_fmt(t), _fmt(su), _fmt(sv), _fmt(L),
                               _fmt(I), _fmt(J), _fmt(dt), str(int(flag))]))
    Path(path).write_text("\n".join(lines) + "\n")


def _verdict_lines(verdict: Verdict) -> list[str]:
    lines = [f"verdict: {verdict.kind}"]
    if verdict.t is not None:
        lines.append(f"verdict.t: {verdict.t!r}")
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_run(config_path) -> int:
    # only config errors end the command here: a ValueError from deeper in
    # the run (np.linalg.LinAlgError among them) propagates
    try:
        with _config_keys():
            cfg = parse_config(config_path)
            model = make_model(cfg.model)
            u0 = make_initial_field(cfg.initial_u, cfg.grid)
            v0 = make_initial_field(cfg.initial_v, cfg.grid)
            C_eff = model.claimed_C if model.claimed_C is not None else 0.0
            mu_eff = model.claimed_mu if model.claimed_mu is not None else 0.5
            params = lyapunov.build_params(cfg.scheme.a, cfg.scheme.b, mu_eff,
                                           C_eff, cfg.functional.p, u0, v0,
                                           theta=cfg.functional.theta)
            series, verdict = run(model, cfg.scheme, cfg.grid, u0, v0, params)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    claim = verify.assemble_claim_report(series, series.events)
    box = verify.default_box(C_eff, sup_norm(u0), sup_norm(v0))
    mass = verify.check_mass_control(model, C_eff, mu_eff, box, box,
                                     CHECK_N_PER_AXIS)

    write_csv(series, cfg.output.csv, cfg.output.log_every)
    report_lines = (_verdict_lines(verdict) + claim.to_lines()
                    + mass.to_lines())
    Path(cfg.output.report).write_text("\n".join(report_lines) + "\n")

    for line in _verdict_lines(verdict):
        print(line)
    print(f"csv: {cfg.output.csv}")
    print(f"report: {cfg.output.report}")

    if verdict.is_blowup:
        return 2
    if verdict.is_dt_underflow:
        return 4
    return 0 if (claim.bound_u_held and claim.bound_v_held) else 3


def cmd_check(config_path) -> int:
    try:
        cfg = parse_config(config_path)
        model = make_model(cfg.model)
        u0 = make_initial_field(cfg.initial_u, cfg.grid)
        v0 = make_initial_field(cfg.initial_v, cfg.grid)
    except (ConfigError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1

    C_eff = model.claimed_C if model.claimed_C is not None else 0.0
    box = verify.default_box(C_eff, sup_norm(u0), sup_norm(v0))
    if model.claimed_mu is not None:
        mass = verify.check_mass_control(model, C_eff, model.claimed_mu,
                                         box, box, CHECK_N_PER_AXIS)
    else:
        mass = verify.search_mu(model, C_eff, box, box, CHECK_N_PER_AXIS)
    gn = verify.check_g_nonneg(model, box, box, CHECK_N_PER_AXIS)

    for line in mass.to_lines() + gn.to_lines():
        print(line)
    return 0 if (mass.passed and gn.passed) else 3


def cmd_theta(a: float, b: float, mu: float, p: int,
              theta: float | None = None) -> int:
    try:
        with _config_keys():
            params = lyapunov.build_params(a, b, mu, 0.0, p, 0.0, 0.0,
                                           theta=theta)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    report = lyapunov.check_conditions(params, a, b)
    logs = params.log_theta_seq()
    ratios = np.exp(logs[:-1] - logs[1:])
    print(f"theta_sq_lower_bound: {report.theta_sq_bound!r}")
    print(f"theta: {params.theta!r}")
    print(f"theta_sq: {report.theta_sq!r}")
    print("log_theta_sequence: " + ",".join(_fmt(x) for x in logs))
    print("theta_ratios: " + ",".join(_fmt(x) for x in ratios))
    print(f"condition_theta: {'pass' if report.theta_condition_ok else 'fail'}")
    print(f"condition_recurrence: "
          f"{'pass' if report.recurrence_ok else 'fail'} "
          f"(residual={report.recurrence_residual!r})")
    print(f"condition_mu_ratio: {'pass' if report.mu_condition_ok else 'fail'}")
    return 0 if report.passed else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rd-certify",
        description="Simulate 2x2 reaction-diffusion systems and check "
                    "control-of-mass bound claims.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured system")
    p_run.add_argument("config")

    p_check = sub.add_parser("check", help="check the control-of-mass "
                                           "condition only")
    p_check.add_argument("config")

    p_theta = sub.add_parser("theta", help="inspect the weight sequence")
    p_theta.add_argument("--a", type=float, required=True)
    p_theta.add_argument("--b", type=float, required=True)
    p_theta.add_argument("--mu", type=float, required=True)
    p_theta.add_argument("--p", type=int, default=4)
    p_theta.add_argument("--theta", type=float, default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "check":
        return cmd_check(args.config)
    return cmd_theta(args.a, args.b, args.mu, args.p, args.theta)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
