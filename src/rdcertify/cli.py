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
    [functional] p (default 4, at most 1000), optional theta
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

``run`` and ``check`` share one set-up: the parse builds the model,
grid, scheme, initial fields and functional parameters, and the
kinetics are sampled once on the sampling box; every sampled check
judges that sample.  The seed comes from ``RD_CERTIFY_SEED``, which
nothing else reads.  Any failure there exits
1 with a message naming the key, before anything runs or is written.
That covers non-finite numbers, negative initial data while
``enforce_positivity`` is set, ``claimed_C`` and ``claimed_mu`` that
are not finite (C >= 0, mu > 0), a ``claimed_C`` or initial data so
large that the sampling box (twice the larger of C and the data sups)
overflows, a diffusion pair ``a``, ``b`` whose default theta^2 =
1.1 (a+b)^2/(4ab) is not finite, a ``length`` whose node spacing
squared is 0 or overflows, or whose spacing makes the diffusion solve
singular in double precision, growth-law parameters that are not
finite, a ``theta`` that is not finite, ``p`` outside [2, 1000],
``m`` < 1, ``lam`` outside (0, 1), an ``RD_CERTIFY_SEED`` that is not
an integer >= 0, an ``[output]`` ``csv`` or ``report`` path whose
directory does not exist, and a ``report`` that is the ``csv`` file.
The range rules on values live in the library, which raises
:class:`rdcertify.mesh.ParamError`; ``main`` maps the parameter it
names to its config key, and is the one place a refusal is printed
and turned into exit 1.  Only bump ``width > 0`` and
``log_every >= 1`` are the parser's own.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import kinetics, lyapunov, verify
from .integrator import SchemeConfig, TimeSeries, Verdict, run
from .mesh import Grid, ParamError

# t,sup_u,sup_v,L,I,J,dt,bound_violation: the series' columns, in order
CSV_HEADER = ",".join(f.name for f in fields(TimeSeries) if not f.kw_only)
CHECK_N_PER_AXIS = 64
EXIT_CODES = {"blowup": 2, "dt_underflow": 4}     # run's other verdicts


class ConfigError(Exception):
    """Invalid configuration; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config error at {key}: {message}")


# library parameter name -> config key
_CONFIG_KEYS = {
    "n_nodes": "grid.n_nodes", "length": "grid.length",
    "a": "scheme.a", "b": "scheme.b", "t_end": "scheme.t_end",
    "dt_min": "scheme.dt_min", "dt_init": "scheme.dt_init",
    "dt_max": "scheme.dt_max",
    "rtol": "scheme.rtol", "blowup_threshold": "scheme.blowup_threshold",
    "p": "functional.p", "theta": "functional.theta",
    "mu": "model.claimed_mu",
    "C": "model.claimed_C", "m": "model.m", "lam": "model.lam",
    "u0": "initial_u", "v0": "initial_v", "seed": "RD_CERTIFY_SEED",
}


@contextmanager
def _config_keys():
    """Re-raise a library ParamError as a ConfigError naming the key."""
    try:
        yield
    except ParamError as exc:
        raise ConfigError(_CONFIG_KEYS[exc.param], str(exc)) from exc


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """A parsed config: the library objects it describes, plus the
    output settings."""

    model: kinetics.ReactionModel
    grid: Grid
    scheme: SchemeConfig
    u0: np.ndarray
    v0: np.ndarray
    params: lyapunov.FunctionalParams
    csv: str
    report: str
    log_every: int


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

    def _convert(self, key, default, conv, kindname):
        text = self.raw(key, default)
        if not isinstance(text, str):
            return text
        try:
            return conv(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.name}.{key}",
                              f"expected {kindname}, got {text!r} ({exc})")

    def float(self, key, default=_REQUIRED):
        return self._convert(key, default, float, "a number")

    def int(self, key, default=_REQUIRED):
        return self._convert(key, default, int, "an integer")

    def bool(self, key):
        text = self.raw(key)
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"{self.name}.{key}",
                          f"expected true or false, got {text!r}")

    def given(self, read, *keys):
        """``{key: read(key)}`` for the keys among ``keys`` this section
        sets, so an unset key keeps the library's default."""
        return {key: read(key) for key in keys if key in self.map}

    def choice(self, key, choices):
        text = self.raw(key)
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


@_config_keys()
def parse_config_text(text: str) -> RunConfig:
    """Parse a config document into the library objects it describes.

    The range rules are the library's; the ParamError it raises comes
    out as a ConfigError naming the config key.
    """
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

    sec = section("model")
    kind = sec.choice("kind", {"combustion", "absorption", "blowup_example"})
    if kind == "combustion":
        model = kinetics.Combustion(**sec.given(sec.int, "m"))
    elif kind == "absorption":
        model = kinetics.Absorption(_growth(sec, "F"), _growth(sec, "G"),
                                    **sec.given(sec.float, "lam"))
    else:
        model = kinetics.BlowupExample()
    # a claim overrides the model's own, after any threshold search
    model.claimed_C = sec.float("claimed_C", default=model.claimed_C)
    model.claimed_mu = sec.float("claimed_mu", default=model.claimed_mu)
    sec.finish()

    sec = section("grid")
    grid = Grid(n_nodes=sec.int("n_nodes"), length=sec.float("length"))
    sec.finish()

    sec = section("scheme")
    scheme = SchemeConfig(
        a=sec.float("a"), b=sec.float("b"), t_end=sec.float("t_end"),
        **sec.given(sec.float, "dt_init", "dt_min", "dt_max", "rtol",
                    "blowup_threshold"),
        **sec.given(sec.bool, "enforce_positivity"))
    sec.finish()

    sec = section("functional")
    p = sec.int("p", default=4)
    theta = sec.float("theta", default=None)
    sec.finish()

    u0 = _initial_field(section("initial_u"), grid)
    v0 = _initial_field(section("initial_v"), grid)

    sec = section("output")
    csv = sec.raw("csv", default="run.csv")
    report = sec.raw("report", default="run_report.txt")
    log_every = sec.int("log_every", default=1)
    if log_every < 1:
        raise ConfigError("output.log_every", f"must be >= 1, got {log_every}")
    sec.finish()

    scheme.check_initial_data(u0, v0)
    # with no claim, the functional uses C = 0 and mu = 1/2
    C = model.claimed_C if model.claimed_C is not None else 0.0
    mu = model.claimed_mu if model.claimed_mu is not None else 0.5
    params = lyapunov.build_params(scheme.a, scheme.b, mu, C, p, u0, v0,
                                   theta=theta)
    scheme.check_grid(grid)
    return RunConfig(model=model, grid=grid, scheme=scheme, u0=u0, v0=v0,
                     params=params, csv=csv, report=report,
                     log_every=log_every)


def _growth(sec: _Section, key: str) -> kinetics.GrowthFunction:
    text = sec.raw(key)
    try:
        return kinetics.growth_from_spec(text)
    except ValueError as exc:
        raise ConfigError(f"{sec.name}.{key}", str(exc))


def _initial_field(sec: _Section, grid: Grid) -> np.ndarray:
    kind = sec.choice("kind", {"uniform", "bump", "nodes"})
    if kind == "uniform":
        field = np.full(grid.n_nodes, sec.float("value"), dtype=float)
    elif kind == "bump":
        center = sec.float("center")
        width = sec.float("width")
        if not width > 0:
            raise ConfigError(f"{sec.name}.width", f"must be > 0, got {width}")
        height = sec.float("height")
        baseline = sec.float("baseline", default="0.0")
        x = grid.nodes()
        field = baseline + height * np.exp(-((x - center) / width) ** 2)
    else:
        tokens = sec.raw("nodes").split(",")
        try:
            field = np.array([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ConfigError(f"{sec.name}.nodes",
                              f"expected comma-separated numbers ({exc})")
        if len(field) != grid.n_nodes:
            raise ConfigError(f"{sec.name}.nodes",
                              f"{len(field)} values for a grid of "
                              f"{grid.n_nodes} nodes")
    sec.finish()
    return field


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    return parse_config_text(text)


def _setup(config_path) -> tuple[RunConfig, verify.BoxSample]:
    """The set-up ``run`` and ``check`` share: the parsed config and the
    kinetics sampled on the square box (seeded by the only read of
    RD_CERTIFY_SEED).  Raises ConfigError, or a ParamError that ``main``
    maps to its config key, before anything runs or is written, also for
    an output path that cannot be written."""
    cfg = parse_config(config_path)
    for key, path in (("output.csv", cfg.csv), ("output.report", cfg.report)):
        target = Path(path)
        if target.is_dir() or not os.access(target.parent, os.W_OK):
            raise ConfigError(key, f"cannot write {path}")
    if Path(cfg.report).resolve() == Path(cfg.csv).resolve():
        raise ConfigError("output.report", f"{cfg.report} is the csv file")
    params = cfg.params
    seed = verify.sampling_seed()
    box = verify.default_box(params.C, params.u_bar0, params.v_bar0)
    return cfg, verify.sample_box(cfg.model, box, CHECK_N_PER_AXIS, seed)


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
    columns = [getattr(series, name)[idx].tolist()
               for name in CSV_HEADER.split(",")]
    for *numbers, flag in zip(*columns):
        lines.append(",".join([*map(_fmt, numbers), str(int(flag))]))
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
    """Integrate the configured system, write the CSV and the report,
    and return the exit code of its verdict.  A refused config raises
    ConfigError (or ParamError) from the set-up, before anything runs
    or is written."""
    cfg, sample = _setup(config_path)
    series, verdict = run(cfg.model, cfg.scheme, cfg.grid, cfg.u0, cfg.v0,
                          cfg.params)
    params = cfg.params
    claim = verify.assemble_claim_report(series)
    mass = verify.check_mass_control(sample, params.C, params.mu)

    write_csv(series, cfg.csv, cfg.log_every)
    report_lines = (_verdict_lines(verdict) + claim.to_lines()
                    + mass.to_lines())
    Path(cfg.report).write_text("\n".join(report_lines) + "\n")

    for line in _verdict_lines(verdict):
        print(line)
    print(f"csv: {cfg.csv}")
    print(f"report: {cfg.report}")

    if verdict.kind != "completed":
        return EXIT_CODES[verdict.kind]
    return 0 if (claim.bound_u_held and claim.bound_v_held) else 3


def cmd_check(config_path) -> int:
    """Print the sampled control-of-mass and g >= 0 checks; 0 when both
    pass, else 3.  A refused config raises ConfigError (or ParamError)
    from the set-up."""
    cfg, sample = _setup(config_path)
    params = cfg.params
    if cfg.model.claimed_mu is not None:
        mass = verify.check_mass_control(sample, params.C, params.mu)
    else:
        mass = verify.search_mu(sample, params.C)
    gn = verify.check_g_nonneg(sample)

    for line in mass.to_lines() + gn.to_lines():
        print(line)
    return 0 if (mass.passed and gn.passed) else 3


def cmd_theta(a: float, b: float, mu: float, p: int,
              theta: float | None = None) -> int:
    """Print the weight sequence and its conditions; 0 when they hold,
    else 3.  Invalid arguments raise the library's ParamError."""
    params = lyapunov.build_params(a, b, mu, 0.0, p, 0.0, 0.0, theta=theta)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # only refusals end a command here: any other ValueError from deeper
    # in the run (np.linalg.LinAlgError among them) propagates
    try:
        with _config_keys():
            if args.command == "run":
                return cmd_run(args.config)
            if args.command == "check":
                return cmd_check(args.config)
            return cmd_theta(args.a, args.b, args.mu, args.p, args.theta)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
