"""Driver: INI config parsing, experiment runs, reports, CSV output.

Config files are INI documents in the grammar configparser reads with
``delimiters=("=",)``, ``comment_prefixes=("#",)``, ``strict=True``,
``empty_lines_in_values=False``, no interpolation and case-sensitive
keys; ``tests/test_cli.py`` checks :func:`_ini` against configparser on
seeded random documents.  The grammar:

* the text is split into lines at ``\n`` only, each line stripped;
* a blank line or one starting with ``#`` is skipped and ends a value;
  there are no inline comments, and a ``;`` line has no ``=``;
* a line indented deeper than the key line above it continues that
  key's value, the parts joined with ``\n``;
* ``[name]`` heads a section, the name running to the last ``]``; text
  after it is ignored, so ``[a] x`` heads section ``a``;
* any other line is ``key = value``, split at the first ``=`` and both
  sides stripped, so ``k = a = b`` sets ``k`` to ``a = b``;
* a section reads its own keys, then the ``[DEFAULT]`` keys it does not
  set, as written (no interpolation);
* refused, naming the 1-based line: a line before any header, a
  section twice (``[DEFAULT]`` may come again), a key twice in one
  section, ``[DEFAULT]`` included, a line without ``=``, an empty key.

Unknown sections or keys are rejected.  The sections are::

    [model]      kind = combustion | absorption | blowup_example
                 m (combustion), F, G, lam (absorption),
                 claimed_C, claimed_mu (optional overrides)
    [grid]       the fields of Grid: n_nodes, length
    [scheme]     the fields of SchemeConfig: a, b, t_end; optional
                 dt_init, dt_min, dt_max, rtol, blowup_threshold,
                 enforce_positivity
    [functional] p (default 4, at most 1000), optional theta
    [initial_u]  kind = uniform | bump | nodes, plus kind fields:
    [initial_v]  value | center,width,height,baseline | nodes=v0,v1,...
    [output]     csv, report, log_every

The ``[grid]`` and ``[scheme]`` keys are read off
:class:`rdcertify.mesh.Grid` and :class:`rdcertify.integrator.SchemeConfig`:
each field is a key, read by its type (``int``, ``float``, or ``bool``
as ``true``/``false``), and required when it has no default.  An unset
key keeps the library's default.

Growth functions use the strings of :func:`rdcertify.kinetics.growth_from_spec`
(``exp``, ``power:2.0``, ``subexp:0.5``, ``doubleexp``,
``doubleexp-poly:c0,c1,...``).  Bump data is a Gaussian profile
``baseline + height * exp(-((x - center)/width)^2)``.

The CSV time series has the fixed header
``t,sup_u,sup_v,L,I,J,dt,bound_violation`` with numbers written at 17
significant digits (bit-faithful for cross-run comparison), one row per
``log_every`` accepted steps plus the final state.  Reports are plain
text, one ``key: value`` per line (:func:`rdcertify.verify.report_lines`).

Exit codes of ``rd-certify run``: 0 completed with bounds held,
2 blow-up, 3 completed with a bound violation, 4 step-size underflow,
1 config error.  ``rd-certify check``: 0 pass, 3 fail, 1 config error.

``run`` and ``check`` share one set-up: the parse builds the model,
grid, scheme, initial fields and functional parameters, and the
kinetics are sampled once on the sampling box; every sampled check
judges that sample.  The seed comes from ``RD_CERTIFY_SEED``, which
nothing else reads.  Any failure there exits 1 with a message naming
the key, before anything runs or is written.  That covers non-finite
numbers (of the ``[scheme]`` settings only ``dt_max`` may be ``inf``),
negative initial data while ``enforce_positivity`` is set,
``claimed_C`` and ``claimed_mu`` that are not finite (C >= 0, mu > 0), a ``claimed_C`` or initial data so
large that the sampling box (twice the larger of C and the data sups)
overflows, a diffusion pair ``a``, ``b`` whose default theta^2 =
1.1 (a+b)^2/(4ab) is not finite, a ``length`` whose node spacing
squared is 0 or overflows, or whose spacing makes the diffusion solve
singular in double precision, growth-law parameters that are not
finite, a ``theta`` that is not finite or whose square overflows,
``p`` outside [2, 1000], ``m`` < 1, ``lam`` outside (0, 1), an
``RD_CERTIFY_SEED`` that is not an integer >= 0, a config file that
cannot be read or is not UTF-8, an ``[output]`` ``csv`` or ``report``
path that is a directory, loops through symlinks, runs through a file
or lies in a directory that does not exist or cannot be written, and a
``report`` that is the ``csv`` file.
The range rules on values live in the library, which raises
:class:`rdcertify.mesh.ParamError`; ``main`` maps the parameter it
names to its config key, and is the one place a refusal is printed
and turned into exit 1.  Only bump ``width > 0``, ``log_every >= 1``
and a ``nodes`` list as long as the grid are the parser's own.
"""

from __future__ import annotations

import argparse
import functools
# argparse's gettext imports locale when the first parser is built
import locale  # noqa: F401
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
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
    **{f.name: f"grid.{f.name}" for f in fields(Grid)},
    **{f.name: f"scheme.{f.name}" for f in fields(SchemeConfig)},
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


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def _numbers(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",")])


def _keys(cls) -> tuple[dict, list]:
    """The readers of a dataclass's fields, each read by its type, and
    the required ones, which have no default."""
    types = {"int": int, "float": float, "bool": _bool}
    return ({f.name: types[f.type] for f in fields(cls)},
            [f.name for f in fields(cls) if f.default is MISSING])


_GRID_KEYS = _keys(Grid)
_SCHEME_KEYS = _keys(SchemeConfig)
# [model] kind -> (constructor, readers, required keys: the parameters
# the constructor gives no default)
_MODELS = {
    "combustion": (kinetics.Combustion, {"m": int}, ()),
    "absorption": (kinetics.Absorption, {"F": kinetics.growth_from_spec,
                                         "G": kinetics.growth_from_spec,
                                         "lam": float}, ("F", "G")),
    "blowup_example": (kinetics.BlowupExample, {}, ()),
}
_CLAIMS = {"claimed_C": float, "claimed_mu": float}
# [initial_u], [initial_v] kind -> the readers of its keys, all required
# but a bump's baseline
_FIELDS = {
    "uniform": {"value": float},
    "bump": {"center": float, "width": float, "height": float,
             "baseline": float},
    "nodes": {"nodes": _numbers},
}
_KNOWN_SECTIONS = ("model", "grid", "scheme", "functional",
                   "initial_u", "initial_v", "output")


def _ini(text: str) -> dict[str, dict[str, str]]:
    """The sections of an INI document, in order, each mapping its own
    keys and then the ``[DEFAULT]`` keys it does not set to their texts.
    The grammar is in the module docstring; a document outside it raises
    ConfigError naming the 1-based line."""
    sections, defaults = {}, {}
    table = key = None      # the current section; the key of an open value
    for number, line in enumerate(text.split("\n"), 1):
        value = line.strip()
        if not value or value[0] == "#":
            key = None
            continue
        indent = len(line) - len(line.lstrip())
        if key is not None and indent > key_indent:
            table[key] += "\n" + value
            continue
        key = None
        if value[0] == "[" and (end := value.rfind("]")) > 1:
            name = value[1:end]
            if name in sections:
                why = f"section [{name}] appears twice"
            elif name == "DEFAULT":
                table = defaults
                continue
            else:
                table = sections[name] = {}
                continue
        else:
            left, equals, right = value.partition("=")
            left = left.rstrip()
            if table is None:
                why = "it comes before any section header"
            elif not equals:
                why = f"{value!r} has no '='"
            elif not left:
                why = "empty key"
            elif left in table:
                why = f"key {left!r} appears twice in [{name}]"
            else:
                key, key_indent, table[left] = left, indent, right.strip()
                continue
        raise ConfigError("config",
                          f"unparseable INI document: line {number}: {why}")
    for own in sections.values():
        for key, value in defaults.items():
            own.setdefault(key, value)
    return sections


def _read(sections, name: str, readers: dict, required=()) -> dict:
    """The keys section ``name`` sets, each converted by its reader; an
    unset key is left out, so the library's default applies.  A missing
    required key, a key with no reader and a text its reader refuses
    raise ConfigError naming ``name.key``."""
    texts = sections.get(name, {})
    for key in required:
        if key not in texts:
            raise ConfigError(f"{name}.{key}", "missing required key")
    values = {}
    for key, text in texts.items():
        if key not in readers:
            raise ConfigError(f"{name}.{key}", "unknown key")
        try:
            values[key] = readers[key](text)
        except ValueError as exc:
            raise ConfigError(f"{name}.{key}", f"cannot read {text!r} ({exc})")
    return values


def _kind(sections, name: str, kinds) -> str:
    """The section's required ``kind``, one of ``kinds``."""
    kind = sections.get(name, {}).get("kind")
    if kind is None:
        raise ConfigError(f"{name}.kind", "missing required key")
    if kind not in kinds:
        raise ConfigError(f"{name}.kind",
                          f"expected one of {sorted(kinds)}, got {kind!r}")
    return kind


@_config_keys()
def parse_config_text(text: str) -> RunConfig:
    """Parse a config document into the library objects it describes.

    The range rules are the library's; the ParamError it raises comes
    out as a ConfigError naming the config key.
    """
    sections = _ini(text)
    for section in sections:
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(section, "unknown section")

    build, readers, required = _MODELS[_kind(sections, "model", _MODELS)]
    values = _read(sections, "model", {"kind": str, **readers, **_CLAIMS},
                   required)
    model = build(**{key: values[key] for key in readers if key in values})
    # a claim overrides the model's own, after any threshold search
    for key in _CLAIMS:
        setattr(model, key, values.get(key, getattr(model, key)))

    grid = Grid(**_read(sections, "grid", *_GRID_KEYS))
    scheme = SchemeConfig(**_read(sections, "scheme", *_SCHEME_KEYS))
    functional = _read(sections, "functional", {"p": int, "theta": float})
    u0 = _initial_field(sections, "initial_u", grid)
    v0 = _initial_field(sections, "initial_v", grid)
    output = _read(sections, "output",
                   {"csv": str, "report": str, "log_every": int})
    log_every = output.get("log_every", 1)
    if log_every < 1:
        raise ConfigError("output.log_every", f"must be >= 1, got {log_every}")

    scheme.check_initial_data(u0, v0)
    # with no claim, the functional uses C = 0 and mu = 1/2
    C = model.claimed_C if model.claimed_C is not None else 0.0
    mu = model.claimed_mu if model.claimed_mu is not None else 0.5
    params = lyapunov.build_params(scheme.a, scheme.b, mu, C,
                                   functional.get("p", 4), u0, v0,
                                   theta=functional.get("theta"))
    scheme.check_grid(grid)
    return RunConfig(model=model, grid=grid, scheme=scheme, u0=u0, v0=v0,
                     params=params, csv=output.get("csv", "run.csv"),
                     report=output.get("report", "run_report.txt"),
                     log_every=log_every)


def _initial_field(sections, name: str, grid: Grid) -> np.ndarray:
    kind = _kind(sections, name, _FIELDS)
    readers = _FIELDS[kind]
    values = _read(sections, name, {"kind": str, **readers},
                   [key for key in readers if key != "baseline"])
    if kind == "uniform":
        return np.full(grid.n_nodes, values["value"])
    if kind == "bump":
        x = grid.nodes()
        width = values["width"]
        if not width > 0:
            raise ConfigError(f"{name}.width", f"must be > 0, got {width}")
        # far from the centre the profile underflows to its baseline
        with np.errstate(over="ignore"):
            return (values.get("baseline", 0.0) + values["height"]
                    * np.exp(-((x - values["center"]) / width) ** 2))
    field = values["nodes"]
    if len(field) != grid.n_nodes:
        raise ConfigError(f"{name}.nodes", f"{len(field)} values for a grid "
                          f"of {grid.n_nodes} nodes")
    return field


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    return parse_config_text(text)


def _writable(path: str) -> bool:
    """Whether a file can be written at ``path``: it is not a directory
    (the empty path being ".", as for ``Path``), its lookup fails at most
    because it does not exist (not in a symlink loop, nor through a
    file), and its directory, ``dirname`` or ".", is writable."""
    try:
        if stat.S_ISDIR(os.stat(path or ".").st_mode):
            return False
    except FileNotFoundError:
        pass
    except OSError:         # ELOOP, ENOTDIR, ENAMETOOLONG, ...
        return False
    return os.access(os.path.dirname(path) or ".", os.W_OK)


def _setup(config_path) -> tuple[RunConfig, verify.BoxSample]:
    """The set-up ``run`` and ``check`` share: the parsed config and the
    kinetics sampled on the square box (seeded by the only read of
    RD_CERTIFY_SEED).  Raises ConfigError, or a ParamError that ``main``
    maps to its config key, before anything runs or is written, also for
    an output path that cannot be written."""
    cfg = parse_config(config_path)
    for key, path in (("output.csv", cfg.csv), ("output.report", cfg.report)):
        if not _writable(path):
            raise ConfigError(key, f"cannot write {path}")
    if os.path.realpath(cfg.report) == os.path.realpath(cfg.csv):
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

    print("\n".join(_verdict_lines(verdict)))
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

    print("\n".join(mass.to_lines() + gn.to_lines()))
    return 0 if (mass.passed and gn.passed) else 3


def cmd_theta(a: float, b: float, mu: float, p: int,
              theta: float | None = None) -> int:
    """Print the weight sequence of the functional for the pair (a, b)
    and its conditions; 0 when they hold, else 3.  Arguments that break
    a rule of ``lyapunov.FunctionalParams`` raise its ParamError, so
    every functional printed meets the conditions."""
    params = lyapunov.build_params(a, b, mu, 0.0, p, 0.0, 0.0, theta=theta)
    report = lyapunov.check_conditions(params)
    logs = params.log_theta_seq()
    ratios = np.exp(logs[:-1] - logs[1:])
    print(f"theta_sq_lower_bound: {params.theta_sq_bound!r}")
    print(f"theta: {params.theta!r}")
    print(f"theta_sq: {params.theta ** 2!r}")
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
