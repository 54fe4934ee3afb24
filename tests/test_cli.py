import dataclasses
import hashlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import rdcertify.cli as cli
from rdcertify import verify
from rdcertify.cli import (CSV_HEADER, ConfigError, cmd_check, cmd_run,
                           cmd_theta, main, parse_config_text)
from rdcertify.integrator import SchemeConfig, run
from rdcertify.kinetics import (BlowupExample, Combustion, Power,
                                find_threshold_A)
from rdcertify.lyapunov import build_params
from rdcertify.mesh import Grid

COMBUSTION_ZERO = """
[model]
kind = combustion
m = 1

[grid]
n_nodes = 21
length = 1.0

[scheme]
a = 1.0
b = 2.0
t_end = 0.5

[initial_u]
kind = uniform
value = 0.0

[initial_v]
kind = uniform
value = 0.0
"""

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# absorption whose F/G threshold search fails, so no mu is claimed
POWER_SEARCH = (COMBUSTION_ZERO
                .replace("kind = combustion\nm = 1", "kind = absorption\n"
                         "F = power:0.5\nG = power:2.0\nlam = 0.5")
                .replace("value = 0.0", "value = 1.0"))
# absorption_decay with G(0) = e - 10 < 0: g changes sign on the box, so
# both checks fail with MAX_WITNESSES witnesses each
NEGATIVE_G = (CONFIGS / "absorption_decay.ini").read_text().replace(
    "\nG = exp\n", "\nG = doubleexp-poly:10\n")


def blowup_config(tmp_path, rtol="1e-4", log_every=1):
    tmp_path.mkdir(parents=True, exist_ok=True)
    csv = tmp_path / "blow.csv"
    report = tmp_path / "blow.txt"
    text = f"""
# counterexample reproduction
[model]
kind = blowup_example

[grid]
n_nodes = 15
length = 1.0

[scheme]
a = 1.0
b = 1.0
t_end = 3.0
rtol = {rtol}
dt_max = 0.05

[initial_u]
kind = uniform
value = 0.75

[initial_v]
kind = uniform
value = 1.0

[output]
csv = {csv}
report = {report}
log_every = {log_every}
"""
    path = tmp_path / "blow.ini"
    path.write_text(text)
    return path, csv, report


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def test_parse_minimal_config_defaults():
    cfg = parse_config_text(COMBUSTION_ZERO)
    assert isinstance(cfg.model, Combustion)
    assert cfg.model.m == Combustion().m
    assert cfg.grid == Grid(21, 1.0)
    assert cfg.scheme == SchemeConfig(a=1.0, b=2.0, t_end=0.5)
    # p = 4 and the default theta, at the combustion claims C = 0, mu = 1/2
    assert cfg.params.p == 4
    assert cfg.params == build_params(1.0, 2.0, 0.5, 0.0, 4, cfg.u0, cfg.v0)
    assert cfg.log_every == 1
    assert (cfg.csv, cfg.report) == ("run.csv", "run_report.txt")


@pytest.mark.parametrize("needle,broken", [
    ("scheme.a", COMBUSTION_ZERO.replace("a = 1.0", "a = -1.0")),
    ("scheme.t_end", COMBUSTION_ZERO.replace("t_end = 0.5", "t_end = 0.0")),
    ("grid.n_nodes", COMBUSTION_ZERO.replace("n_nodes = 21", "n_nodes = 2")),
    ("model.kind", COMBUSTION_ZERO.replace("kind = combustion\nm = 1",
                                           "kind = exotic")),
    ("scheme.b", COMBUSTION_ZERO.replace("b = 2.0", "b = two")),
    ("model.m", COMBUSTION_ZERO.replace("m = 1", "m = 0")),
    ("initial_v.value", COMBUSTION_ZERO[:COMBUSTION_ZERO.rfind("value")]),
    ("config: unparseable INI", "n_nodes = 21\n" + COMBUSTION_ZERO),
    ("output.log_every", COMBUSTION_ZERO + "\n[output]\nlog_every = 0\n"),
    ("initial_u.width", COMBUSTION_ZERO.replace(
        "[initial_u]\nkind = uniform\nvalue = 0.0",
        "[initial_u]\nkind = bump\ncenter = 0.5\nwidth = 0\nheight = 1")),
    ("initial_u.nodes", COMBUSTION_ZERO.replace(
        "[initial_u]\nkind = uniform\nvalue = 0.0",
        "[initial_u]\nkind = nodes\nnodes = 0.5, x")),
])
def test_parse_errors_name_the_key(needle, broken):
    with pytest.raises(ConfigError) as err:
        parse_config_text(broken)
    assert needle in str(err.value)


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match="scheme.cfl"):
        parse_config_text(COMBUSTION_ZERO.replace("a = 1.0", "a = 1.0\ncfl = 0.4"))
    with pytest.raises(ConfigError, match="plotting"):
        parse_config_text(COMBUSTION_ZERO + "\n[plotting]\nstyle = fancy\n")


def test_keys_are_case_sensitive():
    # "A" does not satisfy the required lowercase "a"
    with pytest.raises(ConfigError, match="scheme.a"):
        parse_config_text(COMBUSTION_ZERO.replace("a = 1.0", "A = 1.0"))


def test_nodes_initial_data_length_checked():
    text = COMBUSTION_ZERO.replace(
        "[initial_u]\nkind = uniform\nvalue = 0.0",
        "[initial_u]\nkind = nodes\nnodes = 0.0, 1.0, 0.5")
    with pytest.raises(ConfigError, match="initial_u.nodes"):
        parse_config_text(text)


def test_theta_validated_against_diffusion_pair():
    text = COMBUSTION_ZERO.replace("b = 2.0", "b = 4.0") + \
        "\n[functional]\np = 4\ntheta = 1.2\n"
    with pytest.raises(ConfigError, match="functional.theta"):
        parse_config_text(text)


def test_bool_values_are_strict():
    with pytest.raises(ConfigError, match="enforce_positivity"):
        parse_config_text(COMBUSTION_ZERO.replace(
            "t_end = 0.5", "t_end = 0.5\nenforce_positivity = yes"))
    cfg = parse_config_text(COMBUSTION_ZERO.replace(
        "t_end = 0.5", "t_end = 0.5\nenforce_positivity = true"))
    assert cfg.scheme.enforce_positivity is True


@pytest.mark.parametrize("section,field", [
    *(("grid", f) for f in dataclasses.fields(Grid)),
    *(("scheme", f) for f in dataclasses.fields(SchemeConfig)),
], ids=lambda x: getattr(x, "name", x))
def test_every_field_is_a_config_key(section, field):
    # a valid value other than the default (or the base config's), chosen
    # by the field's type; a type with no entry here fails the test
    base = parse_config_text(COMBUSTION_ZERO)
    old = getattr(getattr(base, section), field.name)
    value = {"int": lambda: old + 1, "float": lambda: old / 2,
             "bool": lambda: not old}[field.type]()
    text = str(value).lower() if field.type == "bool" else repr(value)
    config = re.sub(rf"^{field.name} = .*\n", "", COMBUSTION_ZERO, flags=re.M)
    config = config.replace(f"[{section}]\n",
                            f"[{section}]\n{field.name} = {text}\n")
    parsed = getattr(parse_config_text(config), section)
    assert getattr(parsed, field.name) == value != old
    assert cli._CONFIG_KEYS[field.name] == f"{section}.{field.name}"


NODES_21 = ", ".join(["0.0"] * 21)


@pytest.mark.parametrize("needle,old,new", [
    # a key of another kind
    ("model.m: unknown key", "kind = combustion\nm = 1",
     "kind = absorption\nF = exp\nG = exp\nm = 1"),
    ("model.lam: unknown key", "m = 1", "lam = 0.5"),
    ("model.F: unknown key", "kind = combustion\nm = 1",
     "kind = blowup_example\nF = exp"),
    ("initial_u.value: unknown key", "kind = uniform\nvalue = 0.0",
     f"kind = nodes\nnodes = {NODES_21}\nvalue = 0.0"),
    ("initial_u.width: unknown key", "value = 0.0",
     "value = 0.0\nwidth = 0.1"),
    # a misspelt key
    ("functional.thetaa: unknown key", "[initial_u]",
     "[functional]\nthetaa = 1.5\n\n[initial_u]"),
    ("output.csvv: unknown key", None, "\n[output]\ncsvv = x.csv\n"),
    # a required key left out
    ("initial_u.height: missing required key", "kind = uniform\nvalue = 0.0",
     "kind = bump\ncenter = 0.5\nwidth = 0.1"),
    ("model.G: missing required key", "kind = combustion\nm = 1",
     "kind = absorption\nF = exp"),
])
def test_kind_scoped_and_required_keys(needle, old, new):
    text = (COMBUSTION_ZERO + new if old is None
            else COMBUSTION_ZERO.replace(old, new, 1))
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value).startswith(f"config error at {needle}")


def test_model_required_keys_are_the_constructors():
    # each kind's required keys are the parameters its constructor gives
    # no default; the table states them so no signature is parsed at import
    from inspect import signature
    for kind, (build, readers, required) in cli._MODELS.items():
        params = signature(build).parameters.values()
        assert list(required) == [p.name for p in params
                                  if p.default is p.empty], kind
        assert set(required) <= set(readers)


def test_blowup_example_refuses_m(tmp_path, capsys):
    path, _, _ = blowup_config(tmp_path)
    path.write_text(path.read_text().replace(
        "kind = blowup_example", "kind = blowup_example\nm = 1"))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at model.m: unknown key")


def test_make_model_and_fields():
    cfg = parse_config_text(COMBUSTION_ZERO)
    assert isinstance(cfg.model, Combustion)
    assert cfg.model.claimed_mu == 0.5
    x = cfg.grid.nodes()
    cfg = parse_config_text(COMBUSTION_ZERO.replace(
        "[initial_u]\nkind = uniform\nvalue = 0.0",
        "[initial_u]\nkind = bump\ncenter = 0.5\nwidth = 0.1\n"
        "height = 2.0\nbaseline = 0.25").replace(
        "[initial_v]\nkind = uniform\nvalue = 0.0",
        "[initial_v]\nkind = uniform\nvalue = 0.3"))
    assert np.allclose(cfg.u0, 0.25 + 2.0 * np.exp(-((x - 0.5) / 0.1) ** 2))
    assert np.array_equal(cfg.v0, np.full(21, 0.3))


@pytest.mark.parametrize("value", ["0.0", "-0.0", "0.3", "5e-324", "1e300"])
def test_uniform_field_is_full_like_the_nodes(value):
    # a uniform field is filled without the node grid, byte for byte the
    # field np.full_like(grid.nodes(), value) (-0.0 and dtype included)
    cfg = parse_config_text(COMBUSTION_ZERO.replace(
        "[initial_v]\nkind = uniform\nvalue = 0.0",
        f"[initial_v]\nkind = uniform\nvalue = {value}"))
    expected = np.full_like(cfg.grid.nodes(), float(value))
    assert cfg.v0.dtype == expected.dtype
    assert cfg.v0.tobytes() == expected.tobytes()


def test_default_keys_come_after_the_sections_own():
    # [DEFAULT]'s keys are read after each section's own, so the first
    # refused key is the one the section lists, not the inherited one
    text = "[DEFAULT]\nzzz = 1\n" + COMBUSTION_ZERO.replace(
        "m = 1", "m = 1\nbad = 2")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value) == "config error at model.bad: unknown key"
    # with the section's own keys all known, the inherited one is refused
    with pytest.raises(ConfigError) as err:
        parse_config_text("[DEFAULT]\nzzz = 1\n" + COMBUSTION_ZERO)
    assert str(err.value) == "config error at model.zzz: unknown key"


def test_claim_overrides_applied():
    cfg = parse_config_text(COMBUSTION_ZERO.replace(
        "m = 1", "m = 1\nclaimed_C = 2.0\nclaimed_mu = 0.125"))
    assert cfg.model.claimed_C == 2.0
    assert cfg.model.claimed_mu == 0.125
    assert (cfg.params.C, cfg.params.mu) == (2.0, 0.125)
    # the threshold search still sets C = A when only mu is claimed
    cfg = parse_config_text(COMBUSTION_ZERO.replace(
        "kind = combustion\nm = 1", "kind = absorption\nF = power:2.0\n"
        "G = power:1.0\nlam = 0.5\nclaimed_mu = 0.25"))
    A = find_threshold_A(Power(2.0), Power(1.0), 0.5)
    assert A > 0
    assert (cfg.model.claimed_C, cfg.model.claimed_mu) == (A, 0.25)
    assert (cfg.params.C, cfg.params.mu) == (A, 0.25)


# ---------------------------------------------------------------------------
# theta subcommand
# ---------------------------------------------------------------------------

def test_cmd_theta_default(capsys):
    assert cmd_theta(1.0, 1.0, 1.0, 4) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert float(lines["theta"]) == pytest.approx(math.sqrt(1.1))
    assert len(lines["log_theta_sequence"].split(",")) == 5
    assert lines["condition_theta"] == "pass"
    assert lines["condition_mu_ratio"] == "pass"
    assert lines["condition_recurrence"].startswith("pass")


def test_cmd_theta_uneven_diffusion(capsys):
    assert cmd_theta(1.0, 4.0, 0.5, 4) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert float(lines["theta_sq_lower_bound"]) == pytest.approx(1.5625)
    assert float(lines["theta_sq"]) == pytest.approx(1.71875)


def test_cmd_theta_rejects_small_p(capsys):
    assert main(["theta", "--a", "1", "--b", "1", "--mu", "1", "--p", "1"]) == 1
    assert "functional.p" in capsys.readouterr().err


def test_cmd_theta_rejects_bad_theta(capsys):
    assert main(["theta", "--a", "1", "--b", "4", "--mu", "0.5", "--p", "4",
                 "--theta", "1.2"]) == 1
    assert "(a+b)^2/(4ab)" in capsys.readouterr().err


def test_cmd_theta_rejects_pair_without_finite_bound(capsys):
    # (a+b)^2 or theta^2 overflows: a refusal naming the key, not an
    # OverflowError
    for args, key in ((["--a", "1e300", "--b", "1"], "scheme.a"),
                      (["--a", "1", "--b", "4", "--theta", "1e200"],
                       "functional.theta")):
        assert main(["theta", *args, "--mu", "0.5"]) == 1
        captured = capsys.readouterr()
        assert f"config error at {key}" in captured.err
        assert captured.out == ""


def test_cmd_theta_recurrence_holds_at_large_p(capsys):
    # the log weights reach about 6e6: the recurrence residual of their
    # rounding is judged relative to them
    assert main(["theta", "--a", "1", "--b", "1e6", "--mu", "0.5",
                 "--p", "1000"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["condition_recurrence"].startswith("pass")


def test_main_dispatch(capsys):
    assert main(["theta", "--a", "1", "--b", "1", "--mu", "1", "--p", "4"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

def test_cmd_run_equilibrium_exit_zero(tmp_path):
    csv = tmp_path / "eq.csv"
    report = tmp_path / "eq.txt"
    path = tmp_path / "eq.ini"
    path.write_text(COMBUSTION_ZERO +
                    f"\n[output]\ncsv = {csv}\nreport = {report}\n")
    assert cmd_run(path) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[1] == "0" and cols[2] == "0"
    text = report.read_text()
    assert "verdict: completed" in text
    assert "claim.bound_u_held: true" in text
    assert "mass_control.passed: true" in text


def test_cmd_run_blowup_exit_two(tmp_path):
    path, csv, report = blowup_config(tmp_path)
    assert cmd_run(path) == 2
    text = report.read_text()
    assert "verdict: blowup" in text
    t_star = float(next(line.split(": ")[1] for line in text.splitlines()
                        if line.startswith("verdict.t")))
    assert t_star <= 2.0
    assert "mass_control.passed: false" in text
    assert "witness_1" in text


def test_cmd_run_bound_violation_exit_three(tmp_path):
    csv = tmp_path / "hot.csv"
    report = tmp_path / "hot.txt"
    path = tmp_path / "hot.ini"
    path.write_text(COMBUSTION_ZERO
                    .replace("value = 0.0", "value = 1.0")
                    .replace("t_end = 0.5", "t_end = 0.01") +
                    f"\n[output]\ncsv = {csv}\nreport = {report}\n")
    assert cmd_run(path) == 3
    text = report.read_text()
    assert "claim.bound_v_held: false" in text
    assert "field=v" in text


def test_cmd_run_signed_violation_is_flagged(tmp_path):
    # with positivity off, a negative u whose |u| outgrows u_bar0 = 0.5
    # breaks the sup-norm bound: the report names it and the CSV flags
    # its row, the same rule as claim.bound_u_held
    csv = tmp_path / "signed.csv"
    report = tmp_path / "signed.txt"
    path = tmp_path / "signed.ini"
    path.write_text(f"""
[model]
kind = blowup_example

[grid]
n_nodes = 11
length = 1.0

[scheme]
a = 1.0
b = 1.0
t_end = 0.5
enforce_positivity = false

[initial_u]
kind = uniform
value = -0.5

[initial_v]
kind = uniform
value = 1.0

[output]
csv = {csv}
report = {report}
""")
    assert cmd_run(path) == 3
    lines = report.read_text().splitlines()
    assert "claim.bound_u_held: false" in lines
    first = next(line for line in lines
                 if line.startswith("claim.first_violation:"))
    assert "field=u" in first
    t = float(first.split("t=")[1].split()[0])
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    flags = {float(row[0]): row[-1] for row in rows}
    assert flags[t] == "1"
    assert all(flag == "0" for time, flag in flags.items() if time < t)


def test_cmd_run_dt_underflow_exit_four(tmp_path):
    csv = tmp_path / "u.csv"
    report = tmp_path / "u.txt"
    path = tmp_path / "u.ini"
    path.write_text(COMBUSTION_ZERO
                    .replace("value = 0.0", "value = 1.0", 1)
                    .replace("t_end = 0.5",
                             "t_end = 0.5\nrtol = 1e-16\n"
                             "dt_init = 1e-3\ndt_min = 1e-3") +
                    f"\n[output]\ncsv = {csv}\nreport = {report}\n")
    assert cmd_run(path) == 4
    assert "verdict: dt_underflow" in report.read_text()


def test_cmd_run_config_error_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(COMBUSTION_ZERO.replace("a = 1.0", "a = -1.0"))
    assert main(["run", str(path)]) == 1
    assert "scheme.a" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("needle,old,new", [
    ("grid.length", "length = 1.0", "length = inf"),
    ("scheme.a", "a = 1.0", "a = inf"),
    ("scheme.t_end", "t_end = 0.5", "t_end = inf"),
    ("initial_u", "value = 0.0", "value = nan"),
    ("model.F", "kind = combustion\nm = 1", "kind = absorption\nF = exp:3\nG = exp"),
    ("grid.n_nodes", "n_nodes = 21", "n_nodes = 2"),
    ("scheme.b", "b = 2.0", "b = -2.0"),
    ("scheme.dt_min", "t_end = 0.5", "t_end = 0.5\ndt_min = 0"),
    ("scheme.dt_init", "t_end = 0.5", "t_end = 0.5\ndt_init = 1.0"),
    # dt_max below dt_min, or NaN, is named itself; a dt_max between
    # dt_min and dt_init names dt_init
    ("scheme.dt_max", "t_end = 0.5", "t_end = 0.5\ndt_max = nan"),
    ("scheme.dt_max", "t_end = 0.5", "t_end = 0.5\ndt_max = 0"),
    ("scheme.dt_init", "t_end = 0.5", "t_end = 0.5\ndt_max = 1e-4"),
    ("scheme.rtol", "t_end = 0.5", "t_end = 0.5\nrtol = 0"),
    ("scheme.blowup_threshold", "t_end = 0.5",
     "t_end = 0.5\nblowup_threshold = -1"),
    # every scheme setting but dt_max (no cap) must be finite
    ("scheme.rtol", "t_end = 0.5", "t_end = 0.5\nrtol = inf"),
    ("scheme.blowup_threshold", "t_end = 0.5",
     "t_end = 0.5\nblowup_threshold = inf"),
    ("scheme.dt_init", "t_end = 0.5",
     "t_end = 0.5\ndt_init = inf\ndt_max = inf"),
    ("scheme.dt_min", "t_end = 0.5",
     "t_end = 0.5\ndt_min = inf\ndt_init = inf\ndt_max = inf"),
    ("model.m", "m = 1", "m = 0"),
    ("model.lam", "kind = combustion\nm = 1",
     "kind = absorption\nF = exp\nG = exp\nlam = 1.5"),
    ("model.claimed_C", "m = 1", "m = 1\nclaimed_C = inf"),
    ("model.claimed_mu", "m = 1", "m = 1\nclaimed_mu = inf"),
    # mu / 2 underflows: the weight theta0 = mu / 2 is refused
    ("model.claimed_mu", "m = 1", "m = 1\nclaimed_mu = 5e-324"),
    ("functional.theta", "[initial_u]", "[functional]\ntheta = inf\n\n[initial_u]"),
    # theta ** 2 overflows
    ("functional.theta", "[initial_u]", "[functional]\ntheta = 1e200\n\n[initial_u]"),
    ("functional.p", "[initial_u]", "[functional]\np = 1100\n\n[initial_u]"),
    ("initial_v", "[initial_v]\nkind = uniform\nvalue = 0.0",
     "[initial_v]\nkind = uniform\nvalue = inf"),
    # negative data while enforce_positivity is set (the default)
    ("initial_u", "value = 0.0", "value = -0.5"),
    # finite, but the sampling box 2 * max(C, sup data) overflows
    ("model.claimed_C", "m = 1", "m = 1\nclaimed_C = 1e308"),
    ("initial_u", "value = 0.0", "value = 1e308"),
    ("output.csv", "bad.csv", "nodir/bad.csv"),
    ("output.report", "r.txt", "nodir/r.txt"),
    # the report would overwrite the csv
    ("output.report", "r.txt", "./bad.csv"),
    # no config edit: the environment sets the sampling seed
    ("RD_CERTIFY_SEED", None, "abc"),
    ("RD_CERTIFY_SEED", None, "-1"),
    # the theta^2 bound (a+b)^2/(4ab) overflows, or divides by 4ab = 0
    ("scheme.a", "a = 1.0", "a = 1e300"),
    ("scheme.b", "b = 2.0", "b = 1e200"),
    ("scheme.a", "a = 1.0\nb = 2.0", "a = 1e-200\nb = 1e-200"),
    # the spacing squared underflows to 0 or overflows
    ("grid.length", "length = 1.0", "length = 1e-300"),
    ("grid.length", "length = 1.0", "length = 1e300"),
    # the bound is finite, but the default theta^2 = 1.1 * bound overflows
    ("scheme.a", "a = 1.0\nb = 2.0", "a = 1.45e-309\nb = 1.0"),
    # 2 * dt_max * max(a, b) / h^2 overflows (subnormal h^2), or swamps
    # the 1 on the diagonal of the diffusion solve
    ("grid.length", "length = 1.0", "length = 1e-155"),
    ("grid.length", "length = 1.0", "length = 1e-7"),
    ("model.G", "kind = combustion\nm = 1",
     "kind = absorption\nF = exp\nG = power:inf"),
    ("model.F", "kind = combustion\nm = 1",
     "kind = absorption\nF = doubleexp-poly:nan,1\nG = exp"),
])
def test_cmd_run_invalid_number_exit_one(tmp_path, capsys, monkeypatch,
                                         needle, old, new):
    # every key the library validates: run and check both exit 1 naming
    # the key, before any output is written
    csv = tmp_path / "bad.csv"
    text = (COMBUSTION_ZERO +
            f"\n[output]\ncsv = {csv}\nreport = {tmp_path / 'r.txt'}\n")
    if old is None:
        monkeypatch.setenv(needle, new)
    else:
        text = text.replace(old, new, 1)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    for command in ("run", "check"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert needle in captured.err
        assert captured.out == ""
        assert not csv.exists()


@pytest.mark.parametrize("key", ["output.csv", "output.report"])
def test_unopenable_output_path_exit_one(tmp_path, capsys, key):
    # a path in a symlink loop, under a file, or naming a directory that
    # does not exist (a trailing slash) is refused by run and check alike
    # before anything runs; the csv is checked first
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    (tmp_path / "file").write_text("")
    for bad in (tmp_path / "loop", tmp_path / "file" / "x.csv",
                f"{tmp_path}/newdir/"):
        csv, report = tmp_path / "ok.csv", tmp_path / "ok.txt"
        if key == "output.csv":
            csv = report = bad
        else:
            report = bad
        path = tmp_path / "bad.ini"
        path.write_text(COMBUSTION_ZERO
                        + f"\n[output]\ncsv = {csv}\nreport = {report}\n")
        for command in ("run", "check"):
            assert main([command, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"config error at {key}: cannot write {bad}\n"
            assert captured.out == ""
            assert not (tmp_path / "ok.csv").exists()


def test_undecodable_config_exit_one(tmp_path, capsys):
    # a config that is not UTF-8 is refused, not a traceback
    path = tmp_path / "latin.ini"
    path.write_bytes(b"# caf\xe9 \xff\n" + COMBUSTION_ZERO.encode())
    for command in ("run", "check"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error at config: cannot read {path}: ")
        assert "can't decode byte 0xe9" in err


def test_overflowing_reaction_stage_ends_quietly(tmp_path, capsys,
                                                 monkeypatch):
    # every trial's reaction stage overflows: dt underflows at t = 0 with
    # no RuntimeWarning (an error under pytest's filter) on stderr
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "over.ini"
    path.write_text((CONFIGS / "blowup.ini").read_text()
                    .replace("t_end = 3.0", "t_end = 20")
                    .replace("dt_init = 1e-3", "dt_init = 10")
                    .replace("dt_max = 0.05", "dt_max = 10")
                    .replace("kind = uniform\nvalue = 1.0",
                             "kind = uniform\nvalue = 1e154"))
    assert main(["run", str(path)]) == 4
    captured = capsys.readouterr()
    assert "verdict: dt_underflow" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("old,new,center", [
    ("center = 0.5", "center = 1e308", 1e308),
    ("width = 0.12", "width = 1e-320", 0.5),
])
def test_overflowing_bump_is_its_baseline(old, new, center, tmp_path, capsys,
                                          monkeypatch):
    # exp(-inf) = 0 is the intended value of a Gaussian whose argument
    # overflows, so the command runs with no RuntimeWarning
    monkeypatch.chdir(tmp_path)
    text = (CONFIGS / "combustion_bump.ini").read_text().replace(old, new, 1)
    path = tmp_path / "bump.ini"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(path)]) == 0
        cfg = parse_config_text(text)
    assert capsys.readouterr().err == ""
    x = cfg.grid.nodes()
    assert np.all(cfg.u0[x != center] == 0.2)
    assert np.all(cfg.u0[x == center] == 1.2)


def test_env_seed_reaches_both_reports(tmp_path, capsys, monkeypatch):
    # the CLI set-up is the one reader of RD_CERTIFY_SEED
    monkeypatch.setenv("RD_CERTIFY_SEED", "123")
    report = tmp_path / "r.txt"
    path = tmp_path / "seed.ini"
    path.write_text(COMBUSTION_ZERO + f"\n[output]\ncsv = {tmp_path / 'r.csv'}"
                    f"\nreport = {report}\n")
    assert cmd_check(path) == 0
    assert "mass_control.seed: 123" in capsys.readouterr().out.splitlines()
    assert cmd_run(path) == 0
    assert "mass_control.seed: 123" in report.read_text().splitlines()


def test_csv_17_digit_round_trip(tmp_path):
    path, csv, report = blowup_config(tmp_path, log_every=10)
    cmd_run(path)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    cols = lines[1].split(",")
    assert float(cols[1]) == 0.75
    assert float(cols[2]) == 1.0
    # every numeric survives the text round-trip bit for bit
    for line in lines[1:3]:
        for tok in line.split(",")[:7]:
            assert f"{float(tok):.17g}" == tok


def test_csv_log_every_keeps_final_row(tmp_path):
    path, csv, report = blowup_config(tmp_path, log_every=1000)
    cmd_run(path)
    rows = csv.read_text().strip().splitlines()[1:]
    t_star = float(rows[-1].split(",")[0])
    text = report.read_text()
    reported = float(next(line.split(": ")[1] for line in text.splitlines()
                          if line.startswith("verdict.t")))
    assert t_star == reported


def test_cmd_run_is_byte_deterministic(tmp_path):
    path1, csv1, _ = blowup_config(tmp_path / "one", log_every=5)
    path2, csv2, _ = blowup_config(tmp_path / "two", log_every=5)
    assert cmd_run(path1) == 2
    assert cmd_run(path2) == 2
    assert csv1.read_bytes() == csv2.read_bytes()


# sha256 prefixes recorded before L, I and J were filled in by blocks of
# rows and both fields were solved in one call: the float.hex of every
# series row (all eight columns, also the rows the CSV leaves out), then
# the CSV and the report bytes, with the exit code
PINNED_SHIPPED_RUNS = {
    "absorption_decay": (3, "4463ef77554bc1d2", "cedef440", "8f9c7495"),
    "combustion_bump": (0, "5fc83878f96d3ea1", "a3c025b8", "30a7b415"),
    "blowup": (2, "874df256f649470d", "8e7f9915", "a2f2a189"),
}


def _pinned_run(path, monkeypatch, capsys):
    """The exit code of ``cmd_run`` on ``path``, run in its directory,
    and the sha256 prefixes of the float.hex series rows, the CSV and
    the report."""
    monkeypatch.delenv("RD_CERTIFY_SEED", raising=False)
    monkeypatch.chdir(path.parent)
    runs = []

    def recording_run(*args):
        runs.append(run(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    code = cmd_run(path)
    capsys.readouterr()
    (series, _), = runs
    columns = [getattr(series, key) for key in CSV_HEADER.split(",")]
    rows = "\n".join(",".join(float(x).hex() for x in row)
                     for row in zip(*columns))
    digests = [hashlib.sha256(data).hexdigest() for data in (
        rows.encode(), (path.parent / f"{path.stem}.csv").read_bytes(),
        (path.parent / f"{path.stem}_report.txt").read_bytes())]
    return code, digests[0][:16], digests[1][:8], digests[2][:8]


@pytest.mark.parametrize("name", sorted(PINNED_SHIPPED_RUNS))
def test_shipped_config_rows_pinned(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.ini"
    path.write_text((CONFIGS / f"{name}.ini").read_text())
    assert _pinned_run(path, monkeypatch, capsys) == PINNED_SHIPPED_RUNS[name]


def test_fine_combustion_rows_pinned(tmp_path, monkeypatch, capsys):
    # the bumps at 2001 nodes, the benchmark's combustion-fine input at
    # seed 0: a grid whose every round goes to ?gtsv
    path = tmp_path / "combustion_bump.ini"
    path.write_text((CONFIGS / "combustion_bump.ini").read_text()
                    .replace("n_nodes = 101", "n_nodes = 2001"))
    assert _pinned_run(path, monkeypatch, capsys) == \
        (0, "39f49274c7e92bed", "387ce280", "4b2c7cab")


# ---------------------------------------------------------------------------
# check subcommand
# ---------------------------------------------------------------------------

def test_cmd_check_combustion_passes(tmp_path, capsys):
    path = tmp_path / "c.ini"
    path.write_text(COMBUSTION_ZERO)
    assert cmd_check(path) == 0
    out = capsys.readouterr().out
    assert "mass_control.passed: true" in out
    assert "g_nonneg.passed: true" in out


def test_cmd_check_blowup_fails_with_witness(tmp_path, capsys):
    path, _, _ = blowup_config(tmp_path)
    assert cmd_check(path) == 3
    out = capsys.readouterr().out
    assert "mass_control.passed: false" in out
    assert "witness_1" in out and "f_plus_mu_g_le_0" in out


def test_cmd_check_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(COMBUSTION_ZERO.replace("length = 1.0", "length = 0.0"))
    assert main(["check", str(path)]) == 1
    assert "grid.length" in capsys.readouterr().err


@pytest.mark.parametrize("config,code,digest", [
    ("combustion_bump.ini", 0, "422bde10"),
    ("absorption_decay.ini", 0, "422bde10"),
    ("blowup.ini", 3, "d3aefa5e"),
    (None, 0, "bd85fc9f"),
    (NEGATIVE_G, 3, "70db03fd"),
], ids=["combustion_bump", "absorption_decay", "blowup", "power_search",
        "negative_g"])
def test_cmd_check_output_bytes(config, code, digest, tmp_path, capsys,
                                monkeypatch):
    # the stdout of check is pinned byte for byte at the default seed;
    # this pins the witness texts too (the floats verify._judge reads out
    # per array), with MAX_WITNESSES of each kind in negative_g
    monkeypatch.delenv("RD_CERTIFY_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    if config is None:
        path = tmp_path / "power.ini"
        path.write_text(POWER_SEARCH)
    elif config == NEGATIVE_G:
        path = tmp_path / "negative_g.ini"
        path.write_text(NEGATIVE_G)
    else:
        path = CONFIGS / config
    assert cmd_check(path) == code
    out = capsys.readouterr().out
    if config is None:
        assert "mass_control.mu: 0.03125" in out.splitlines()
    if config == NEGATIVE_G:
        lines = out.splitlines()
        for prefix in ("mass_control", "g_nonneg"):
            assert f"{prefix}.violations: {verify.MAX_WITNESSES}" in lines
            assert [line.split(":")[0] for line in lines
                    if line.startswith(f"{prefix}.witness_")] == [
                f"{prefix}.witness_{k}"
                for k in range(1, verify.MAX_WITNESSES + 1)]
    assert hashlib.sha256(out.encode()).hexdigest()[:8] == digest


def test_cmd_check_bytes_survive_another_box(tmp_path, capsys, monkeypatch):
    # the box's points are kept between samples of one box: checking A,
    # then B on a larger box, then A again prints each one's pinned bytes
    monkeypatch.delenv("RD_CERTIFY_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    other = tmp_path / "other.ini"
    other.write_text((CONFIGS / "combustion_bump.ini").read_text().replace(
        "m = 1", "m = 1\nclaimed_C = 12.0"))
    outs = []
    for path in (CONFIGS / "combustion_bump.ini", other,
                 CONFIGS / "combustion_bump.ini"):
        assert cmd_check(path) == 0
        outs.append(capsys.readouterr().out)
    assert "mass_control.box: [0,24.0]x[0,24.0]" in outs[1].splitlines()
    assert [hashlib.sha256(out.encode()).hexdigest()[:8] for out in outs] == [
        "422bde10", "ee970647", "422bde10"]


def test_cmd_check_evaluates_the_kinetics_once(tmp_path, capsys, monkeypatch):
    # with no mu claimed, search_mu judges all 21 values of mu and
    # check_g_nonneg the lattice, all on one sample of the box
    monkeypatch.chdir(tmp_path)
    sizes = []
    rates = BlowupExample.rates

    def counted(self, u, v):
        sizes.append(np.size(u))
        return rates(self, u, v)

    monkeypatch.setattr(BlowupExample, "rates", counted)
    assert cmd_check(CONFIGS / "blowup.ini") == 3
    assert "mass_control.mu: 9.5367431640625e-07" in capsys.readouterr().out
    assert sizes == [2 * 64 * 64]


def test_cmd_check_builds_one_report(tmp_path, capsys, monkeypatch):
    # search_mu judges 21 values of mu but builds the witnesses of the
    # one report it returns: at most MAX_WITNESSES of them
    monkeypatch.chdir(tmp_path)
    built = []
    violation = verify.MassControlViolation

    def counted(*args):
        built.append(1)
        return violation(*args)

    monkeypatch.setattr(verify, "MassControlViolation", counted)
    assert cmd_check(CONFIGS / "blowup.ini") == 3
    assert "mass_control.violations: 100" in capsys.readouterr().out
    assert len(built) == verify.MAX_WITNESSES == 100
