"""End-to-end acceptance checks.

One test per criterion; each prints a single `[acceptance] criterion N:
PASS|FAIL` line (visible with ``pytest -s`` or in captured output on
failure) and then asserts.  Expensive trajectory runs are shared through
session fixtures.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from rdcertify.cli import CSV_HEADER, cmd_run
from rdcertify.integrator import SchemeConfig, run
from rdcertify.kinetics import Absorption, BlowupExample, Combustion, Exp
from rdcertify.lyapunov import build_params, check_conditions, quadratic_Ti
from rdcertify.mesh import Grid, integrate
from rdcertify.verify import (assemble_claim_report, check_mass_control,
                              sample_box)


def report(n, checks):
    """checks: list of (label, bool). Prints the verdict line, then asserts."""
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[acceptance] criterion {n}: {status}"
          + (f" ({'; '.join(failed)})" if failed else ""))
    assert not failed, f"criterion {n} failed: {failed}"


# ---------------------------------------------------------------------------
# Independent oracles (built separately from the library under test)
# ---------------------------------------------------------------------------

def combustion_rhs(t, y):
    return [-y[0] * math.exp(y[1]), y[0] * math.exp(y[1])]


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def heat_runs():
    out = {}
    for n in (101, 201):
        grid = Grid(n, 1.0)
        x = grid.nodes()
        u0 = np.cos(np.pi * x)
        v0 = np.zeros_like(x)
        cfg = SchemeConfig(a=1.0, b=1.0, t_end=0.1, rtol=1e-7, dt_init=1e-4,
                           enforce_positivity=False)
        params = build_params(1.0, 1.0, 0.5, 0.0, 4, u0, v0)
        series, verdict = run(BlowupExample(), cfg, grid, u0, v0, params)
        assert verdict.kind == "completed"
        exact = np.exp(-np.pi ** 2 * series.final_state.t) * np.cos(np.pi * x)
        out[n] = (series, float(np.max(np.abs(series.final_state.u - exact))))
    return out


@pytest.fixture(scope="session")
def conservation_run():
    grid = Grid(101, 1.0)
    x = grid.nodes()
    Y0 = 0.2 + np.exp(-((x - 0.5) / 0.12) ** 2)
    T0 = 0.1 + 0.5 * np.exp(-((x - 0.4) / 0.15) ** 2)
    cfg = SchemeConfig(a=1.0, b=2.0, t_end=1.0, rtol=1e-6, dt_init=1e-4)
    params = build_params(1.0, 2.0, 0.5, 0.0, 4, Y0, T0)
    series, verdict = run(Combustion(1), cfg, grid, Y0, T0, params)
    assert verdict.kind == "completed"
    m0 = integrate(Y0 + T0, grid)
    m1 = integrate(series.final_state.u + series.final_state.v, grid)
    return series, abs(m1 - m0) / m0


BLOWUP_CONFIG = """[model]
kind = blowup_example

[grid]
n_nodes = 31
length = 1.0

[scheme]
a = 1.0
b = 1.0
t_end = 3.0
rtol = 1e-6
dt_init = 1e-3
dt_max = 0.05
blowup_threshold = 1e6

[initial_u]
kind = uniform
value = 0.75

[initial_v]
kind = uniform
value = 1.0

[output]
csv = {csv}
report = {report}
log_every = 1
"""


def run_blowup_cli(directory):
    directory.mkdir(parents=True, exist_ok=True)
    csv = directory / "blowup.csv"
    rep = directory / "blowup.txt"
    config = directory / "blowup.ini"
    config.write_text(BLOWUP_CONFIG.format(csv=csv, report=rep))
    code = cmd_run(config)
    return code, csv.read_bytes(), rep.read_text()


def parse_csv(data: bytes):
    lines = data.decode().strip().splitlines()
    assert lines[0] == CSV_HEADER
    cols = np.array([[float(tok) for tok in line.split(",")]
                     for line in lines[1:]])
    return {name: cols[:, k]
            for k, name in enumerate(CSV_HEADER.split(","))}


@pytest.fixture(scope="session")
def blowup_cli_run(tmp_path_factory):
    return run_blowup_cli(tmp_path_factory.mktemp("blowup") / "one")


@pytest.fixture(scope="session")
def ode_agreement_runs():
    # Combustion and absorption with F = G = exp share the reduced ODE
    # Y' = -Y e^T, T' = Y e^T: one DOP853 dense solution is the oracle
    oracle = solve_ivp(combustion_rhs, (0.0, 2.0), [1.0, 1.0],
                       method="DOP853", rtol=1e-13, atol=1e-13,
                       dense_output=True).sol
    ts = np.linspace(0.0, 2.0, 100001)
    ys = oracle(ts).T
    out = {}
    for name, model in (("combustion", Combustion(1)),
                        ("absorption", Absorption(Exp(), Exp()))):
        grid = Grid(11, 1.0)
        u0 = np.ones(11)
        v0 = np.ones(11)
        cfg = SchemeConfig(a=1.0, b=2.0, t_end=2.0, rtol=1e-8, dt_init=1e-5)
        params = build_params(1.0, 2.0, 0.5, 0.0, 4, u0, v0)
        series, verdict = run(model, cfg, grid, u0, v0, params)
        assert verdict.kind == "completed"
        exact_u, exact_v = oracle(series.t)
        err_u = np.max(np.abs(series.sup_u - exact_u))
        err_v = np.max(np.abs(series.sup_v - exact_v))
        out[name] = (series, max(err_u, err_v), (ts, ys))
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_theta_machinery():
    rng = np.random.default_rng(20240817)
    checks = []
    for _ in range(100):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.05, 4.0))
        p = int(rng.integers(2, 13))
        params = build_params(a, b, mu, 0.0, p, np.zeros(3), np.zeros(3))
        rep = check_conditions(params, a, b)
        checks.append(rep.passed and rep.recurrence_residual <= 1e-9)
        xi = rng.uniform(-10.0, 10.0, size=10000)
        eta = rng.uniform(-10.0, 10.0, size=10000)
        ok = True
        for i in range(p - 1):
            for sU, sV in ((0, 0), (1, 0), (0, 1), (1, 1)):
                vals = np.asarray(quadratic_Ti(params, i, a, b, sU, sV,
                                               xi, eta))
                ok = ok and bool(np.all(vals >= 0.0))
        checks.append(ok)
    report(1, [("all 100 random configurations", all(checks))])


def test_criterion_2_heat_equation_convergence(heat_runs):
    err101 = heat_runs[101][1]
    err201 = heat_runs[201][1]
    ratio = err101 / err201
    report(2, [
        (f"sup error at 201 nodes {err201:.3g} <= 1e-3", err201 <= 1e-3),
        (f"error ratio {ratio:.3f} in [3.2, 4.8]", 3.2 <= ratio <= 4.8),
    ])


def test_criterion_3_conservation(conservation_run):
    _, drift = conservation_run
    report(3, [(f"relative drift {drift:.3g} <= 1e-5", drift <= 1e-5)])


def test_criterion_4_blowup_reproduction(blowup_cli_run):
    code, csv_bytes, report_text = blowup_cli_run
    cols = parse_csv(csv_bytes)
    t_star = float(next(line.split(": ")[1]
                        for line in report_text.splitlines()
                        if line.startswith("verdict.t")))
    t = cols["t"]
    mask = t < t_star
    comparison = 1.0 / (1.0 - t[mask] / 2.0) - 1e-2
    report(4, [
        ("exit code 2 (blow-up verdict)", code == 2),
        (f"t* = {t_star:.4f} <= 2.0", t_star <= 2.0),
        ("v(t) >= 1/(1 - t/2) - 1e-2 at every logged t < t*",
         bool(np.all(cols["sup_v"][mask] >= comparison))),
        ("u(t) in [0.5, 1] throughout",
         bool(cols["sup_u"].min() >= 0.5 and cols["sup_u"].max() <= 1.0)),
    ])


def test_criterion_5_mass_control_checker():
    models = (Combustion(1), Absorption(Exp(), Exp()), BlowupExample())
    combustion, absorption, blowup = (
        check_mass_control(sample_box(model, 10.0, 64), 0.0, 0.5)
        for model in models)
    witness_ok = (not blowup.passed and len(blowup.violations) > 0
                  and any(w.f > 0.0 for w in blowup.violations)
                  and "witness_1" in "\n".join(blowup.to_lines()))
    report(5, [
        ("combustion passes at (C=0, mu=1/2)", combustion.passed),
        ("absorption F=G=exp passes at (C=0, mu=1/2)", absorption.passed),
        ("blow-up example fails with a printed witness having f > 0",
         witness_ok),
    ])


def test_criterion_6_homogeneous_ode_oracle(ode_agreement_runs):
    checks = []
    for name in ("combustion", "absorption"):
        _, err, _ = ode_agreement_runs[name]
        checks.append((f"{name} sup error {err:.3g} <= 1e-4", err <= 1e-4))
    report(6, checks)


def test_criterion_7_claim_measurement_fidelity(ode_agreement_runs):
    series, _, (ts, ys) = ode_agreement_runs["combustion"]
    claim = assemble_claim_report(series)
    # ODE oracle first crossing of the candidate bound v_bar0 = 1,
    # located by linear interpolation on the oracle grid
    over = np.flatnonzero(ys[:, 1] > 1.0)
    i = over[0]
    if i == 0:
        t_ode = 0.0
    else:
        frac = (1.0 - ys[i - 1, 1]) / (ys[i, 1] - ys[i - 1, 1])
        t_ode = ts[i - 1] + frac * (ts[i] - ts[i - 1])
    violation = claim.first_violation
    rows_flagged = np.flatnonzero(series.bound_violation)
    first_row = int(rows_flagged[0])
    dt_at_violation = float(series.dt[first_row])
    l_positive_rows = np.flatnonzero(series.L > 0.0)
    report(7, [
        ("a v-bound violation was recorded",
         violation is not None and violation.field == "v"),
        (f"|t_pde - t_ode| = {abs(violation.t - t_ode):.3g} <= 2*dt",
         abs(violation.t - t_ode) <= 2.0 * dt_at_violation),
        ("L becomes positive at the violation step",
         l_positive_rows.size > 0 and int(l_positive_rows[0]) == first_row),
    ])


def test_criterion_8_dissipation_sign(heat_runs, conservation_run,
                                      blowup_cli_run, ode_agreement_runs):
    checks = []
    for n in (101, 201):
        I = heat_runs[n][0].I
        checks.append((f"heat run {n} nodes", bool(np.all(I <= 0.0))))
    checks.append(("conservation run",
                   bool(np.all(conservation_run[0].I <= 0.0))))
    blow_I = parse_csv(blowup_cli_run[1])["I"]
    checks.append(("blow-up run", bool(np.all(blow_I <= 0.0))))
    for name in ("combustion", "absorption"):
        I = ode_agreement_runs[name][0].I
        checks.append((f"{name} oracle run", bool(np.all(I <= 0.0))))
    report(8, checks)


def test_criterion_9_determinism(blowup_cli_run, tmp_path_factory):
    code, csv_bytes, _ = blowup_cli_run
    code2, csv_bytes2, _ = run_blowup_cli(
        tmp_path_factory.mktemp("blowup") / "two")
    report(9, [
        ("both runs report blow-up", code == 2 and code2 == 2),
        ("byte-identical CSV", csv_bytes == csv_bytes2),
    ])
