"""Self-test of the benchmark's tracer and harness.

    python3 -m pytest -q bench

Runs real traced children of the two run workloads at seed 0 (about a
minute and a half) and reconciles the outside-in counters with the
integrator's own series.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from tracer import Tracer

# Exact (accepted steps, solves) at seed 0, as measured when the benchmark
# was written; a change to the scheme moves them on purpose.
SEED0_COUNTS = {"blowup": (10884, 65304), "combustion-fine": (1456, 8778)}


@pytest.fixture(scope="module", params=sorted(SEED0_COUNTS))
def traced_pair(request):
    workload = request.param
    rundir = run.prepare(workload, workloads.DEFAULT_SEED)
    first = run.launch(workload, workloads.DEFAULT_SEED, True, rundir)
    second = run.launch(workload, workloads.DEFAULT_SEED, True, rundir)
    return workload, first, second


def test_accepted_steps_are_rows_minus_one(traced_pair):
    _, res, _ = traced_pair
    assert res["layers"]["integrator.accepted_steps"] == res["info"]["rows"] - 1


def test_six_solves_per_trial(traced_pair):
    # Neither workload meets a non-finite reaction stage, so every trial
    # runs its three substeps to the end, two solves each.
    _, res, _ = traced_pair
    assert res["layers"]["integrator.solve_calls"] == \
        6 * res["counters"]["integrator.trials"]


def test_counts_repeat_and_match_seed_numbers(traced_pair):
    workload, first, second = traced_pair
    counted = ("integrator.accepted_steps", "integrator.step_calls",
               "integrator.solve_calls", "kinetics.rates_calls",
               "kinetics.rates_points", "lyapunov.diag_calls",
               "mesh.sup_norm_calls", "mesh.integrate_calls",
               "mesh.as_field_calls", "cli.csv_bytes", "cli.report_bytes")
    assert {k: first["layers"][k] for k in counted} == \
        {k: second["layers"][k] for k in counted}
    steps, solves = SEED0_COUNTS[workload]
    assert first["layers"]["integrator.accepted_steps"] == steps
    assert first["layers"]["integrator.solve_calls"] == solves


def test_output_checks_pass(traced_pair):
    _, res, _ = traced_pair
    assert all(res["checks"].values()), res["checks"]


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    inner = tracer.wrap("inner", inner)

    def outer():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["total_s"] >= 0.05
    assert 0.01 <= totals["outer"]["self_s"] < 0.02
    assert totals["outer"]["total_s"] == pytest.approx(
        totals["outer"]["self_s"] + totals["inner"]["total_s"])


def test_sweep_checks_and_digest():
    rundir = run.prepare("certify-sweep", 1)
    res = run.launch("certify-sweep", 1, False, rundir)
    assert all(res["checks"].values()), res["checks"]
    assert run.reference_notes("certify-sweep", 1, res)["verdict_digest"] \
        == "match"


def test_fails_without_the_library():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(run.BENCH / "reference.json", bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blowup", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
