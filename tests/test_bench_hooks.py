"""The names the benchmark's tracer hooks into still exist.

``bench/tracer.py`` wraps package functions by name (``FUNCTIONS``),
``rates`` on the catalog classes (``RATES_CLASSES``), reads
``TimeSeries.rows``, and counts steps and trials off what ``step_imex``
takes and returns.  A deletion or rename in ``src/`` that drops one of
them breaks ``bench/run.py --trace 1`` with an AttributeError; these
tests make that show in the library's own suite.  The tracer is loaded
from its file; only its step hook is called.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rdcertify
import rdcertify.cli  # noqa: F401  (the tracer installs after this import)
from rdcertify.integrator import SchemeConfig, SimState, TimeSeries, step_imex
from rdcertify.kinetics import Combustion
from rdcertify.mesh import Grid

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_traced_function_resolves(span):
    module, attr = tracer.FUNCTIONS[span]
    assert module in tracer.MODULES
    assert callable(getattr(getattr(rdcertify, module), attr))


@pytest.mark.parametrize("name", tracer.RATES_CLASSES)
def test_traced_rates_class_resolves(name):
    assert callable(getattr(rdcertify.kinetics, name).rates)


def test_traced_modules_and_series_rows_resolve():
    for module in tracer.MODULES:
        assert getattr(rdcertify, module).__name__ == f"rdcertify.{module}"
    assert isinstance(TimeSeries.rows, property)


@pytest.mark.parametrize("dt_min,steps,trials", [(1e-12, 1, 4), (0.05, 0, 0)])
def test_step_hook_reads_a_real_step(dt_min, steps, trials):
    # the hook reads StepResult.state and .dt_used, and the step's first
    # argument's .dt: three halvings from dt = 0.1 land the step (rtol =
    # 1e9 leaves only the positivity guard to reject), unless dt_min
    # stops them first
    grid = Grid(5, 1.0)
    u0, v0 = np.ones(5), np.full(5, 5.0)
    cfg = SchemeConfig(a=1.0, b=1.0, t_end=1.0, rtol=1e9, dt_init=0.1,
                       dt_min=dt_min)
    model = Combustion(1)
    args = (SimState(0.0, u0, v0, cfg.dt_init), model, cfg, grid,
            model.rates(u0, v0))
    result = step_imex(*args)
    hooks = tracer.Tracer()
    hooks._on_step(args, result)
    assert hooks.counters["integrator.accepted_steps"] == steps
    assert hooks.counters["integrator.trials"] == trials
