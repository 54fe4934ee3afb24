"""The names the benchmark's tracer hooks into still exist.

``bench/tracer.py`` wraps package functions by name (``FUNCTIONS``),
``rates`` on the catalog classes (``RATES_CLASSES``), and reads
``TimeSeries.rows``.  A deletion or rename in ``src/`` that drops one of
them breaks ``bench/run.py --trace 1`` with an AttributeError; these
tests make that show in the library's own suite.  The tracer is loaded
from its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

import rdcertify
import rdcertify.cli  # noqa: F401  (the tracer installs after this import)
from rdcertify.integrator import TimeSeries

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
