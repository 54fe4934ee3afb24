"""Outside-in layer tracing for rd-certify.

The tracer replaces public functions of each layer with timing wrappers
wherever the function is bound (its defining module, every rdcertify
module that imported it by name, and the package namespace), and wraps
``rates`` on each catalog class.  Spans (name, parent, start, end) stay
in memory and are written as JSON when the run ends.  A span's self time
is its duration minus the durations of its direct children.

Nothing inside the library changes: the wrappers sit at the call
boundaries between layers, so private helpers (``_advance``, ``_log``,
``_sample_box``) count towards the self time of the public function
that calls them.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

import numpy as np

# Span name -> (module attribute path) of the wrapped public functions.
FUNCTIONS = {
    "mesh.sup_norm": ("mesh", "sup_norm"),
    "mesh.integrate": ("mesh", "integrate"),
    "mesh.as_field": ("mesh", "as_field"),
    "kinetics.find_threshold_A": ("kinetics", "find_threshold_A"),
    "integrator.run": ("integrator", "run"),
    "integrator.step_imex": ("integrator", "step_imex"),
    "integrator.solve_diffusion_implicit": ("integrator",
                                            "solve_diffusion_implicit"),
    "lyapunov.build_params": ("lyapunov", "build_params"),
    "lyapunov.lyapunov_L": ("lyapunov", "lyapunov_L"),
    "lyapunov.dissipation_I": ("lyapunov", "dissipation_I"),
    "lyapunov.reaction_J": ("lyapunov", "reaction_J"),
    "verify.monitor_bounds": ("verify", "monitor_bounds"),
    "verify.check_mass_control": ("verify", "check_mass_control"),
    "verify.search_mu": ("verify", "search_mu"),
    "verify.check_g_nonneg": ("verify", "check_g_nonneg"),
    "verify.assemble_claim_report": ("verify", "assemble_claim_report"),
    "cli.parse_config": ("cli", "parse_config"),
    "cli.write_csv": ("cli", "write_csv"),
    "cli.main": ("cli", "main"),
}
RATES_CLASSES = ("Absorption", "Combustion", "BlowupExample")
MODULES = ("mesh", "kinetics", "integrator", "lyapunov", "verify", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []      # [name index, parent index, t0, t1]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    # -- counters read off arguments and results --------------------------

    def _on_step(self, args, result):
        # Each rejected trial halves dt exactly, so the trials of an
        # accepted step are 1 + log2(dt requested / dt used).
        if result.state is not None:
            self.counters["integrator.accepted_steps"] += 1
            self.counters["integrator.trials"] += 1 + round(
                math.log2(args[0].dt / result.dt_used))

    def _on_rates(self, args, result):
        self.counters["kinetics.rates_points"] += np.size(args[1])

    def _on_samples(self, args, report):
        self.counters["verify.samples"] += (report.samples_tested
                                            + report.samples_indeterminate)

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` (rdcertify)."""
        modules = [getattr(package, m) for m in MODULES]
        hooks = {"integrator.step_imex": self._on_step,
                 "verify.check_mass_control": self._on_samples,
                 "verify.check_g_nonneg": self._on_samples}
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(getattr(package, mod), attr)
            wrapper = self.wrap(name, fn, hooks.get(name))
            for namespace in [package, *modules]:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, key, wrapper)
        for cls_name in RATES_CLASSES:
            cls = getattr(package.kinetics, cls_name)
            cls.rates = self.wrap("kinetics.rates", cls.rates, self._on_rates)

    # -- aggregation ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=float)
        nid = arr[:, 0].astype(int)
        parent = arr[:, 1].astype(int)
        dur = arr[:, 3] - arr[:, 2]
        child = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        for k, name in enumerate(self.names):
            mask = nid == k
            agg = out[name]
            agg["calls"] += int(mask.sum())
            agg["total_s"] += float(dur[mask].sum())
            agg["self_s"] += float(selft[mask].sum())
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def layer_metrics(tracer: Tracer, series, files: dict[str, int]) -> dict:
    """The per-layer metrics of one traced run, keyed by metric name.

    ``series`` is the integrator's TimeSeries (None when the workload
    does not integrate); ``files`` holds the CSV and report sizes.
    """
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t[name]["calls"]

    def self_s(name):
        return t[name]["self_s"]

    steps = calls("integrator.step_imex")
    solves = calls("integrator.solve_diffusion_implicit")
    rows = 0 if series is None else len(series)
    zero_rows = 0 if series is None else sum(
        1 for row in series.rows if row[3] == 0.0 and row[4] == 0.0
        and row[5] == 0.0)
    mesh = ("mesh.sup_norm", "mesh.integrate", "mesh.as_field")
    return {
        "integrator.accepted_steps": c["integrator.accepted_steps"],
        "integrator.step_calls": steps,
        "integrator.solve_calls": solves,
        "integrator.trials_per_step": solves / (6 * steps) if steps else 0.0,
        "integrator.step_self_s": self_s("integrator.step_imex"),
        "integrator.solve_s": self_s("integrator.solve_diffusion_implicit"),
        "integrator.solve_us_per_call": (
            1e6 * self_s("integrator.solve_diffusion_implicit") / solves
            if solves else 0.0),
        "kinetics.rates_calls": calls("kinetics.rates"),
        "kinetics.rates_points": c["kinetics.rates_points"],
        "kinetics.rates_s": self_s("kinetics.rates"),
        "kinetics.threshold_calls": calls("kinetics.find_threshold_A"),
        "kinetics.threshold_s": self_s("kinetics.find_threshold_A"),
        "lyapunov.L_s": self_s("lyapunov.lyapunov_L"),
        "lyapunov.I_s": self_s("lyapunov.dissipation_I"),
        "lyapunov.J_s": self_s("lyapunov.reaction_J"),
        "lyapunov.diag_calls": (calls("lyapunov.lyapunov_L")
                                + calls("lyapunov.dissipation_I")
                                + calls("lyapunov.reaction_J")),
        "lyapunov.zero_rows_frac": zero_rows / rows if rows else 0.0,
        "lyapunov.build_params_s": self_s("lyapunov.build_params"),
        "verify.monitor_s": self_s("verify.monitor_bounds"),
        "verify.mass_control_calls": calls("verify.check_mass_control"),
        "verify.mass_control_s": self_s("verify.check_mass_control"),
        "verify.samples": c["verify.samples"],
        "verify.search_mu_calls": calls("verify.search_mu"),
        "verify.g_nonneg_s": self_s("verify.check_g_nonneg"),
        "verify.claim_report_s": self_s("verify.assemble_claim_report"),
        "mesh.sup_norm_calls": calls("mesh.sup_norm"),
        "mesh.integrate_calls": calls("mesh.integrate"),
        "mesh.as_field_calls": calls("mesh.as_field"),
        "mesh.self_s": sum(self_s(name) for name in mesh),
        "cli.parse_s": self_s("cli.parse_config"),
        "cli.write_csv_s": self_s("cli.write_csv"),
        "cli.csv_bytes": files.get("csv", 0),
        "cli.report_bytes": files.get("report", 0),
    }
