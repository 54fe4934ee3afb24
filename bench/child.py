"""One run of one workload, in its own process.

Usage (from bench/run.py, with the working directory set to the run
directory the parent prepared)::

    python3 bench/child.py WORKLOAD SEED TRACE RESULT_JSON

"Ready" is the first call into the integrator (run workloads) or the
first claim (certify-sweep); "done" is after the last CSV, report or
verdict line.  Set-up is measured by the parent from process launch to
ready.  After done the run's outputs are checked and everything is
written to RESULT_JSON; nothing after done is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

# rdcertify, numpy and scipy load here: these imports are part of set-up.
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import rdcertify  # noqa: E402
from rdcertify import cli  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trapezoid(f: np.ndarray, h: float) -> float:
    return float(h * (0.5 * (f[0] + f[-1]) + f[1:-1].sum()))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int) -> dict:
    """Run through the CLI ``run`` path; returns timings and outputs."""
    captured = {}
    integrate = cli.run

    def marked_run(*args, **kwargs):
        captured["t_ready"] = time.monotonic()
        captured["series"], captured["verdict"] = integrate(*args, **kwargs)
        return captured["series"], captured["verdict"]

    cli.run = marked_run
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "config.ini"])
    t_done = time.monotonic()
    peak_rss_mb = _peak_rss_mb()
    cli.run = integrate

    series, verdict = captured["series"], captured["verdict"]
    csv, report = Path("run.csv"), Path("run_report.txt")
    checks = (check_blowup if workload == "blowup" else check_combustion)(
        seed, code, series, verdict)
    info = {"exit_code": code, "verdict": verdict.kind,
            "rows": len(series),
            "csv_sha256": _sha256(csv), "report_sha256": _sha256(report)}
    return {"t_ready": captured["t_ready"], "t_done": t_done,
            "peak_rss_mb": peak_rss_mb, "checks": checks, "info": info,
            "series": series, "files": {"csv": csv.stat().st_size,
                                        "report": report.stat().st_size}}


def check_blowup(seed, code, series, verdict) -> dict[str, bool]:
    """Acceptance criteria 4 and 8 on every row, plus the regime."""
    v0 = workloads.blowup_inputs(seed)["v0"]
    t, sup_u, sup_v = series.t, series.sup_u, series.sup_v
    before = t < verdict.t if verdict.t is not None else t < np.inf
    # u >= 1/2 gives v' >= v^2 / 2, so v >= 1 / (1/v0 - t/2) before t*.
    comparison = 1.0 / (1.0 / v0 - t[before] / 2.0) - 1e-2
    return {
        "exit code 2 with a blow-up verdict":
            code == 2 and verdict.kind == "blowup",
        "t* <= 2": verdict.t is not None and verdict.t <= 2.0,
        "v above its comparison bound before t*":
            bool(np.all(sup_v[before] >= comparison)),
        "u in [0.5, 1] on every row":
            bool(sup_u.min() >= 0.5 and sup_u.max() <= 1.0),
        "I <= 0 on every row": bool(np.all(series.I <= 0.0)),
        "regime: J > 0 on every row after the first":
            bool(np.all(series.J[1:] > 0.0)),
    }


def check_combustion(seed, code, series, verdict) -> dict[str, bool]:
    """Acceptance criterion 3 (mass) and bounds held, plus the regime."""
    n = workloads.COMBUSTION_NODES
    x = np.linspace(0.0, 1.0, n)
    u0, v0 = (b["baseline"] + b["height"]
              * np.exp(-((x - b["center"]) / b["width"]) ** 2)
              for b in workloads.combustion_inputs(seed).values())
    h = 1.0 / (n - 1)
    m0 = _trapezoid(u0 + v0, h)
    final = series.final_state
    m1 = _trapezoid(final.u + final.v, h)
    L, I, J = series.L, series.I, series.J
    return {
        "exit code 0 with a completed verdict":
            code == 0 and verdict.kind == "completed",
        "relative mass drift <= 1e-5": abs(m1 - m0) / m0 <= 1e-5,
        "bounds held on every row":
            bool(np.all(series.sup_u <= u0.max())
                 and np.all(series.sup_v <= v0.max())),
        "I <= 0 on every row": bool(np.all(I <= 0.0)),
        "regime: L = I = J = 0 on every row":
            bool(np.all(L == 0.0) and np.all(I == 0.0) and np.all(J == 0.0)),
    }


def run_sweep() -> dict:
    """Check every claim through the CLI ``check`` path."""
    paths = sorted(Path("claims").glob("*.ini"))
    kinds = [p.read_text().split("kind = ", 1)[1].split("\n", 1)[0]
             for p in paths]
    outcomes = []
    t_ready = time.monotonic()
    for path in paths:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["check", str(path)])
        outcomes.append((code, buf.getvalue()))
    t_done = time.monotonic()
    peak_rss_mb = _peak_rss_mb()

    digest = hashlib.sha256()
    for k, (code, text) in enumerate(outcomes):
        digest.update(f"claim {k} exit {code}\n{text}".encode())
    info = {"claims": len(outcomes), "verdict_digest": digest.hexdigest(),
            "passed": sum(code == 0 for code, _ in outcomes)}
    return {"t_ready": t_ready, "t_done": t_done, "peak_rss_mb": peak_rss_mb,
            "checks": check_sweep(kinds, outcomes), "info": info,
            "series": None, "files": {}}


def _has_positive_f_witness(text: str) -> bool:
    for line in text.splitlines():
        if line.startswith("mass_control.witness_"):
            f = float(line.split(" f=", 1)[1].split(" ", 1)[0])
            if f > 0.0:
                return True
    return False


def check_sweep(kinds, outcomes) -> dict[str, bool]:
    """Acceptance criterion 5 on the anchors, closed-form verdicts on
    the combustion and blow-up claims."""
    anchor_lines = ("mass_control.passed: true", "mass_control.mu: 0.5",
                    "mass_control.C: 0.0", "g_nonneg.passed: true")

    def passes_at_zero_half(k):
        code, text = outcomes[k]
        return code == 0 and all(line in text.splitlines()
                                 for line in anchor_lines)

    def fails_with_witness(k):
        code, text = outcomes[k]
        return code == 3 and _has_positive_f_witness(text)

    combustion = [k for k, kind in enumerate(kinds) if kind == "combustion"]
    blowup = [k for k, kind in enumerate(kinds) if kind == "blowup_example"]
    return {
        "300 claims checked": len(outcomes) == workloads.SWEEP_CLAIMS,
        "every exit code is 0 or 3":
            all(code in (0, 3) for code, _ in outcomes),
        "combustion passes at (0, 1/2)":
            passes_at_zero_half(workloads.ANCHOR_COMBUSTION),
        "absorption exp/exp passes at (0, 1/2)":
            passes_at_zero_half(workloads.ANCHOR_ABSORPTION_EXP),
        "blow-up example fails with an f > 0 witness":
            fails_with_witness(workloads.ANCHOR_BLOWUP),
        "every combustion claim passes":
            all(outcomes[k][0] == 0 for k in combustion),
        "every blow-up claim fails with an f > 0 witness":
            all(fails_with_witness(k) for k in blowup),
    }


def main(argv) -> int:
    workload, seed, trace, result_path = argv[1:]
    seed, trace = int(seed), trace == "1"
    src = (ROOT / "src" / "rdcertify").resolve()
    if Path(rdcertify.__file__).resolve().parent != src:
        print(f"rdcertify imported from {rdcertify.__file__}, not {src}",
              file=sys.stderr)
        return 1
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(rdcertify)

    out = run_sweep() if workload == "certify-sweep" else run_workload(
        workload, seed)
    series, files = out.pop("series"), out.pop("files")
    out["versions"] = {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "scipy": scipy.__version__}
    if tracer is not None:
        from tracer import layer_metrics
        out["layers"] = layer_metrics(tracer, series, files)
        out["counters"] = dict(tracer.counters)
        tracer.dump("trace.json")
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
