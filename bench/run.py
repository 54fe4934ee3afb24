"""rd-certify benchmark: time to verdict on three workloads.

    python3 bench/run.py --workload blowup --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json and bench/DESIGN.md):

* ``blowup``          -- ``rd-certify run`` on the polynomial blow-up
                         example at 31 nodes: ~10.9k tiny steps;
* ``combustion-fine`` -- ``rd-certify run`` on the combustion bumps at
                         2001 nodes: ~1.5k steps of O(n) arithmetic;
* ``certify-sweep``   -- ``rd-certify check`` on 300 claims: sampled
                         mass-control checks, no stepping at all.

Each run of a workload is a fresh Python process (``bench/child.py``)
pinned to one thread, with ``RD_CERTIFY_SEED`` removed.  Processes are
started one after another until ``--seconds`` is used up (at least
three, or two when tracing).  ``--trace 0`` reports medians of the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
processes and reports the per-layer metrics of the median traced
process plus the tracing overhead.  Every process's outputs are
checked; a process that fails a check counts in ``failed``.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_PROCESSES = 3
# A run ends within this many seconds even if a child hangs.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_us_per_call": "us", "_frac": "ratio",
               "_bytes": "bytes", "trials_per_step": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict[str, str]:
    # One BLAS thread; no RD_CERTIFY_SEED, which changes the mass-control
    # samples; every child compiles the library afresh, writing no bytecode.
    env = {k: v for k, v in os.environ.items() if k != "RD_CERTIFY_SEED"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def prepare(workload: str, seed: int) -> Path:
    """Write the seed's inputs into a fresh run directory."""
    rundir = OUT / f"{workload}-seed{seed}"
    rundir.mkdir(parents=True, exist_ok=True)
    if workload == "certify-sweep":
        claims = rundir / "claims"
        claims.mkdir(exist_ok=True)
        for old in claims.glob("*.ini"):
            old.unlink()
        for k, text in enumerate(workloads.sweep_claims(seed)):
            (claims / f"{k:03d}.ini").write_text(text)
    else:
        (rundir / "config.ini").write_text(workloads.run_config(workload, seed))
    return rundir


def launch(workload: str, seed: int, trace: bool, rundir: Path,
           timeout: float = RUN_LIMIT_S) -> dict:
    """One child process; returns its result with set-up and wall time."""
    result_path = rundir / f"result-{int(trace)}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
           str(int(trace)), str(result_path)]
    t_launch = time.monotonic()
    proc = subprocess.run(cmd, cwd=rundir, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    res = json.loads(result_path.read_text())
    res["setup_s"] = res["t_ready"] - t_launch
    res["wall_s"] = res["t_done"] - res["t_ready"]
    res["traced"] = trace
    return res


def reference_notes(workload: str, seed: int, res: dict) -> dict[str, str]:
    """Compare a run's output bytes and counts with the recorded ones.

    The verdict digest of certify-sweep is a correctness check; the CSV
    and report hashes and the step counts are for information only, so
    that a change may move them on purpose.
    """
    path = BENCH / "reference.json"
    ref = json.loads(path.read_text()).get(workload, {}).get(str(seed))
    if ref is None:
        return {"reference": "none recorded for this seed"}
    got = {**res["info"], **res.get("counters", {}), **res.get("layers", {})}
    notes = {}
    for key, want in ref.items():
        if key in got:
            notes[key] = "match" if got[key] == want else \
                f"differs (recorded {want}, got {got[key]})"
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rdcertify" / "__init__.py").is_file():
        print(f"no rd-certify source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    rundir = prepare(args.workload, args.seed)
    start = time.monotonic()
    runs = []
    while True:
        trace = bool(args.trace) and len(runs) % 2 == 1
        budget = RUN_LIMIT_S - (time.monotonic() - start)
        runs.append(launch(args.workload, args.seed, trace, rundir, budget))
        elapsed = time.monotonic() - start
        per_run = elapsed / len(runs)
        enough = len(runs) >= (2 if args.trace else MIN_PROCESSES)
        if enough and elapsed + per_run > args.seconds:
            break

    failed = 0
    for k, res in enumerate(runs):
        bad = [name for name, ok in res["checks"].items() if not ok]
        notes = reference_notes(args.workload, args.seed, res)
        if args.workload == "certify-sweep" and \
                notes.get("verdict_digest", "match") != "match":
            bad.append("verdict digest matches the recorded one")
        failed += bool(bad)
        print(f"process {k}: traced={int(res['traced'])} "
              f"setup_s={res['setup_s']:.4f} wall_s={res['wall_s']:.4f} "
              f"peak_rss_mb={res['peak_rss_mb']:.1f} "
              f"failed_checks={bad} info={res['info']} reference={notes}")

    plain = [r for r in runs if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    print(f"machine: {json.dumps(machine())} versions: "
          f"{json.dumps(runs[0]['versions'])}")
    print(f"failed_frac: {failed / len(runs)} ({failed} of {len(runs)} "
          f"processes failed an output check)")
    if args.trace:
        traced = sorted((r for r in runs if r["traced"]),
                        key=lambda r: r["wall_s"])
        mid = traced[(len(traced) - 1) // 2]
        values = dict(mid["layers"])
        values["trace.overhead_frac"] = (
            (statistics.median(r["wall_s"] for r in traced) - wall) / wall)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in values.items()}
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(r["setup_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in plain)}
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
