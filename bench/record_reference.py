"""Record reference outputs for seeds into bench/reference.json.

    python3 bench/record_reference.py --workload certify-sweep --seeds 0 99

For each seed one traced process runs the workload; its output hashes,
verdicts and exact step counts are stored under the workload and seed.
``bench/run.py`` compares later runs with them: a differing verdict
digest fails a certify-sweep run, everything else is reported only.
Record again, on purpose, when a change moves the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

# Keys recorded per run workload; certify-sweep records its whole info.
RUN_KEYS = ("exit_code", "verdict", "rows", "csv_sha256", "report_sha256",
            "integrator.accepted_steps", "integrator.trials",
            "integrator.solve_calls")


def record(workload: str, seed: int) -> dict:
    rundir = run.prepare(workload, seed)
    res = run.launch(workload, seed, True, rundir)
    bad = [name for name, ok in res["checks"].items() if not ok]
    if bad:
        raise RuntimeError(f"{workload} seed {seed} fails {bad}; not recorded")
    if workload == "certify-sweep":
        return res["info"]
    got = {**res["info"], **res["counters"], **res["layers"]}
    return {key: got[key] for key in RUN_KEYS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                        required=True)
    args = parser.parse_args(argv)
    path = run.BENCH / "reference.json"
    refs = json.loads(path.read_text())
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        entry = record(args.workload, seed)
        refs.setdefault(args.workload, {})[str(seed)] = entry
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(args.workload, seed, json.dumps(entry), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
