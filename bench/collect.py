"""Run the benchmark over seeds and store the result as BENCH_<tag>.json.

    python3 bench/collect.py --tag baseline --seeds 1 10

For each seed every workload runs once untraced (workloads interleaved,
so slow spells of a shared machine spread over all of them); then each
workload runs once traced at the default seed.  The file, written to
bench/results/, holds every run's final JSON line, and per workload and
end-to-end metric the median, the quartiles and the spread
(quartile distance / median), plus the machine and library versions.
Compare two such files from the same machine to judge a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    versions = next(line for line in out if line.startswith("machine: "))
    return {"seed": seed, "result": json.loads(out[-1]),
            "machine": versions.removeprefix("machine: ")}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "n": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                        default=(1, 10))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((run.ROOT / "BENCHMARK.json")
                                           .read_text())["run_seconds"])
    args = parser.parse_args(argv)
    if args.seeds[1] <= args.seeds[0]:
        parser.error("quartiles need at least two seeds")

    untraced = {w: [] for w in workloads.WORKLOADS}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        for w in workloads.WORKLOADS:
            untraced[w].append(bench(w, seed, args.seconds, 0))
            print(w, seed, json.dumps(untraced[w][-1]["result"]["metrics"]),
                  flush=True)
    traced = {w: bench(w, workloads.DEFAULT_SEED, args.seconds, 1)
              for w in workloads.WORKLOADS}

    doc = {"tag": args.tag, "run_seconds": args.seconds,
           "machine": untraced[workloads.WORKLOADS[0]][0]["machine"],
           "workloads": {
               w: {"end_to_end": summarize(untraced[w]),
                   "failed": sum(r["result"]["failed"] for r in untraced[w]),
                   "attempted": sum(r["result"]["attempted"]
                                    for r in untraced[w]),
                   "runs": untraced[w],
                   "per_layer_seed0": traced[w]["result"]}
               for w in workloads.WORKLOADS}}
    path = run.BENCH / "results" / f"BENCH_{args.tag}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for w in workloads.WORKLOADS:
        for name, s in doc["workloads"][w]["end_to_end"].items():
            print(f"{w} {name}: median {s['median']:.4g} "
                  f"spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
