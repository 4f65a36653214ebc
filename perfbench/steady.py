#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload repeatedly, each time with another seed, through the
command in BENCHMARK.json at its `run_seconds`, and prints each metric's
median, quartiles and spread (the distance between the quartiles as a
share of the median, as `statistics.quantiles(values, n=4)` gives them),
next to the metric's bound, rated "ok" below a third of the bound. The
bounds in BENCHMARK.json come from this output.

    python3 perfbench/steady.py --workload ingest_wire --runs 10
    python3 perfbench/steady.py --workload query_mix --runs 5 --trace 1

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            sys.exit(f"seed {seed}: outputs failed their checks")
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {line}",
              file=sys.stderr)

    ratios = sorted({f / a for f, a in shares})
    print(f"workload {args.workload}: {args.runs} runs, failed share {ratios}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"  {name:28s} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
              f"spread={spread:.4f} bound={bound} {units[name]} {flag}")


if __name__ == "__main__":
    main()
