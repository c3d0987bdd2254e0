"""Steadiness of the benchmark: run one workload k times and summarise.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed 1]
                                [--seconds S]

Each run is ``run.py`` in a fresh process with its own seed (``--seed``,
``--seed`` + 1, ...).  For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
``(q3 - q1) / median``, next to the metric's bound in ``BENCHMARK.json``,
and it prints the share of failed operations.  Run it from the root of a
wrsim checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, failed, attempted = {}, [], []
    for i in range(args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {args.seed + i}: outputs failed their checks")
        failed.append(result["failed"])
        attempted.append(result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + i}: " + "  ".join(
            f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bounds.get(name, ''):>6}")
    shares = sorted({f / a for f, a in zip(failed, attempted)})
    print(f"failed share per run: {shares}")


if __name__ == "__main__":
    main()
