"""wrsim benchmark: run one workload, or all four, and print its metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a wrsim checkout; the program is imported from that
checkout's ``src/``.  A run of ``--trace 0`` first starts two fresh
processes (``worker.py``) that set up and run one round each, then one more
that sets up and repeats whole rounds of the workload until ``--seconds``
have passed since the run began.  Round ``i`` has the seed
``seed * 1000003 + i``, so the same seed gives the same inputs.  The first
round of each process runs cold and is not timed; ``wall_s`` and ``cpu_s``
are medians over the other rounds of the last process, and ``setup_s`` and
``peak_rss_mib`` medians over the three processes' set-ups and first
rounds.  With
``--trace 1`` one process runs rounds untraced for half the time, and a
second process runs the same round seeds traced; the run reports the
per-layer metrics averaged over the traced rounds after the warm-up, with
``trace.overhead_s``, the median extra wall time of a traced round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("wr-large", "crcm-slab", "crossval-small", "slab-renewal")
PROBES = 2  # one-round processes per run that time set-up and memory
RUN_LIMIT_S = 150  # a run whose workers take longer is stopped


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env():
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _worker(workload, seed, mode, timeout, spans=None):
    """Start ``worker.py`` in a fresh process and return its result, with
    ``setup_s`` measured from just before the process was started."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--workdir", workdir,
           *mode]
    if spans:
        cmd += ["--trace", spans]
    try:
        spawned = _monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: the worker with seed {seed} ran past "
                         f"the run's time limit and was stopped")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: the worker with seed {seed} exited "
                         f"with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    for message in result.get("messages", ()):
        print(f"{workload} seed {seed}: {message}", file=sys.stderr)
    return result


def _show(workload, seed, label, result):
    walls = " ".join(f"{w:.4f}" for w in result["wall_s"])
    print(f"{workload} seed {seed}{label}: setup_s {result['setup_s']:.4f}  "
          f"peak_rss_mib {result['peak_rss_mib']:.2f}  "
          f"{result['failed']}/{result['attempted']} failed  "
          f"round wall_s {walls}", file=sys.stderr)


def run_workload(workload, seed, seconds, trace, spec):
    """All rounds of one run; returns the result object to print and the
    number of timed rounds."""
    started = _monotonic()
    deadline = started + seconds
    limit = started + RUN_LIMIT_S
    if not trace:
        # fresh processes that set up and run one round each, then one
        # that runs rounds until the deadline; the first round of each
        # process gives set-up time and peak memory
        done = []
        for probe in range(PROBES):
            done.append(_worker(workload, seed, ["--rounds", "1",
                                                 "--first", str(probe + 1)],
                                limit - _monotonic()))
            _show(workload, seed, " probe", done[-1])
        timed = _worker(workload, seed,
                        ["--until", repr(deadline), "--first", str(PROBES + 1)],
                        limit - _monotonic())
        _show(workload, seed, "", timed)
        done.append(timed)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in done),
            # a worker's first round runs cold and is not timed
            "wall_s": statistics.median(timed["wall_s"][1:]),
            "cpu_s": statistics.median(timed["cpu_s"][1:]),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in done),
        }
        metrics = spec["end_to_end"]
        rounds = len(timed["wall_s"]) - 1
    else:
        # the same round seeds untraced and traced, each in its own process
        plain = _worker(workload, seed,
                        ["--until", repr(started + seconds / 2)],
                        limit - _monotonic())
        _show(workload, seed, "", plain)
        spans = os.path.join(OUT, f"{workload}.spans.tsv")
        traced = _worker(workload, seed,
                         ["--rounds", str(len(plain["wall_s"]))],
                         limit - _monotonic(), spans)
        _show(workload, seed, " traced", traced)
        done = [plain, traced]
        layers = traced["layers"][1:]
        values = {}
        for metric in spec["per_layer"]:
            name = metric["name"]
            values[name] = statistics.fmean(r.get(name, 0) for r in layers)
        values["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced["wall_s"][1:], plain["wall_s"][1:]))
        metrics = spec["per_layer"]
        rounds = len(layers)
    return {
        "correct": all(r["failed"] == 0 for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }, rounds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "wrsim", "__init__.py")):
        sys.exit(f"{ROOT} is not a wrsim checkout: src/wrsim is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, rounds = run_workload(name, args.seed, seconds,
                                      bool(args.trace), spec)
        results[name] = result
        shown = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items())
        print(f"{name}: {rounds} timed rounds, {result['attempted']} operations, "
              f"{result['failed']} failed; {shown}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
