"""Benchmark rounds in one fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
                                (--rounds K | --until T) [--first F]
                                [--trace SPANS_PATH]

``--rounds K`` runs K rounds.  ``--until T`` runs rounds until the
monotonic clock reaches T, starting a round only if the longest round after
the first suggests it ends in time; it always runs at least two.  The
rounds are numbered from F (default 0), and round ``i`` uses the seed
``N * 1000003 + i``.  Each round is set up, run (the timed part) and
checked.

Prints one JSON line: the monotonic time at which the first set-up ended,
the wall and CPU seconds of each round's timed part, the peak resident
memory at the end of the first round's timed part (before any check has
run), the checks made and failed, and with ``--trace`` the per-layer
metrics of each round.  The spans of the last traced round are written to
SPANS_PATH.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback


def _cpu():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (self_.ru_utime + self_.ru_stime
            + children.ru_utime + children.ru_stime)


def _peak_mib():
    # KiB on Linux; peak of this process (pool threads included) so far
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def round_seed(seed, index):
    return seed * 1_000_003 + index


def run_round(workload, ctx, checks, tracer=None):
    """The timed part of one round, then its checks; returns wall and CPU
    seconds, the peak memory at the end of the timed part and, if traced,
    the round's per-layer metrics."""
    if tracer is not None:
        tracer.begin()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    error = None
    try:
        out = workload.run(ctx)
    except Exception:  # the program raised: every check of the round fails
        error = traceback.format_exc(limit=5)
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    peak = _peak_mib()
    layers = None
    if tracer is not None:
        tracer.finish()
        layers = tracer.summary()

    before = checks.attempted
    if error is None:
        try:
            workload.check(ctx, out, checks)
        except Exception:  # an output is missing or malformed
            checks.messages.append(traceback.format_exc(limit=5))
    missing = workload.operations - (checks.attempted - before)
    if missing < 0:
        sys.exit(f"{workload.name}: {checks.attempted - before} checks made, "
                 f"{workload.operations} declared")
    if missing:
        checks.fail(missing, error or "output missing or malformed")
    return wall, cpu, peak, layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--until", type=float)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--trace")
    args = parser.parse_args()

    from workloads import WORKLOADS, Checks
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(args.workdir, "r0")
    os.makedirs(workdir)
    ctx = workload.setup(round_seed(args.seed, args.first), workdir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    # the program must come from the checkout's own sources
    import wrsim
    src = os.path.realpath(os.path.join(os.getcwd(), "src", "wrsim"))
    if os.path.dirname(os.path.realpath(wrsim.__file__)) != src:
        sys.exit(f"wrsim imported from {wrsim.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    checks = Checks()
    walls, cpus, spent, layers = [], [], [], []
    index = 0
    while True:
        started = time.monotonic()
        if index:
            workdir = os.path.join(args.workdir, f"r{index}")
            os.makedirs(workdir)
            ctx = workload.setup(round_seed(args.seed, args.first + index),
                                 workdir)
        wall, cpu, round_peak, round_layers = run_round(workload, ctx, checks,
                                                        tracer)
        shutil.rmtree(workdir, ignore_errors=True)
        walls.append(wall)
        cpus.append(cpu)
        layers.append(round_layers)
        spent.append(time.monotonic() - started)
        if not index:
            peak = round_peak
        index += 1
        if args.rounds is not None:
            if index >= args.rounds:
                break
        elif index >= 2 and time.monotonic() + max(spent[1:]) > args.until:
            break

    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({
        "ready": ready, "wall_s": walls, "cpu_s": cpus, "peak_rss_mib": peak,
        "attempted": checks.attempted, "failed": checks.failed,
        "messages": checks.messages, "layers": layers,
    }))


if __name__ == "__main__":
    main()
