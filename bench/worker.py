"""One measured benchmark process: import dpmulti, warm up, then run units for a fixed time.

run.py starts this script and times it from process start to the `ready` line,
which it prints after one warm-up unit; that is the set-up time. It then runs
units until `--seconds` have passed and prints one JSON line with each unit's
trial count, wall time, successes, failures and machine speed (the mean rate
of the reference task timed before and after it, see speed.py), the warm-up
report digest, and its peak RSS. With `--trace 1` it installs the tracer before the warm-up and adds the
hypotheses digest of the warm-up and the per-layer metrics of the timed units.

    python3 bench/worker.py --root . --workload point-learn --seed 1 --seconds 3 --trace 0 --worker 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

# Timed units of worker r are 1 + r * WORKER_STRIDE + i; unit 0 is the shared warm-up.
WORKER_STRIDE = 100_000


def _run_unit(workload, seed, problems):
    """Run one unit; an exception is reported and the unit's trials count as failed."""
    try:
        result = workload.run_unit(seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        problems.append(f"unit seed {seed}: {sys.exc_info()[1]!r}")
        return None
    problems.extend(result.problems)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--worker", type=int, required=True)
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import numpy

    import dpmulti

    if os.path.dirname(os.path.dirname(os.path.abspath(dpmulti.__file__))) != src:
        print(f"dpmulti imported from {dpmulti.__file__}, not from {src}", file=sys.stderr)
        return 2
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
        tracer.collect_hypotheses = True

    problems: list[str] = []
    warm = _run_unit(workload, workloads.unit_seed(args.seed, 0), problems)
    print("ready", flush=True)
    out = {"warmup_sha256": warm.report_sha256 if warm else None, "numpy": numpy.__version__}
    if tracer is not None:
        out["hypotheses_sha256"] = tracer.hypotheses_sha256()
        tracer.collect_hypotheses = False
        tracer.reset()

    units = []
    deadline = perf_counter() + args.seconds
    index = 1 + args.worker * WORKER_STRIDE
    reference_before = speed.reference_rate(workload.threads)
    while True:
        start = perf_counter()
        result = _run_unit(workload, workloads.unit_seed(args.seed, index), problems)
        elapsed = perf_counter() - start
        reference_after = speed.reference_rate(workload.threads)
        reference = (reference_before + reference_after) / 2
        if result is None:
            units.append([workload.unit_trials, elapsed, 0, workload.unit_trials, reference])
        else:
            units.append([result.trials, elapsed, result.successes, result.failed, reference])
        reference_before = reference_after
        index += 1
        if perf_counter() >= deadline:
            break
    out["units"] = units
    out["problems"] = problems
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics(workload.trial_span)
        tracer.uninstall()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
