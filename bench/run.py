"""dpmulti benchmark: trial throughput per workload, and per-layer spans from a traced run.

Run from the repository root; it needs only the standard library and the
package's own dependency, numpy:

    python3 bench/run.py --workload parity-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 0   # end-to-end metrics, every workload
    python3 bench/run.py --workload all --trace 1   # per-layer metrics, every workload

Seed 1 is the default seed and seed 2 is held out: a speed-up is claimed only
if it also holds on seed 2. `--out FILE` appends each run, with a record of the
machine, to a JSON result file (see bench/README.md).

An untraced run (`--trace 0`) starts WORKERS measured processes in turn, each
for an equal share of `--seconds`, and prints every end-to-end metric named in
BENCHMARK.json. A traced run (`--trace 1`) starts one untraced and one traced
process with the same inputs, for half the time each, and prints every
per-layer metric plus `trace_overhead_frac`. Either run ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# Measured processes per untraced run; set-up time is their median.
WORKERS = 5
# Seconds one workload's run may take in all; a worker still running then is stopped.
RUN_BUDGET_S = 170.0
# One process, at most two threads: the harness pool, and single-threaded BLAS.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(workload, seed, seconds, trace, worker, deadline):
    """Run one worker, stopping it at `deadline`; returns (set-up seconds, parsed result or None, error text)."""
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace), "--worker", str(worker),
    ]
    env = dict(os.environ, **WORKER_ENV)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - start)
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, f"worker {worker} still running after the {RUN_BUDGET_S:.0f} s budget"
    if ready.strip() != "ready" or proc.returncode != 0:
        return None, None, f"worker {worker} exited with code {proc.returncode}"
    return setup_s, json.loads(out.strip().splitlines()[-1]), None


def _unit_rates(result, corrected=True):
    """Trials per second of each unit without failures, at reference machine speed unless corrected=False."""
    return [
        speed.corrected_rate(trials / seconds, reference) if corrected else trials / seconds
        for trials, seconds, _, failed, reference in result["units"]
        if not failed
    ]


def _tally(results, errors, unit_trials):
    attempted = sum(u[0] for r in results for u in r["units"]) + len(errors) * unit_trials
    failed = sum(u[3] for r in results for u in r["units"]) + len(errors) * unit_trials
    problems = [p for r in results for p in r["problems"]] + errors
    return attempted, failed, problems


def run_untraced(workload, seed, seconds, deadline):
    """End-to-end metrics: medians over WORKERS processes, each with seconds / WORKERS to run."""
    setups, results, errors = [], [], []
    for worker in range(WORKERS):
        setup_s, result, error = _worker(workload.name, seed, seconds / WORKERS, 0, worker, deadline)
        if error:
            errors.append(error)
        else:
            setups.append(setup_s)
            results.append(result)
    attempted, failed, problems = _tally(results, errors, workload.unit_trials)
    digests = {r["warmup_sha256"] for r in results}
    if None in digests:
        problems.append("a warm-up unit failed")
    elif len(digests) > 1:
        problems.append(f"same-seed warm-up reports disagree: {sorted(digests)}")
    extra = {
        "report_sha256": next(iter(digests)) if len(digests) == 1 else None,
        "numpy": results[0]["numpy"] if results else None,
    }
    rates = [x for r in results for x in _unit_rates(r)]
    if not rates:
        return {}, attempted, failed, problems, extra
    units = [u for r in results for u in r["units"]]
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in results]),
        "success_rate": sum(u[2] for u in units) / sum(u[0] for u in units),
    }
    extra["uncorrected"] = {
        "trials_per_s": statistics.median([x for r in results for x in _unit_rates(r, corrected=False)]),
        "machine_speed": statistics.median([u[4] for u in units]) / speed.REFERENCE_PER_S,
    }
    return metrics, attempted, failed, problems, extra


def run_traced(workload, seed, seconds, deadline):
    """Per-layer metrics of a traced worker, and its overhead against an untraced twin."""
    outcomes = [_worker(workload.name, seed, seconds / 2, trace, 0, deadline) for trace in (0, 1)]
    errors = [error for _, _, error in outcomes if error]
    results = [result for _, result, _ in outcomes if result]
    attempted, failed, problems = _tally(results, errors, workload.unit_trials)
    extra = {"numpy": results[0]["numpy"] if results else None}
    if errors:
        return {}, attempted, failed, problems, extra
    plain, traced = results
    if plain["warmup_sha256"] != traced["warmup_sha256"]:
        problems.append("traced report digest differs from the untraced one")
    extra.update(report_sha256=plain["warmup_sha256"], hypotheses_sha256=traced["hypotheses_sha256"])
    plain_rates, traced_rates = _unit_rates(plain), _unit_rates(traced)
    if not (plain_rates and traced_rates):
        return {}, attempted, failed, problems, extra
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = 1.0 - statistics.median(traced_rates) / statistics.median(plain_rates)
    return metrics, attempted, failed, problems, extra


def _git_commit():
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_record(seed, numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def run_workload(workload, seed, seconds, trace, specs):
    runner = run_traced if trace else run_untraced
    values, attempted, failed, problems, extra = runner(workload, seed, seconds, perf_counter() + RUN_BUDGET_S)
    missing = [s["name"] for s in specs[trace] if s["name"] not in values]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    metrics = {s["name"]: {"value": values.get(s["name"], 0.0), "unit": s["unit"]} for s in specs[trace]}
    record = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(seed, extra.pop("numpy")),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "problems": problems,
        **extra,
    }
    return record


def _print_record(record):
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        print(f"{name:<20} {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    if record["trace"]:
        m = record["metrics"]
        print(
            f"{name:<20} trial time tail: p{m['harness.trial_ms.tail_pct']['value']:g} = "
            f"{m['harness.trial_ms.tail']['value']:.3f} ms, {m['harness.trial_ms.tail_beyond']['value']:g} "
            f"of {m['harness.trials']['value']:g} trials beyond it"
        )
    if "uncorrected" in record:
        raw = record["uncorrected"]
        print(
            f"{name:<20} uncorrected trials_per_s {raw['trials_per_s']:.6g} 1/s "
            f"at machine speed {raw['machine_speed']:.3f} of the reference (bench/speed.py)"
        )
    for key in ("report_sha256", "hypotheses_sha256"):
        if key in record:
            print(f"{name:<20} {key} {record[key]}")
    print(f"{name:<20} failed_frac {record['failed_frac']:g} ({record['failed']} of {record['attempted']} trials)")
    print(f"{name:<20} machine {json.dumps(record['machine'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"{name:<20} PROBLEM {problem}")


def _append_result(path, records):
    runs = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    with open(path, "w") as fh:
        json.dump({"runs": runs + records}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "dpmulti", "__init__.py")):
        print(f"bench: no dpmulti sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the runs to this JSON result file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    specs = _load_metric_specs()
    # Byte-compile up front so that no measured process pays for compiling.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1)

    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, args.trace, specs)
        _print_record(record)
        records.append(record)
    if args.out:
        _append_result(args.out, records)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
