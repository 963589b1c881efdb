"""Per-layer spans and counts for dpmulti, recorded from outside the package.

The tracer replaces the module attributes through which one layer calls the
next (`learners.gf2_solve`, `harness.sample_database`, ...) with timing
wrappers. Every module attribute bound to a wrapped function is replaced, so
calls from other modules and calls within the defining module are both seen.
Spans are kept in memory, per thread: `parity-sweep` runs trials on two pool
threads, and each thread has its own span stack. Span time is the thread's
CPU time, the time the layer was busy: with two threads sharing the
interpreter lock, wall time would charge lock waits to whichever layer was
waiting. A span's self time is its busy time minus that of the spans it
caused. Each wrapper's own cost is counted apart (`trace.wrapper_ms`), not in
its caller's self time. Trials, and the harness spans around them, are timed
on the wall clock, since that is what a user waits for.

Only traced runs install the tracer; untraced runs import the package as is.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import threading
from collections import defaultdict
from time import perf_counter, thread_time

import numpy as np

import dpmulti
import dpmulti.cli
import dpmulti.domain
import dpmulti.fingerprint
import dpmulti.harness
import dpmulti.learners
import dpmulti.mechanisms
import dpmulti.rng
import dpmulti.sanitize
import workloads

LAYERS = ("domain", "mechanisms", "sanitize", "learners", "fingerprint")
LEARNER_SPANS = (
    "learners.parity_learner",
    "learners.point_learner",
    "learners.generic_multi_learner",
    "learners.erm_multi",
)
# Spans whose intervals are kept: trial spans and the spans trials are cut from.
RECORDED = ("harness.run_experiment", "harness.run_learn_trial", "fingerprint.attack_experiment", "bench.generic_trial")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def _count(key, value=None):
    """Hook adding `value(args, kwargs, result)` (default 1) to counter `key`."""

    def hook(state, args, kwargs, result):
        state.counts[key] += 1 if value is None else value(args, kwargs, result)

    return hook


def _laplace_draws(args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(np.prod(size))


def _sanitize_points_hook(state, args, kwargs, result):
    db = args[0] if args else kwargs["db"]
    state.counts["sanitize.sanitize_points.released"] += len(result.answers)
    state.counts["sanitize.sanitize_points.distinct"] += int(np.count_nonzero(np.bincount(db.xs)))


def _stream_hook(state, args, kwargs, result):
    # An attack trial starts with its completeness stream, keyed (seed, 0, trial).
    if len(args) == 3 and args[1] == 0:
        state.marks.append(perf_counter())


# (module, attribute, span name, hook run on the result, or None)
SPANS = (
    (dpmulti.harness, "run_experiment", "harness.run_experiment", None),
    (dpmulti.harness, "run_learn_trial", "harness.run_learn_trial", None),
    (dpmulti.rng, "stream", "rng.stream", _stream_hook),
    (dpmulti.domain, "evaluate_many", "domain.evaluate_many", None),
    (dpmulti.domain, "sample_database", "domain.sample", None),
    (dpmulti.domain.LabeledDistribution, "sample", "domain.sample", None),
    (dpmulti.domain, "generalization_error", "domain.generalization_error", None),
    (dpmulti.domain, "dichotomy_projection", "domain.dichotomy_projection", None),
    (dpmulti.mechanisms, "exponential_mechanism", "mechanisms.exponential_mechanism",
     _count("mechanisms.exponential_mechanism.candidates", lambda a, kw, r: len(a[0]))),
    (dpmulti.mechanisms, "stable_argmax", "mechanisms.stable_argmax",
     _count("mechanisms.stable_argmax.released", lambda a, kw, r: r is not None)),
    (dpmulti.mechanisms, "laplace_sample", "mechanisms.laplace_sample",
     _count("mechanisms.laplace_sample.draws", _laplace_draws)),
    (dpmulti.sanitize, "sanitize_points", "sanitize.sanitize_points", _sanitize_points_hook),
    (dpmulti.sanitize, "sanitize_exhaustive", "sanitize.sanitize_exhaustive", None),
    (dpmulti.sanitize, "_exhaustive_candidates", "sanitize.exhaustive_candidates",
     _count("sanitize.exhaustive.candidates", lambda a, kw, r: len(r[1]))),
    (dpmulti.learners, "gf2_solve", "learners.gf2_solve", _count("learners.gf2_solve.none", lambda a, kw, r: r is None)),
    (dpmulti.learners, "parity_learner", "learners.parity_learner", None),
    (dpmulti.learners, "point_learner", "learners.point_learner", None),
    (dpmulti.learners, "generic_multi_learner", "learners.generic_multi_learner", None),
    (dpmulti.learners, "erm_multi", "learners.erm_multi", None),
    (dpmulti.fingerprint, "gen_codebook", "fingerprint.gen_codebook", None),
    (dpmulti.fingerprint, "pirate_word", "fingerprint.pirate_word", None),
    (dpmulti.fingerprint, "feasible", "fingerprint.feasible", None),
    (dpmulti.fingerprint, "trace_word", "fingerprint.trace_word", None),
    (dpmulti.fingerprint, "attack_experiment", "fingerprint.attack_experiment", None),
    (workloads, "run_generic_trial", "bench.generic_trial", None),
)
MODULES = (
    dpmulti, dpmulti.cli, dpmulti.domain, dpmulti.fingerprint, dpmulti.harness,
    dpmulti.learners, dpmulti.mechanisms, dpmulti.rng, dpmulti.sanitize, workloads,
)


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []  # child time accumulated by each open span
        self.trial_key: tuple = ()
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.intervals = defaultdict(list)
        self.marks: list[float] = []
        self.overhead = 0.0  # CPU seconds spent in the wrappers themselves
        self.hypotheses: list[tuple[tuple, int, str]] = []


# Key ordering a trial's learner calls: (point, trial) in the harness, (trial,) in the library loop.
TRIAL_KEYS = {
    "harness.run_learn_trial": lambda args: (args[2], args[3]),
    "bench.generic_trial": lambda args: (args[1],),
}


class Tracer:
    """Installs span wrappers on dpmulti and turns what they record into per-layer metrics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.collect_hypotheses = False
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far; call only while no traced call is running."""
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, name, fn, hook):
        tracer = self
        learner = name in LEARNER_SPANS
        recorded = name in RECORDED
        trial_key = TRIAL_KEYS.get(name)

        def wrapper(*args, **kwargs):
            entered = thread_time()
            state = tracer._state()
            if trial_key is not None:
                outer_key, state.trial_key = state.trial_key, trial_key(args)
            if recorded:
                wall_start = perf_counter()
            state.stack.append(0.0)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time()
                child = state.stack.pop()
                state.calls[name] += 1
                state.total[name] += end - start
                state.self_time[name] += end - start - child
                if recorded:
                    state.intervals[name].append((wall_start, perf_counter()))
                if trial_key is not None:
                    state.trial_key = outer_key
            if hook is not None:
                hook(state, args, kwargs, result)
            if learner:
                tracer._record_learner(state, result)
            left = thread_time()
            # The wrapper's own cost is the tracer's, not the caller's.
            state.overhead += (left - entered) - (end - start)
            if state.stack:
                state.stack[-1] += left - entered
            return result

        return wrapper

    def _record_learner(self, state, result):
        hyps = result if isinstance(result, tuple) else result.hypotheses
        state.counts["learners.calls"] += 1
        state.counts["learners.aborts"] += hyps is None
        if self.collect_hypotheses:
            text = "-1" if hyps is None else ",".join("z" if h.param is None else str(h.param) for h in hyps)
            state.hypotheses.append((state.trial_key, len(state.hypotheses), text))

    def _patch(self, owner, attr, new):
        original = getattr(owner, attr)
        owners = [owner] if isinstance(owner, type) else MODULES
        for module in owners:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, new)

    def install(self) -> None:
        for owner, attr, name, hook in SPANS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), hook))
        post_init = dpmulti.domain.Concept.__post_init__
        tracer = self

        def counted_post_init(concept):
            tracer._state().counts["domain.concepts_built"] += 1
            post_init(concept)

        self._patch(dpmulti.domain.Concept, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def hypotheses_sha256(self) -> str:
        """Digest of every learner call's released parameters, in (trial key, call) order; bottom is -1."""
        calls = sorted(h for state in self._states for h in state.hypotheses)
        text = "\n".join(f"{key}:{params}" for key, _, params in calls)
        return hashlib.sha256(text.encode()).hexdigest()

    def _merged(self) -> _ThreadState:
        merged = _ThreadState()
        for state in self._states:
            for attr in ("calls", "total", "self_time", "counts"):
                for key, value in getattr(state, attr).items():
                    getattr(merged, attr)[key] += value
            for key, spans in state.intervals.items():
                merged.intervals[key].extend(spans)
            merged.marks.extend(state.marks)
            merged.overhead += state.overhead
        return merged

    def metrics(self, trial_span: str | None) -> dict[str, float]:
        """Per-layer metrics; times and counts are per trial, so runs of any length compare."""
        m = self._merged()
        trials = _trial_intervals(m, trial_span)
        n = max(len(trials), 1)
        durations_ms = sorted((b - a) * 1e3 for a, b in trials) or [0.0]
        tail_pct, tail_ms, beyond = _tail(durations_ms)
        run_experiment_s = sum(b - a for a, b in m.intervals["harness.run_experiment"])

        def ratio(num, den):
            return num / den if den else 0.0

        def per_trial(table, name):
            return table[name] / n

        out = {
            "harness.trials": len(trials),
            "harness.run_experiment.s": run_experiment_s / n,
            "harness.self_s": _uncovered(m.intervals["harness.run_experiment"], trials) / n,
            "harness.run_learn_trial.self_s": per_trial(m.self_time, "harness.run_learn_trial"),
            "harness.trial_ms.mean": statistics.fmean(durations_ms),
            "harness.trial_ms.p50": _percentile(durations_ms, 50),
            "harness.trial_ms.tail": tail_ms,
            "harness.trial_ms.tail_pct": tail_pct,
            "harness.trial_ms.tail_beyond": beyond,
            "harness.trial_cpu_ms.mean": per_trial(m.total, trial_span or "fingerprint.attack_experiment") * 1e3,
            "trace.wrapper_ms": m.overhead / n * 1e3,
            "rng.stream.calls": per_trial(m.calls, "rng.stream"),
            "rng.stream.s": per_trial(m.total, "rng.stream"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in m.self_time.items() if k.startswith(layer + ".")) / n
        out.update({
            "domain.concepts_built": per_trial(m.counts, "domain.concepts_built"),
            "domain.evaluate_many.calls": per_trial(m.calls, "domain.evaluate_many"),
            "domain.evaluate_many.s": per_trial(m.total, "domain.evaluate_many"),
            "domain.sample.s": per_trial(m.total, "domain.sample"),
            "domain.generalization_error.s": per_trial(m.total, "domain.generalization_error"),
            "domain.dichotomy_projection.s": per_trial(m.total, "domain.dichotomy_projection"),
            "mechanisms.exponential_mechanism.calls": per_trial(m.calls, "mechanisms.exponential_mechanism"),
            "mechanisms.exponential_mechanism.candidates": per_trial(m.counts, "mechanisms.exponential_mechanism.candidates"),
            "mechanisms.exponential_mechanism.s": per_trial(m.total, "mechanisms.exponential_mechanism"),
            "mechanisms.stable_argmax.calls": per_trial(m.calls, "mechanisms.stable_argmax"),
            "mechanisms.stable_argmax.release_ratio": ratio(m.counts["mechanisms.stable_argmax.released"], m.calls["mechanisms.stable_argmax"]),
            "mechanisms.laplace_sample.draws": per_trial(m.counts, "mechanisms.laplace_sample.draws"),
            "sanitize.sanitize_points.calls": per_trial(m.calls, "sanitize.sanitize_points"),
            "sanitize.sanitize_points.s": per_trial(m.total, "sanitize.sanitize_points"),
            "sanitize.sanitize_points.release_ratio": ratio(m.counts["sanitize.sanitize_points.released"], m.counts["sanitize.sanitize_points.distinct"]),
            "sanitize.sanitize_exhaustive.calls": per_trial(m.calls, "sanitize.sanitize_exhaustive"),
            "sanitize.sanitize_exhaustive.s": per_trial(m.total, "sanitize.sanitize_exhaustive"),
            "sanitize.exhaustive.candidates": per_trial(m.counts, "sanitize.exhaustive.candidates"),
            "learners.gf2_solve.calls": per_trial(m.calls, "learners.gf2_solve"),
            "learners.gf2_solve.s": per_trial(m.total, "learners.gf2_solve"),
            "learners.gf2_solve.none_ratio": ratio(m.counts["learners.gf2_solve.none"], m.calls["learners.gf2_solve"]),
            "learners.parity_learner.self_s": per_trial(m.self_time, "learners.parity_learner"),
            "learners.point_learner.self_s": per_trial(m.self_time, "learners.point_learner"),
            "learners.generic_multi_learner.self_s": per_trial(m.self_time, "learners.generic_multi_learner"),
            "learners.erm_multi.s": per_trial(m.total, "learners.erm_multi"),
            "learners.abort_ratio": ratio(m.counts["learners.aborts"], m.counts["learners.calls"]),
            "fingerprint.gen_codebook.s": per_trial(m.total, "fingerprint.gen_codebook"),
            "fingerprint.pirate_word.self_s": per_trial(m.self_time, "fingerprint.pirate_word"),
            "fingerprint.feasible.s": per_trial(m.total, "fingerprint.feasible"),
            "fingerprint.trace_word.s": per_trial(m.total, "fingerprint.trace_word"),
            "fingerprint.attack_experiment.self_s": per_trial(m.self_time, "fingerprint.attack_experiment"),
        })
        return out


def _trial_intervals(m: _ThreadState, trial_span: str | None) -> list[tuple[float, float]]:
    if trial_span is not None:
        return sorted(m.intervals[trial_span])
    trials = []
    marks = sorted(m.marks)
    for start, end in m.intervals["fingerprint.attack_experiment"]:
        inside = [t for t in marks if start <= t <= end] + [end]
        trials.extend(zip(inside, inside[1:]))
    return trials


def _uncovered(outer, inner) -> float:
    """Total length of the `outer` intervals not covered by any `inner` interval."""
    merged: list[list[float]] = []
    for a, b in sorted(inner):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    total = 0.0
    for a, b in outer:
        covered = sum(max(0.0, min(b, y) - max(a, x)) for x, y in merged)
        total += (b - a) - covered
    return total


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten trials beyond it: (percentile, value, trials beyond).

    With fewer than 20 trials no percentile qualifies; the maximum is reported
    as percentile 100 with the count of trials beyond it, 0.
    """
    n = len(sorted_ms)
    for pct in TAIL_PERCENTILES:
        beyond = n - max(1, math.ceil(pct / 100 * n))
        if beyond >= 10:
            return pct, _percentile(sorted_ms, pct), beyond
    return 100.0, sorted_ms[-1], 0
