"""The benchmark in bench/ drives dpmulti through names it wraps or passes:
`run_experiment(threads=)`, `learners.gf2_solve`, `Concept`, `evaluate_many`,
`.param` on released hypotheses, `laplace_sample(size=)`,
`len(SanitizedAnswers.answers)`, and more. Each case runs one workload's
warm-up unit under the tracer, the way `bench/run.py --trace 1` does, so a
change to src/ that drops one of those names fails here rather than only in a
benchmark run. The point learner's noise counters are pinned too: a change
that drew noise without going through `laplace_sample` would zero them."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["parity-sweep", "point-learn", "attack-erm", "generic-exhaustive"])
def test_traced_warmup_unit_runs_clean(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name]
    trace = tracer.Tracer()
    trace.install()
    try:
        result = workload.run_unit(workloads.unit_seed(1, 0))
        metrics = trace.metrics(workload.trial_span)
    finally:
        trace.uninstall()
    assert result.problems == []
    assert result.failed == 0
    assert metrics["harness.trials"] == workload.unit_trials
    if name == "point-learn":
        # Per trial: four sanitizer draws (one per element) and one selection draw.
        assert metrics["mechanisms.laplace_sample.draws"] == 5.0
        assert metrics["mechanisms.stable_argmax.calls"] == 1.0
        assert metrics["sanitize.sanitize_points.release_ratio"] == 1.0
