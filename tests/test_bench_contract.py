"""The benchmark in bench/ drives dpmulti through names it wraps or passes:
`run_experiment(threads=)`, `learners.gf2_solve`, `Concept`, `evaluate_many`,
`.param` on released hypotheses, `laplace_sample(size=)`,
`len(SanitizedAnswers.answers)`, and more. Each case runs one workload's
warm-up unit under the tracer, the way `bench/run.py --trace 1` does, so a
change to src/ that drops one of those names fails here rather than only in a
benchmark run. The point learner's noise counters are pinned too: a change
that drew noise without going through `laplace_sample` would zero them.

Each workload's warm-up report digest is pinned at seed 1 (the traced unit)
and at the held-out seed 2 (one untraced unit), so a speed-up that changed a
report fails here before the benchmark compares digests. The traced unit's
hypotheses digest is pinned too: the tracer keys it by the (point, trial)
arguments of `run_learn_trial`, so moving them fails here."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Warm-up report_sha256 per workload at seeds 1 and 2.
WARMUP_SHA256 = {
    "parity-sweep": (
        "e23a02546abc2382b392e24520f64048402a1d63a12059ea181a44c403a04ca6",
        "f95928673a3d5bf49831eeb25fcfedb103b57508fa468a69bb27f229c6142352",
    ),
    "point-learn": (
        "58e602dc5dc6530ec16ae2b11500f1f9a82ba43469134a7eb3daac84babcf360",
        "c6f2b9ae9ce69717f2b2fb6f4aaf1f90940c9ddacc7d11987711e138a8835ff2",
    ),
    "attack-erm": (
        "f9829935c087d403613d44280f4102f87f5bc4c59b1ceec88334dab9dd4832a6",
        "8bbb2a4fb9494b6519abc3b926df93c38f3c70263ea1157d4fd39397fe53b724",
    ),
    "generic-exhaustive": (
        "fa234d36f57e56723b836daa1d2d4df33ca242bb227762e21e8f3272368c3a05",
        "459edbe911e5083c7e04a836225dc7929ce47f3ef4197b6b31c8b15c73fa29a8",
    ),
}

# Traced hypotheses_sha256 of the seed-1 warm-up unit per workload.
HYPOTHESES_SHA256 = {
    "parity-sweep": "29120b46fe5ee9465dfa4c0fef42188398769246a970fd3b5e551cb1b1bde7b4",
    "point-learn": "b6ba2dffae6cd138b1bc003d2ac05bc7a6f5e62b16e600477ef262693739e689",
    "attack-erm": "932deb0d383d9b805e9b7c9fd3c0e643275936ec4526a7b4ff5a44f98c8e8b0b",
    "generic-exhaustive": "2b01efb7908e7f3ff12dccef107017bb366034acaad9f18b39aa7873c897e631",
}


@pytest.mark.parametrize("name", list(WARMUP_SHA256))
def test_traced_warmup_unit_runs_clean(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    workload = workloads.WORKLOADS[name]
    trace = tracer.Tracer()
    trace.collect_hypotheses = True
    trace.install()
    try:
        result = workload.run_unit(workloads.unit_seed(1, 0))
        metrics = trace.metrics(workload.trial_span)
    finally:
        trace.uninstall()
    assert result.problems == []
    assert result.failed == 0
    assert metrics["harness.trials"] == workload.unit_trials
    assert result.report_sha256 == WARMUP_SHA256[name][0]
    assert trace.hypotheses_sha256() == HYPOTHESES_SHA256[name]
    if name == "point-learn":
        # Per trial: four sanitizer draws (one per element) and one selection draw.
        assert metrics["mechanisms.laplace_sample.draws"] == 5.0
        assert metrics["mechanisms.stable_argmax.calls"] == 1.0
        assert metrics["sanitize.sanitize_points.release_ratio"] == 1.0


@pytest.mark.parametrize("name", list(WARMUP_SHA256))
def test_held_out_seed_warmup_digest(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    result = workloads.WORKLOADS[name].run_unit(workloads.unit_seed(2, 0))
    assert result.problems == []
    assert result.report_sha256 == WARMUP_SHA256[name][1]
