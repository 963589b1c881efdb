"""Each workload must keep stressing the layer it is named for.

Runs the traced benchmark once per workload and checks the named layer's
share of trial busy time:

    python3 -m pytest -q bench/test_layer_shares.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_SECONDS = 6


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(TRACED_SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _share(metrics: dict, *names: str) -> float:
    """Share of trial busy time, not counting the time spent in the tracer's own wrappers."""
    busy_ms = metrics["harness.trial_cpu_ms.mean"] - metrics["trace.wrapper_ms"]
    return sum(metrics[n] for n in names) / (busy_ms / 1e3)


# workload -> (metrics whose summed share of trial busy time is checked, minimum share)
SHARES = {
    "parity-sweep": (("learners.gf2_solve.s",), 0.80),
    "point-learn": (("learners.point_learner.self_s",), 0.80),
    "generic-exhaustive": (("sanitize.sanitize_exhaustive.s",), 0.80),
    "attack-erm": (("domain.self_s", "fingerprint.self_s"), 0.50),
}


@pytest.mark.parametrize("workload", sorted(SHARES))
def test_named_layer_dominates(workload):
    metrics = _traced(workload)
    names, minimum = SHARES[workload]
    share = _share(metrics, *names)
    assert share >= minimum, f"{names}: {share:.3f} of trial busy time"
    if workload != "parity-sweep":
        assert metrics["learners.gf2_solve.calls"] == 0
    if workload != "generic-exhaustive":
        assert metrics["sanitize.exhaustive.candidates"] == 0
