"""Tests of the benchmark harness itself (``pytest benchmarks/perf``).

They run the real workloads on streams shortened to a few hundred
transactions, so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.check.oracle import SerializabilityOracle  # noqa: E402
from repro.model.generator import WorkloadSpec, random_log  # noqa: E402
from repro.model.log import Log  # noqa: E402
from repro.model.operations import Operation, OpKind  # noqa: E402

from benchmarks.perf import ledger, run, trace, verify, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _shortened(workload: workloads.Workload, factor: float) -> workloads.Workload:
    return dataclasses.replace(workload, txns=max(8, int(workload.txns * factor)))


SMALL = {w.name: _shortened(w, 0.03) for w in workloads.WORKLOADS}


def _one_pass(name: str, tmp_path: Path, seed: int = 5, traced: bool = False):
    workload = SMALL[name]
    inputs = workloads.generate(workload, seed)
    service = workloads.build_service(workload, str(tmp_path / f"{name}-{traced}"))
    try:
        if not traced:
            return workloads.run_pass(workload, service, inputs, seed), None, service
        tracer = trace.Tracer()
        with trace.tracing(tracer):
            result = workloads.run_pass(workload, service, inputs, seed)
        return result, tracer, service
    finally:
        service.close()


# ----------------------------------------------------------------------
# verify.py
# ----------------------------------------------------------------------
def test_conflict_check_agrees_with_the_oracle_on_small_logs():
    oracle = SerializabilityOracle()
    rng = random.Random(11)
    spec = WorkloadSpec(num_txns=4, ops_per_txn=3, num_items=3, vary_length=True)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        log = random_log(spec, rng)
        expected = oracle.is_dsr(log)
        assert verify.conflict_serializable(log.operations) == expected, str(log)
        verdicts[expected] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


def test_multiversion_graph_accepts_old_reads_and_rejects_cycles():
    # T2 reads the initial x although T1's version exists: fine, T2 < T1.
    assert verify.multiversion_serializable([(2, "x", 0)], {"x": [0, 1]})
    # T1 reads x below T2's version and T2 reads y below T1's: a cycle.
    assert not verify.multiversion_serializable(
        [(1, "x", 0), (2, "y", 0)], {"x": [0, 2], "y": [0, 1]}
    )
    # A read of a version the chain never held.
    assert not verify.multiversion_serializable([(1, "x", 7)], {"x": [0, 2]})


def test_a_corrupted_committed_log_is_rejected(tmp_path):
    cyclic = Log.parse("R1[x] W2[x] W2[y] R1[y]").operations
    fake = SimpleNamespace(
        committed={1, 2},
        failed=set(),
        committed_ops=list(cyclic),
        ops_executed=4,
        ops_reexecuted=0,
    )
    with pytest.raises(verify.VerificationError, match="not conflict serializable"):
        verify.check_run([1, 2], fake)

    result, _tracer, _service = _one_pass("open_zipf_mt3", tmp_path)
    submitted, report = result.runs[0]
    verify.check_run(submitted, report)  # the real output passes
    # One more write, by a transaction that precedes another, to an item
    # the other one accessed: the projection now holds a cycle.
    ops = report.committed_ops
    before, after = next(iter(verify.conflict_edges(ops)))
    item = next(op.item for op in ops if op.txn == after)
    ops.append(Operation(OpKind.WRITE, before, item))
    report.ops_executed += 1
    with pytest.raises(verify.VerificationError, match="not conflict serializable"):
        verify.check_run(submitted, report)
    ops.pop()
    report.ops_executed -= 1
    lost = next(iter(report.committed))
    report.committed.discard(lost)
    with pytest.raises(verify.VerificationError, match="do not cover"):
        verify.check_run(submitted, report)
    report.failed.add(lost)
    with pytest.raises(verify.VerificationError, match="uncommitted"):
        verify.check_run(submitted, report)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_workload_verifies_and_no_transaction_fails(name, tmp_path):
    workload = SMALL[name]
    inputs = workloads.generate(workload, 5)
    service = workloads.build_service(workload, str(tmp_path / "state"))
    try:
        result = workloads.run_pass(workload, service, inputs, 5)
        scheduler = service.scheduler if workload.multiversion else None
        for submitted, report in result.runs:
            verify.check_run(submitted, report, scheduler)
    finally:
        service.close()
    assert result.attempted == workload.txns
    assert result.committed == workload.txns and result.failed == 0
    assert result.counts["latency_p99"] >= result.counts["latency_p50"] > 0
    assert 0 < result.wasted_op_share < 1


# ----------------------------------------------------------------------
# Determinism and tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_counts_traced_or_not(name, tmp_path):
    first, _, _ = _one_pass(name, tmp_path)
    again, _, _ = _one_pass(name, tmp_path)
    shadow, tracer, _ = _one_pass(name, tmp_path, traced=True)
    other, _, _ = _one_pass(name, tmp_path, seed=6)
    assert first.counts == again.counts
    assert first.counts == shadow.counts  # the wrappers change no decision
    assert first.counts != other.counts
    assert not tracer.missing
    assert tracer.calls("sessions.run") == first.counts["runs"]
    assert tracer.covered_s() >= 0.9 * shadow.wall_s


def test_prefix_streams_share_their_inputs():
    long = workloads.generate(_shortened(workloads.BY_NAME["open_zipf_mt3"], 0.05), 3)
    short = workloads.generate(SMALL["open_zipf_shard4_inline"], 3)
    count = len(short.transactions)
    assert short.transactions == long.transactions[:count]
    assert all(short.arrivals[t] == long.arrivals[t] for t in short.arrivals)


def test_two_phase_commit_decides_like_the_inline_plane(tmp_path):
    inline, _, _ = _one_pass("open_zipf_shard4_inline", tmp_path)
    durable, _, _ = _one_pass("open_zipf_shard4_2pc", tmp_path)
    assert inline.counts == durable.counts


def test_tracing_restores_every_patched_attribute():
    def snapshot():
        state = {}
        for patch in trace.PATCHES:
            target = trace._resolve(patch)
            assert target is not None, patch
            state[patch] = vars(target).get(patch.attribute, "inherited")
        return state

    before = snapshot()
    tracer = trace.Tracer()
    with pytest.raises(RuntimeError):
        with trace.tracing(tracer):
            assert snapshot() != before
            raise RuntimeError("leave through the error path")
    assert snapshot() == before
    assert not tracer.missing


def test_spans_nest_and_self_times_add_up():
    tracer = trace.Tracer(raw_limit=10)
    inner = tracer._wrap(trace.Patch("t.inner", "", None, ""), lambda: sum(range(2000)))
    outer = tracer._wrap(trace.Patch("t.outer", "", None, ""), lambda: [inner(), inner()])
    outer()
    assert tracer.calls("t.inner") == 2 and tracer.calls("t.outer") == 1
    totals = tracer.totals
    assert totals["t.outer"].child_ns == totals["t.inner"].total_ns
    assert tracer.covered_s() == pytest.approx(totals["t.outer"].total_ns / 1e9)
    parents = {span_id: parent for span_id, _n, _s, _e, parent in tracer.raw}
    assert parents == {1: 0, 2: 1, 3: 1}


# ----------------------------------------------------------------------
# BENCHMARK.json and the command
# ----------------------------------------------------------------------
def test_benchmark_json_is_within_the_contract():
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_ok = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[group]
    ]
    assert len(names) == len(set(names))
    assert all(name_ok.fullmatch(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and unit_ok.fullmatch(entry["unit"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert unit_ok.fullmatch(entry["unit"])
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    ]
    assert [e["name"] for e in SPEC["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert [e["why"] for e in SPEC["workloads"]] == [
        w.why for w in workloads.WORKLOADS
    ]


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_reports_exactly_the_metrics_benchmark_json_names(traced, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TMP_DIR", tmp_path / "tmp")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    outcome = run.measure(
        SMALL["open_zipf_shard4_2pc"], seed=5, seconds=0, traced=traced
    )
    assert outcome["correct"] and outcome["error"] is None
    assert outcome["attempted"] >= 1 and outcome["failed"] == 0
    units = run._units(SPEC, traced)
    assert list(outcome["metrics"]) == list(units)
    line = json.loads(run._contract_line(outcome, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if traced:
        assert outcome["metrics"]["wal.bytes_written"] > 0
        assert outcome["metrics"]["trace.covered_share"] >= 0.9
        spans = (tmp_path / "out").glob("*.spans.jsonl")
        assert sum(1 for _ in next(spans).open()) > 100
    else:
        assert all(value > 0 for value in outcome["metrics"].values())
    assert not list((tmp_path / "tmp").iterdir())  # scratch state removed


def test_a_failed_check_fails_the_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TMP_DIR", tmp_path / "tmp")

    def reject(*_args):
        raise verify.VerificationError("tampered")

    monkeypatch.setattr(verify, "check_run", reject)
    outcome = run.measure(SMALL["open_zipf_mt3"], seed=5, seconds=0, traced=False)
    assert not outcome["correct"] and outcome["error"] == "tampered"


def test_ledger_names_every_bypassed_layer_as_zero(tmp_path):
    result, tracer, service = _one_pass("closed_mpl8_hot", tmp_path, traced=True)
    metrics = ledger.layer_metrics(
        SMALL["closed_mpl8_hot"], service, result, tracer, result.wall_s, ""
    )
    bypassed = [
        name
        for name in metrics
        if name.split(".")[0] in ("mvcc", "parallel", "transport", "recovery", "wal")
    ]
    assert bypassed and all(metrics[name] == 0 for name in bypassed)
    assert metrics["admission.pop_calls"] == 0  # the plain lane skips the queue
    assert metrics["sessions.run_calls"] == result.counts["runs"]
