"""Tests for the Zipf open-loop workload generator and its pipeline fit."""

from __future__ import annotations

import random

import pytest

from repro.engine.pipeline import TransactionService
from repro.workloads.zipf import (
    ZipfSpec,
    generate_zipf_workload,
    hot_set,
    zipf_cum_weights,
    zipf_item_names,
)

SMALL = ZipfSpec(num_txns=40, ops_per_txn=3, num_items=64, load=0.3)


class TestWeights:
    def test_weights_monotone_decreasing(self):
        cum = zipf_cum_weights(100, skew=1.1)
        gaps = [b - a for a, b in zip(cum, cum[1:])]
        assert all(g > 0 for g in gaps)
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_zero_skew_is_uniform(self):
        cum = zipf_cum_weights(10, skew=0.0)
        gaps = [b - a for a, b in zip([0.0] + cum, cum)]
        assert all(abs(g - 1.0) < 1e-12 for g in gaps)

    def test_item_names_in_popularity_order(self):
        assert zipf_item_names(3) == ["z0", "z1", "z2"]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            zipf_cum_weights(0, skew=1.0)


class TestGeneration:
    def test_deterministic_from_seed(self):
        a = generate_zipf_workload(SMALL, random.Random(7))
        b = generate_zipf_workload(SMALL, random.Random(7))
        assert a == b

    def test_arrivals_nondecreasing_integer_ticks(self):
        txns, arrivals = generate_zipf_workload(SMALL, random.Random(1))
        ticks = [arrivals[t.txn_id] for t in txns]
        assert all(isinstance(t, int) and t >= 0 for t in ticks)
        assert ticks == sorted(ticks)
        assert set(arrivals) == {t.txn_id for t in txns}

    def test_skew_concentrates_on_hot_items(self):
        txns, _ = generate_zipf_workload(
            ZipfSpec(num_txns=400, num_items=256, skew=1.1), random.Random(2)
        )
        ops = [op for t in txns for op in t.operations]
        hot_share = sum(op.item == "z0" for op in ops) / len(ops)
        assert hot_share > 0.05  # rank 1 alone beats uniform 1/256 by far

    def test_write_ratio_extremes(self):
        all_reads, _ = generate_zipf_workload(
            ZipfSpec(num_txns=20, write_ratio=0.0), random.Random(3)
        )
        assert all(
            op.kind.is_read for t in all_reads for op in t.operations
        )
        all_writes, _ = generate_zipf_workload(
            ZipfSpec(num_txns=20, write_ratio=1.0), random.Random(3)
        )
        assert all(
            op.kind.is_write for t in all_writes for op in t.operations
        )

    def test_vary_length_bounds(self):
        txns, _ = generate_zipf_workload(
            ZipfSpec(num_txns=100, ops_per_txn=5, vary_length=True),
            random.Random(4),
        )
        lengths = {t.num_operations for t in txns}
        assert lengths <= set(range(1, 6))
        assert len(lengths) > 1

    def test_spec_validation(self):
        for bad in (
            dict(num_txns=0),
            dict(ops_per_txn=0),
            dict(num_items=0),
            dict(write_ratio=1.5),
            dict(skew=-0.1),
            dict(load=0.0),
        ):
            with pytest.raises(ValueError):
                ZipfSpec(**bad)


class TestHotSet:
    def test_prefix_covers_fraction(self):
        spec = ZipfSpec()
        hot = hot_set(spec, fraction=0.5)
        cum = zipf_cum_weights(spec.num_items, spec.skew)
        assert list(hot) == zipf_item_names(spec.num_items)[: len(hot)]
        assert cum[len(hot) - 1] >= 0.5 * cum[-1]
        if len(hot) > 1:
            assert cum[len(hot) - 2] < 0.5 * cum[-1]

    def test_default_spec_hot_set_is_tiny(self):
        assert len(hot_set(ZipfSpec())) < 50

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            hot_set(ZipfSpec(), fraction=0.0)


class TestOpenLoopPipeline:
    def test_open_loop_run_reports_latency_percentiles(self):
        txns, arrivals = generate_zipf_workload(SMALL, random.Random(5))
        service = TransactionService(
            k=3, n_shards=2, anti_starvation=True, parallel=0, window=8
        )
        try:
            service.submit_programs(txns)
            report = service.run(arrivals=arrivals)
            snap = service.stage_snapshot()
        finally:
            service.close()
        admission = snap["admission"]
        assert admission["open_loop"] == 1
        assert 0 <= admission["latency_p50"] <= admission["latency_p99"]
        assert admission["latency_p99"] <= admission["latency_max"]
        assert len(report.committed) + len(report.failed) == SMALL.num_txns

    def test_open_loop_inline_equals_process_workers(self):
        txns, arrivals = generate_zipf_workload(SMALL, random.Random(6))
        reports = []
        # In-process engines, then two data-node processes over TCP.
        for hosts in (dict(parallel=0), dict(parallel=2, transport="tcp")):
            service = TransactionService(
                k=3, n_shards=2, anti_starvation=True, window=8, **hosts
            )
            try:
                service.submit_programs(txns)
                reports.append(service.run(arrivals=arrivals))
            finally:
                service.close()
        inline, procs = reports
        assert inline.committed == procs.committed
        assert inline.failed == procs.failed
        assert inline.committed_ops == procs.committed_ops
