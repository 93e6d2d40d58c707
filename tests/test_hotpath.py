"""Hot-path engine tests: comparison cache, interning, slab table,
zero-cost tracing, and the parallel bench fan-out.

The load-bearing property throughout: every optimization is *decision
invariant* — the cache, the slab, the interning, and the disabled tracing
may change how fast the scheduler runs, never what it decides.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.mtk import MTkScheduler
from repro.core.table import (
    DEFAULT_COMPARE_CACHE,
    TimestampTable,
    VIRTUAL_TXN,
    _SLAB_LIMIT,
)
from repro.core.timestamp import (
    Comparison,
    ComparisonCache,
    Ordering,
    TimestampVector,
    UNDEFINED,
    compare,
)
from repro.engine.executor import TransactionExecutor
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.obs.bench import (
    PROFILE_TOP,
    SCHEMA,
    compare_payloads,
    run_bench,
    validate_payload,
)


class TestComparisonInterning:
    def test_of_returns_shared_instances_up_to_limit(self):
        for ordering in Ordering:
            for position in range(1, Comparison.INTERN_LIMIT + 1):
                a = Comparison.of(ordering, position)
                b = Comparison.of(ordering, position)
                assert a is b
                assert a.ordering is ordering and a.position == position

    def test_of_allocates_beyond_limit(self):
        wide = Comparison.INTERN_LIMIT + 1
        a = Comparison.of(Ordering.LESS, wide)
        b = Comparison.of(Ordering.LESS, wide)
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_compare_returns_interned_results(self):
        left = TimestampVector(3, [1, UNDEFINED, UNDEFINED])
        right = TimestampVector(3, [2, UNDEFINED, UNDEFINED])
        assert compare(left, right) is Comparison.of(Ordering.LESS, 1)

    def test_compare_wide_vectors_still_correct(self):
        k = Comparison.INTERN_LIMIT + 4
        left = TimestampVector(k, [1] * k)
        right = TimestampVector(k, [1] * (k - 1) + [2])
        result = compare(left, right)
        assert result.ordering is Ordering.LESS and result.position == k
        same = TimestampVector(k, [1] * k)
        identical = compare(left, same)
        assert identical.ordering is Ordering.IDENTICAL
        assert identical.position == k


class TestVectorMutationTracking:
    def test_version_bumps_on_set_and_flush(self):
        vec = TimestampVector(3)
        assert vec.version == 0 and vec.flush_count == 0
        vec.set(1, 5)
        assert vec.version == 1 and vec.flush_count == 0
        vec.flush()
        assert vec.version == 2 and vec.flush_count == 1

    def test_prefix_hint_bridges_holes(self):
        vec = TimestampVector(4)
        vec.set(3, 7)  # a hole: defined element past the prefix
        assert vec.defined_prefix_length() == 0
        vec.set(1, 1)
        assert vec.defined_prefix_length() == 1
        vec.set(2, 2)  # bridges through the pre-existing hole at 3
        assert vec.defined_prefix_length() == 3
        vec.flush()
        assert vec.defined_prefix_length() == 0

    def test_prefix_hint_matches_slow_scan(self):
        rng = random.Random(7)
        for _ in range(50):
            vec = TimestampVector(6)
            for position in rng.sample(range(1, 7), rng.randint(0, 6)):
                vec.set(position, rng.randint(1, 9))
            slow = 0
            for element in vec:
                if element is UNDEFINED:
                    break
                slow += 1
            assert vec.defined_prefix_length() == slow


class TestComparisonCache:
    def test_decided_verdict_survives_fill_only_sets(self):
        cache = ComparisonCache()
        left = TimestampVector(3, [1, UNDEFINED, UNDEFINED])
        right = TimestampVector(3, [2, UNDEFINED, UNDEFINED])
        first = cache.compare(left, right)
        assert first.ordering is Ordering.LESS
        right.set(2, 9)  # beyond the deciding position
        left.set(3, 4)
        assert cache.compare(left, right) is first
        assert cache.hits == 1

    def test_undecided_verdict_survives_sets_beyond_position(self):
        cache = ComparisonCache()
        left = TimestampVector(3)
        right = TimestampVector(3)
        first = cache.compare(left, right)
        assert first.ordering is Ordering.EQUAL and first.position == 1
        left.set(3, 7)  # a hole past the deciding position: irrelevant
        assert cache.compare(left, right) is first
        assert cache.hits == 1

    def test_undecided_verdict_invalidated_by_set_in_prefix(self):
        cache = ComparisonCache()
        left = TimestampVector(3)
        right = TimestampVector(3)
        assert cache.compare(left, right).ordering is Ordering.EQUAL
        left.set(1, 1)
        second = cache.compare(left, right)
        assert second.ordering is Ordering.SEMI
        assert second == compare(left, right)
        assert cache.misses == 2

    def test_flush_invalidates_even_when_mask_matches(self):
        cache = ComparisonCache()
        left = TimestampVector(2, [5, UNDEFINED])
        right = TimestampVector(2, [9, UNDEFINED])
        assert cache.compare(left, right).ordering is Ordering.LESS
        right.flush()
        right.set(1, 1)  # same defined mask as before, different value
        verdict = cache.compare(left, right)
        assert verdict.ordering is Ordering.GREATER
        assert verdict == compare(left, right)

    def test_fifo_bound_and_clear(self):
        cache = ComparisonCache(maxsize=2)
        vectors = [TimestampVector(2, [n, UNDEFINED]) for n in range(1, 5)]
        for vec in vectors[1:]:
            cache.compare(vectors[0], vec)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            ComparisonCache(maxsize=0)

    def test_cached_equals_raw_on_random_mutation_streams(self):
        rng = random.Random(42)
        cache = ComparisonCache()
        vectors = [TimestampVector(3) for _ in range(4)]
        for _ in range(400):
            action = rng.random()
            vec = rng.choice(vectors)
            if action < 0.5:
                free = [
                    p
                    for p in range(1, 4)
                    if vec.get(p) is UNDEFINED
                ]
                if free:
                    vec.set(rng.choice(free), rng.randint(1, 9))
            elif action < 0.6:
                vec.flush()
            left, right = rng.sample(vectors, 2)
            assert cache.compare(left, right) == compare(left, right)


class TestSlabTable:
    def test_dense_ids_live_in_slab_and_identity_is_stable(self):
        table = TimestampTable(3)
        vec = table.vector(5)
        assert table.vector(5) is vec
        assert table._slab[5] is vec
        assert not table._spill

    def test_huge_ids_spill_to_dict(self):
        table = TimestampTable(3)
        big = _SLAB_LIMIT + 10
        vec = table.vector(big)
        assert table.vector(big) is vec
        assert big in table._spill
        assert len(table._slab) < _SLAB_LIMIT
        assert big in table.known_txns()

    def test_reclaim_then_recreate_gives_fresh_row(self):
        table = TimestampTable(2)
        assert table.set_less(1, 2).ok
        table.set_rt("x", 2)
        table.reclaim(1)  # not referenced by any RT/WT
        assert 1 not in table.known_txns()
        fresh = table.vector(1)
        assert fresh.is_fresh()

    def test_snapshot_and_column_cover_spill(self):
        table = TimestampTable(2)
        big = _SLAB_LIMIT + 1
        assert table.set_less(1, big).ok
        snapshot = table.snapshot()
        assert set(snapshot) == {VIRTUAL_TXN, 1, big}
        # fresh vs fresh is EQUAL at position 1, so the encoding defined
        # column 1 of both vectors — one in the slab, one in the spill —
        # joining T0's always-defined zero
        assert len(table.column(1)) == 3

    def test_cache_info_exposes_hits(self):
        table = TimestampTable(3)
        table.set_less(1, 2)  # EQUAL, then encoded: masks change → miss
        table.set_less(1, 2)  # recomputes the now-LESS verdict: miss
        table.set_less(1, 2)  # decided and masks unchanged: hit
        info = table.cache_info()
        assert info["hits"] >= 1 and info["misses"] >= 1
        disabled = TimestampTable(3, cache_size=0)
        disabled.set_less(1, 2)
        assert disabled.cache_info() == {"hits": 0, "misses": 0, "size": 0}


def _decision_trace(compare_cache: int, anti_starvation: bool, seed: int):
    """Run a seeded hotspot workload; return the full decision sequence."""
    spec = WorkloadSpec(
        num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5, skew=1.5
    )
    transactions = generate_transactions(spec, random.Random(seed))
    scheduler = MTkScheduler(
        3, anti_starvation=anti_starvation, compare_cache=compare_cache
    )
    recorded = []
    original = scheduler.process

    def recording_process(op):
        decision = original(op)
        recorded.append((str(op), decision.status.value, decision.reason))
        return decision

    scheduler.process = recording_process
    executor = TransactionExecutor(scheduler, max_attempts=6)
    report = executor.execute(transactions, seed=seed)
    summary = (
        sorted(report.committed),
        sorted(report.failed),
        report.restarts,
        report.ops_executed,
    )
    return recorded, summary


class TestCacheDecisionEquivalence:
    @pytest.mark.parametrize("anti_starvation", [False, True])
    def test_cache_on_off_identical_decisions(self, anti_starvation):
        # anti_starvation=True exercises flush() mid-run, the one path
        # that un-defines elements — exactly where a stale cache entry
        # would change a decision.
        for seed in range(6):
            with_cache = _decision_trace(
                DEFAULT_COMPARE_CACHE, anti_starvation, seed
            )
            without_cache = _decision_trace(0, anti_starvation, seed)
            assert with_cache == without_cache

    def test_fuzzer_cross_checks_cache_equivalence(self):
        # The conformance fuzzer carries the same rule permanently
        # ("cache-equivalence"): every campaign replays each case through
        # MT(3) with and without the comparison cache.  A clean adversarial
        # campaign here means no workload shape distinguishes the two.
        from repro.check.fuzz import FuzzConfig, run_fuzz

        report = run_fuzz(FuzzConfig(iterations=60, seed=23))
        assert report.ok, report.to_dict()
        assert report.rule_counts.get("cache-equivalence", 0) == 0


class TestZeroCostTracing:
    def test_disabled_trace_never_builds_events(self, monkeypatch):
        spec = WorkloadSpec(
            num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5
        )
        transactions = generate_transactions(spec, random.Random(3))
        scheduler = MTkScheduler(3, anti_starvation=True)
        executor = TransactionExecutor(scheduler, max_attempts=6)
        scheduler.events.disable()
        executor.events.disable()
        calls = {"n": 0}

        def spy(*args, **kwargs):
            calls["n"] += 1

        # Call sites must check ``events.enabled`` *before* building the
        # event kwargs; with tracing disabled, emit() is never reached, so
        # the hot path allocates no event dicts and renders no strings.
        monkeypatch.setattr(scheduler.events, "emit", spy)
        monkeypatch.setattr(executor.events, "emit", spy)
        report = executor.execute(transactions, seed=3)
        assert report.ops_executed > 0
        assert calls["n"] == 0

    def test_enabled_trace_still_emits(self):
        spec = WorkloadSpec(
            num_txns=4, ops_per_txn=3, num_items=4, write_ratio=0.5
        )
        transactions = generate_transactions(spec, random.Random(1))
        scheduler = MTkScheduler(3)
        executor = TransactionExecutor(scheduler)
        executor.execute(transactions, seed=1)
        assert scheduler.events.emitted > 0


class TestParallelBench:
    #: Small scenario subset: enough to cover MT(k) and a baseline without
    #: making the test suite pay for the full family.
    SUBSET = ["mt1_uniform", "mt3_hotspot", "to_uniform"]

    @staticmethod
    def _strip_wall(payload):
        stripped = {}
        for name, result in payload["scenarios"].items():
            stripped[name] = {
                key: value
                for key, value in result.items()
                if key not in ("throughput", "ops_rate", "wall_ms")
            }
        return stripped

    def test_jobs_4_matches_jobs_1_modulo_wall_clock(self, monkeypatch):
        # plan_fanout clamps the pool to the machine's core count; pin
        # it so the process-pool path runs even on a 1-core box.
        monkeypatch.setattr(
            "repro.engine.pipeline.parallel.os.cpu_count", lambda: 4
        )
        serial = run_bench(quick=True, only=self.SUBSET, out=None, jobs=1)
        parallel = run_bench(quick=True, only=self.SUBSET, out=None, jobs=4)
        assert serial["jobs"] == 1 and parallel["jobs"] == 4
        assert self._strip_wall(serial) == self._strip_wall(parallel)

    def test_jobs_clamped_to_core_count(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.pipeline.parallel.os.cpu_count", lambda: 2
        )
        payload = run_bench(quick=True, only=["mt1_uniform"], out=None, jobs=8)
        assert payload["jobs"] == 2

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, only=self.SUBSET, out=None, jobs=0)

    def test_profile_payload_shape(self, tmp_path):
        out = tmp_path / "bench.json"
        payload = run_bench(
            quick=True, only=["mt3_hotspot"], out=out, profile=True
        )
        assert validate_payload(payload) == []
        rows = payload["scenarios"]["mt3_hotspot"]["profile"]
        assert 0 < len(rows) <= PROFILE_TOP
        for row in rows:
            assert set(row) == {"function", "calls", "tottime_ms", "cumtime_ms"}
            assert row["calls"] > 0 and row["tottime_ms"] >= 0
        # hottest-first ordering and JSON round-trip
        tottimes = [row["tottime_ms"] for row in rows]
        assert tottimes == sorted(tottimes, reverse=True)
        assert json.loads(out.read_text()) == payload


class TestComparePayloads:
    @staticmethod
    def _payload(**throughputs):
        return {
            "schema": SCHEMA,
            "scenarios": {
                name: {"throughput": value}
                for name, value in throughputs.items()
            },
        }

    def test_flags_only_scenarios_below_floor(self):
        baseline = self._payload(a=1000.0, b=1000.0)
        current = self._payload(a=900.0, b=400.0)
        problems = compare_payloads(current, baseline, floor=0.5)
        assert len(problems) == 1 and "b:" in problems[0]

    def test_scenarios_missing_from_either_side_are_skipped(self):
        baseline = self._payload(a=1000.0)
        current = self._payload(b=1.0)
        assert compare_payloads(current, baseline) == []

    def test_all_good_is_empty(self):
        baseline = self._payload(a=100.0)
        current = self._payload(a=100.0)
        assert compare_payloads(current, baseline) == []
