"""Hot-path engine tests: interning, slab table, frozen decision traces
and zero-cost tracing.

The load-bearing property throughout: every optimization is *decision
invariant* — the slab, the interning, and the disabled tracing may change
how fast the scheduler runs, never what it decides.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.mtk import MTkScheduler
from repro.core.table import TimestampTable, VIRTUAL_TXN, _SLAB_LIMIT
from repro.core.timestamp import (
    Comparison,
    ComparisonCache,
    Ordering,
    TimestampVector,
    UNDEFINED,
    compare,
)
from repro.engine.pipeline import PipelineExecutor
from repro.model.generator import WorkloadSpec, generate_transactions


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
        table.retire(1, 0, ["x"])  # committed, not referenced by any RT/WT
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

    def test_cache_knobs_are_gone(self):
        """One Definition-6 compare path: the comparison cache's selectors
        are rejected as unknown arguments (no shim), and the table exposes
        nothing to observe a cache with."""
        with pytest.raises(TypeError, match="cache_size"):
            TimestampTable(3, cache_size=0)
        with pytest.raises(TypeError, match="compare_cache"):
            MTkScheduler(3, compare_cache=0)
        scheduler = MTkScheduler(3)
        assert not hasattr(scheduler.table, "cache_info")
        gauges = scheduler.metrics_snapshot()["gauges"]
        assert not any("cache" in name for name in gauges)


def _decision_trace(anti_starvation: bool, seed: int):
    """Run a seeded hotspot workload; return the full decision sequence."""
    spec = WorkloadSpec(
        num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5, skew=1.5
    )
    transactions = generate_transactions(spec, random.Random(seed))
    scheduler = MTkScheduler(3, anti_starvation=anti_starvation)
    recorded = []
    original = scheduler.process

    def recording_process(op):
        decision = original(op)
        recorded.append((str(op), decision.status.value, decision.reason))
        return decision

    scheduler.process = recording_process
    executor = PipelineExecutor(scheduler, max_attempts=6)
    report = executor.execute(transactions, seed=seed)
    summary = (
        sorted(report.committed),
        sorted(report.failed),
        report.restarts,
        report.ops_executed,
    )
    return recorded, summary


#: ``(anti_starvation, seed) -> (decisions, summary, sha256 of the JSON
#: decision sequence)`` as produced at commit 13183e7 with the default
#: 4,096-entry comparison cache (and, identically, with the cache off).
FROZEN_TRACES = {
    (False, 0): (
        81,
        ([1, 2, 4, 5, 6, 7, 8], [3], 18, 62),
        "37fc091d61768f7f77d54bea6539e1638d95c734fe1e4dc801032e52cbea9c59",
    ),
    (False, 1): (
        103,
        ([1, 2, 3, 5, 8], [4, 6, 7], 24, 76),
        "93f038130630acf46737e4226a583c6df7add37c9a3a5e9762d10d8744b49af6",
    ),
    (False, 2): (
        81,
        ([1, 2, 3, 4, 5, 7, 8], [6], 18, 62),
        "3a6383665e1e4287f13b5eb6808ee7742107638a2ccee9089e4aa57edf8c2590",
    ),
    (False, 3): (
        62,
        ([1, 2, 3, 4, 5, 6, 7, 8], [], 13, 49),
        "8c9ce3b61b1097264f23bafd7ca14e9fb4c8068097bc9e0907a2d69ba7c71cb4",
    ),
    (False, 4): (
        96,
        ([1, 6, 7, 8], [2, 3, 4, 5], 25, 67),
        "c5b3aedb54d9a60821c6ba9d6a91e1856364e18bdf6700afa97e0cadcf8611d5",
    ),
    (False, 5): (
        109,
        ([1, 4, 5], [2, 3, 6, 7, 8], 30, 74),
        "736015130c004293582f36ba8ab40cc7f92e38f0415b0ee741c7d8b7348a88d1",
    ),
    (True, 0): (
        117,
        ([1, 3, 4, 5, 7, 8], [2, 6], 28, 87),
        "f94067822be2099571715c53404a7ef874cb09b96ce79c0145e0fc985a312e89",
    ),
    (True, 1): (
        130,
        ([3, 4, 7, 8], [1, 2, 5, 6], 30, 96),
        "33d8e3b5c2cd4b6ae2245fdaca88ee57d1e006165f117aa19b12af26bf78bd0b",
    ),
    (True, 2): (
        135,
        ([1, 2, 4, 5, 6, 7, 8], [3], 32, 102),
        "39a039175ba01b8770e625a69b9b4b682835cae54985d43158d0da0a8d2638d1",
    ),
    (True, 3): (
        131,
        ([1, 3, 4, 5, 6, 7, 8], [2], 35, 95),
        "47c17e14fe1bb6ee072befc13aea84bbddf978dc93f7bdbfecd5cf769bca7981",
    ),
    (True, 4): (
        137,
        ([1, 6, 7], [2, 3, 4, 5, 8], 32, 100),
        "440b015ab70818a81c316069a45efda4d443c48adaa887ca041ab89e33065929",
    ),
    (True, 5): (
        127,
        ([1, 2, 4, 5, 6], [3, 7, 8], 31, 93),
        "c0a86c0deaa1fd95661fd21f177f0eca25ba06a1e1dc8801c43e46773d3dfe14",
    ),
}


class TestFrozenDecisionTraces:
    @pytest.mark.parametrize("anti_starvation", [False, True])
    def test_seeded_traces_match_the_cached_parent(self, anti_starvation):
        # Deleting the comparison cache changed no decision: every
        # (operation, status, reason) triple of these runs equals what
        # the cache-on scheduler produced.  anti_starvation=True
        # exercises flush() mid-run, the one path that un-defines
        # elements — exactly where a stale cache entry would have moved
        # a decision.
        for seed in range(6):
            recorded, summary = _decision_trace(anti_starvation, seed)
            digest = hashlib.sha256(
                json.dumps(recorded).encode()
            ).hexdigest()
            assert (len(recorded), summary, digest) == FROZEN_TRACES[
                anti_starvation, seed
            ], seed


class TestZeroCostTracing:
    def test_disabled_trace_never_builds_events(self, monkeypatch):
        spec = WorkloadSpec(
            num_txns=8, ops_per_txn=4, num_items=6, write_ratio=0.5
        )
        transactions = generate_transactions(spec, random.Random(3))
        scheduler = MTkScheduler(3, anti_starvation=True)
        executor = PipelineExecutor(scheduler, max_attempts=6)
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
        executor = PipelineExecutor(scheduler)
        executor.execute(transactions, seed=1)
        assert scheduler.events.emitted > 0
