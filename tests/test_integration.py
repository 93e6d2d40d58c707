"""Cross-module integration tests: the whole system, end to end."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.classes.membership import is_dsr
from repro.core.composite import MTkStarScheduler
from repro.core.distributed import DMTkScheduler
from repro.core.mtk import MTkScheduler
from repro.core.nested import NestedScheduler
from repro.engine.pipeline import PipelineExecutor
from repro.engine.interval import IntervalScheduler
from repro.engine.optimistic import OptimisticScheduler
from repro.engine.to_scheduler import ConventionalTOScheduler
from repro.engine.two_pl_scheduler import StrictTwoPLScheduler
from repro.model.generator import WorkloadSpec, generate_transactions
from repro.storage.database import Database
from repro.workloads.synthetic import PRESETS, preset
from tests.conftest import small_logs


def _all_recognizers():
    return [
        MTkScheduler(1),
        MTkScheduler(3),
        MTkScheduler(3, thomas_write_rule=True),
        MTkStarScheduler(3),
        NestedScheduler(2, 2, {t: (t % 2) + 1 for t in range(1, 9)}),
        DMTkScheduler(3, num_sites=3),
        StrictTwoPLScheduler(),
        ConventionalTOScheduler(),
        IntervalScheduler(),
    ]


class TestUniversalSoundness:
    """No scheduler in the library ever accepts a non-serializable log
    (Thomas-rule variants checked modulo ignored writes elsewhere)."""

    @given(small_logs())
    @settings(max_examples=150, deadline=None)
    def test_every_recognizer_is_sound(self, log):
        from repro.model.log import Log

        for scheduler in _all_recognizers():
            if scheduler.name == "OPT":
                continue
            result = scheduler.run(log, stop_on_reject=True)
            if result.accepted:
                performed = Log(
                    tuple(d.op for d in result.decisions if d.performed)
                )
                assert is_dsr(performed), scheduler.name


class TestExecutorAcrossSchedulers:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_all_presets_execute_serializably(self, preset_name):
        spec = preset(preset_name)
        txns = generate_transactions(spec, random.Random(11))
        executor = PipelineExecutor(
            MTkScheduler(3, anti_starvation=True), max_attempts=8
        )
        report = executor.execute(txns, seed=11)
        assert report.is_serializable()
        assert report.committed | report.failed == set(
            t.txn_id for t in txns
        )

    def test_final_state_matches_some_serial_execution(self):
        """Reads-from fidelity: replaying the committed log serially in the
        scheduler's serialization order reproduces the final database."""
        spec = WorkloadSpec(num_txns=6, ops_per_txn=3, num_items=8)
        txns = generate_transactions(spec, random.Random(5))
        scheduler = MTkScheduler(3, anti_starvation=True)
        db = Database()
        executor = PipelineExecutor(scheduler, database=db, max_attempts=8)
        report = executor.execute(txns, seed=5)
        assert report.is_serializable()

        order = [
            t for t in scheduler.serialization_order()
            if t in report.committed
        ]
        serial_db = Database()
        for txn_id in order:
            for op in txns[txn_id - 1].operations:
                if op.kind.is_write:
                    serial_db.write(op.item, f"v{op.txn}:{op.item}")
        # Writes of committed transactions must match the serial replay.
        final = db.snapshot()
        expected = serial_db.snapshot()
        for item, value in final.items():
            writer = int(value.split(":")[0][1:])
            if writer in report.committed:
                assert expected.get(item) == value, item


class TestDegreeOfConcurrencyShape:
    """The Fig. 4 story measured end to end: who accepts more."""

    def test_composite_dominates_everything_mt(self, random_stream):
        logs = random_stream(250, seed=21)
        star = MTkStarScheduler(4)
        for log in logs:
            for k in (1, 2, 3, 4):
                if MTkScheduler(k, read_rule="none").accepts(log):
                    assert star.accepts(log)
                    break

    def test_mt2_beats_conventional_to_on_example1_family(self):
        """Example 1 relabeled over many item pairs: MT(2) accepts all,
        conventional TO rejects all."""
        from repro.model.log import Log

        base = "W1[{a}] W1[{b}] R3[{a}] R2[{b}] W3[{b}]"
        for a, b in [("x", "y"), ("p", "q"), ("i1", "i2")]:
            log = Log.parse(base.format(a=a, b=b))
            assert MTkScheduler(2).accepts(log)
            assert not ConventionalTOScheduler().accepts(log)

    def test_more_dimensions_never_hurt_union(self, random_stream):
        logs = random_stream(150, seed=8)
        counts = []
        for k in (1, 2, 3):
            star = MTkStarScheduler(k)
            counts.append(sum(star.accepts(log) for log in logs))
        assert counts == sorted(counts)


class TestOptimisticDeferredIntegration:
    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_optimistic_executor_is_serializable(self, seed):
        spec = WorkloadSpec(num_txns=6, ops_per_txn=3, num_items=8)
        txns = generate_transactions(spec, random.Random(seed))
        executor = PipelineExecutor(
            OptimisticScheduler(), write_policy="deferred", max_attempts=8
        )
        report = executor.execute(txns, seed=seed)
        assert report.is_serializable()
        assert report.undo_count == 0
