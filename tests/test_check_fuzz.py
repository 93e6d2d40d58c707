"""Differential fuzzer + ddmin shrinking (``repro.check.fuzz``)."""

import pytest

from repro.check.fuzz import (
    FuzzConfig,
    check_case,
    default_matrix,
    dump_counterexample_traces,
    parallel_violations,
    run_fuzz,
    shrink_case,
)
from repro.check.shrink import ddmin
from repro.core.protocol import Decision, DecisionStatus, Scheduler
from repro.model.log import Log


class AlwaysAcceptScheduler(Scheduler):
    """The injected bug: a 'scheduler' with no concurrency control at
    all.  Must be caught by accept-implies-dsr and shrink to a tiny
    non-DSR core."""

    def reset(self) -> None:
        pass

    def _process(self, op) -> Decision:
        return Decision(DecisionStatus.ACCEPT, op)

    def process(self, op) -> Decision:
        return self._process(op)


class TestDdmin:
    def test_minimizes_to_the_failing_pair(self):
        items = tuple(range(20))
        result = ddmin(items, lambda sub: 3 in sub and 17 in sub)
        assert sorted(result) == [3, 17]

    def test_rejects_passing_input(self):
        with pytest.raises(ValueError):
            ddmin((1, 2, 3), lambda sub: False)

    def test_single_element_failure(self):
        assert ddmin((1, 2, 3, 4), lambda sub: 4 in sub) == [4]


class TestCheckCase:
    def test_clean_log_has_no_violations(self):
        assert check_case(Log.parse("W1[x] R2[x] W2[y]")) == []

    def test_non_dsr_log_rejected_by_everyone(self):
        # Not a violation: every sound scheduler just rejects it.
        assert check_case(Log.parse("R1[x] R2[x] W1[x] W2[x]")) == []

    def test_injected_bug_is_caught(self):
        matrix = default_matrix()
        matrix["buggy"] = AlwaysAcceptScheduler
        violations = check_case(
            Log.parse("W1[x] W2[x] R1[x]"), matrix=matrix
        )
        assert any(
            v.rule == "accept-implies-dsr" and "buggy" in v.detail
            for v in violations
        )

    def test_executor_checks_run_by_default(self):
        # A log that forces aborts/restarts still yields zero violations:
        # the committed projections stay DSR.
        assert check_case(Log.parse("W2[x] W1[x] R2[x] W1[y] R2[y]")) == []


class TestCampaign:
    def test_clean_campaign(self):
        report = run_fuzz(FuzzConfig(iterations=30, seed=11))
        assert report.ok
        assert report.cases == 30
        assert report.counterexamples == []

    def test_campaign_is_deterministic(self):
        a = run_fuzz(FuzzConfig(iterations=10, seed=3)).to_dict()
        b = run_fuzz(FuzzConfig(iterations=10, seed=3)).to_dict()
        a.pop("elapsed_s"), b.pop("elapsed_s")
        assert a == b

    def test_injected_bug_caught_and_shrunk_small(self):
        # The ISSUE acceptance bar: a buggy scheduler must be caught and
        # its counterexample shrunk to at most 6 operations.
        matrix = default_matrix()
        matrix["buggy"] = AlwaysAcceptScheduler
        report = run_fuzz(
            FuzzConfig(iterations=40, seed=7, max_counterexamples=3),
            matrix=matrix,
        )
        assert not report.ok
        assert report.counterexamples, "bug never caught in 40 cases"
        for example in report.counterexamples:
            assert example.rule == "accept-implies-dsr"
            assert example.shrunk_ops <= 6, example.shrunk
            # The shrunk log still reproduces through the public API.
            assert any(
                v.rule == example.rule
                for v in check_case(Log.parse(example.shrunk), matrix=matrix)
            )

    def test_shrink_case_returns_one_minimal_log(self):
        matrix = default_matrix()
        matrix["buggy"] = AlwaysAcceptScheduler
        log = Log.parse("R3[y] W1[x] W2[x] R1[x] W3[y] R2[y]")
        shrunk = shrink_case(log, "accept-implies-dsr", matrix=matrix)
        assert len(shrunk) < len(log)
        # 1-minimality: removing any single operation repairs the case.
        ops = tuple(shrunk.operations)
        for index in range(len(ops)):
            sub = Log(ops[:index] + ops[index + 1 :])
            assert all(
                v.rule != "accept-implies-dsr"
                for v in check_case(sub, matrix=matrix)
            )

    def test_trace_dump_writes_jsonl(self, tmp_path):
        matrix = default_matrix()
        matrix["buggy"] = AlwaysAcceptScheduler
        report = run_fuzz(
            FuzzConfig(iterations=20, seed=7, max_counterexamples=1),
            matrix=matrix,
        )
        paths = dump_counterexample_traces(report, tmp_path)
        assert paths
        content = (tmp_path / "counterexample_0.jsonl").read_text()
        assert content.strip(), "trace file is empty"


class TestCacheEquivalenceRule:
    """The ``cache-equivalence`` rule went with the comparison cache it
    guarded; its sanity log stays as a check of the acceptance rules."""

    def test_rule_is_active(self):
        # Sanity: the acceptance rules run and pass on a conflict-heavy log.
        violations = check_case(
            Log.parse("W1[x] W2[x] R3[x] W3[y] R1[y]"),
            run_executor=False,
        )
        assert violations == []

    def test_check_cache_knob_is_gone(self):
        with pytest.raises(TypeError, match="check_cache"):
            check_case(Log.parse("W1[x] R2[x]"), check_cache=False)


class TestParallelEquivalenceRule:
    """``--check-parallel``: the windowed plane's ``parallel-dsr`` rule."""

    def test_rule_passes_on_conflict_heavy_log(self):
        violations = parallel_violations(
            Log.parse("W1[x] W2[x] R3[x] W3[y] R1[y] W4[x] R2[y] W5[y]")
        )
        assert violations == []

    def test_rule_opt_in_through_check_case(self):
        log = Log.parse("W1[x] R2[x] W2[y] R1[y]")
        violations = check_case(
            log, run_executor=False, check_parallel=True
        )
        assert violations == []

    def test_campaign_flag_round_trips(self):
        config = FuzzConfig(iterations=3, seed=11, parallel=True)
        report = run_fuzz(config)
        assert report.ok
        assert report.config.to_dict()["parallel"] is True
