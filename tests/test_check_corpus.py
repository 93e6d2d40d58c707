"""Fuzz regression corpus: frozen logs that once exposed (or guard
against) real bugs.

Each ``tests/corpus/*.json`` file records one log with its expected
acceptance vector across the whole protocol matrix, frozen at the time
the case was added.  The tests assert (a) the acceptance decisions have
not drifted, and (b) the full differential cross-check still passes —
so a regression in any scheduler trips the exact case that found it.

The PR-1 bugs live here permanently: the read-own-write line 9-10
rejection, the SiteTaggedCounters reset (via DMT(2) replay), and the
OptimizedEncoding prefix holes (via the hot-item MT(2) build).
"""

import json
from pathlib import Path

import pytest

from repro.check.fuzz import check_case, default_matrix
from repro.check.oracle import SerializabilityOracle
from repro.model.log import Log

CORPUS_DIR = Path(__file__).parent / "corpus"
# The one case that carries transaction programs + a service seed instead
# of a flat log; test_service_run_is_serializable owns it.
SERVICE_CASE = CORPUS_DIR / "mt3-line9-maximal-restore.json"
# recovery_*.json and windowed_*.json cases carry a service configuration
# + report expectation, not an acceptance vector; tests/test_recovery.py
# owns their drift checks.
CASES = sorted(
    path
    for path in CORPUS_DIR.glob("*.json")
    if not path.stem.startswith(("recovery_", "windowed_"))
    and path != SERVICE_CASE
)


def _load(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


def test_corpus_is_not_empty():
    assert len(CASES) >= 5


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_acceptance_vector_is_frozen(path):
    case = _load(path)
    log = Log.parse(case["log"])
    matrix = default_matrix()
    expected = case["expect"]["accepts"]
    # Every frozen protocol must still exist in the matrix...
    missing = set(expected) - set(matrix)
    assert not missing, f"matrix lost protocols {missing}"
    # ... and decide exactly as recorded.
    for name, want in expected.items():
        got = matrix[name]().accepts(log)
        assert got == want, f"{path.stem}: {name} flipped to {got}"


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_dsr_verdict_is_frozen(path):
    case = _load(path)
    log = Log.parse(case["log"])
    assert SerializabilityOracle().is_dsr(log) == case["expect"]["dsr"]


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_full_cross_check_passes(path):
    case = _load(path)
    log = Log.parse(case["log"])
    violations = check_case(log)
    assert violations == [], [v.to_dict() for v in violations]


MVMT_CASES = [path for path in CASES if "mvmt" in _load(path)["expect"]]


@pytest.mark.parametrize("path", MVMT_CASES, ids=lambda p: p.stem)
def test_mvmt_oracle_surface_is_frozen(path):
    """PR-10 drift guard: beyond the acceptance bit, the MVMT chain
    rebuild must reproduce the frozen reads-from relation and version
    chains exactly — a visibility-walk or installation change that
    keeps acceptance but shifts *which* version a read is served from
    trips here."""
    from repro.core.multiversion import MVMTkScheduler

    case = _load(path)
    log = Log.parse(case["log"])
    for name, frozen in case["expect"]["mvmt"].items():
        k = int(name.removeprefix("mv"))
        scheduler = MVMTkScheduler(k)
        assert scheduler.accepts(log) == frozen["accepts"], name
        got_reads = sorted(
            [reader, item, source]
            for reader, item, source in scheduler.reads_from()
        )
        assert got_reads == sorted(frozen["reads_from"]), name
        got_chains = {
            item: scheduler.version_chain(item) for item in frozen["chains"]
        }
        assert got_chains == frozen["chains"], name


def test_mvmt_corpus_cases_present():
    names = {path.stem for path in CASES}
    assert {
        "mvmt_late_reader",
        "mvmt_hot_chain",
        "mvmt_interleaved_writers",
        "mvmt_write_invalidation",
    } <= names


def test_pr1_bug_cases_present():
    names = {path.stem for path in CASES}
    assert {
        "read-own-write",
        "dmt-site-tagged-reset",
        "hot-encoding-example3",
    } <= names


@pytest.mark.parametrize("read_rule", ["line9", "none"])
def test_service_run_is_serializable(read_rule):
    """A ``TransactionService`` run of the frozen programs must commit a
    serializable projection under every read rule.  Under ``line9`` this
    is the Theorem-2 escape the case's origin describes: the abort-time
    restore of ``RT(x0)`` now keeps the reader it leaves unordered
    (``MTkScheduler.pending_readers``) and ``W8[x0]`` is ordered after it."""
    from repro.engine.pipeline import TransactionService

    case = _load(SERVICE_CASE)
    programs = Log.parse(" ".join(case["programs"])).transactions.values()
    service = TransactionService(read_rule=read_rule, **case["service"])
    service.submit_programs(programs)
    report = service.run(seed=case["seed"])
    assert report.is_serializable()


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 6))
def test_hot_closed_loop_rounds_are_serializable(seed):
    """The regime that found the Theorem-2 escape: ``closed_mpl8_hot``'s
    stream (8 transactions of 4 operations over 6 Zipf(1.5) items per
    round) under the *default* read rule, rounds driven exactly as the
    benchmark's closed loop drives them, and every round's committed
    projection checked.  Random small fuzz cases never reach it; before
    the fix about one round in 7,200 over these five seeds committed a
    cycle."""
    from benchmarks.perf import workloads as perf
    from repro.engine.pipeline import TransactionService
    from repro.model.operations import Operation, Transaction

    hot = perf.BY_NAME["closed_mpl8_hot"]
    service_args = {
        key: value for key, value in hot.service.items() if key != "read_rule"
    }
    programs = perf.generate(hot, seed).programs
    service = TransactionService(**service_args)
    cursor, carried, rounds = 0, [], 0
    while cursor < len(programs) or carried:
        if cursor < len(programs):
            take = perf.MPL - len(carried)
            batch = carried + programs[cursor : cursor + take]
            cursor += take
            held = []
        else:
            batch, held = carried[:1], carried[1:]
        service.submit_programs(
            Transaction(
                index + 1,
                tuple(Operation(kind, index + 1, item) for kind, item in program),
            )
            for index, program in enumerate(batch)
        )
        report = service.run(seed=seed + rounds)
        assert report.is_serializable(), (seed, rounds, batch)
        rounds += 1
        carried = [batch[txn - 1] for txn in sorted(report.failed)] + held
    assert rounds >= 1000


@pytest.mark.parametrize(
    "items, seed", [(12, 2), (12, 4), (12, 24), (64, 2), (64, 30)]
)
def test_partial_rollback_open_loop_is_serializable(items, seed):
    """150 Zipf(1.1) transactions, open loop, with the scheduler's
    partial rollback on.  Each of these five streams (of 40 seeds over
    12, 64 and 4,096 items) committed a cycle while a preserved abort
    let its re-seeded vector rise above ``RT(x)`` of an item it had read:
    a later write ordered after ``RT(x)`` alone slipped below it.  The
    abort now keeps such a reader in ``pending_readers[x]``."""
    from repro.engine.pipeline import TransactionService
    from tests.scheduler_streams import zipf_stream

    programs, arrivals = zipf_stream(150, seed=seed, items=items)
    service = TransactionService(k=3, max_attempts=20, rollback="partial")
    service.scheduler.partial_rollback = True
    service.submit_programs(programs)
    report = service.run(seed=seed, arrivals=arrivals)
    assert report.is_serializable()
