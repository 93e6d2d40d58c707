"""Differential fuzzer with counterexample shrinking.

Where :mod:`repro.check.enumerate` proves small scopes exhaustively, this
module probes *larger* random workloads by running identical operation
streams through every scheduler in the repo and cross-checking the
outcomes against the paper's (empirically verified) class hierarchy:

* any acceptance-mode scheduler built on Theorem 2 — MT(k) in all
  read-rule variants, the anti-starvation and hot-item-encoding builds,
  MT(k*), DMT(k), conventional TO, strict 2PL — may accept only DSR logs
  (rule ``accept-implies-dsr``);
* MT(1) and conventional scalar TO must make identical accept decisions
  (``mt1-equals-to``);
* a log accepted by any fallback-free MT(h), h <= k, must be accepted by
  MT(k*) — Theorem 5 (``subprotocols-in-star``);
* a flat log accepted by MVMT(k) must be *view-equivalent* to the serial
  replay in the scheduler's own serialization order — multiversion
  correctness is view-level, not conflict-level (``mv-view``);
* end-to-end executor runs (immediate/deferred writes, full/partial
  rollback, anti-starvation, optimistic validation) must commit a DSR
  projection with disjoint committed/failed sets (``executor-dsr``,
  ``executor-overlap``);
* the sharded pipeline service must commit a DSR projection for every
  shard count (``pipeline-dsr``, ``pipeline-overlap``), and with one
  shard its report must be **bit-for-bit identical** to the legacy
  ``TransactionExecutor(MTkScheduler(2))`` — same committed/failed
  sets, same counters, same committed-operation sequence
  (``pipeline-legacy-equivalence``);
* the in-process windowed plane must commit a DSR projection for every
  shard count (``parallel-dsr``): it is its own deterministic
  interleaving, distinct from the staged lane, so its soundness is
  checked separately.  A deliberately small window forces multi-window
  plans so the cross-window carry/merge paths are exercised.  Off by
  default; enabled via ``FuzzConfig(parallel=True)`` or
  ``check_case(check_parallel=True)``;
* the multiversion pipeline must be serializable end to end
  (``mvcc-equivalence``, ``mvcc-overlap``, ``mvcc-read-aborts``): for
  every shard count a ``TransactionService(protocol="mvmt")`` run's
  committed reads-from relation must equal the serial replay of the
  committed projection in the scheduler's own serialization order
  (view-level — MVMT reads old versions, so conflict-DSR is the wrong
  oracle), committed/failed must be disjoint, and ``mv_read_aborts``
  must be **zero** (reads are abort-free by construction; only GC
  horizon aborts, counted separately, may restart a reader).  Off by
  default; enabled via ``FuzzConfig(mvcc=True)`` or
  ``check_case(check_mvcc=True)``;
* the crash-recoverable data plane must survive deterministic fault
  injection invisibly (``recovery-equivalence``, ``recovery-dsr``):
  for every shard count the recoverable loopback transport with no
  faults is bit-identical to the in-process windowed plane, and under
  random
  :class:`~repro.engine.pipeline.faults.FaultPlan` scripts (node
  crashes at 2PC phase boundaries, dropped/duplicated/delayed
  messages, torn coordinator WAL appends) every crashed-and-recovered
  run's report equals the fault-free run — bit-identity subsumes
  prefix consistency — and its committed projection is DSR.  Off by
  default; enabled via ``FuzzConfig(recovery=True)`` or
  ``check_case(check_recovery=True)``.

Intentionally *not* checked, because they are false: TO(k) monotonicity
in ``k`` (Fig. 4 regions 2 and 6 are real), flat-log DSR for the
optimistic scheduler (Kung-Robinson is only sound under deferred
writes — it is checked through the executor instead), and flat-log DSR
for MVMT (see ``mv-view``).

A failing case is shrunk with :func:`repro.check.shrink.ddmin` to a
1-minimal operation subsequence that still trips the same rule.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.composite import MTkStarScheduler
from ..core.distributed import DMTkScheduler
from ..core.mtk import MTkScheduler
from ..core.multiversion import MVMTkScheduler
from ..core.protocol import Scheduler
from ..core.table import OptimizedEncoding
from ..engine.executor import TransactionExecutor
from ..engine.pipeline import TransactionService
from ..engine.optimistic import OptimisticScheduler
from ..engine.to_scheduler import ConventionalTOScheduler
from ..engine.two_pl_scheduler import StrictTwoPLScheduler
from ..model.generator import WorkloadSpec, generate_transactions, interleave
from ..model.log import Log
from .enumerate import Violation
from .oracle import SerializabilityOracle, serial_reads_from
from .shrink import ddmin

SchedulerFactory = Callable[[], Scheduler]

#: Matrix entries whose acceptance does NOT imply flat-log DSR: the
#: multiversion scheduler reads old versions (its soundness is the
#: ``mv-view`` rule) and the optimistic scheduler assumes deferred
#: writes (checked through the executor).
_NOT_FLAT_DSR = frozenset({"mv2", "opt"})


def default_matrix() -> dict[str, SchedulerFactory]:
    """Every acceptance-mode scheduler in the repo, by short name.

    To fuzz a new scheduler, add a factory here (or pass a custom mapping
    to :func:`check_case`): unless its name is in ``_NOT_FLAT_DSR`` it is
    automatically held to the accept-implies-DSR rule, and the
    name-triggered rules (``mt1``/``to``, ``mt*_none``/``mtstar3``)
    activate when their participants are present.
    """
    return {
        "mt1": lambda: MTkScheduler(1),
        "mt2": lambda: MTkScheduler(2),
        "mt3": lambda: MTkScheduler(3),
        "mt1_none": lambda: MTkScheduler(1, read_rule="none"),
        "mt2_none": lambda: MTkScheduler(2, read_rule="none"),
        "mt3_none": lambda: MTkScheduler(3, read_rule="none"),
        "mt2_anti": lambda: MTkScheduler(2, anti_starvation=True),
        "mt2_hot": lambda: MTkScheduler(
            2, encoding=OptimizedEncoding(is_hot=lambda item: True)
        ),
        "mtstar3": lambda: MTkStarScheduler(3),
        "mv2": lambda: MVMTkScheduler(2),
        "to": lambda: ConventionalTOScheduler(),
        "2pl": lambda: StrictTwoPLScheduler(),
        "opt": lambda: OptimisticScheduler(),
        "dmt2": lambda: DMTkScheduler(2),
    }


#: Executor configurations exercised per case: (name, scheduler factory,
#: executor kwargs).  Each must commit a DSR projection.
_EXECUTOR_CONFIGS: tuple[tuple[str, SchedulerFactory, dict[str, Any]], ...] = (
    ("mt2", lambda: MTkScheduler(2), {}),
    ("mt2_anti", lambda: MTkScheduler(2, anti_starvation=True), {}),
    (
        "mt2_partial",
        lambda: MTkScheduler(2, partial_rollback=True),
        {"rollback": "partial"},
    ),
    ("to", lambda: ConventionalTOScheduler(), {}),
    ("2pl", lambda: StrictTwoPLScheduler(), {}),
    ("opt", lambda: OptimisticScheduler(), {"write_policy": "deferred"}),
)


#: Shard counts the pipeline service is fuzzed with by default; the
#: ISSUE-level claim is that any of these is decision-safe.
DEFAULT_SHARDS: tuple[int, ...] = (1, 2, 4)


def check_case(
    log: Log,
    matrix: Mapping[str, SchedulerFactory] | None = None,
    oracle: SerializabilityOracle | None = None,
    run_executor: bool = True,
    check_parallel: bool = False,
    check_recovery: bool = False,
    check_mvcc: bool = False,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
) -> list[Violation]:
    """Run one log through the whole matrix; return every rule violation.

    A correct repo returns ``[]`` for every log.  The function is
    deterministic in *log*, which is what makes ddmin shrinking valid.
    """
    matrix = default_matrix() if matrix is None else matrix
    oracle = oracle if oracle is not None else SerializabilityOracle()
    violations: list[Violation] = []
    text = str(log)
    dsr = oracle.is_dsr(log)

    accepted: dict[str, bool] = {}
    schedulers: dict[str, Scheduler] = {}
    for name, factory in matrix.items():
        scheduler = factory()
        schedulers[name] = scheduler
        accepted[name] = scheduler.accepts(log)
        if accepted[name] and not dsr and name not in _NOT_FLAT_DSR:
            violations.append(
                Violation(
                    "accept-implies-dsr",
                    text,
                    f"{name} accepted a non-DSR log",
                )
            )

    if "mt1" in accepted and "to" in accepted:
        if accepted["mt1"] != accepted["to"]:
            violations.append(
                Violation(
                    "mt1-equals-to",
                    text,
                    f"mt1 accepted={accepted['mt1']} but scalar TO "
                    f"accepted={accepted['to']}",
                )
            )

    if "mtstar3" in accepted and not accepted["mtstar3"]:
        for name in ("mt1_none", "mt2_none", "mt3_none"):
            if accepted.get(name):
                violations.append(
                    Violation(
                        "subprotocols-in-star",
                        text,
                        f"{name} accepts but mtstar3 rejects (Theorem 5)",
                    )
                )
                break

    if accepted.get("mv2"):
        mv = schedulers["mv2"]
        order = mv.serialization_order()
        if sorted(mv.reads_from()) != sorted(serial_reads_from(log, order)):
            violations.append(
                Violation(
                    "mv-view",
                    text,
                    "MVMT(2) reads-from differs from serial replay in its "
                    f"own serialization order {order}",
                )
            )

    if run_executor:
        violations.extend(executor_violations(log, oracle))
        if shards:
            violations.extend(pipeline_violations(log, oracle, shards=shards))
    if check_parallel and shards:
        violations.extend(parallel_violations(log, oracle, shards=shards))
    if check_recovery and shards:
        violations.extend(recovery_violations(log, oracle, shards=shards))
    if check_mvcc and shards:
        violations.extend(mvcc_violations(log, shards=shards))
    return violations


_REPORT_FIELDS = (
    "committed",
    "failed",
    "restarts",
    "ops_executed",
    "ops_reexecuted",
    "ignored_writes",
    "undo_count",
    "committed_ops",
)


def _report_mismatches(got, want) -> list[str]:
    return [
        fname
        for fname in _REPORT_FIELDS
        if getattr(got, fname) != getattr(want, fname)
    ]


def executor_violations(
    log: Log, oracle: SerializabilityOracle | None = None
) -> list[Violation]:
    """End-to-end checks: each executor configuration replays *log*'s
    transaction programs along *log*'s interleaving and must commit a DSR
    projection with committed and failed sets disjoint."""
    oracle = oracle if oracle is not None else SerializabilityOracle()
    violations: list[Violation] = []
    text = str(log)
    transactions = list(log.transactions.values())
    for name, factory, kwargs in _EXECUTOR_CONFIGS:
        executor = TransactionExecutor(factory(), **kwargs)
        report = executor.execute(transactions, schedule=log)
        overlap = report.committed & report.failed
        if overlap:
            violations.append(
                Violation(
                    "executor-overlap",
                    text,
                    f"executor[{name}] committed and failed overlap: "
                    f"{sorted(overlap)}",
                )
            )
        if not oracle.is_dsr(report.committed_log):
            violations.append(
                Violation(
                    "executor-dsr",
                    text,
                    f"executor[{name}] committed a non-DSR projection "
                    f"{report.committed_log}",
                )
            )
    return violations


def pipeline_violations(
    log: Log,
    oracle: SerializabilityOracle | None = None,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
) -> list[Violation]:
    """Sharded-service checks: for every shard count the pipeline must
    commit a DSR projection with disjoint committed/failed sets, and
    ``n_shards=1`` must reproduce the legacy executor's report exactly
    (the compatibility fast lane is bit-for-bit the monolithic loop)."""
    oracle = oracle if oracle is not None else SerializabilityOracle()
    violations: list[Violation] = []
    text = str(log)
    transactions = list(log.transactions.values())
    if not transactions:
        return violations
    legacy = None
    for n_shards in shards:
        service = TransactionService(k=2, n_shards=n_shards)
        service.submit_programs(transactions)
        report = service.run(schedule=log)
        overlap = report.committed & report.failed
        if overlap:
            violations.append(
                Violation(
                    "pipeline-overlap",
                    text,
                    f"pipeline[shards={n_shards}] committed and failed "
                    f"overlap: {sorted(overlap)}",
                )
            )
        if not oracle.is_dsr(report.committed_log):
            violations.append(
                Violation(
                    "pipeline-dsr",
                    text,
                    f"pipeline[shards={n_shards}] committed a non-DSR "
                    f"projection {report.committed_log}",
                )
            )
        if n_shards != 1:
            continue
        if legacy is None:
            legacy = TransactionExecutor(MTkScheduler(2)).execute(
                transactions, schedule=log
            )
        mismatches = _report_mismatches(report, legacy)
        if mismatches:
            violations.append(
                Violation(
                    "pipeline-legacy-equivalence",
                    text,
                    "pipeline[shards=1] diverged from the legacy executor "
                    f"in: {', '.join(mismatches)}",
                )
            )
    return violations


def mvcc_violations(
    log: Log,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
) -> list[Violation]:
    """Multiversion-pipeline checks (``protocol="mvmt"``).

    For every shard count, a sequential pipeline run over *log*'s
    programs must satisfy three rules:

    * ``mvcc-overlap`` — committed and failed sets are disjoint;
    * ``mvcc-read-aborts`` — ``mv_read_aborts`` is **zero**: MVMT reads
      are abort-free by construction (an incomparable writer is pinned
      below the reader, never aborted against).  GC horizon aborts are
      counted separately and are legal;
    * ``mvcc-equivalence`` — the committed transactions' executed
      reads-from relation (straight off the version chains) equals the
      reads-from of a **serial replay** of the committed projection in
      the scheduler's own serialization order.  This is view-level
      correctness: an MVMT run is serializable because every read can be
      attributed to the right version in *some* serial order, not
      because its flat log is conflict-DSR (it usually is not — that is
      the entire point of multiversioning).
    """
    violations: list[Violation] = []
    text = str(log)
    transactions = list(log.transactions.values())
    if not transactions:
        return violations
    for n_shards in shards:
        service = TransactionService(k=2, n_shards=n_shards, protocol="mvmt")
        service.submit_programs(transactions)
        report = service.run(schedule=log)
        scheduler = service.scheduler
        tag = f"mvcc[shards={n_shards}]"
        overlap = report.committed & report.failed
        if overlap:
            violations.append(
                Violation(
                    "mvcc-overlap",
                    text,
                    f"{tag} committed and failed overlap: {sorted(overlap)}",
                )
            )
        read_aborts = getattr(scheduler, "mv_read_aborts", 0)
        if read_aborts:
            violations.append(
                Violation(
                    "mvcc-read-aborts",
                    text,
                    f"{tag} counted {read_aborts} read-induced aborts; "
                    "MVMT reads must be abort-free",
                )
            )
        committed = report.committed
        executed = sorted(
            (reader, item, source)
            for reader, item, source in scheduler.reads_from()
            if reader in committed
        )
        order = [
            t for t in scheduler.serialization_order() if t in committed
        ]
        expected = sorted(
            serial_reads_from(report.committed_log, order)
        )
        if executed != expected:
            violations.append(
                Violation(
                    "mvcc-equivalence",
                    text,
                    f"{tag} executed reads-from differs from the serial "
                    f"replay of the committed projection in order {order}",
                )
            )
    return violations


#: Window size the windowed-plane rules run at.  Deliberately
#: tiny: fuzz cases are a handful of operations, and a small window
#: forces multi-window plans so the carried-decision, row-shipping and
#: cross-window merge paths are all exercised rather than a single
#: degenerate one-window run.
PARALLEL_FUZZ_WINDOW = 8


def parallel_violations(
    log: Log,
    oracle: SerializabilityOracle | None = None,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
    window: int = PARALLEL_FUZZ_WINDOW,
) -> list[Violation]:
    """Windowed-plane check: for every shard count the in-process
    windowed lane's committed projection must be DSR (``parallel-dsr``)
    — it is its own deterministic interleaving, distinct from the staged
    lane, so its soundness is checked separately.
    """
    oracle = oracle if oracle is not None else SerializabilityOracle()
    violations: list[Violation] = []
    text = str(log)
    transactions = list(log.transactions.values())
    if not transactions:
        return violations
    for n_shards in shards:
        service = TransactionService(
            k=2, n_shards=n_shards, parallel=0, window=window
        )
        try:
            service.submit_programs(transactions)
            report = service.run(schedule=log)
        finally:
            service.close()
        if not oracle.is_dsr(report.committed_log):
            violations.append(
                Violation(
                    "parallel-dsr",
                    text,
                    f"parallel[shards={n_shards}, window={window}] "
                    "committed a non-DSR projection "
                    f"{report.committed_log}",
                )
            )
    return violations


#: Data nodes the recovery rule runs with, and fault plans per shard
#: count.  Two nodes is the smallest cluster where 2PC is non-trivial
#: (cross-node windows, independent failures).
RECOVERY_FUZZ_NODES = 2
RECOVERY_FUZZ_PLANS = 3

def _recovery_run(transactions, log, n_shards, window, nodes, fault_plan):
    """One windowed run over the recoverable loopback plane; returns
    ``(report, rounds)`` where *rounds* is the 2PC round count (the
    window-id space faults are aimed at)."""
    service = TransactionService(
        k=2,
        n_shards=n_shards,
        parallel=nodes,
        window=window,
        transport="loopback",
        fault_plan=fault_plan,
    )
    try:
        service.submit_programs(transactions)
        report = service.run(schedule=log)
        rounds = service.stage_snapshot()["parallel"]["ipc"]["rounds"]
    finally:
        service.close()
    return report, rounds


def recovery_violations(
    log: Log,
    oracle: SerializabilityOracle | None = None,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
    window: int = PARALLEL_FUZZ_WINDOW,
    nodes: int = RECOVERY_FUZZ_NODES,
    plans: int = RECOVERY_FUZZ_PLANS,
) -> list[Violation]:
    """Recovery checks over the crash-recoverable data plane.

    For every shard count three things are pinned:

    * the recoverable **loopback transport with no faults** is
      bit-identical to the in-process windowed lane
      (``recovery-equivalence`` — 2PC, durable logs and the wire codec
      must all be invisible when nothing fails);
    * under *plans* deterministic random fault plans (node crashes at
      2PC phase boundaries, dropped/duplicated/delayed messages, torn
      coordinator WAL appends — drawn from the fault-free run's round
      count so targets land), every crashed-and-recovered run's report
      is **bit-identical to the fault-free run** — which subsumes
      prefix consistency: the committed projection of the recovered run
      *is* (not merely extends) the fault-free one
      (``recovery-equivalence``);
    * every recovered run's committed projection is DSR by the oracle
      (``recovery-dsr``).

    Fault plans are seeded from ``str(log)``, so the whole check is a
    deterministic function of the log — ddmin shrinking stays valid.
    Off by default (durable logs + retries per case are expensive);
    enabled via ``FuzzConfig(recovery=True)`` or
    ``check_case(check_recovery=True)``.
    """
    from ..engine.pipeline.faults import random_plan

    oracle = oracle if oracle is not None else SerializabilityOracle()
    violations: list[Violation] = []
    text = str(log)
    transactions = list(log.transactions.values())
    if not transactions:
        return violations
    for n_shards in shards:
        service = TransactionService(
            k=2, n_shards=n_shards, parallel=0, window=window
        )
        try:
            service.submit_programs(transactions)
            base = service.run(schedule=log)
        finally:
            service.close()
        try:
            clean, rounds = _recovery_run(
                transactions, log, n_shards, window, nodes, None
            )
        except Exception as exc:
            violations.append(
                Violation(
                    "recovery-equivalence",
                    text,
                    f"recovery[shards={n_shards}] loopback no-fault run "
                    f"raised {exc!r}",
                )
            )
            continue
        mismatches = _report_mismatches(clean, base)
        if mismatches:
            violations.append(
                Violation(
                    "recovery-equivalence",
                    text,
                    f"recovery[shards={n_shards}, nodes={nodes}, "
                    f"window={window}] loopback no-fault run diverged "
                    f"from the inline plane in: {', '.join(mismatches)}",
                )
            )
        rng = random.Random(f"recovery:{n_shards}:{text}")
        for plan_index in range(plans):
            plan = random_plan(rng, windows=max(1, rounds), nodes=nodes)
            scripted = plan.to_dict()
            try:
                recovered, _rounds = _recovery_run(
                    transactions, log, n_shards, window, nodes, plan
                )
            except Exception as exc:
                violations.append(
                    Violation(
                        "recovery-equivalence",
                        text,
                        f"recovery[shards={n_shards}, plan={scripted}] "
                        f"raised {exc!r}",
                    )
                )
                continue
            if not oracle.is_dsr(recovered.committed_log):
                violations.append(
                    Violation(
                        "recovery-dsr",
                        text,
                        f"recovery[shards={n_shards}, plan={scripted}] "
                        "committed a non-DSR projection "
                        f"{recovered.committed_log}",
                    )
                )
            mismatches = _report_mismatches(recovered, base)
            if mismatches:
                violations.append(
                    Violation(
                        "recovery-equivalence",
                        text,
                        f"recovery[shards={n_shards}, plan={scripted}] "
                        "recovered run diverged from the fault-free run "
                        f"in: {', '.join(mismatches)}",
                    )
                )
    return violations


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing campaign.  Scope bounds are maxima; each case
    draws its actual shape from the per-case RNG, so a campaign mixes
    tiny adversarial logs with busier ones."""

    iterations: int = 200
    seed: int = 0
    max_txns: int = 4
    max_ops_per_txn: int = 3
    max_items: int = 3
    shrink: bool = True
    max_counterexamples: int = 5
    #: Shard counts the pipeline service is checked with per case.
    shards: tuple[int, ...] = DEFAULT_SHARDS
    #: Also run the ``parallel-dsr`` rule per case (a windowed run per
    #: shard count; opt-in).
    parallel: bool = False
    #: Also run the ``recovery-equivalence``/``recovery-dsr`` rules per
    #: case (durable logs + fault-plan retries per shard count; opt-in).
    recovery: bool = False
    #: Also run the ``mvcc-*`` rules per case (a multiversion pipeline
    #: run per shard count plus a serial replay; opt-in).
    mvcc: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "max_txns": self.max_txns,
            "max_ops_per_txn": self.max_ops_per_txn,
            "max_items": self.max_items,
            "shrink": self.shrink,
            "max_counterexamples": self.max_counterexamples,
            "shards": list(self.shards),
            "parallel": self.parallel,
            "recovery": self.recovery,
            "mvcc": self.mvcc,
        }


@dataclass(frozen=True)
class Counterexample:
    """A failing case, as found and as shrunk."""

    case: int
    rule: str
    detail: str
    log: str
    shrunk: str
    shrunk_ops: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "case": self.case,
            "rule": self.rule,
            "detail": self.detail,
            "log": self.log,
            "shrunk": self.shrunk,
            "shrunk_ops": self.shrunk_ops,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    config: FuzzConfig
    cases: int = 0
    violations: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    rule_counts: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": "fuzz",
            "config": self.config.to_dict(),
            "cases": self.cases,
            "violations": self.violations,
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _case_log(config: FuzzConfig, rng: random.Random) -> Log:
    spec = WorkloadSpec(
        num_txns=rng.randint(2, max(2, config.max_txns)),
        ops_per_txn=rng.randint(1, config.max_ops_per_txn),
        num_items=rng.randint(1, config.max_items),
        write_ratio=rng.choice((0.3, 0.5, 0.8)),
        vary_length=rng.random() < 0.5,
    )
    return interleave(generate_transactions(spec, rng), rng)


def shrink_case(
    log: Log,
    rule: str,
    matrix: Mapping[str, SchedulerFactory] | None = None,
    shards: tuple[int, ...] = DEFAULT_SHARDS,
    check_parallel: bool = False,
    check_recovery: bool = False,
    check_mvcc: bool = False,
) -> Log:
    """ddmin a failing log down to a 1-minimal operation subsequence that
    still violates *rule* (through the same full :func:`check_case`)."""
    oracle = SerializabilityOracle()

    def still_fails(ops) -> bool:
        sub = Log(tuple(ops))
        return any(
            v.rule == rule
            for v in check_case(
                sub,
                matrix=matrix,
                oracle=oracle,
                check_parallel=check_parallel,
                check_recovery=check_recovery,
                check_mvcc=check_mvcc,
                shards=shards,
            )
        )

    minimal = ddmin(tuple(log.operations), still_fails)
    return Log(tuple(minimal))


def run_fuzz(
    config: FuzzConfig,
    matrix: Mapping[str, SchedulerFactory] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> FuzzReport:
    """The campaign loop: generate, cross-check, shrink.

    Each case is seeded from ``(config.seed, case_index)``, so any single
    case replays independently of the rest of the campaign.  At most
    ``max_counterexamples`` failures are shrunk (shrinking dominates the
    cost of a failing campaign); later failures are still counted.
    """
    oracle = SerializabilityOracle()
    report = FuzzReport(config=config)
    started = time.perf_counter()
    for case in range(config.iterations):
        rng = random.Random(f"{config.seed}:{case}")
        log = _case_log(config, rng)
        violations = check_case(
            log,
            matrix=matrix,
            oracle=oracle,
            check_parallel=config.parallel,
            check_recovery=config.recovery,
            check_mvcc=config.mvcc,
            shards=config.shards,
        )
        report.cases += 1
        report.violations += len(violations)
        for violation in violations:
            report.rule_counts[violation.rule] = (
                report.rule_counts.get(violation.rule, 0) + 1
            )
        if violations and len(report.counterexamples) < config.max_counterexamples:
            worst = violations[0]
            shrunk = (
                shrink_case(
                    log,
                    worst.rule,
                    matrix=matrix,
                    shards=config.shards,
                    check_parallel=config.parallel,
                    check_recovery=config.recovery,
                    check_mvcc=config.mvcc,
                )
                if config.shrink
                else log
            )
            report.counterexamples.append(
                Counterexample(
                    case=case,
                    rule=worst.rule,
                    detail=worst.detail,
                    log=str(log),
                    shrunk=str(shrunk),
                    shrunk_ops=len(shrunk),
                )
            )
        if progress is not None and (case + 1) % 50 == 0:
            progress(case + 1, report.violations)
    report.elapsed_s = time.perf_counter() - started
    return report


def dump_counterexample_traces(report: FuzzReport, directory) -> list[str]:
    """Replay each shrunk counterexample through a tracing MT(2) and dump
    the event stream as JSONL files under *directory* (one file per
    counterexample).  Returns the written paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for index, example in enumerate(report.counterexamples):
        scheduler = MTkScheduler(2, trace=True)
        scheduler.run(Log.parse(example.shrunk))
        path = os.path.join(directory, f"counterexample_{index}.jsonl")
        scheduler.events.dump(path)
        paths.append(path)
    return paths
