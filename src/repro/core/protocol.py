"""Common scheduler interface shared by every concurrency controller.

The paper compares protocols by the *set of logs they accept* ("degree of
concurrency", Section III-C).  To make that comparison executable we give
every controller — MT(k), MT(k*), MT(k1,k2), DMT(k) and the baselines
(2PL, conventional TO, optimistic, Bayer-style intervals) — one interface:

* :meth:`Scheduler.process` takes the next atomic operation of the log and
  returns a :class:`Decision`;
* :meth:`Scheduler.accepts` answers the class-membership question "is this
  log recognized by the protocol?";
* :meth:`Scheduler.run` replays a whole log and returns the full record,
  which the Tables I-III reproduction benches render.

Executing a protocol with restarts, partial rollback and deferred
validation (Section VI-C) needs a little more: the executor tells the
scheduler when a transaction restarts or commits and asks whether it
may commit.  That lifecycle is declared on :class:`Scheduler` too, with
defaults that fit a recognizer keeping no per-transaction state across
an abort, so a family overrides only what it tracks.

A ``REJECT`` decision means the issuing transaction must abort.  An
``IGNORE`` decision (Thomas write rule, Section III-D-6c) means the
operation is safely skipped: the transaction lives on and the log is still
accepted.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Iterable, Mapping, Sequence

from ..model.log import Log
from ..model.operations import Operation, Transaction


class DecisionStatus(enum.Enum):
    """Outcome of scheduling one atomic operation."""

    ACCEPT = "accept"
    IGNORE = "ignore"  # Thomas write rule: the write is dropped, not aborted
    REJECT = "reject"  # the issuing transaction aborts


@dataclass(frozen=True, slots=True)
class Decision:
    """The scheduler's verdict on one operation."""

    status: DecisionStatus
    op: Operation
    reason: str = ""

    @property
    def accepted(self) -> bool:
        """True when the transaction survives (the operation ran or was
        safely ignored)."""
        return self.status is not DecisionStatus.REJECT

    @property
    def performed(self) -> bool:
        """True when the operation actually executed against the database."""
        return self.status is DecisionStatus.ACCEPT

    def __str__(self) -> str:
        suffix = f" ({self.reason})" if self.reason else ""
        return f"{self.status.value} {self.op}{suffix}"


@dataclass
class RunResult:
    """Record of replaying one log through a scheduler."""

    log: Log
    decisions: list[Decision] = field(default_factory=list)
    aborted: set[int] = field(default_factory=set)
    #: per-operation table snapshots (populated when tracing is enabled)
    trace: list[Mapping[int, tuple[Any, ...]]] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        """The log is in the protocol's class iff nothing was rejected."""
        return not self.aborted

    @property
    def ignored_writes(self) -> int:
        return sum(
            1 for d in self.decisions if d.status is DecisionStatus.IGNORE
        )


class Scheduler(abc.ABC):
    """Abstract concurrency controller.

    Concrete schedulers are stateful recognizers: feed operations in log
    order via :meth:`process`; call :meth:`reset` to reuse the instance for
    another log.  Implementations must make decisions deterministically so
    class-membership answers are reproducible.
    """

    #: Human-readable protocol name, e.g. ``"MT(3)"`` — set by subclasses.
    name: str = "scheduler"

    def process(self, op: Operation) -> Decision:
        """Schedule the next operation of the log.

        Template method: the protocol logic lives in the subclass's
        :meth:`_process`; every decision then flows through
        :meth:`_observe` so instrumented schedulers account it uniformly
        (the :class:`repro.obs.Instrumented` mixin counts it into the
        metrics registry and emits a ``decision`` trace event).
        """
        decision = self._process(op)
        self._observe(decision)
        return decision

    @abc.abstractmethod
    def _process(self, op: Operation) -> Decision:
        """Protocol-specific scheduling of one operation."""

    def _observe(self, decision: Decision) -> None:
        """Decision accounting hook; overridden by ``Instrumented``."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state, ready for a fresh log."""

    # ------------------------------------------------------------------
    def accepts(self, log: Log) -> bool:
        """Class membership: is *log* accepted without any abort?

        Stops at the first rejection.  The scheduler is reset before the
        replay, so the call is idempotent.
        """
        self.reset()
        for op in log:
            if not self.process(op).accepted:
                return False
        return True

    def run(self, log: Log, stop_on_reject: bool = False) -> RunResult:
        """Replay *log* fully (or up to the first rejection).

        Operations of already-aborted transactions are rejected outright,
        mirroring that an aborted transaction's later operations never reach
        the scheduler in a real system.
        """
        self.reset()
        result = RunResult(log=log)
        for op in log:
            if op.txn in result.aborted:
                decision = Decision(
                    DecisionStatus.REJECT, op, "transaction already aborted"
                )
            else:
                decision = self.process(op)
            result.decisions.append(decision)
            if decision.status is DecisionStatus.REJECT:
                result.aborted.add(op.txn)
                if stop_on_reject:
                    break
            snapshot = self.table_snapshot()
            if snapshot is not None:
                result.trace.append(snapshot)
        return result

    def table_snapshot(self) -> Mapping[int, tuple[Any, ...]] | None:
        """Current timestamp-table snapshot, if the scheduler keeps one and
        tracing is enabled; ``None`` otherwise (baselines without tables)."""
        return None

    # ------------------------------------------------------------------
    # Execution lifecycle: what the executor tells and asks (Section VI-C)
    # ------------------------------------------------------------------
    #: Transactions rejected and not restarted since; families that track
    #: them bind their own set in ``reset()``.
    aborted: AbstractSet[int] = frozenset()
    #: Rejected transactions whose executed prefix may stay (VI-C 1).
    partial_ok: AbstractSet[int] = frozenset()
    #: Set once nothing can be accepted before ``reset()`` (Algorithm 2
    #: step 4 i): the executor then restarts the whole epoch.
    failed: bool = False

    def plan_transactions(self, transactions: Sequence[Transaction]) -> None:
        """Learn the programs before a run (predeclared lock sets)."""

    def restart(self, txn: int) -> None:
        """Rejected *txn* runs again: forget the rejection."""

    def cascade_restart(self, txn: int) -> None:
        """Roll back *txn*, which was never rejected (a cascade or
        commit-dependency-cycle victim)."""

    def prune_aborted(self, txn: int) -> int:
        """Retract the aborted attempt's versions; returns how many."""
        return 0

    def validate_commit(self, txn: int) -> bool:
        """Commit-time validation; ``False`` aborts *txn*."""
        return True

    def commit(self, txn: int) -> None:
        """*txn* committed."""

    def commit_dependencies(self, txn: int) -> AbstractSet[int]:
        """Uncommitted writers *txn* read from: it commits after them."""
        return frozenset()

    def readers_of(self, txn: int) -> AbstractSet[int]:
        """Active readers of *txn*'s writes: they roll back with it."""
        return frozenset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


def acceptance_count(scheduler: Scheduler, logs: Iterable[Log]) -> int:
    """How many of *logs* the scheduler accepts (degree-of-concurrency
    experiments, Section III-C)."""
    return sum(1 for log in logs if scheduler.accepts(log))
