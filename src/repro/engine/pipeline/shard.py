"""Shard stage: partitioned scheduling with cross-shard ordering.

Each :class:`Shard` owns the timestamp bookkeeping for the items the
:class:`~repro.engine.pipeline.router.ShardRouter` assigns to it plus
the vector rows of the transactions homed there, and accounts its own
occupancy.  Correctness across shards is exactly Section V-B's problem
— per-partition schedulers must still produce one globally DSR order —
so the shard set reuses :class:`~repro.core.distributed.DMTkScheduler`
semantics: shards draw their k-th vector column from per-shard
:class:`~repro.core.timestamp.SiteTaggedCounters` (globally unique
``(counter, shard)`` elements make the cross-shard order total), and an
operation touching another shard's rows locks and fetches them in the
predefined linear order.  The underlying timestamp table is therefore
*logically* one table partitioned by home shard, not ``n`` independent
tables — independent per-shard MT(k) instances could order the same
pair of transactions differently on two shards and commit a cycle.

With ``n_shards=1`` the shard stage vanishes: the set builds a plain
:class:`~repro.core.mtk.MTkScheduler`, whose decisions are bit-identical
to an unsharded executor's (and to DMT(k) on one site, per the property
test in ``test_distributed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...core.protocol import Decision, DecisionStatus, Scheduler
from ...model.operations import Operation, OpKind
from .router import ShardRouter


@dataclass(frozen=True)
class ShardSpec:
    """Configuration of the sharded scheduler family (MT(k)-based)."""

    n_shards: int = 1
    k: int = 2
    read_rule: str = "line9"
    #: scheduler family: "mtk" (single-version MT(k)/DMT(k)) or "mvmt"
    #: (the III-D-6d multiversion rebuild — version chains, abort-free
    #: reads, decentralized per-shard visibility).
    protocol: str = "mtk"
    #: DMT(k) lock-retention optimization (end of Section V-B).
    retain_locks: bool = False
    #: periodic cross-shard counter synchronization (V-B 1b fairness).
    sync_interval: int | None = None
    #: Section III-D-4 starvation remedy: re-seed an aborted vector past
    #: its blocker so deterministic reject loops cannot recur.  Open-loop
    #: hot-key workloads (the Zipf scenarios) need this to converge.
    anti_starvation: bool = False
    #: Section VI-C 1 partial rollback: an abort with no transaction
    #: ordered after the victim keeps its executed prefix (the service's
    #: ``rollback="partial"``).
    partial_rollback: bool = False

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.protocol not in ("mtk", "mvmt"):
            raise ValueError("protocol must be 'mtk' or 'mvmt'")


@dataclass
class Shard:
    """Per-shard occupancy record (reset at the start of every run)."""

    shard_id: int
    ops: int = 0
    reads: int = 0
    writes: int = 0
    accepted: int = 0
    rejected: int = 0
    ignored: int = 0
    commits_homed: int = 0
    items: set[str] = field(default_factory=set)

    def record(self, op: Operation, decision: Decision) -> None:
        self.ops += 1
        if op.kind.is_read:
            self.reads += 1
        else:
            self.writes += 1
        status = decision.status
        if status is DecisionStatus.ACCEPT:
            self.accepted += 1
        elif status is DecisionStatus.REJECT:
            self.rejected += 1
        else:
            self.ignored += 1
        self.items.add(op.item)

    def clear(self) -> None:
        self.ops = self.reads = self.writes = 0
        self.accepted = self.rejected = self.ignored = 0
        self.commits_homed = 0
        self.items.clear()

    def snapshot(self) -> dict[str, int]:
        return {
            "shard": self.shard_id,
            "ops": self.ops,
            "reads": self.reads,
            "writes": self.writes,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "ignored": self.ignored,
            "commits_homed": self.commits_homed,
            "items": len(self.items),
        }


class ShardSet:
    """``n`` shards plus the scheduler that keeps them globally ordered."""

    def __init__(
        self, spec: ShardSpec, router: ShardRouter | None = None
    ) -> None:
        self.spec = spec
        self.router = router or ShardRouter(spec.n_shards)
        if self.router.n_shards != spec.n_shards:
            raise ValueError("router and spec disagree on shard count")
        self.shards = [Shard(index) for index in range(spec.n_shards)]
        self.scheduler = self._build_scheduler()

    def _build_scheduler(self) -> Scheduler:
        multiversion = self.spec.protocol == "mvmt"
        if self.spec.n_shards == 1:
            if multiversion:
                from ...core.multiversion import MVMTkScheduler

                return MVMTkScheduler(
                    self.spec.k,
                    anti_starvation=self.spec.anti_starvation,
                    partial_rollback=self.spec.partial_rollback,
                    commit_aware=True,
                )
            from ...core.mtk import MTkScheduler

            return MTkScheduler(
                self.spec.k,
                read_rule=self.spec.read_rule,
                anti_starvation=self.spec.anti_starvation,
                partial_rollback=self.spec.partial_rollback,
            )
        shared = dict(
            num_sites=self.spec.n_shards,
            site_of_item=self.router.shard_of_item,
            site_of_txn=self.router.shard_of_txn,
            retain_locks=self.spec.retain_locks,
            sync_interval=self.spec.sync_interval,
            anti_starvation=self.spec.anti_starvation,
            partial_rollback=self.spec.partial_rollback,
        )
        if multiversion:
            from ...core.multiversion import MVDMTkScheduler

            return MVDMTkScheduler(
                self.spec.k, commit_aware=True, **shared
            )
        from ...core.distributed import DMTkScheduler

        return DMTkScheduler(
            self.spec.k, read_rule=self.spec.read_rule, **shared
        )

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.spec.n_shards

    def reset(self) -> None:
        """Clear occupancy (the scheduler is reset by the service)."""
        for shard in self.shards:
            shard.clear()

    def record(self, op: Operation, decision: Decision) -> None:
        """Account one scheduled operation to the item's owning shard."""
        self.shards[self.router.shard_of_item(op.item)].record(op, decision)

    def record_commit(self, txn_id: int) -> None:
        self.shards[self.router.shard_of_txn(txn_id)].commits_homed += 1

    # ------------------------------------------------------------------
    def occupancy(self) -> list[float]:
        """Each shard's share of the scheduled operations (sums to 1.0
        when any work ran; all-zero otherwise)."""
        total = sum(shard.ops for shard in self.shards)
        if total == 0:
            return [0.0] * len(self.shards)
        return [shard.ops / total for shard in self.shards]

    def snapshot(self) -> list[dict[str, Any]]:
        return [shard.snapshot() for shard in self.shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardSet n={self.n_shards} k={self.spec.k}>"
