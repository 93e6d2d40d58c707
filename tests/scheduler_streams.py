"""A seeded abort/restart/commit stream for driving one scheduler by hand.

The executor resets its scheduler and owns the commit timing, so tests
that need to vary *when* ``commit()`` and ``reclaim_committed()`` are
heard — the history-cut and reclamation differentials — drive the
scheduler directly with this loop instead.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.mtk import MTkScheduler
from repro.model.operations import Operation, read, write
from repro.workloads.zipf import ZipfSpec, generate_zipf_workload


def programs(seed: int, txns: int, items: int) -> dict[int, list[Operation]]:
    """*txns* programs of 2-4 operations (60 % reads) over *items* items."""
    rng = random.Random(seed)
    result = {}
    for txn in range(1, txns + 1):
        ops = []
        for _ in range(rng.randint(2, 4)):
            item = f"x{rng.randrange(items)}"
            ops.append(read(txn, item) if rng.random() < 0.6 else write(txn, item))
        result[txn] = ops
    return result


def zipf_stream(txns: int, seed: int, items: int = 64):
    """*txns* open-loop Zipf(1.1) transactions of 3 operations (half
    writes) over *items* items, with their arrivals, for the service."""
    return generate_zipf_workload(
        ZipfSpec(num_txns=txns, ops_per_txn=3, num_items=items,
                 write_ratio=0.5, skew=1.1, load=0.3),
        random.Random(seed),
    )


def drive(
    scheduler: MTkScheduler,
    seed: int,
    txns: int = 40,
    items: int = 4,
    active: int = 5,
    commit_lag: int | None = 0,
    reclaim_every: int = 0,
) -> list[tuple[str, str]]:
    """Interleave the seed's programs, *active* at a time, through
    *scheduler*; returns ``(operation, decision)`` pairs.

    A rejected transaction is restarted (from its failed operation when
    the scheduler preserved it, else from the top) or abandoned, 50/50;
    a finished one commits *commit_lag* steps later (``None``: never);
    ``reclaim_committed()`` runs every *reclaim_every* steps (0: never).
    The random draws do not depend on the scheduler's state beyond its
    decisions, so two schedulers that decide alike see the same stream.
    """
    todo = programs(seed, txns, items)
    rng = random.Random(seed + 1_000_003)
    pending = list(todo)
    running = [pending.pop(0) for _ in range(min(active, len(pending)))]
    position = dict.fromkeys(todo, 0)
    commits_due: list[tuple[int, int]] = []
    decisions = []
    step = 0
    while running:
        txn = rng.choice(running)
        op = todo[txn][position[txn]]
        decision = scheduler.process(op)
        decisions.append((str(op), decision.status.value))
        leaves = False
        if decision.status.value == "reject":
            if rng.random() < 0.5:
                resumes = txn in scheduler.partial_ok
                scheduler.restart(txn)
                if not resumes:
                    position[txn] = 0
            else:
                leaves = True  # abandoned: stays aborted for good
        else:
            position[txn] += 1
            if position[txn] == len(todo[txn]):
                leaves = True
                if commit_lag is not None:
                    commits_due.append((step + commit_lag, txn))
        if leaves:
            running.remove(txn)
            if pending:
                running.append(pending.pop(0))
        while commits_due and commits_due[0][0] <= step:
            scheduler.commit(commits_due.pop(0)[1])
        step += 1
        if reclaim_every and step % reclaim_every == 0:
            scheduler.reclaim_committed()
    return decisions


def indices(scheduler: MTkScheduler) -> tuple[dict[str, int], dict[str, int]]:
    """``RT`` and ``WT`` of every item the scheduler has indexed."""
    table = scheduler.table
    return dict(table._rt), dict(table._wt)


def final_state(scheduler: MTkScheduler) -> tuple[Any, ...]:
    """Every live vector plus ``RT`` / ``WT`` — what later decisions read."""
    return (scheduler.table.snapshot(), *indices(scheduler))


def same_state(kept: tuple[Any, ...], full: tuple[Any, ...]) -> bool:
    """Two :func:`final_state` results decide alike: the same ``RT`` /
    ``WT``, and every row *kept* still holds equals *full*'s.  A scheduler
    that cuts its histories further frees more rows, never other ones."""
    kept_rows, *kept_indices = kept
    full_rows, *full_indices = full
    return kept_indices == full_indices and kept_rows == {
        txn: full_rows.get(txn) for txn in kept_rows
    }
