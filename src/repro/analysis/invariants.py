"""Runtime invariant checks for timestamp tables.

Structural facts that hold for every reachable MT(k) state — useful as a
debugging oracle when extending the protocols (the property tests run
these after random executions):

1. **Contiguous prefixes** — defined elements fill each vector from the
   left without holes (``Set`` only ever assigns at the first undecided
   position).
2. **Distinct k-th column** — defined values in the last column are
   pairwise distinct (they come from the ``ucount``/``lcount`` counters),
   so any two fully-defined vectors are distinguishable.
3. **Acyclic order** — the pairwise Definition 6 comparisons form a
   strict partial order (Lemmas 1-2 guarantee this for *any* element
   assignment; checking it exercises the comparison path).
4. **Index validity** — ``RT``/``WT`` never reference an aborted
   transaction (the abort path re-points them).  A multiversion
   scheduler keeps no ``RT``/``WT``; its index is the version chain, and
   the same fact reads: no chain version or read record belongs to an
   aborted transaction (the abort path retracts them).
"""

from __future__ import annotations

import itertools

from ..core.mtk import MTkScheduler
from ..core.multiversion import MultiversionMixin
from ..core.table import TimestampTable, VIRTUAL_TXN
from ..core.timestamp import Ordering, UNDEFINED, compare


class InvariantViolation(AssertionError):
    """A structural invariant of the timestamp table was broken."""


def check_contiguous_prefixes(table: TimestampTable) -> None:
    for txn in table.known_txns():
        vector = table.vector(txn)
        seen_hole = False
        for position in range(1, vector.k + 1):
            if vector.get(position) is UNDEFINED:
                seen_hole = True
            elif seen_hole:
                raise InvariantViolation(
                    f"TS({txn}) = {vector} has a defined element after an "
                    "undefined one"
                )


def check_distinct_last_column(table: TimestampTable) -> None:
    column = table.column(table.k)
    if len(column) != len(set(column)):
        raise InvariantViolation(
            f"duplicate values in column {table.k}: {column}"
        )


def check_strict_partial_order(table: TimestampTable) -> None:
    txns = table.known_txns()
    order: dict[tuple[int, int], Ordering] = {}
    for a, b in itertools.combinations(txns, 2):
        ordering = compare(table.vector(a), table.vector(b)).ordering
        order[(a, b)] = ordering
        if ordering is Ordering.IDENTICAL and a != b:
            raise InvariantViolation(f"TS({a}) and TS({b}) are identical")
    # Transitivity spot check: a < b < c implies a < c.
    for a, b, c in itertools.combinations(txns, 3):
        if (
            order.get((a, b)) is Ordering.LESS
            and order.get((b, c)) is Ordering.LESS
            and order.get((a, c)) is not Ordering.LESS
        ):
            raise InvariantViolation(
                f"transitivity broken on T{a} < T{b} < T{c}"
            )


def check_indices_live(scheduler: MTkScheduler) -> None:
    # Partial-rollback victims (VI-C 1) keep their effects and indices on
    # purpose: they resume from the failed operation, so they are exempt.
    preserved = scheduler.partial_ok
    for item in list(scheduler._readers) + list(scheduler._writers):
        for index in (scheduler.table.rt(item), scheduler.table.wt(item)):
            if (
                index != VIRTUAL_TXN
                and index in scheduler.aborted
                and index not in preserved
            ):
                raise InvariantViolation(
                    f"RT/WT of {item} references aborted T{index}"
                )


def check_chains_live(scheduler: MultiversionMixin) -> None:
    """The chain form of :func:`check_indices_live`: no version and no
    read record of an aborted, non-preserved transaction.  (A record
    *sourced* from a retracted version is the executor's cascade to
    resolve, not an index fault.)"""
    dead = scheduler.aborted - scheduler.partial_ok
    if not dead:
        return
    for item, chain in scheduler.chains().items():
        owners = {version.writer for version in chain.versions}
        owners.update(chain.reader_counts)
        named = owners & dead
        if named:
            raise InvariantViolation(
                f"chain of {item} holds entries of aborted {sorted(named)}"
            )


def check_all(scheduler: MTkScheduler) -> None:
    """Run every invariant against a scheduler's current state."""
    check_contiguous_prefixes(scheduler.table)
    check_distinct_last_column(scheduler.table)
    check_strict_partial_order(scheduler.table)
    check_indices_live(scheduler)
    if isinstance(scheduler, MultiversionMixin):
        check_chains_live(scheduler)
