"""The protocol MT(k1, k2) for nested/grouped transactions (Section V-A).

Transactions are partitioned into disjoint groups ``G_1 .. G_m`` (by
hierarchy level of a nested transaction, by originating site — Example 5 —
or by read/write-set shape — Example 6 / Table IV).  Serializability is
enforced at two levels with the MT(k) machinery at each:

* dependencies between transactions of the *same* group are encoded in the
  per-transaction timestamp table (``k1`` columns);
* dependencies crossing groups are encoded **only** in the group timestamp
  table (``k2`` columns), between the two groups' vectors.

The virtual ``T_0`` forms its own virtual group ``G_0``.  Group membership
is static (a transaction cannot migrate without restarting).  With every
transaction in its own singleton group the protocol reduces *exactly* to
MT(k2) — every dependency is cross-group and the group table plays the
transaction table's role — which a property test asserts.  With all
transactions in one group the reduction is structural rather than exact:
because ``T_0`` still occupies its own group, initial dependencies are
group-encoded and the transaction vectors evolve differently from plain
MT(k1); the accepted class remains sound (a property test asserts every
accepted log is DSR).

:class:`HierarchicalScheduler` generalizes to ``MT(k_1, ..., k_l)`` for an
``l``-level hierarchy of groups (the paper's super-group remark): each
transaction carries a *path* of group ids, one per level, and a dependency
is encoded at the **highest level at which the two paths differ**, in that
level's table.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..model.operations import Operation, Transaction
from ..obs.instrument import Instrumented
from .protocol import Decision, DecisionStatus, Scheduler
from .table import TimestampTable, VIRTUAL_TXN
from .timestamp import Element


#: A group path: element 0 is the level-1 group, element 1 the level-2
#: super-group, and so on.  Transactions themselves are "level 0".
GroupPath = tuple[int, ...]

#: Assigns each transaction its group path.  Group id 0 at any level is
#: reserved for the virtual transaction's group ``G_0``.
PathAssigner = Callable[[int], GroupPath]


def single_level(group_of: Mapping[int, int]) -> PathAssigner:
    """Path assigner for the plain two-level MT(k1, k2) protocol."""

    def assigner(txn: int) -> GroupPath:
        if txn == VIRTUAL_TXN:
            return (0,)
        return (group_of[txn],)

    return assigner


def groups_by_read_write_sets(
    transactions: Sequence[Transaction],
) -> dict[int, int]:
    """Example 6 / Table IV: transactions with identical (read set, write
    set) pairs share a group.  Group ids are assigned deterministically in
    order of first appearance, starting at 1."""
    shapes: dict[tuple[frozenset[str], frozenset[str]], int] = {}
    assignment: dict[int, int] = {}
    for txn in transactions:
        shape = (txn.read_set, txn.write_set)
        if shape not in shapes:
            shapes[shape] = len(shapes) + 1
        assignment[txn.txn_id] = shapes[shape]
    return assignment


def groups_by_site(site_of: Mapping[int, int]) -> dict[int, int]:
    """Example 5: transactions initiated at the same site share a group.
    Site numbers are shifted by one so group 0 stays reserved."""
    return {txn: site + 1 for txn, site in site_of.items()}


class HierarchicalScheduler(Instrumented, Scheduler):
    """``MT(k_1, ..., k_l)``: one timestamp table per hierarchy level.

    ``ks[0]`` is the transaction-level vector size (``k1``); ``ks[m]`` the
    vector size of level-``m`` groups.  ``path_of`` maps a transaction id to
    its group path of length ``len(ks) - 1``.
    """

    def __init__(
        self,
        ks: Sequence[int],
        path_of: PathAssigner,
        trace: bool = False,
    ) -> None:
        if not ks:
            raise ValueError("at least one vector size is required")
        if any(k < 1 for k in ks):
            raise ValueError("vector sizes must be positive")
        self.ks = tuple(ks)
        self.levels = len(ks)
        self._path_of = path_of
        self.trace = trace
        if self.levels == 2:
            self.name = f"MT({ks[0]},{ks[1]})"
        else:
            self.name = "MT(" + ",".join(map(str, ks)) + ")"
        self.init_observability(
            self.name,
            counters=("txn_level_encodings", "group_level_encodings"),
        )
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        #: tables[0] holds transaction vectors, tables[m] level-m groups.
        self.tables: list[TimestampTable] = [
            TimestampTable(k) for k in self.ks
        ]
        self._rt: dict[str, tuple[int, int]] = {}  # item -> (txn, seq)
        self._wt: dict[str, tuple[int, int]] = {}
        self._seq = 0
        self.aborted: set[int] = set()
        self.reset_observability()

    def path(self, txn: int) -> GroupPath:
        """The transaction's group path, validated against ``levels``."""
        path = (
            (0,) * (self.levels - 1)
            if txn == VIRTUAL_TXN
            else tuple(self._path_of(txn))
        )
        if len(path) != self.levels - 1:
            raise ValueError(
                f"group path of T{txn} has {len(path)} levels, "
                f"expected {self.levels - 1}"
            )
        return path

    # ------------------------------------------------------------------
    def _process(self, op: Operation) -> Decision:
        if op.txn == VIRTUAL_TXN:
            raise ValueError("transaction id 0 is reserved for the virtual T0")
        if op.txn in self.aborted:
            raise ValueError(f"T{op.txn} is aborted")
        i, x = op.txn, op.item
        # A write conflicts with both the last reader and the last writer; a
        # read conflicts with the last writer and orders after the last
        # reader (condition iv).  Enforcing against both indices — most
        # recent first — is exactly the MT(k) rule whenever the two are
        # comparable (the second enforcement is then a transitivity no-op),
        # and stays sound when group encodings make them incomparable.
        rt_txn, rt_seq = self._rt.get(x, (VIRTUAL_TXN, 0))
        wt_txn, wt_seq = self._wt.get(x, (VIRTUAL_TXN, 0))
        if wt_seq > rt_seq:
            predecessors = [wt_txn, rt_txn]
        else:
            predecessors = [rt_txn, wt_txn]
        for j in predecessors:
            if not self._enforce(j, i, x):
                self.aborted.add(i)
                if self.events.enabled:
                    self.events.emit("abort", txn=i, item=x, blocking=j)
                return Decision(
                    DecisionStatus.REJECT,
                    op,
                    f"dependency T{j} -> T{i} not encodable",
                )
        self._seq += 1
        if op.kind.is_read:
            self._rt[x] = (i, self._seq)
        else:
            self._wt[x] = (i, self._seq)
        return Decision(DecisionStatus.ACCEPT, op)

    def _enforce(self, j: int, i: int, item: str) -> bool:
        """Encode ``T_j -> T_i`` at the highest level where their group
        paths differ; same-path transactions use the transaction table."""
        if j == i:
            return True
        path_j, path_i = self.path(j), self.path(i)
        for level in range(self.levels - 1, 0, -1):
            node_j, node_i = path_j[level - 1], path_i[level - 1]
            if node_j != node_i:
                outcome = self.tables[level].set_less(node_j, node_i, item)
                if outcome.encoded:
                    self.metrics.inc("group_level_encodings")
                    if self.events.enabled:
                        self.events.emit(
                            "encode", txn=i, item=item, level=level
                        )
                return outcome.ok
        outcome = self.tables[0].set_less(j, i, item)
        if outcome.encoded:
            self.metrics.inc("txn_level_encodings")
            if self.events.enabled:
                self.events.emit("encode", txn=i, item=item, level=0)
        return outcome.ok

    def restart(self, txn: int) -> None:
        """Allow an aborted transaction to retry: it restarts with a fresh
        vector (its group vector is shared and survives)."""
        if txn not in self.aborted:
            raise ValueError(f"T{txn} is not aborted")
        self.aborted.discard(txn)
        self.tables[0].vector(txn).flush()

    # ------------------------------------------------------------------
    def table_snapshot(self) -> Mapping[int, tuple[Element, ...]] | None:
        if not self.trace:
            return None
        return self.tables[0].snapshot()

    def group_snapshot(self, level: int = 1) -> Mapping[int, tuple[Element, ...]]:
        """Vectors of the level-*level* group table (``GS`` in Table III)."""
        if not 1 <= level < self.levels:
            raise ValueError(f"no group level {level}")
        return self.tables[level].snapshot()


class NestedScheduler(HierarchicalScheduler):
    """The paper's two-level MT(k1, k2) with a plain group mapping."""

    def __init__(
        self,
        k1: int,
        k2: int,
        group_of: Mapping[int, int],
        trace: bool = False,
    ) -> None:
        self.group_of = dict(group_of)
        super().__init__((k1, k2), single_level(self.group_of), trace=trace)
