"""Output checks for the benchmark, linear in the size of the run.

``ExecutionReport.is_serializable()`` builds the conflict graph from every
ordered pair of same-item operations, which is quadratic in the accesses
of a hot item (126.6 s on the 12,000-transaction log of a 3.2 s run), so
the benchmark cannot use it.  The checks here add one edge per operation
per neighbour instead:

* single-version protocols: the committed projection is conflict
  serializable (:func:`conflict_serializable`);
* multiversion protocols: the executed reads-from relation and the
  version order of the chains form an acyclic multiversion serialization
  graph (:func:`multiversion_serializable`) — the operation order of a
  multiversion run is allowed to be non-serializable as a single-version
  history, so the first check does not apply;
* every run: committed and failed are disjoint and cover the submitted
  set, and the report's counters agree with the committed projection.

Verification runs after timing and outside every metric.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable, Mapping, Sequence


class VerificationError(AssertionError):
    """A benchmark run produced an output the checks reject."""


# ----------------------------------------------------------------------
# Graph helper
# ----------------------------------------------------------------------
def _is_acyclic(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> bool:
    """Kahn's algorithm over a set of edges (duplicates are harmless)."""
    successors: dict[Hashable, set[Hashable]] = {node: set() for node in nodes}
    indegree: dict[Hashable, int] = dict.fromkeys(successors, 0)
    for source, target in edges:
        if source == target:
            continue
        targets = successors.setdefault(source, set())
        indegree.setdefault(source, 0)
        indegree.setdefault(target, 0)
        successors.setdefault(target, set())
        if target not in targets:
            targets.add(target)
            indegree[target] += 1
    ready = deque(node for node, degree in indegree.items() if degree == 0)
    visited = 0
    while ready:
        node = ready.popleft()
        visited += 1
        for target in successors[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return visited == len(indegree)


# ----------------------------------------------------------------------
# Single-version: conflict serializability of the committed projection
# ----------------------------------------------------------------------
def conflict_edges(ops: Sequence[Any]) -> set[tuple[int, int]]:
    """A linear-size edge set with the same reachability as the full
    conflict graph of *ops* (objects with ``kind.is_write``, ``txn`` and
    ``item``).

    Per item only the last writer and the readers since that write are
    remembered: a read depends on the last writer; a write depends on the
    last writer and on every reader since.  Any earlier conflicting
    operation reaches the new one through the last writer, so acyclicity
    is preserved exactly.
    """
    last_writer: dict[str, int] = {}
    readers: dict[str, set[int]] = {}
    edges: set[tuple[int, int]] = set()
    for op in ops:
        txn, item = op.txn, op.item
        writer = last_writer.get(item)
        if op.kind.is_write:
            if writer is not None and writer != txn:
                edges.add((writer, txn))
            since = readers.get(item)
            if since:
                for reader in since:
                    if reader != txn:
                        edges.add((reader, txn))
                since.clear()
            last_writer[item] = txn
        else:
            if writer is not None and writer != txn:
                edges.add((writer, txn))
            readers.setdefault(item, set()).add(txn)
    return edges


def conflict_serializable(ops: Sequence[Any]) -> bool:
    """Is the operation sequence *ops* conflict serializable (DSR)?"""
    return _is_acyclic({op.txn for op in ops}, conflict_edges(ops))


# ----------------------------------------------------------------------
# Multiversion: acyclic multiversion serialization graph
# ----------------------------------------------------------------------
def multiversion_serializable(
    reads_from: Iterable[tuple[int, str, int]],
    version_order: Mapping[str, Sequence[int]],
) -> bool:
    """One-copy serializability of a multiversion run.

    *reads_from* holds ``(reader, item, version writer)`` triples and
    *version_order* each item's version writers, oldest first.  The
    multiversion serialization graph has an edge writer → reader per
    read, and for a read of version ``j`` of an item every other writer
    ``i`` of that item adds ``i → j`` when ``i`` precedes ``j`` in the
    version order, else ``reader → i``.  Edges between neighbouring
    versions and from a reader to the version following the one it read
    reach all of those, so the graph stays linear in reads plus versions.
    """
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    successor: dict[tuple[str, int], int | None] = {}
    for item, writers in version_order.items():
        nodes.update(writers)
        for older, newer in zip(writers, writers[1:]):
            edges.add((older, newer))
            successor[(item, older)] = newer
        if writers:
            successor[(item, writers[-1])] = None
    for reader, item, source in reads_from:
        if (item, source) not in successor:
            return False  # read of a version the chain does not hold
        nodes.add(reader)
        edges.add((source, reader))
        following = successor[(item, source)]
        if following is not None:
            edges.add((reader, following))
    return _is_acyclic(nodes, edges)


# ----------------------------------------------------------------------
# Whole-run check
# ----------------------------------------------------------------------
def check_run(
    submitted: Iterable[int], report: Any, scheduler: Any = None
) -> None:
    """Raise :class:`VerificationError` unless *report* is a correct
    outcome for the *submitted* transaction ids.

    *scheduler* is passed for multiversion runs only: it supplies
    ``reads_from()``, ``version_chain()`` and ``mv_read_aborts``.
    """
    submitted = set(submitted)
    committed, failed = set(report.committed), set(report.failed)
    if committed & failed:
        raise VerificationError(
            f"committed and failed overlap: {sorted(committed & failed)[:5]}"
        )
    if committed | failed != submitted:
        missing = sorted(submitted - committed - failed)[:5]
        extra = sorted((committed | failed) - submitted)[:5]
        raise VerificationError(
            f"outcomes do not cover the submitted set: missing {missing},"
            f" unknown {extra}"
        )
    ops = report.committed_ops
    strays = {op.txn for op in ops} - committed
    if strays:
        raise VerificationError(
            f"committed projection holds operations of uncommitted"
            f" transactions {sorted(strays)[:5]}"
        )
    if len(ops) != report.ops_executed - report.ops_reexecuted:
        raise VerificationError(
            f"{len(ops)} surviving operations, but ops_executed -"
            f" ops_reexecuted = {report.ops_executed - report.ops_reexecuted}"
        )
    if scheduler is None:
        if not conflict_serializable(ops):
            raise VerificationError(
                "committed projection is not conflict serializable"
            )
        return
    if scheduler.mv_read_aborts:
        raise VerificationError(
            f"{scheduler.mv_read_aborts} multiversion reads aborted;"
            " reads must be abort-free"
        )
    reads = scheduler.reads_from()
    items = {item for _reader, item, _source in reads}
    items.update(op.item for op in ops if op.kind.is_write)
    order = {item: scheduler.version_chain(item) for item in items}
    if not multiversion_serializable(reads, order):
        raise VerificationError("multiversion serialization graph has a cycle")
