"""Undo logging for transaction rollback.

Before-image logging with one refinement that matters under
multidimensional timestamping: MT(k) permits *dirty overwrites* (T_b may
write an item T_a wrote before T_a commits — a pure write-write dependency
needs no read), so a naive "restore the before-image" rollback of T_a would
clobber T_b's later value.  :meth:`UndoLog.rollback` therefore checks each
record's *after*-image against the current value:

* still ours — restore the before-image normally;
* overwritten — leave the current value, and *re-parent* the overwriter's
  pending undo record so its before-image points at **our** before-image
  (the overwriter inherited a dirty value that no longer exists).

With that patch, any order of aborts among chained writers converges to
the correct state.  Savepoints support the *partial rollback* scheme of
Section VI-C 1.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # structural type only; avoids an import cycle at runtime
    from .backend import StorageBackend


@dataclass
class UndoRecord:
    txn: int
    item: str
    before: Any
    after: Any


class UndoLog:
    """Per-transaction undo stacks with savepoints and chain repair."""

    def __init__(self, database: "StorageBackend") -> None:
        self._database = database
        self._records: dict[int, list[UndoRecord]] = {}
        self._savepoints: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    def record_write(
        self, txn: int, item: str, before: Any, after: Any = None
    ) -> None:
        """Log one write.  ``after`` is the value written (used to detect
        dirty overwrites at rollback; pass it whenever available)."""
        self._records.setdefault(txn, []).append(
            UndoRecord(txn, item, before, after)
        )

    def savepoint(self, txn: int) -> int:
        """Mark the current position; returns a savepoint id."""
        points = self._savepoints.setdefault(txn, [])
        points.append(len(self._records.get(txn, [])))
        return len(points) - 1

    # ------------------------------------------------------------------
    def rollback(self, txn: int) -> int:
        """Undo everything the transaction wrote; returns undone count."""
        return self._rollback_to(txn, 0)

    def rollback_to_savepoint(self, txn: int, savepoint: int) -> int:
        """Undo back to a savepoint (VI-C 1); later savepoints are dropped."""
        points = self._savepoints.get(txn, [])
        if not 0 <= savepoint < len(points):
            raise KeyError(f"T{txn} has no savepoint {savepoint}")
        position = points[savepoint]
        del points[savepoint + 1 :]
        return self._rollback_to(txn, position)

    def _rollback_to(self, txn: int, position: int) -> int:
        records = self._records.get(txn, [])
        undone = 0
        while len(records) > position:
            record = records.pop()
            current = self._database.peek(record.item)
            if record.after is None or current == record.after:
                self._database.restore(record.item, record.before)
            else:
                self._reparent_overwriter(record)
            undone += 1
        return undone

    def _reparent_overwriter(self, record: UndoRecord) -> None:
        """Someone overwrote our dirty value: their pending undo record's
        before-image is our (now dead) value — point it at ours instead."""
        for other_txn, other_records in self._records.items():
            if other_txn == record.txn:
                continue
            for other in other_records:
                if other.item == record.item and other.before == record.after:
                    other.before = record.before
                    return

    def commit(self, txn: int) -> None:
        """Forget a committed transaction's undo records."""
        self._records.pop(txn, None)
        self._savepoints.pop(txn, None)

    def pending(self, txn: int) -> int:
        return len(self._records.get(txn, ()))


#: The one record encoder: ``json.dumps(record, sort_keys=True)`` byte
#: for byte, without building a ``JSONEncoder`` per record.  Records are
#: trees of dicts and tuples, never cyclic, so the circular-reference
#: ledger is skipped.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _encode_record(record: dict | bytes) -> bytes:
    if type(record) is bytes:
        return record
    return _RECORD_ENCODER.encode(record).encode("utf-8")


class DurableLog:
    """Append-only JSONL redo log with torn-tail recovery.

    The recovery plane's durability primitive, shared by the coordinator
    (commit/abort decision records, dicts) and the data nodes (the wire
    frames they accepted, logged as the bytes that arrived).  One JSON
    value per line; a record is durable once its newline hit the OS page
    cache — crashes in this harness are ``os._exit``, which preserves
    flushed buffers, so no fsync is needed for deterministic tests.

    A *torn* tail (partial final line with no newline, as left by a
    crash mid-append) is silently discarded by :meth:`scan`; anything
    undecodable *before* the final line is real corruption and raises.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "ab")
        #: Length of the durable prefix the last complete :meth:`scan`
        #: read, which :meth:`drop_torn_tail` cuts the file back to.
        self._durable = 0

    # ------------------------------------------------------------------
    def append(self, record: dict | bytes) -> None:
        """Durably append one record (atomic at line granularity): a
        dict is encoded with sorted keys, ``bytes`` are an encoded JSON
        value (a wire frame) written verbatim."""
        self._file.write(_encode_record(record) + b"\n")
        self._file.flush()

    def append_torn(self, record: dict | bytes) -> None:
        """Fault injection only: write a *partial* record with no
        terminating newline, simulating a crash mid-append."""
        data = _encode_record(record)
        self._file.write(data[: max(1, len(data) // 2)])
        self._file.flush()

    # ------------------------------------------------------------------
    def scan(self, decode: Callable[[bytes], Any] = json.loads) -> Iterator[Any]:
        """Every durable record, oldest first, read and decoded one line
        at a time (the log is never held whole); torn tail excluded."""
        self._file.flush()
        durable = 0
        with open(self.path, "rb") as handle:
            for position, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    # Torn tail: the append never completed, the record
                    # was never durable.  (Only legal on the last line.)
                    break
                try:
                    record = decode(line[:-1])
                except ValueError:
                    if handle.readline().endswith(b"\n"):
                        raise ValueError(
                            f"corrupt WAL record at {self.path}:{position}"
                        ) from None
                    break  # corrupt final line == torn tail
                durable += len(line)
                yield record
        self._durable = durable

    def replay(self) -> list[Any]:
        """All durable records, oldest first, torn tail excluded."""
        return list(self.scan())

    def drop_torn_tail(self) -> None:
        """Cut the file back to the durable prefix the last complete
        :meth:`scan` found, so appends are safe again."""
        self._file.truncate(self._durable)

    def repair(self) -> list[Any]:
        """Replay, then drop any torn tail.  The coordinator's restart
        entry point; a data node streams :meth:`scan` instead."""
        records = self.replay()
        self.drop_torn_tail()
        return records

    def truncate(self) -> None:
        """Drop every record (a fresh run begins)."""
        self._file.truncate(0)
        self._durable = 0

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
