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
from typing import TYPE_CHECKING, Any

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


class DurableLog:
    """Append-only JSONL redo log with torn-tail recovery.

    The recovery plane's durability primitive, shared by the coordinator
    (commit/abort decision records) and the data nodes (prepared-window
    payloads + decision records).  One JSON object per line; a record is
    durable once its newline hit the OS page cache — crashes in this
    harness are ``os._exit``, which preserves flushed buffers, so no
    fsync is needed for deterministic tests.

    A *torn* tail (partial final line with no newline, as left by a
    crash mid-append) is silently discarded by :meth:`replay`; anything
    undecodable *before* the final line is real corruption and raises.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record (atomic at line granularity)."""
        self._file.write(_RECORD_ENCODER.encode(record) + "\n")
        self._file.flush()

    def append_torn(self, record: dict) -> None:
        """Fault injection only: write a *partial* record with no
        terminating newline, simulating a crash mid-append."""
        text = _RECORD_ENCODER.encode(record)
        self._file.write(text[: max(1, len(text) // 2)])
        self._file.flush()

    # ------------------------------------------------------------------
    def replay(self) -> list[dict]:
        """All durable records, oldest first, torn tail excluded."""
        self._file.flush()
        records: list[dict] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for position, line in enumerate(lines):
            if not line.endswith("\n"):
                # Torn tail: the append never completed, the record was
                # never decided durable.  (Only legal on the last line.)
                break
            try:
                records.append(json.loads(line))
            except ValueError:
                if position == len(lines) - 1:
                    break  # corrupt final line == torn tail
                raise ValueError(
                    f"corrupt WAL record at {self.path}:{position + 1}"
                ) from None
        return records

    def repair(self) -> list[dict]:
        """Replay, then truncate any torn tail so appends are safe again.
        This is the restart entry point for both coordinator and nodes."""
        records = self.replay()
        self._file.close()
        good = "".join(
            _RECORD_ENCODER.encode(record) + "\n" for record in records
        )
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(good)
        self._file = open(self.path, "a", encoding="utf-8")
        return records

    def truncate(self) -> None:
        """Drop every record (a fresh run begins)."""
        self._file.close()
        self._file = open(self.path, "w", encoding="utf-8")

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
