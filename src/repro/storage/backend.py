"""The storage stage's pluggable backend contract.

The pipeline's storage stage only ever needs five operations —
``read``/``peek``/``write``/``restore``/``snapshot`` — so that surface
is the whole :class:`StorageBackend` protocol.  The plain in-memory
:class:`~repro.storage.database.Database` satisfies it structurally
(no inheritance needed), and so does any store a caller passes as
``database=``.  Everything the executor does (undo logging,
dirty-overwrite reparenting) works unchanged on any backend, because
:class:`~repro.storage.wal.UndoLog` only uses the protocol surface.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class StorageBackend(Protocol):
    """What the storage stage requires of a backing store."""

    def read(self, item: str, default: Any = 0) -> Any:
        """Read an item, counting it in the workload statistics."""
        ...

    def peek(self, item: str, default: Any = None) -> Any:
        """Read without touching statistics (undo-log internals)."""
        ...

    def write(self, item: str, value: Any) -> Any:
        """Write an item, returning the previous value (for undo)."""
        ...

    def restore(self, item: str, value: Any) -> None:
        """Undo helper: reinstate a previous value (``None`` deletes)."""
        ...

    def snapshot(self) -> dict[str, Any]:
        """The current committed state as a plain dict."""
        ...
