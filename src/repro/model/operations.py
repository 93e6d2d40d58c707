"""Atomic operations and transactions of the paper's log model.

The paper (Section II) models a database execution as a *log*: a sequence of
atomic read/write operations issued by transactions.  An atomic operation is
written ``A_i[x]`` where ``A`` is ``R`` or ``W``, ``i`` identifies the
transaction, and ``x`` is a single database item.

Two transaction models appear in the paper:

* the **two-step model** used for analysis: each transaction is a single
  read operation over a read set followed by a single write operation over a
  write set (``T_i = R_i W_i``); and
* the **multi-step model** used by Algorithm 1: a transaction is any finite
  sequence of single-item reads and writes.

We represent both with the same classes.  A two-step transaction is simply a
multi-step transaction whose single-item operations are grouped into one read
phase followed by one write phase; :func:`two_step` builds one.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class OpKind(enum.Enum):
    """Kind of an atomic operation: read or write."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_write(self) -> bool:
        return self is OpKind.WRITE

    @property
    def is_read(self) -> bool:
        return self is OpKind.READ


@dataclass(frozen=True, slots=True)
class Operation:
    """A single atomic operation ``A_i[x]``.

    Attributes
    ----------
    kind:
        Whether this is a read or a write.
    txn:
        Identifier of the issuing transaction (``i`` in ``A_i[x]``).  The
        paper reserves transaction ``0`` for the virtual initial transaction
        ``T_0``; user transactions therefore use positive identifiers.
    item:
        The single database item accessed (``x``).
    """

    kind: OpKind
    txn: int
    item: str

    def conflicts_with(self, other: "Operation") -> bool:
        """Definition 1: two operations conflict iff they belong to
        different transactions, access the same item, and at least one is a
        write."""
        return (
            self.txn != other.txn
            and self.item == other.item
            and (self.kind.is_write or other.kind.is_write)
        )

    def __str__(self) -> str:
        return f"{self.kind.value}{self.txn}[{self.item}]"


def read(txn: int, item: str) -> Operation:
    """Convenience constructor for ``R_txn[item]``."""
    return Operation(OpKind.READ, txn, item)


def write(txn: int, item: str) -> Operation:
    """Convenience constructor for ``W_txn[item]``."""
    return Operation(OpKind.WRITE, txn, item)


def stable_hash(item: str) -> int:
    """Deterministic, process-independent hash of an item name: what
    places items on DMT(k) sites and pipeline shards.

    The builtin ``hash(str)`` is salted per interpreter
    (``PYTHONHASHSEED``): item placement built on it — and with it every
    message count — would change from run to run.  ``zlib.crc32`` is a
    pure function of the name."""
    return zlib.crc32(item.encode("utf-8"))


@dataclass(frozen=True)
class Transaction:
    """A transaction: an ordered program of atomic operations.

    The operations stored here are the transaction's *program order*; the log
    interleaves the programs of several transactions.  ``read_set`` and
    ``write_set`` correspond to ``S(R_i)`` and ``S(W_i)`` of the paper.
    """

    txn_id: int
    operations: tuple[Operation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for op in self.operations:
            if op.txn != self.txn_id:
                raise ValueError(
                    f"operation {op} does not belong to transaction {self.txn_id}"
                )

    @property
    def read_set(self) -> frozenset[str]:
        """``S(R_i)``: the set of items this transaction reads."""
        return frozenset(op.item for op in self.operations if op.kind.is_read)

    @property
    def write_set(self) -> frozenset[str]:
        """``S(W_i)``: the set of items this transaction writes."""
        return frozenset(op.item for op in self.operations if op.kind.is_write)

    @property
    def num_operations(self) -> int:
        """``q_i``: number of atomic operations issued by this transaction."""
        return len(self.operations)

    def is_two_step(self) -> bool:
        """True iff all reads precede all writes (the two-step model)."""
        seen_write = False
        for op in self.operations:
            if op.kind.is_write:
                seen_write = True
            elif seen_write:
                return False
        return True

    def __str__(self) -> str:
        return f"T{self.txn_id}({' '.join(map(str, self.operations))})"


def two_step(
    txn_id: int, read_items: Iterable[str], write_items: Iterable[str]
) -> Transaction:
    """Build a two-step transaction ``R_i`` over *read_items* followed by
    ``W_i`` over *write_items*.

    Items are emitted in sorted order so the construction is deterministic.
    """
    reads = tuple(read(txn_id, x) for x in sorted(set(read_items)))
    writes = tuple(write(txn_id, x) for x in sorted(set(write_items)))
    return Transaction(txn_id, reads + writes)


def multi_step(txn_id: int, ops: Sequence[tuple[str, str]]) -> Transaction:
    """Build a multi-step transaction from ``("R"|"W", item)`` pairs."""
    kinds = {"R": OpKind.READ, "W": OpKind.WRITE}
    return Transaction(
        txn_id, tuple(Operation(kinds[k], txn_id, item) for k, item in ops)
    )
