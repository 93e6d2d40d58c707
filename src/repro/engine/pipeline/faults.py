"""Deterministic fault injection for the recovery data plane.

A :class:`FaultPlan` is a finite script of faults, each targeting one
2PC round (``window``), one data node, and one protocol point.  The
plan is *consulted* by the components that can actually realize each
fault — data nodes consume crash faults (they know which phase they are
in), the coordinator's transport consumes message faults (it owns the
wire), and the coordinator itself consumes ``torn-wal`` faults (it owns
the decision log) — and every fault is **one-shot**: consulting it
consumes it, so a retried window is not re-faulted and every run
terminates.

Fault vocabulary:

``crash`` (node-side; ``phase`` required)
    ``pre-prepare``  — node dies before logging/applying the window;
    ``post-vote``    — node dies after its vote is on the wire (the
    window can still commit; the node resolves the outcome at restart);
    ``pre-commit``   — node dies on receiving the decision, before
    logging it (prepared-but-undecided; resolved at restart).  A
    commit reaches the node inside its next prepare frame, so the
    crash fires there.
``drop`` / ``duplicate`` / ``delay`` (coordinator-transport-side;
    ``phase`` names the message kind: ``prepare``, ``vote`` or
    ``decide``).  ``delay`` models a reply that misses the vote
    deadline: the node *did* apply, but the coordinator presumes abort.
    A ``decide`` fault on a committed window acts on the prepare frame
    that carries its decision.
``torn-wal`` (coordinator-side; no node)
    the coordinator crashes mid-append of the commit record for
    ``window`` — the decision is not durable, so recovery presumes
    abort even though every node voted yes.

Plans serialize to plain JSON (:meth:`FaultPlan.to_dict`) so they can
cross process boundaries to TCP nodes and be frozen into the
``tests/corpus/recovery_*.json`` regression corpus.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

#: Node-side crash phases (2PC phase boundaries).
PRE_PREPARE = "pre-prepare"
POST_VOTE = "post-vote"
PRE_COMMIT = "pre-commit"
CRASH_PHASES = (PRE_PREPARE, POST_VOTE, PRE_COMMIT)

#: Message kinds the transport can fault.
MESSAGE_KINDS = ("prepare", "vote", "decide")
MESSAGE_FAULTS = ("drop", "duplicate", "delay")


class Fault:
    """One scripted fault.  Immutable; equality is structural."""

    __slots__ = ("kind", "window", "node", "phase")

    def __init__(
        self,
        kind: str,
        window: int,
        node: int | None = None,
        phase: str | None = None,
    ) -> None:
        if kind == "crash":
            if phase not in CRASH_PHASES:
                raise ValueError(
                    f"crash phase must be one of {CRASH_PHASES}, "
                    f"got {phase!r}"
                )
            if node is None:
                raise ValueError("crash faults target a node")
        elif kind in MESSAGE_FAULTS:
            if phase not in MESSAGE_KINDS:
                raise ValueError(
                    f"message faults name a message kind "
                    f"{MESSAGE_KINDS}, got {phase!r}"
                )
            if node is None:
                raise ValueError("message faults target a node")
        elif kind == "torn-wal":
            if node is not None:
                raise ValueError("torn-wal is coordinator-side (no node)")
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        self.window = int(window)
        self.node = None if node is None else int(node)
        self.phase = phase

    def to_dict(self) -> dict:
        record = {"kind": self.kind, "window": self.window}
        if self.node is not None:
            record["node"] = self.node
        if self.phase is not None:
            record["phase"] = self.phase
        return record

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Fault) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.kind, self.window, self.node, self.phase))

    def __repr__(self) -> str:
        parts = [f"{self.kind}@w{self.window}"]
        if self.node is not None:
            parts.append(f"n{self.node}")
        if self.phase is not None:
            parts.append(self.phase)
        return f"Fault({' '.join(parts)})"


class NodeCrash(Exception):
    """Raised inside a data node when a scripted crash fault fires.

    The transport turns it into process death (``os._exit`` for TCP,
    dropping the node object for loopback).  ``reply`` carries a vote
    that made it onto the wire before the crash (post-vote phase)."""

    def __init__(
        self, phase: str, window: int, reply: tuple | None = None
    ) -> None:
        super().__init__(f"scripted crash at {phase} of window {window}")
        self.phase = phase
        self.window = window
        self.reply = reply


class FaultPlan:
    """A consumable script of :class:`Fault` objects.

    Consumption is keyed by exact (kind-class, window, node[, phase])
    match and removes the first hit, so each scripted fault fires at
    most once even when windows are retried.  A node process holds its
    own copy of the plan (shipped as JSON) and only ever consults its
    own node id, so per-process copies cannot double-fire."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._faults: list[Fault] = list(faults)

    # ------------------------------------------------------------------
    def crash_at(self, node: int, window: int, phase: str) -> bool:
        """Consume a crash fault for (node, window, phase), if scripted."""
        for index, fault in enumerate(self._faults):
            if (
                fault.kind == "crash"
                and fault.node == node
                and fault.window == window
                and fault.phase == phase
            ):
                del self._faults[index]
                return True
        return False

    def message_fault(
        self, node: int, window: int, message: str
    ) -> str | None:
        """Consume a drop/duplicate/delay fault on *message* to/from
        *node* in *window*; returns the fault kind or None."""
        for index, fault in enumerate(self._faults):
            if (
                fault.kind in MESSAGE_FAULTS
                and fault.node == node
                and fault.window == window
                and fault.phase == message
            ):
                del self._faults[index]
                return fault.kind
        return None

    def torn_wal(self, window: int) -> bool:
        """Consume a coordinator torn-WAL fault for *window*."""
        for index, fault in enumerate(self._faults):
            if fault.kind == "torn-wal" and fault.window == window:
                del self._faults[index]
                return True
        return False

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return len(self._faults)

    def faults(self) -> tuple[Fault, ...]:
        return tuple(self._faults)

    def copy(self) -> "FaultPlan":
        return FaultPlan(self._faults)

    def to_dict(self) -> dict:
        return {"faults": [fault.to_dict() for fault in self._faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            Fault(
                record["kind"],
                record["window"],
                record.get("node"),
                record.get("phase"),
            )
            for record in data.get("faults", ())
        )

    def __bool__(self) -> bool:
        return bool(self._faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self._faults!r})"


def random_plan(
    rng: random.Random,
    windows: int,
    nodes: int,
    max_faults: int = 3,
    kinds: Sequence[str] = ("crash", "drop", "duplicate", "delay", "torn-wal"),
) -> FaultPlan:
    """Draw a small deterministic fault script for the fuzzer.

    ``windows`` should be the round count of the fault-free twin run so
    targets actually land (faults aimed past the end are inert)."""
    faults: list[Fault] = []
    for _ in range(rng.randint(1, max_faults)):
        kind = rng.choice(list(kinds))
        window = rng.randrange(max(1, windows))
        if kind == "torn-wal":
            faults.append(Fault("torn-wal", window))
        elif kind == "crash":
            faults.append(
                Fault(
                    "crash",
                    window,
                    rng.randrange(max(1, nodes)),
                    rng.choice(CRASH_PHASES),
                )
            )
        else:
            faults.append(
                Fault(
                    kind,
                    window,
                    rng.randrange(max(1, nodes)),
                    rng.choice(MESSAGE_KINDS),
                )
            )
    return FaultPlan(faults)
