"""Pluggable transports for the crash-recoverable data plane.

Two transports drive the same :class:`~.recovery.DataNode` protocol
code (the same discipline the in-process plane uses for ``_WorkerHost``):

:class:`LoopbackTransport`
    in-process nodes, synchronous dispatch — the reference execution
    for tests and the fuzzer.  Every message and reply still round-trips
    through the JSON wire codec, so the loopback exercises the exact
    byte format TCP ships.
:class:`TcpTransport`
    each node is a real process serving length-prefixed JSON frames on
    a ``127.0.0.1`` socket.  Crash faults ``os._exit`` the process —
    no atexit, no finally — so only what the durable log flushed
    survives, exactly like ``kill -9``.

Wire format: a frame is a 4-byte big-endian length followed by that
many bytes of UTF-8 JSON.  Messages are plain tuples (lists on the
wire) of ints, strings, ``null`` (undefined timestamp elements) and
``(counter, site)`` pairs — the message schema of :mod:`.parallel`,
language-neutral.

The codec is built once per process: :func:`encode_payload` is
``json.dumps(message, separators=(",", ":"))`` byte for byte through
one prebuilt encoder, :func:`decode_payload` is ``json.loads`` through
one prebuilt decoder (the same errors on truncated or trailing bytes),
and :func:`retuple` turns the decoded arrays back into tuples at every
depth, recursing into containers only.  A data node is handed the
frame's *bytes* (:meth:`~.recovery.DataNode.handle` decodes them and
logs them as received); its reply comes back through
:func:`roundtrip`.  Every caller looks both codec functions up as
module globals on every call, so wrapping them here wraps every frame.

Message faults (drop / duplicate / delay) are realized here, on the
coordinator side of the wire, for both transports — so TCP runs inject
them deterministically too.  A commit decision travels inside the
node's next prepare frame, so a ``decide`` fault on a committed window
acts on that frame.  Crash faults are realized inside the node (it
knows its 2PC phase); see :mod:`.faults` for the vocabulary.
"""

from __future__ import annotations

import json
import os
import socket
from typing import Any, Mapping

from .faults import FaultPlan, NodeCrash
from .parallel import ParallelExecutionError

#: Frame header width: payload length as a big-endian unsigned int.
FRAME_HEADER = 4
MAX_FRAME = 1 << 28  # 256 MiB sanity bound
#: Seconds a TCP node may take to report its port or answer one frame.
NODE_TIMEOUT = 120.0
#: The encoded ``("stop",)`` that shuts a TCP node down; it is never
#: handed to the node, so never logged.
STOP_FRAME = b'["stop"]'


def default_start_method() -> str:
    """``fork`` when the platform offers it (fast node startup, the
    engine config is tiny either way), else ``spawn``.  Only TCP nodes
    are processes, so only this lane imports :mod:`multiprocessing`."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class NodeFailure(ParallelExecutionError):
    """A data node is unreachable: crashed, timed out, or its message
    was lost.  The 2PC coordinator treats every flavor the same way —
    presumed abort, then restart-and-resolve."""

    def __init__(self, node: int, why: str) -> None:
        super().__init__(f"data node {node} {why}", worker=node)
        self.node = node


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
#: The one wire encoder: ``json.dumps(m, separators=(",", ":"))`` byte
#: for byte, without building a ``JSONEncoder`` per frame.  Messages are
#: trees of tuples, never cyclic, so the circular-reference ledger the C
#: encoder would keep per container buys nothing.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
#: ``json.loads``'s own decoder: the same strictness (truncated frames
#: and trailing bytes raise ``ValueError``).
_decode = json.JSONDecoder().decode
#: The only containers the decoder builds.
_NESTED = frozenset((list, dict))


def retuple(value: Any) -> Any:
    """JSON arrays come back as lists; the engine speaks tuples.

    Takes decoder output (exact ``list`` / ``dict`` containers) and
    returns it with every array a tuple, dict values included.  Only
    containers recurse: scalars are copied inside the comprehension,
    with no call per scalar."""
    if type(value) is list:
        return tuple(
            [
                retuple(item) if type(item) in _NESTED else item
                for item in value
            ]
        )
    if type(value) is dict:
        return {
            key: retuple(item) if type(item) in _NESTED else item
            for key, item in value.items()
        }
    return value


def encode_payload(message: Any) -> bytes:
    return _ENCODER.encode(message).encode("utf-8")


def decode_payload(data: bytes) -> Any:
    return retuple(_decode(data.decode("utf-8")))


def roundtrip(message: Any) -> Any:
    """Encode+decode, proving the message survives the wire format."""
    return decode_payload(encode_payload(message))


def send_frame(sock: socket.socket, message: Any) -> None:
    data = encode_payload(message)
    sock.sendall(len(data).to_bytes(FRAME_HEADER, "big") + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks: list[bytes] = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None  # peer closed mid-frame
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """One frame's payload bytes, undecoded, or None on orderly/clean
    EOF.  A data node logs the bytes it accepted, so decoding is the
    receiver's business."""
    header = _recv_exact(sock, FRAME_HEADER)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds sanity bound")
    return _recv_exact(sock, length)


# ----------------------------------------------------------------------
# Shared message-fault bookkeeping
# ----------------------------------------------------------------------
class _FaultingEndpoint:
    """Coordinator-side realization of drop/duplicate/delay faults.

    ``_outbound_fault`` decides how many copies of an outgoing message
    to actually put on the wire; ``_inbound_fault`` decides whether a
    received vote is discarded (lost or past the deadline).  Faults are
    one-shot (consumed from the plan), so retried windows run clean."""

    fault_plan: FaultPlan

    def __init__(self) -> None:
        self._delayed: set[int] = set()

    def _outbound_fault(self, node: int, message: tuple) -> int:
        kind = message[0]
        if kind not in ("prepare", "decide"):
            return 1
        plan = self.fault_plan
        faults = {plan.message_fault(node, message[1], kind)}
        if kind == "prepare" and message[3] is not None:
            # The frame that carries a window's commit is that window's
            # decide message: a ``decide`` fault on it acts here.
            faults.add(plan.message_fault(node, message[3], "decide"))
        if "drop" in faults:
            return 0
        if "delay" in faults:
            # Delivered, but the reply will miss the deadline.
            self._delayed.add(node)
        return 2 if "duplicate" in faults else 1

    def _inbound_fault(self, node: int, reply: tuple) -> None:
        if node in self._delayed:
            self._delayed.discard(node)
            raise NodeFailure(
                node, "replied after the vote deadline (presumed abort)"
            )
        if reply and reply[0] == "vote":
            fault = self.fault_plan.message_fault(node, reply[1], "vote")
            if fault in ("drop", "delay"):
                raise NodeFailure(node, f"vote was {fault}ed (presumed abort)")


# ----------------------------------------------------------------------
# Loopback
# ----------------------------------------------------------------------
class LoopbackTransport(_FaultingEndpoint):
    """In-process data nodes behind the real wire codec.

    Crashes are simulated by discarding the node object (its durable
    log survives on disk, everything else is gone — the same contract
    ``os._exit`` gives the TCP nodes)."""

    def __init__(
        self,
        assignments: Mapping[int, tuple[int, ...]],
        config: tuple,
        state_dir: str,
        fault_plan: FaultPlan,
    ) -> None:
        super().__init__()
        from .recovery import DataNode

        self.fault_plan = fault_plan
        self._meta: dict[int, tuple[tuple[int, ...], tuple, str]] = {}
        self._nodes: dict[int, Any | None] = {}
        self._replies: dict[int, list] = {}
        for node_id, shard_ids in assignments.items():
            if not shard_ids:
                continue
            path = os.path.join(state_dir, f"node_{node_id}.jsonl")
            self._meta[node_id] = (tuple(shard_ids), config, path)
            self._nodes[node_id] = DataNode(
                node_id, shard_ids, config, path, fault_plan
            )

    def nodes(self) -> list[int]:
        return sorted(self._meta)

    def send(self, node_id: int, message: tuple) -> None:
        node = self._nodes.get(node_id)
        if node is None:
            raise NodeFailure(node_id, "is down")
        copies = self._outbound_fault(node_id, message)
        queue = self._replies.setdefault(node_id, [])
        for _ in range(copies):
            try:
                reply = node.handle(encode_payload(message))
            except NodeCrash as crash:
                # The node is gone; only its flushed log remains.
                node.close()
                self._nodes[node_id] = None
                if crash.reply is not None:
                    queue.append(roundtrip(crash.reply))
                return
            queue.append(roundtrip(reply))

    def recv(self, node_id: int) -> tuple:
        queue = self._replies.get(node_id) or []
        reply = queue[-1] if queue else None  # duplicates collapse: last wins
        queue.clear()
        if reply is None:
            self._delayed.discard(node_id)
            if self._nodes.get(node_id) is None:
                raise NodeFailure(node_id, "crashed before replying")
            raise NodeFailure(node_id, "sent no reply (message lost)")
        self._inbound_fault(node_id, reply)
        if reply[0] == "err":
            raise ParallelExecutionError(
                f"data node {node_id} raised:\n{reply[2]}", worker=node_id
            )
        return reply

    def restart(self, node_id: int, fault_horizon: int = 0) -> None:
        from .recovery import DataNode

        old = self._nodes.get(node_id)
        if old is not None:
            old.close()
        shard_ids, config, path = self._meta[node_id]
        # The shared plan already reflects consumed faults; no filtering
        # needed (unlike TCP, where the dead process took its copy down).
        self._nodes[node_id] = DataNode(
            node_id, shard_ids, config, path, self.fault_plan
        )
        self._replies.pop(node_id, None)

    def close(self) -> None:
        for node in self._nodes.values():
            if node is not None:
                node.close()
        self._nodes.clear()
        self._replies.clear()


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------
def _node_server_main(
    node_id: int,
    shard_ids: tuple[int, ...],
    config: tuple,
    log_path: str,
    fault_spec: dict,
    port_conn: Any,
) -> None:  # pragma: no cover - runs in the subprocess
    """Node process entry point: bind an ephemeral localhost port,
    report it, then serve frames until ``stop``, EOF, or a crash fault."""
    import traceback

    from .recovery import DataNode

    node = DataNode(
        node_id, shard_ids, config, log_path, FaultPlan.from_dict(fault_spec)
    )
    server = socket.create_server(("127.0.0.1", 0))
    try:
        port_conn.send(server.getsockname()[1])
    finally:
        port_conn.close()
    conn, _peer = server.accept()
    server.close()
    try:
        while True:
            frame = recv_frame(conn)
            if frame is None or frame == STOP_FRAME:
                break
            try:
                reply = node.handle(frame)
            except NodeCrash as crash:
                if crash.reply is not None:
                    send_frame(conn, crash.reply)
                node.close()  # flush the log, exactly what survives kill -9
                os._exit(1)
            except Exception:
                send_frame(
                    conn, ("err", node_id, traceback.format_exc())
                )
                break
            send_frame(conn, reply)
    except (OSError, ValueError):
        pass
    finally:
        node.close()
        try:
            conn.close()
        except OSError:
            pass


class TcpTransport(_FaultingEndpoint):
    """One real process + localhost socket per data node."""

    def __init__(
        self,
        assignments: Mapping[int, tuple[int, ...]],
        config: tuple,
        state_dir: str,
        fault_plan: FaultPlan,
    ) -> None:
        super().__init__()
        import multiprocessing

        self.fault_plan = fault_plan
        self._context = multiprocessing.get_context(default_start_method())
        self._meta: dict[int, tuple[tuple[int, ...], tuple, str]] = {}
        self._nodes: dict[int, tuple[Any, socket.socket]] = {}
        self._expect: dict[int, int] = {}
        for node_id, shard_ids in assignments.items():
            if not shard_ids:
                continue
            path = os.path.join(state_dir, f"node_{node_id}.jsonl")
            self._meta[node_id] = (tuple(shard_ids), config, path)
            self._spawn(node_id, self.fault_plan.to_dict())

    def _spawn(self, node_id: int, fault_spec: dict) -> None:
        shard_ids, config, path = self._meta[node_id]
        parent, child = self._context.Pipe()
        process = self._context.Process(
            target=_node_server_main,
            args=(node_id, shard_ids, config, path, fault_spec, child),
            daemon=True,
            name=f"repro-data-node-{node_id}",
        )
        process.start()
        child.close()
        if not parent.poll(NODE_TIMEOUT):
            process.terminate()
            raise NodeFailure(node_id, "never reported its port")
        port = parent.recv()
        parent.close()
        sock = socket.create_connection(
            ("127.0.0.1", port), timeout=NODE_TIMEOUT
        )
        sock.settimeout(NODE_TIMEOUT)
        self._nodes[node_id] = (process, sock)

    def nodes(self) -> list[int]:
        return sorted(self._meta)

    def send(self, node_id: int, message: tuple) -> None:
        process, sock = self._nodes[node_id]
        copies = self._outbound_fault(node_id, message)
        self._expect[node_id] = copies
        for _ in range(copies):
            try:
                send_frame(sock, message)
            except (BrokenPipeError, OSError) as exc:
                raise NodeFailure(
                    node_id, f"closed its socket while receiving: {exc}"
                ) from None

    def recv(self, node_id: int) -> tuple:
        process, sock = self._nodes[node_id]
        expected = self._expect.pop(node_id, 1)
        if expected == 0:
            self._delayed.discard(node_id)
            raise NodeFailure(node_id, "sent no reply (message lost)")
        reply = None
        try:
            for _ in range(expected):  # duplicates collapse: last wins
                frame = recv_frame(sock)
                if frame is None:
                    break
                reply = decode_payload(frame)
        except socket.timeout:
            raise NodeFailure(
                node_id, f"sent no reply within {NODE_TIMEOUT:.0f}s"
            ) from None
        except (OSError, ValueError):
            reply = None
        if reply is None:
            self._delayed.discard(node_id)
            raise NodeFailure(
                node_id, f"died mid-reply (exitcode {process.exitcode})"
            )
        self._inbound_fault(node_id, reply)
        if reply[0] == "err":
            raise ParallelExecutionError(
                f"data node {node_id} raised:\n{reply[2]}", worker=node_id
            )
        return reply

    def restart(self, node_id: int, fault_horizon: int = 0) -> None:
        process, sock = self._nodes.pop(node_id)
        try:
            sock.close()
        except OSError:
            pass
        process.join(timeout=NODE_TIMEOUT)
        if process.is_alive():  # pragma: no cover - stuck node
            process.terminate()
            process.join(timeout=5.0)
        self._expect.pop(node_id, None)
        # The dead process took its fault-plan copy with it; ship the
        # replacement only faults that can still legitimately fire.
        # Crash faults for already-sequenced windows would otherwise
        # re-fire during decision resolution and livelock the restart.
        spec = {
            "faults": [
                fault.to_dict()
                for fault in self.fault_plan.faults()
                if fault.window >= fault_horizon
            ]
        }
        self._spawn(node_id, spec)

    def close(self) -> None:
        for node_id, (process, sock) in self._nodes.items():
            try:
                send_frame(sock, ("stop",))
            except (BrokenPipeError, OSError):
                pass
        for node_id, (process, sock) in self._nodes.items():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck node
                process.terminate()
                process.join(timeout=5.0)
            try:
                sock.close()
            except OSError:
                pass
        self._nodes.clear()
        self._expect.clear()
