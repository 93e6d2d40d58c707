"""Crash-recoverable data plane: durable logs, deterministic fault
injection, and the 2PC crash matrix.

The headline invariant (the ``recovery-equivalence`` fuzzer rule) is
pinned here deterministically: for any scripted fault plan — node
crashes at every 2PC phase boundary, dropped/duplicated/delayed
messages, torn coordinator WAL appends — the crashed-and-recovered
run's report is **bit-identical** to the fault-free run, and its
committed projection is DSR.  Bit-identity subsumes prefix consistency:
the committed projection of the recovered run *is* the fault-free one.

The exhaustive matrix (every node x every phase x both restart orders
x two windows, plus the TCP kill/restart paths) is ``-m slow`` so
tier-1 stays flat; a reduced phase sweep runs unmarked.  Frozen
counterexamples live in ``tests/corpus/recovery_*.json`` with drift
tests at the bottom.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import SerializabilityOracle
from repro.engine.pipeline import (
    Fault,
    FaultPlan,
    ParallelExecutionError,
    RecoverableShardSet,
    TransactionService,
    random_plan,
)
from repro.engine.pipeline.faults import (
    CRASH_PHASES,
    NodeCrash,
    MESSAGE_FAULTS,
    MESSAGE_KINDS,
    POST_VOTE,
    PRE_COMMIT,
    PRE_PREPARE,
)
from repro.engine.pipeline import transport
from repro.engine.pipeline.shard import ShardSpec
from repro.engine.pipeline.transport import (
    decode_payload,
    encode_payload,
    roundtrip,
)
from repro.storage.wal import DurableLog

from tests.test_parallel import make_workload, report_tuple

CORPUS_DIR = Path(__file__).parent / "corpus"
RECOVERY_CASES = sorted(CORPUS_DIR.glob("recovery_*.json"))


def run_recoverable(
    txns,
    log,
    *,
    n_shards=4,
    nodes=2,
    window=4,
    transport="loopback",
    fault_plan=None,
):
    """One windowed run over the recoverable plane via the service."""
    service = TransactionService(
        k=2,
        n_shards=n_shards,
        parallel=nodes,
        window=window,
        transport=transport,
        fault_plan=fault_plan,
    )
    try:
        service.submit_programs(txns)
        report = service.run(schedule=log)
        snapshot = service.stage_snapshot()
    finally:
        service.close()
    return report, snapshot


def run_plane(txns, log, plane, *, n_shards=4, window=4):
    """Run through a hand-built plane (for restart_order and other
    knobs the service does not expose) — the plane-swap idiom."""
    service = TransactionService(
        k=2, n_shards=n_shards, parallel=0, window=window
    )
    service.executor.parallel_plane.close()
    service.executor.parallel_plane = plane
    try:
        service.submit_programs(txns)
        report = service.run(schedule=log)
        snapshot = service.stage_snapshot()
    finally:
        service.close()
        plane.close()
    return report, snapshot


def baseline(txns, log, *, n_shards=4, window=4):
    service = TransactionService(
        k=2, n_shards=n_shards, parallel=0, window=window
    )
    try:
        service.submit_programs(txns)
        return service.run(schedule=log)
    finally:
        service.close()


_INVOLVEMENT_CACHE: dict[tuple, dict[int, list[int]]] = {}


def involvement(seed, *, n_shards=4, nodes=2, window=4, num_txns=12):
    """``{node: [2PC window ids it participates in]}`` from a no-fault
    loopback run of ``make_workload(seed, num_txns)``.

    Which nodes a window ships to depends on the row-conflict cut, so
    fault targets must be *discovered*, not hardcoded — a fault aimed
    at an uninvolved (node, window) pair is inert and the test would be
    vacuously green.  Window numbering is deterministic and identical
    across transports, so loopback-probed targets are valid for TCP
    runs too (single non-aborting faults never shift later ids)."""
    key = (seed, n_shards, nodes, window, num_txns)
    if key in _INVOLVEMENT_CACHE:
        return _INVOLVEMENT_CACHE[key]
    from repro.engine.pipeline import recovery as _recovery

    seen: dict[int, list[int]] = {node: [] for node in range(nodes)}
    original = _recovery.RecoverableShardSet._prepare_round

    def spy(self, window_id, payloads):
        for node_id in payloads:
            seen[node_id].append(window_id)
        return original(self, window_id, payloads)

    _recovery.RecoverableShardSet._prepare_round = spy
    try:
        txns, log = make_workload(seed, num_txns=num_txns)
        run_recoverable(
            txns, log, n_shards=n_shards, nodes=nodes, window=window
        )
    finally:
        _recovery.RecoverableShardSet._prepare_round = original
    _INVOLVEMENT_CACHE[key] = seen
    return seen


def committed_rounds(faults, seed=1, *, nodes=2, num_txns=12):
    """``[(window, nodes)]`` of the 2PC rounds whose votes all came in,
    in a loopback run of ``make_workload(seed, num_txns)`` under
    *faults*.

    A crash after a vote, or a lost decision, is found at the node's
    next prepare and costs that round a presumed abort, which shifts
    every later window id; targets for a fault scripted after such a
    fault are discovered under it.  A round listed here runs the same
    whatever is scripted for it later, so a ``torn-wal`` aimed at it
    fires."""
    from repro.engine.pipeline import recovery as _recovery

    seen: list[tuple[int, frozenset]] = []
    original = _recovery.RecoverableShardSet._prepare_round

    def spy(self, window_id, payloads):
        votes = original(self, window_id, payloads)
        if votes is not None:
            seen.append((window_id, frozenset(payloads)))
        return votes

    _recovery.RecoverableShardSet._prepare_round = spy
    try:
        txns, log = make_workload(seed, num_txns=num_txns)
        run_recoverable(
            txns, log, nodes=nodes, fault_plan=FaultPlan(list(faults))
        )
    finally:
        _recovery.RecoverableShardSet._prepare_round = original
    return seen


# ----------------------------------------------------------------------
# The wire vocabulary
# ----------------------------------------------------------------------
_INT64 = st.integers(min_value=-(2**63), max_value=2**64 - 1)
#: Scalars on the wire: ints (negative, and 64-bit packed values), null
#: for an undefined timestamp element, item names in any script.
_SCALARS = st.one_of(st.none(), _INT64, st.text(max_size=8))
#: A ``(counter, site)`` timestamp element as snapshots carry it.
_PAIRS = st.tuples(st.integers(0, 2**40), st.integers(0, 63))
_WIRE = st.recursive(
    st.one_of(_SCALARS, _PAIRS),
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=40,
)
#: Whole frames: the engine only ever ships tuples at the top level.
_FRAMES = st.lists(_WIRE, max_size=6).map(tuple)
#: Log records: str-keyed dicts of wire values.
_RECORDS = st.dictionaries(st.text(max_size=6), _WIRE, max_size=5)


def _assert_same_types(got, want):
    """``type(x) is type(y)`` at every depth, dict values included."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, tuple):
        for left, right in zip(got, want):
            _assert_same_types(left, right)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key, value in want.items():
            _assert_same_types(got[key], value)


# ----------------------------------------------------------------------
# DurableLog
# ----------------------------------------------------------------------
class TestDurableLog:
    def test_append_replay_round_trip(self, tmp_path):
        log = DurableLog(str(tmp_path / "node.wal"))
        log.append({"type": "begin"})
        log.append({"type": "prepared", "window": 0, "payload": [1, 2]})
        assert log.replay() == [
            {"type": "begin"},
            {"type": "prepared", "window": 0, "payload": [1, 2]},
        ]
        log.close()

    def test_torn_tail_is_ignored_on_replay(self, tmp_path):
        log = DurableLog(str(tmp_path / "node.wal"))
        log.append({"type": "begin"})
        log.append({"type": "commit", "window": 3})
        log.append_torn({"type": "commit", "window": 4})
        records = log.replay()
        assert records == [{"type": "begin"}, {"type": "commit", "window": 3}]
        log.close()

    def test_repair_truncates_torn_tail_durably(self, tmp_path):
        path = tmp_path / "node.wal"
        log = DurableLog(str(path))
        log.append({"type": "commit", "window": 1})
        log.append_torn({"type": "commit", "window": 2})
        assert log.repair() == [{"type": "commit", "window": 1}]
        # The torn bytes are gone from disk and appends work again.
        log.append({"type": "commit", "window": 3})
        log.close()
        reopened = DurableLog(str(path))
        assert reopened.replay() == [
            {"type": "commit", "window": 1},
            {"type": "commit", "window": 3},
        ]
        reopened.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "node.wal"
        log = DurableLog(str(path))
        log.append({"type": "begin"})
        log.close()
        with path.open("a") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"type": "commit", "window": 1}) + "\n")
        broken = DurableLog(str(path))
        with pytest.raises(ValueError, match="corrupt WAL record"):
            broken.replay()
        broken.close()

    def test_truncate_clears(self, tmp_path):
        log = DurableLog(str(tmp_path / "node.wal"))
        log.append({"type": "begin"})
        log.truncate()
        assert log.replay() == []
        log.append({"type": "begin"})
        assert log.replay() == [{"type": "begin"}]
        log.close()

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(_RECORDS, max_size=5),
        torn=_RECORDS,
    )
    def test_append_torn_repair_lines_match_json_dumps(self, records, torn):
        """Every write path shares one record encoder: the log a crash
        leaves behind and the one ``repair`` rewrites are the lines
        ``json.dumps(record, sort_keys=True)`` would have produced."""
        lines = [
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ]
        torn_text = json.dumps(torn, sort_keys=True)
        with tempfile.TemporaryDirectory() as state_dir:
            path = Path(state_dir) / "node.wal"
            log = DurableLog(str(path))
            for record in records:
                log.append(record)
            log.append_torn(torn)
            written = path.read_text(encoding="utf-8")
            assert written == "".join(lines) + torn_text[: len(torn_text) // 2]
            log.repair()
            log.close()
            assert path.read_text(encoding="utf-8") == "".join(lines)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="crash phase"):
            Fault("crash", 0, node=0, phase="mid-flight")
        with pytest.raises(ValueError, match="target a node"):
            Fault("crash", 0, phase=PRE_PREPARE)
        with pytest.raises(ValueError, match="message kind"):
            Fault("drop", 0, node=0, phase="pre-prepare")
        with pytest.raises(ValueError, match="coordinator-side"):
            Fault("torn-wal", 0, node=1)
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("partition", 0)

    def test_dict_round_trip(self):
        plan = FaultPlan(
            [
                Fault("crash", 2, node=1, phase=POST_VOTE),
                Fault("drop", 0, node=0, phase="vote"),
                Fault("torn-wal", 3),
            ]
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.faults() == plan.faults()
        # and it survives an actual JSON round trip (corpus format)
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ).faults() == plan.faults()

    def test_consumption_is_one_shot_and_keyed(self):
        plan = FaultPlan(
            [
                Fault("crash", 1, node=0, phase=PRE_COMMIT),
                Fault("delay", 1, node=1, phase="vote"),
                Fault("torn-wal", 2),
            ]
        )
        # Non-matching consults do not consume.
        assert not plan.crash_at(0, 1, PRE_PREPARE)
        assert not plan.crash_at(1, 1, PRE_COMMIT)
        assert plan.message_fault(1, 0, "vote") is None
        assert not plan.torn_wal(1)
        assert plan.pending() == 3
        # Matching consults consume exactly once.
        assert plan.crash_at(0, 1, PRE_COMMIT)
        assert not plan.crash_at(0, 1, PRE_COMMIT)
        assert plan.message_fault(1, 1, "vote") == "delay"
        assert plan.message_fault(1, 1, "vote") is None
        assert plan.torn_wal(2)
        assert not plan.torn_wal(2)
        assert plan.pending() == 0
        assert not plan

    def test_random_plan_is_deterministic_and_in_range(self):
        import random as _random

        first = random_plan(_random.Random("seed"), windows=5, nodes=2)
        second = random_plan(_random.Random("seed"), windows=5, nodes=2)
        assert first.faults() == second.faults()
        for fault in first.faults():
            assert 0 <= fault.window < 5
            if fault.node is not None:
                assert 0 <= fault.node < 2
            if fault.kind == "crash":
                assert fault.phase in CRASH_PHASES
            elif fault.kind in MESSAGE_FAULTS:
                assert fault.phase in MESSAGE_KINDS


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_nested_tuples_survive_json(self):
        message = (
            "run",
            ((1, ("reset",)), (2, ("drop", 3))),
            ((0, ((5, "x"), (6, "y")), ((1, 2, 0, "x"),)),),
        )
        assert roundtrip(message) == message

    def test_dict_values_are_retupled(self):
        message = ("vote", 3, {"decisions": [[1, 0], [2, 2]]})
        got = roundtrip(message)
        assert got[2]["decisions"] == ((1, 0), (2, 2))

    @settings(max_examples=300, deadline=None)
    @given(message=_WIRE)
    def test_encode_is_json_dumps_byte_for_byte(self, message):
        assert encode_payload(message) == json.dumps(
            message, separators=(",", ":")
        ).encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(message=_WIRE)
    def test_decode_restores_tuples_at_every_depth(self, message):
        got = decode_payload(encode_payload(message))
        assert got == message
        _assert_same_types(got, message)

    @settings(max_examples=100, deadline=None)
    @given(message=_FRAMES, data=st.data())
    def test_truncated_frame_raises(self, message, data):
        frame = encode_payload(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(ValueError):
            decode_payload(frame[:cut])

    @settings(max_examples=100, deadline=None)
    @given(
        message=_WIRE,
        garbage=st.sampled_from(
            [b"x", b"]", b"}", b",1", b"[]", b" 0", b"\xff"]
        ),
    )
    def test_trailing_garbage_raises(self, message, garbage):
        with pytest.raises(ValueError):
            decode_payload(encode_payload(message) + garbage)

    def test_roundtrip_goes_through_the_module_codec(self, monkeypatch):
        """The tracer's ``transport.encode/decode/bytes`` ledger rows wrap
        the module globals; a ``roundtrip`` that bound the codec any
        other way would leave those rows silently at zero."""
        calls = {"encode": 0, "decode": 0}

        def counting_encode(message):
            calls["encode"] += 1
            return encode_payload(message)

        def counting_decode(data):
            calls["decode"] += 1
            return decode_payload(data)

        monkeypatch.setattr(transport, "encode_payload", counting_encode)
        monkeypatch.setattr(transport, "decode_payload", counting_decode)
        message = ("prepare", 7, ("run", (), ((0, (), ((0, 1, 1, "x"),)),)))
        assert transport.roundtrip(message) == message
        assert calls == {"encode": 1, "decode": 1}


# ----------------------------------------------------------------------
# Loopback equivalence (no faults)
# ----------------------------------------------------------------------
class TestLoopbackEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_no_fault_bit_identical_to_inline(self, n_shards):
        for seed in (0, 3):
            txns, log = make_workload(seed)
            base = baseline(txns, log, n_shards=n_shards)
            got, snap = run_recoverable(txns, log, n_shards=n_shards)
            assert report_tuple(got) == report_tuple(base), f"seed {seed}"
            ipc = snap["parallel"]["ipc"]
            assert snap["parallel"]["transport"] == "loopback"
            assert ipc["rounds"] > 0
            assert ipc["prepares"] > 0
            assert ipc["window_aborts"] == 0
            assert ipc["node_restarts"] == 0

    def test_four_nodes_one_frame_each_way_per_round(self, monkeypatch):
        """Fault-free, a node a round involves gets one frame (the
        prepare, carrying its previous commit) and sends one back (the
        vote): no decide, no ack.  Decisions equal the in-process
        plane's."""
        from repro.engine.pipeline.transport import LoopbackTransport

        involved = {
            node: len(windows)
            for node, windows in involvement(3, nodes=4, num_txns=24).items()
        }
        sent: dict[int, list] = {node: [] for node in range(4)}
        send = LoopbackTransport.send

        def spy(transport, node_id, message):
            sent[node_id].append(message[0])
            return send(transport, node_id, message)

        monkeypatch.setattr(LoopbackTransport, "send", spy)
        encoded = []
        monkeypatch.setattr(
            transport,
            "encode_payload",
            lambda message, encode=encode_payload: encoded.append(1)
            or encode(message),
        )
        txns, log = make_workload(3, num_txns=24)
        base = baseline(txns, log)
        got, snap = run_recoverable(txns, log, nodes=4)
        assert report_tuple(got) == report_tuple(base)
        ipc = snap["parallel"]["ipc"]
        assert ipc["window_aborts"] == 0
        for node, kinds in sent.items():
            assert kinds == ["begin"] + ["prepare"] * involved[node]
        assert ipc["prepares"] == sum(involved.values())
        assert len(encoded) == 2 * (4 + ipc["prepares"])

    def test_service_validates_transport_knobs(self):
        with pytest.raises(ValueError, match="transport"):
            TransactionService(k=2, n_shards=2, transport="carrier-pigeon")
        with pytest.raises(ValueError, match="parallel"):
            TransactionService(k=2, n_shards=2, transport="tcp")
        with pytest.raises(ValueError, match="fault injection"):
            TransactionService(
                k=2, n_shards=2, parallel=0, fault_plan=FaultPlan()
            )
        spec = ShardSpec(n_shards=2, k=2)
        with pytest.raises(ValueError, match="restart_order"):
            RecoverableShardSet(spec, restart_order="random")
        with pytest.raises(ValueError, match="max_window_attempts"):
            RecoverableShardSet(spec, max_window_attempts=0)


# ----------------------------------------------------------------------
# Scripted faults (loopback; the unmarked reduced sweep)
# ----------------------------------------------------------------------
class TestScriptedFaults:
    def check_plan(
        self, plan, *, seed=1, num_txns=12, expect_consumed=True, **kwargs
    ):
        """Fault run must bit-equal the fault-free run and stay DSR."""
        txns, log = make_workload(seed, num_txns=num_txns)
        base = baseline(txns, log, **kwargs)
        got, snap = run_recoverable(txns, log, fault_plan=plan, **kwargs)
        assert report_tuple(got) == report_tuple(base)
        assert SerializabilityOracle().is_dsr(got.committed_log)
        if expect_consumed:
            # Loopback shares the plan object: pending()==0 proves every
            # scripted fault actually fired (no vacuous green).
            assert plan.pending() == 0, plan.faults()
        return got, snap

    @pytest.mark.parametrize("phase", CRASH_PHASES)
    @pytest.mark.parametrize("node", (0, 1))
    def test_crash_each_phase_recovers_identically(self, phase, node):
        target = involvement(1)[node][0]
        plan = FaultPlan([Fault("crash", target, node=node, phase=phase)])
        _got, snap = self.check_plan(plan)
        ipc = snap["parallel"]["ipc"]
        assert ipc["node_restarts"] >= 1
        if phase == PRE_PREPARE:
            # No vote ever made it out: presumed abort, window retried.
            assert ipc["window_aborts"] >= 1
        if phase == PRE_COMMIT:
            # Prepared-but-undecided at restart: resolved from the WAL.
            assert ipc["resolved_windows"] >= 1

    def test_pre_commit_crash_on_a_piggybacked_decision(self, monkeypatch):
        """A node learns its window's commit on its next prepare frame;
        dying on that frame, before logging it, leaves the window
        prepared-but-undecided.  That round is presumed aborted, the
        restarted node redoes the commit from the coordinator WAL, and
        the run equals the fault-free one."""
        from repro.engine.pipeline.recovery import DataNode

        windows = involvement(1)[0]
        crashed = []
        handle = DataNode.handle

        def spy(node, frame):
            try:
                return handle(node, frame)
            except NodeCrash as crash:
                crashed.append((crash.phase, crash.window, decode_payload(frame)))
                raise

        monkeypatch.setattr(DataNode, "handle", spy)
        plan = FaultPlan(
            [Fault("crash", windows[0], node=0, phase=PRE_COMMIT)]
        )
        _got, snap = self.check_plan(plan)
        ((phase, window, message),) = crashed
        assert (phase, window) == (PRE_COMMIT, windows[0])
        assert message[0] == "prepare" and message[3] == windows[0]
        assert message[1] == windows[1]
        ipc = snap["parallel"]["ipc"]
        assert ipc["window_aborts"] == 1
        assert ipc["node_restarts"] == 1
        assert ipc["resolved_windows"] == 1

    @pytest.mark.parametrize("kind", MESSAGE_FAULTS)
    @pytest.mark.parametrize("message", MESSAGE_KINDS)
    def test_message_faults_recover_identically(self, kind, message):
        node, target = min(
            (
                (node, windows[0])
                for node, windows in involvement(1).items()
                if windows
            ),
            key=lambda pair: pair[1],
        )
        plan = FaultPlan([Fault(kind, target, node=node, phase=message)])
        # A duplicated vote is collapsed by the transport's last-reply
        # rule without consulting the plan — the fault is inert by
        # construction, so skip the consumption proof for it.
        consumed = not (kind == "duplicate" and message == "vote")
        self.check_plan(plan, expect_consumed=consumed)

    def test_votes_are_dropped_with_their_decision(self, monkeypatch):
        """A node kept every window's full reply in ``_votes`` for the
        whole run; a vote is only needed until the back-to-back duplicate
        ``prepare`` has been answered, so it goes when the decision is
        logged — and duplicated prepares / decides still recover
        bit-identically.  A ``decide`` fault acts on the prepare frame
        that carries the window's commit."""
        from repro.engine.pipeline.recovery import DataNode

        windows = involvement(1)[0]
        plan = FaultPlan(
            [
                Fault("duplicate", windows[0], node=0, phase="prepare"),
                Fault("duplicate", windows[1], node=0, phase="decide"),
            ]
        )
        held = []
        handle = DataNode.handle

        def spy(node, frame):
            reply = handle(node, frame)
            message = decode_payload(frame)
            decided = message[3] if message[0] == "prepare" else None
            if message[0] == "decide":
                decided = message[1]
            if decided is not None:
                assert decided not in node._votes
            held.append((decided, len(node._votes)))
            return reply

        monkeypatch.setattr(DataNode, "handle", spy)
        self.check_plan(plan)
        decided = [votes for window, votes in held if window is not None]
        assert len(decided) > len(windows)  # both nodes, every window
        assert max(votes for _window, votes in held) == 1

    def test_prepare_carries_the_previous_commit(self, monkeypatch):
        """Fault-free, a commit travels on no frame of its own: each
        prepare names the node's previous window, which committed, and
        the node logs that frame as one line, byte for byte."""
        from repro.engine.pipeline.recovery import DataNode

        frames: dict[int, list] = {0: [], 1: []}
        lines: dict[int, list] = {0: [], 1: []}
        handle = DataNode.handle

        def spy(node, frame):
            reply = handle(node, frame)
            frames[node.node_id].append(frame)
            with open(node._log.path, "rb") as log:
                lines[node.node_id] = log.read().splitlines()
            return reply

        monkeypatch.setattr(DataNode, "handle", spy)
        txns, log = make_workload(1, num_txns=12)
        got, snap = run_recoverable(txns, log)
        assert report_tuple(got) == report_tuple(baseline(txns, log))
        inv = involvement(1)
        for node, windows in inv.items():
            # The node's log is exactly the frames it was sent.
            assert lines[node] == frames[node]
            messages = [decode_payload(frame) for frame in frames[node]]
            assert [m[0] for m in messages] == ["begin"] + ["prepare"] * len(
                windows
            )
            prepares = messages[1:]
            assert [m[1] for m in prepares] == windows
            assert [m[3] for m in prepares] == [None] + windows[:-1]

    def test_node_state_is_bounded_by_undecided_windows(self, monkeypatch):
        """A node kept every window's payload, verdict and applied mark
        for the whole run; its log already holds them, so once a
        window is decided nothing in memory names it any more, and
        what a node holds does not grow with the number of windows."""
        from repro.engine.pipeline.recovery import DataNode

        def containers(node):
            return [
                value
                for value in vars(node).values()
                if isinstance(value, (dict, set))
            ]

        held = []
        handle = DataNode.handle

        def spy(node, frame):
            reply = handle(node, frame)
            message = decode_payload(frame)
            if message[0] == "prepare" and message[3] is not None:
                for value in containers(node):
                    assert message[3] not in value, (message[3], value)
                # Fault-free, the window just prepared is all it holds.
                assert node.undecided() == [message[1]]
            held.append(sum(len(value) for value in containers(node)))
            return reply

        monkeypatch.setattr(DataNode, "handle", spy)
        txns, log = make_workload(1, num_txns=120)
        base = baseline(txns, log)
        got, snap = run_recoverable(txns, log)
        assert report_tuple(got) == report_tuple(base)
        assert snap["parallel"]["ipc"]["rounds"] > 500
        prefix = held[: len(held) // 10]
        assert max(held) == max(prefix), (max(prefix), max(held))

    def test_coordinator_state_does_not_grow_with_windows(self, monkeypatch):
        """The coordinator kept the id of every committed window for
        the whole run; its WAL already holds them (a restarted node's
        undecided windows are resolved by replaying it), so nothing it
        holds in memory outgrows the transactions while windows
        outnumber them five to one."""
        from repro.engine.pipeline.recovery import RecoverableShardSet

        largest: dict[str, int] = {}
        run_window = RecoverableShardSet.run_window

        def spy(plane, *args, **kwargs):
            decisions = run_window(plane, *args, **kwargs)
            for name, value in vars(plane).items():
                if isinstance(value, (dict, set, list)):
                    largest[name] = max(largest.get(name, 0), len(value))
            return decisions

        monkeypatch.setattr(RecoverableShardSet, "run_window", spy)
        txns, log = make_workload(1, num_txns=120)
        got, snap = run_recoverable(txns, log)
        assert report_tuple(got) == report_tuple(baseline(txns, log))
        assert snap["parallel"]["ipc"]["rounds"] > 5 * len(txns)
        grown = {name: size for name, size in largest.items() if size > len(txns)}
        assert not grown, grown

    def test_rollback_and_redo_replay_the_log(self, monkeypatch):
        """Faults late in a long run: a dropped vote rolls the other
        node's tentatively applied window back and restarts node 0, a
        pre-commit crash makes node 1 redo a commit after restart.  Each
        rebuild streams a long committed prefix from the node's log,
        and the run still bit-equals the fault-free one."""
        inv = involvement(1, num_txns=120)
        last = inv[0][-1]
        assert last in inv[1]  # node 1 holds a tentative copy to undo
        # The dropped vote aborts ``last``; its retry is window
        # last + 1, and node 1 learns that commit on its next prepare.
        assert max(inv[1]) > last
        plan = FaultPlan(
            [
                Fault("drop", last, node=0, phase="vote"),
                Fault("crash", last + 1, node=1, phase=PRE_COMMIT),
            ]
        )
        lengths = []
        coordinator = []
        scan = DurableLog.scan

        def spy(log, *args):
            count = 0
            for record in scan(log, *args):
                count += 1
                yield record
            if log.path.endswith("coordinator.wal"):
                coordinator.append(count)
            else:
                lengths.append(count)

        monkeypatch.setattr(DurableLog, "scan", spy)
        _got, snap = self.check_plan(plan, num_txns=120)
        ipc = snap["parallel"]["ipc"]
        assert ipc["window_aborts"] >= 1
        assert ipc["resolved_windows"] >= 2
        # Node 1's rollback, node 0's restart and node 1's restart each
        # read one frame for every window the node took part in.
        long = [length for length in lengths if length > len(inv[0])]
        assert len(long) == 3, lengths
        # The coordinator answers each restarted node's undecided
        # windows from one replay of its WAL.
        assert len(coordinator) == 2 and min(coordinator) > last, coordinator

    def test_death_after_the_last_vote_is_healed_by_the_next_run(self):
        """Nothing follows a node's last vote of a run, so a crash right
        after it goes unnoticed until the next run's ``begin``: the node
        is restarted there, and that run equals the fault-free one."""
        last = involvement(1)[0][-1]
        plan = FaultPlan([Fault("crash", last, node=0, phase=POST_VOTE)])
        txns, log = make_workload(1)
        base = baseline(txns, log)
        service = TransactionService(
            k=2, n_shards=4, parallel=2, window=4, transport="loopback",
            fault_plan=plan,
        )
        with service:
            for _run in range(2):
                service.submit_programs(txns)
                assert report_tuple(service.run(schedule=log)) == (
                    report_tuple(base)
                )
            ipc = service.stage_snapshot()["parallel"]["ipc"]
        assert plan.pending() == 0
        assert ipc["node_restarts"] == 1

    def test_torn_wal_presumes_abort_and_retries(self):
        plan = FaultPlan([Fault("torn-wal", 0)])
        _got, snap = self.check_plan(plan)
        ipc = snap["parallel"]["ipc"]
        assert ipc["window_aborts"] >= 1

    def test_compound_plan(self):
        inv = involvement(1)
        first1 = inv[1][0]
        # node 1 learns first1's commit on its next prepare, dies there,
        # and that round is presumed aborted: discover node 0's first
        # window under that fault, then a round that commits after both.
        crashes = [Fault("crash", first1, node=1, phase=PRE_COMMIT)]
        first0 = min(
            window
            for window, nodes in committed_rounds(crashes)
            if 0 in nodes
        )
        crashes.append(Fault("crash", first0, node=0, phase=POST_VOTE))
        torn = min(
            window
            for window, _nodes in committed_rounds(crashes)
            if window > first0
        )
        plan = FaultPlan(crashes + [Fault("torn-wal", torn)])
        _got, snap = self.check_plan(plan)
        ipc = snap["parallel"]["ipc"]
        assert ipc["node_restarts"] >= 2
        assert ipc["window_aborts"] >= 1

    def test_unsurvivable_plan_raises_not_hangs(self):
        """A plan that kills a window more often than the retry budget
        surfaces ParallelExecutionError instead of looping forever."""
        plan = FaultPlan(
            [
                Fault("crash", w, node=node, phase=PRE_PREPARE)
                for w in range(6)
                for node in (0, 1)
            ]
        )
        txns, log = make_workload(1)
        spec = ShardSpec(n_shards=4, k=2)
        plane = RecoverableShardSet(
            spec,
            workers=2,
            window=4,
            fault_plan=plan,
            max_window_attempts=3,
        )
        with pytest.raises(ParallelExecutionError, match="retry budget"):
            run_plane(txns, log, plane)


# ----------------------------------------------------------------------
# The full 2PC crash matrix (slow)
# ----------------------------------------------------------------------
def _matrix_cases():
    cases = []
    for phase in CRASH_PHASES:
        for node in (0, 1):
            for order in ("sorted", "reverse"):
                for hit in (0, 1):  # the node's 1st and 2nd 2PC windows
                    cases.append((phase, node, order, hit))
    return cases


@pytest.mark.slow
class TestCrashMatrix:
    @pytest.mark.parametrize(
        "phase,node,order,hit",
        _matrix_cases(),
        ids=lambda value: str(value),
    )
    def test_single_crash_matrix(self, phase, node, order, hit):
        txns, log = make_workload(1)
        base = baseline(txns, log)
        target = involvement(1)[node][hit]
        plan = FaultPlan([Fault("crash", target, node=node, phase=phase)])
        spec = ShardSpec(n_shards=4, k=2)
        plane = RecoverableShardSet(
            spec, workers=2, window=4, fault_plan=plan, restart_order=order
        )
        got, snap = run_plane(txns, log, plane)
        assert report_tuple(got) == report_tuple(base)
        assert SerializabilityOracle().is_dsr(got.committed_log)
        assert plan.pending() == 0, plan.faults()
        assert snap["parallel"]["ipc"]["node_restarts"] >= 1

    @pytest.mark.parametrize("window", (0, 1))
    def test_torn_wal_matrix(self, window):
        txns, log = make_workload(1)
        base = baseline(txns, log)
        plan = FaultPlan([Fault("torn-wal", window)])
        got, snap = run_recoverable(txns, log, fault_plan=plan)
        assert report_tuple(got) == report_tuple(base)
        assert plan.pending() == 0
        assert snap["parallel"]["ipc"]["window_aborts"] >= 1

    @pytest.mark.parametrize("order", ("sorted", "reverse"))
    def test_both_nodes_dead_restart_orders(self, order):
        """Two nodes dead in the same window: the heal loop revives
        them in the configured order; both orders must converge to the
        fault-free report."""
        txns, log = make_workload(1)
        base = baseline(txns, log)
        inv = involvement(1)
        shared = min(set(inv[0]) & set(inv[1]))  # both nodes in-window
        plan = FaultPlan(
            [
                Fault("crash", shared, node=0, phase=POST_VOTE),
                Fault("crash", shared, node=1, phase=PRE_COMMIT),
            ]
        )
        spec = ShardSpec(n_shards=4, k=2)
        plane = RecoverableShardSet(
            spec, workers=2, window=4, fault_plan=plan, restart_order=order
        )
        got, snap = run_plane(txns, log, plane)
        assert report_tuple(got) == report_tuple(base)
        assert plan.pending() == 0, plan.faults()
        assert snap["parallel"]["ipc"]["node_restarts"] >= 2


# ----------------------------------------------------------------------
# TCP transport (real processes, real sockets, real kill -9)
# ----------------------------------------------------------------------
class TestTcpTransport:
    def test_tcp_no_fault_bit_identical(self):
        txns, log = make_workload(2, num_txns=8)
        base = baseline(txns, log)
        got, snap = run_recoverable(txns, log, transport="tcp")
        assert report_tuple(got) == report_tuple(base)
        assert snap["parallel"]["transport"] == "tcp"

    @pytest.mark.slow
    @pytest.mark.parametrize("phase", CRASH_PHASES)
    def test_tcp_crash_kill_restart(self, phase):
        """Scripted crashes on TCP nodes are real process deaths
        (os._exit) followed by real restarts re-reading the on-disk
        log; the recovered run still bit-equals the fault-free run."""
        txns, log = make_workload(1)
        base = baseline(txns, log)
        target = involvement(1)[0][0]
        plan = FaultPlan([Fault("crash", target, node=0, phase=phase)])
        got, snap = run_recoverable(
            txns, log, transport="tcp", fault_plan=plan
        )
        assert report_tuple(got) == report_tuple(base)
        assert SerializabilityOracle().is_dsr(got.committed_log)
        assert snap["parallel"]["ipc"]["node_restarts"] >= 1

    @pytest.mark.slow
    def test_tcp_message_faults(self):
        txns, log = make_workload(1)
        base = baseline(txns, log)
        inv = involvement(1)
        node_a, win_a = min(
            ((node, windows[0]) for node, windows in inv.items()),
            key=lambda pair: pair[1],
        )
        node_b = 1 - node_a
        # win_a still commits, but the prepare that would carry its
        # decision is dropped and that round presumed aborted: the
        # delayed vote's target is discovered under the dropped decide
        # (loopback window ids equal TCP's).
        dropped = [Fault("drop", win_a, node=node_a, phase="decide")]
        win_b = min(
            window
            for window, nodes in committed_rounds(dropped)
            if node_b in nodes
        )
        plan = FaultPlan(
            dropped + [Fault("delay", win_b, node=node_b, phase="vote")]
        )
        got, snap = run_recoverable(
            txns, log, transport="tcp", fault_plan=plan
        )
        assert report_tuple(got) == report_tuple(base)
        # Message faults are coordinator-side: consumption is visible
        # on the local plan object even over TCP.
        assert plan.pending() == 0, plan.faults()
        assert snap["parallel"]["ipc"]["node_restarts"] >= 1


# ----------------------------------------------------------------------
# Frozen recovery corpus (drift tests)
# ----------------------------------------------------------------------
def _load_recovery_case(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


class TestRecoveryCorpus:
    def test_corpus_present(self):
        assert len(RECOVERY_CASES) >= 2

    @pytest.mark.parametrize(
        "path", RECOVERY_CASES, ids=lambda p: p.stem
    )
    def test_report_and_counters_are_frozen(self, path):
        from repro.model.log import Log

        case = _load_recovery_case(path)
        log = Log.parse(case["log"])
        txns = list(log.transactions.values())
        plan = FaultPlan.from_dict(case["plan"])
        got, snap = run_recoverable(
            txns,
            log,
            n_shards=case["n_shards"],
            nodes=case["nodes"],
            window=case["window"],
            fault_plan=plan,
        )
        expect = case["expect"]
        assert sorted(got.committed) == expect["committed"]
        assert sorted(got.failed) == expect["failed"]
        assert got.restarts == expect["restarts"]
        assert got.ops_executed == expect["ops_executed"]
        assert [str(op) for op in got.committed_ops] == expect[
            "committed_ops"
        ]
        ipc = snap["parallel"]["ipc"]
        for counter, want in expect["ipc"].items():
            assert ipc[counter] == want, counter
        assert plan.pending() == 0, "frozen plan no longer fires fully"

    @pytest.mark.parametrize(
        "path", RECOVERY_CASES, ids=lambda p: p.stem
    )
    def test_frozen_run_still_matches_fault_free(self, path):
        from repro.model.log import Log

        case = _load_recovery_case(path)
        log = Log.parse(case["log"])
        txns = list(log.transactions.values())
        base = baseline(
            txns, log, n_shards=case["n_shards"], window=case["window"]
        )
        got, _snap = run_recoverable(
            txns,
            log,
            n_shards=case["n_shards"],
            nodes=case["nodes"],
            window=case["window"],
            fault_plan=FaultPlan.from_dict(case["plan"]),
        )
        assert report_tuple(got) == report_tuple(base)


# ----------------------------------------------------------------------
# Frozen windowed-lane corpus (drift test)
# ----------------------------------------------------------------------
WINDOWED_CASES = sorted(CORPUS_DIR.glob("windowed_*.json"))


class TestWindowedCorpus:
    """The ``recovery_*`` cases pin MT(k) over 2PC only; these pin the
    windowed lane's parks, cascades, failures and epoch resets on the
    in-process plane: every report field, every executor counter and
    the ``ipc`` block."""

    def test_corpus_present(self):
        assert len(WINDOWED_CASES) >= 3

    @pytest.mark.parametrize(
        "path", WINDOWED_CASES, ids=lambda p: p.stem
    )
    def test_report_stats_and_ipc_are_frozen(self, path):
        from repro.model.log import Log

        case = _load_recovery_case(path)
        log = Log.parse(case["log"])
        with TransactionService(**case["service"]) as service:
            service.submit_programs(log.transactions.values())
            got = service.run(schedule=log)
            stats = dict(service.executor.stats)
            ipc = service.stage_snapshot()["parallel"]["ipc"]
        expect = case["expect"]
        assert sorted(got.committed) == expect["committed"]
        assert sorted(got.failed) == expect["failed"]
        for field in (
            "restarts",
            "ops_executed",
            "ops_reexecuted",
            "ignored_writes",
            "undo_count",
        ):
            assert getattr(got, field) == expect[field], field
        assert [str(op) for op in got.committed_ops] == expect[
            "committed_ops"
        ]
        assert stats == expect["stats"]
        assert ipc == expect["ipc"]
