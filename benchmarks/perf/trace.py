"""Span tracing from outside the program.

The benchmark may not edit ``src/``, so the per-layer numbers come from
wrappers this module installs on the layers' methods (as class or module
attributes) for the length of one traced pass and then removes again.
A span is ``(id, name, start_ns, end_ns, parent id)`` on the
``perf_counter_ns`` clock; nesting comes from a stack kept here.  Per
name the tracer keeps exact totals for the whole pass — calls, total
time and *self* time (the span minus the spans it caused) — and the
first :data:`RAW_SPAN_LIMIT` spans verbatim.

A wrapper costs about a microsecond, which is why the end-to-end metrics
come from untraced passes and the tracing overhead is reported beside
the layer numbers.  Methods that are called thousands of times per
abort (``ComparisonCache.compare``) get a count-only wrapper without a
clock read.  A target that a later change renames or removes is skipped:
its metrics read 0 and its name is listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator, NamedTuple

#: Raw spans kept per traced pass (aggregates cover every span).
RAW_SPAN_LIMIT = 20_000


class Patch(NamedTuple):
    """One wrapper: *span* is ``layer.operation``; *owner* a class name,
    or ``None`` for a module-level function; *mode* ``"span"`` (timed,
    nested), ``"count"`` (calls only) or ``"bytes"`` (a span that also
    adds up ``len(result)``)."""

    span: str
    module: str
    owner: str | None
    attribute: str
    mode: str = "span"


_PIPELINE = "repro.engine.pipeline"

#: Every layer boundary the benchmark watches.  Several targets may share
#: a span name (an override and its base, or two transports of one seam).
PATCHES: tuple[Patch, ...] = (
    Patch("sessions.submit", f"{_PIPELINE}.sessions", "TransactionService", "submit_programs"),
    Patch("sessions.run", f"{_PIPELINE}.sessions", "TransactionService", "run"),
    Patch("service.execute", f"{_PIPELINE}.service", "PipelineExecutor", "execute"),
    Patch("service.reset", "repro.core.mtk", "MTkScheduler", "reset"),
    Patch("service.reset", "repro.core.multiversion", "MultiversionMixin", "reset"),
    Patch("service.reset", "repro.core.distributed", "DMTkScheduler", "reset"),
    Patch("admission.begin", f"{_PIPELINE}.admission", "AdmissionQueue", "begin"),
    Patch("admission.begin", f"{_PIPELINE}.admission", "AdmissionQueue", "begin_open_loop"),
    Patch("admission.pop", f"{_PIPELINE}.admission", "AdmissionQueue", "pop"),
    Patch("admission.requeue", f"{_PIPELINE}.admission", "AdmissionQueue", "requeue"),
    Patch("scheduler.process", "repro.core.protocol", "Scheduler", "process"),
    Patch("scheduler.abort", "repro.core.mtk", "MTkScheduler", "_abort"),
    Patch("scheduler.restart", "repro.core.mtk", "MTkScheduler", "restart"),
    Patch("scheduler.restart", "repro.core.multiversion", "MultiversionMixin", "cascade_restart"),
    Patch("scheduler.commit", "repro.core.mtk", "MTkScheduler", "commit"),
    Patch("table.order_after_latest", "repro.core.table", "TimestampTable", "order_after_latest"),
    Patch("table.set_less", "repro.core.table", "TimestampTable", "set_less"),
    Patch("table.compare_vectors", "repro.core.table", "TimestampTable", "compare_vectors"),
    Patch("timestamp.compare", "repro.core.timestamp", "ComparisonCache", "compare", "count"),
    Patch("mvcc.resolve_read", "repro.core.mvcc", "VisibilityEngine", "resolve_read"),
    Patch("mvcc.resolve_write", "repro.core.mvcc", "VisibilityEngine", "resolve_write"),
    Patch("mvcc.classify_reader", "repro.core.mvcc", "VisibilityEngine", "classify_reader"),
    Patch("mvcc.retract", "repro.core.multiversion", "MultiversionMixin", "prune_aborted"),
    Patch("mvcc.gc", "repro.core.multiversion", "MultiversionMixin", "collect_chain_garbage"),
    Patch("storage.read", "repro.storage.database", "Database", "read"),
    Patch("storage.write", "repro.storage.database", "Database", "write"),
    Patch("storage.rollback", "repro.storage.wal", "UndoLog", "rollback"),
    Patch("router.shard_of_item", f"{_PIPELINE}.router", "ShardRouter", "shard_of_item", "count"),
    Patch("parallel.run_window", f"{_PIPELINE}.parallel", "ParallelShardSet", "run_window"),
    Patch("parallel.run_window", f"{_PIPELINE}.recovery", "RecoverableShardSet", "run_window"),
    Patch("parallel.engine", f"{_PIPELINE}.parallel", "ShardEngine", "apply_rows"),
    Patch("parallel.engine", f"{_PIPELINE}.parallel", "ShardEngine", "apply_command"),
    Patch("parallel.engine", f"{_PIPELINE}.parallel", "ShardEngine", "run_batch"),
    Patch("parallel.engine", f"{_PIPELINE}.parallel", "ShardEngine", "collect_reply"),
    Patch("transport.send", f"{_PIPELINE}.transport", "LoopbackTransport", "send"),
    Patch("transport.recv", f"{_PIPELINE}.transport", "LoopbackTransport", "recv"),
    Patch("transport.encode", f"{_PIPELINE}.transport", None, "encode_payload", "bytes"),
    Patch("transport.decode", f"{_PIPELINE}.transport", None, "decode_payload"),
    Patch("recovery.node", f"{_PIPELINE}.recovery", "DataNode", "handle"),
    Patch("wal.append", "repro.storage.wal", "DurableLog", "append"),
)


class SpanTotals:
    """Exact per-name aggregates over one traced pass."""

    __slots__ = ("calls", "total_ns", "child_ns", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.bytes = 0

    @property
    def self_s(self) -> float:
        return (self.total_ns - self.child_ns) / 1e9


#: What a span name nobody recorded reads as.
_NO_SPANS = SpanTotals()


class Tracer:
    """Collects spans while :func:`tracing` has its wrappers installed."""

    def __init__(self, raw_limit: int = RAW_SPAN_LIMIT) -> None:
        self.totals: dict[str, SpanTotals] = {}
        self.raw: list[tuple[int, str, int, int, int]] = []
        self.raw_limit = raw_limit
        self.missing: list[str] = []
        self._next_id = 1
        # Frames are [span id, nanoseconds spent in child spans]; the
        # bottom frame stands for the harness so every span has a parent.
        self._stack: list[list[int]] = [[0, 0]]

    # ------------------------------------------------------------------
    def calls(self, span: str) -> int:
        return self.totals.get(span, _NO_SPANS).calls

    def self_s(self, span: str) -> float:
        return self.totals.get(span, _NO_SPANS).self_s

    def bytes(self, span: str) -> int:
        return self.totals.get(span, _NO_SPANS).bytes

    def covered_s(self) -> float:
        """Wall time inside any span (self times never overlap)."""
        return sum(totals.self_s for totals in self.totals.values())

    def dump_raw(self, path: str) -> None:
        """Write the retained raw spans as JSONL."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.raw:
                record = {
                    "id": span_id,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    def _wrap(self, patch: Patch, original: Callable) -> Callable:
        totals = self.totals.setdefault(patch.span, SpanTotals())
        if patch.mode == "count":

            def counted(*args: Any, **kwargs: Any) -> Any:
                totals.calls += 1
                return original(*args, **kwargs)

            return counted

        name = patch.span
        sized = patch.mode == "bytes"
        stack = self._stack
        raw = self.raw
        raw_limit = self.raw_limit
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if sized:
                    totals.bytes += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals.calls += 1
                totals.total_ns += elapsed
                totals.child_ns += frame[1]
                parent[1] += elapsed
                if span_id <= raw_limit:
                    raw.append((span_id, name, start, end, parent[0]))

        return traced


_MISSING = object()


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper of :data:`PATCHES`, and put back exactly
    what was there on the way out (an attribute that was inherited is
    deleted again, not shadowed by a copy)."""
    installed: list[tuple[Any, str, Any]] = []
    try:
        for patch in PATCHES:
            target = _resolve(patch)
            if target is None:
                tracer.missing.append(
                    f"{patch.module}:{patch.owner or ''}.{patch.attribute}"
                )
                continue
            own = vars(target).get(patch.attribute, _MISSING)
            original = getattr(target, patch.attribute)
            setattr(target, patch.attribute, tracer._wrap(patch, original))
            installed.append((target, patch.attribute, own))
        yield tracer
    finally:
        for target, attribute, own in reversed(installed):
            if own is _MISSING:
                delattr(target, attribute)
            else:
                setattr(target, attribute, own)


def _resolve(patch: Patch) -> Any:
    """The class or module holding the patch's attribute, or ``None``."""
    try:
        target = importlib.import_module(patch.module)
    except ImportError:
        return None
    if patch.owner is not None:
        target = getattr(target, patch.owner, None)
    if target is None or not callable(getattr(target, patch.attribute, None)):
        return None
    return target
