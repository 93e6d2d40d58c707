"""Admission stage: work queue and retry policy.

The legacy executor hard-wired its retry story into ``_handle_abort``:
aborted transactions were re-appended at the tail of one flat work list,
immediately, forever.  This module extracts that into two explicit,
pluggable pieces:

* :class:`RetryPolicy` — *when* an aborted transaction re-enters the
  queue.  :class:`ImmediateRetry` reproduces the legacy behaviour
  exactly (delay zero, requeue at the tail); :class:`CappedBackoff`
  delays the retry by ``min(cap, base * factor**(attempt-1))`` ticks of
  *simulated* time (one tick = one operation dispatched), so a repeat
  loser backs off the hot item instead of thrashing; and
  :class:`GlobalRestart` escalates every abort to the Algorithm 2
  epoch-reset path (abort all actives, reinitialize, restart) that the
  composite scheduler forces when it runs out of subprotocols.

* :class:`AdmissionQueue` — *where* admitted work waits: the loaded
  schedule, delayed retries maturing in simulated time, and open-loop
  arrivals.

With no open-loop arrivals and a zero-delay policy the queue is
*plain*: the service then runs the legacy tight loop directly over the
backing list, so the compatibility hot path pays nothing for the stage.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence


class RetryPolicy:
    """When an aborted transaction is readmitted (simulated time)."""

    #: Human-readable policy name (appears in stage snapshots).
    name = "retry"
    #: Escalate every full abort to a global epoch restart.
    global_restart = False
    #: True when :meth:`delay` can return nonzero (disables the plain
    #: fast lane; checked once per run, not per abort).
    delays = False

    def reset(self) -> None:
        """Forget per-run state (called at the start of every run)."""

    def delay(self, txn_id: int, attempt: int) -> int:
        """Ticks of simulated time before attempt *attempt* re-enters
        the queue.  One tick elapses per dispatched operation."""
        return 0


class ImmediateRetry(RetryPolicy):
    """The legacy behaviour: requeue at the tail, right now."""

    name = "immediate"


class CappedBackoff(RetryPolicy):
    """Exponential backoff in simulated time, capped.

    ``delay = min(cap, base * factor**(attempt-1))`` — attempt 1 (the
    first retry) waits ``base`` ticks, doubling per further attempt by
    default.  Deterministic: no jitter, the seeded admission order
    already de-synchronizes contenders.
    """

    name = "capped-backoff"
    delays = True

    def __init__(self, base: int = 1, factor: int = 2, cap: int = 8) -> None:
        if base < 0 or factor < 1 or cap < 0:
            raise ValueError("need base >= 0, factor >= 1, cap >= 0")
        self.base = base
        self.factor = factor
        self.cap = cap

    def delay(self, txn_id: int, attempt: int) -> int:
        return min(self.cap, self.base * self.factor ** max(0, attempt - 1))


class GlobalRestart(RetryPolicy):
    """Escalate any abort to the Algorithm 2 step 4 i) epoch reset."""

    name = "global-restart"
    global_restart = True


#: Resolve a policy given by name (used by bench scenario kwargs, which
#: must stay picklable across the process-pool fan-out).
POLICIES = {
    "immediate": ImmediateRetry,
    "capped-backoff": CappedBackoff,
    "global-restart": GlobalRestart,
}


def resolve_policy(policy: RetryPolicy | str | None) -> RetryPolicy:
    if policy is None:
        return ImmediateRetry()
    if isinstance(policy, str):
        try:
            return POLICIES[policy]()
        except KeyError:
            raise ValueError(
                f"unknown retry policy {policy!r}; known: {sorted(POLICIES)}"
            ) from None
    return policy


class AdmissionQueue:
    """The pipeline's work queue: the schedule plus delayed retries.

    The queue dispenses *transaction ids*; one id is consumed per
    operation dispatched (the paper's executor model).  Simulated time
    is the number of :meth:`pop` calls that returned work.
    """

    def __init__(self, retry_policy: RetryPolicy | str | None = None) -> None:
        self.retry_policy = resolve_policy(retry_policy)
        self.begin(())

    # ------------------------------------------------------------------
    @property
    def is_plain(self) -> bool:
        """True when the queue degenerates to the legacy flat list (the
        service then runs its inline fast lane over it)."""
        return not self._open_loop and not self.retry_policy.delays

    # ------------------------------------------------------------------
    def begin(self, txn_ids: Sequence[int]) -> None:
        """Load a fresh schedule; resets every statistic and clock."""
        self.retry_policy.reset()
        self._queue: list[int] = list(txn_ids)
        self._pointer = 0
        self._tick = 0
        self._seq = 0
        self._delayed: list[tuple[int, int, int]] = []  # (ready, seq, txn)
        self.admitted = len(self._queue)
        self.retries = 0
        self.delayed_retries = 0
        self.max_depth = len(self._queue)
        self._open_loop = False
        self._arrivals: dict[int, int] = {}
        self._latencies: list[int] = []

    def begin_open_loop(
        self, entries: Iterable[tuple[int, int, int]]
    ) -> None:
        """Load an **open-loop** schedule: *entries* are
        ``(txn_id, num_operations, arrival_tick)`` triples; each
        transaction's operation entries mature at ``arrival + offset``
        ticks of simulated time (one tick = one dispatched operation),
        Poisson or otherwise — the caller owns the arrival process.

        Entries land in the delayed heap directly, so loading is
        O(n log n) regardless of schedule length (no interleaving pass),
        and :meth:`pop` idles the clock across arrival gaps exactly as
        it does for delayed retries.  Commit latency (``tick - arrival``)
        is recorded per transaction via :meth:`note_commit`."""
        self.begin(())
        self._open_loop = True
        arrivals = self._arrivals
        total = 0
        for txn_id, count, arrival in sorted(
            entries, key=lambda entry: (entry[2], entry[0])
        ):
            arrivals[txn_id] = arrival
            for offset in range(count):
                self._seq += 1
                heapq.heappush(
                    self._delayed, (arrival + offset, self._seq, txn_id)
                )
            total += count
        self.admitted = total

    def note_commit(self, txn_id: int) -> None:
        """Record a commit's simulated-time latency (open-loop runs
        only; a no-op otherwise, so the service calls unconditionally)."""
        if not self._open_loop:
            return
        arrival = self._arrivals.get(txn_id)
        if arrival is not None:
            self._latencies.append(self._tick - arrival)

    @property
    def latencies(self) -> list[int]:
        """Commit latencies in ticks, in commit order (open-loop runs)."""
        return self._latencies

    # ------------------------------------------------------------------
    def backing_list(self) -> list[int]:
        """Plain fast lane: the raw backing list, schedule preloaded."""
        if not self.is_plain:
            raise RuntimeError("backing_list() is only valid on plain queues")
        return self._queue

    def note_depth(self, depth: int) -> None:
        """Record a live-depth observation (fast-lane cold paths)."""
        if depth > self.max_depth:
            self.max_depth = depth

    def note_retry(self, delayed: bool = False) -> None:
        """Count one retry admission (fast-lane cold paths)."""
        self.retries += 1
        if delayed:
            self.delayed_retries += 1

    # ------------------------------------------------------------------
    def _release_ready(self) -> None:
        delayed = self._delayed
        tick = self._tick
        while delayed and delayed[0][0] <= tick:
            _, _, txn_id = heapq.heappop(delayed)
            self._queue.append(txn_id)
        self.note_depth(len(self._queue) - self._pointer)

    # ------------------------------------------------------------------
    def pop(self) -> int | None:
        """Next transaction id, or ``None`` when all work has drained."""
        if self._delayed and self._delayed[0][0] <= self._tick:
            self._release_ready()
        while True:
            if self._pointer < len(self._queue):
                txn_id = self._queue[self._pointer]
                self._pointer += 1
                self._tick += 1
                return txn_id
            if self._delayed:
                # Idle until the earliest delayed retry matures.
                self._tick = max(self._tick, self._delayed[0][0])
                self._release_ready()
                continue
            return None

    # ------------------------------------------------------------------
    # Requeue surface (shared with the legacy list in the fast lane:
    # extend has list semantics; ``requeue`` applies the policy).
    def extend(self, txn_ids: Iterable[int]) -> None:
        self._queue.extend(txn_ids)
        self.note_depth(len(self._queue) - self._pointer)

    def requeue(self, txn_id: int, count: int, attempt: int) -> None:
        """Readmit a retried transaction (*count* queue entries) after
        the policy's delay in simulated time."""
        delay = self.retry_policy.delay(txn_id, attempt)
        self.retries += 1
        if delay <= 0:
            self.extend([txn_id] * count)
            return
        self.delayed_retries += 1
        ready = self._tick + delay
        for _ in range(count):
            self._seq += 1
            heapq.heappush(self._delayed, (ready, self._seq, txn_id))

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Live entries awaiting dispatch."""
        return len(self._queue) - self._pointer + len(self._delayed)

    def snapshot(self) -> dict[str, int | str]:
        """Stage metrics for ``ExecutionReport`` consumers and bench v2."""
        snapshot: dict[str, int | str] = {
            "policy": self.retry_policy.name,
            "admitted": self.admitted,
            "retries": self.retries,
            "delayed_retries": self.delayed_retries,
            # Nothing bounds the queue; the key stays because the perf
            # harness's ledger reads it (ADMISSION_COUNTERS).
            "waits": 0,
            "max_queue_depth": self.max_depth,
        }
        if self._open_loop:
            latencies = sorted(self._latencies)
            snapshot["open_loop"] = 1
            snapshot["completed"] = len(latencies)
            snapshot["latency_p50"] = _percentile(latencies, 0.50)
            snapshot["latency_p99"] = _percentile(latencies, 0.99)
            snapshot["latency_max"] = latencies[-1] if latencies else 0
        return snapshot


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile over pre-sorted simulated-time ticks."""
    if not sorted_values:
        return 0
    rank = max(1, -(-int(q * 1000) * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]
