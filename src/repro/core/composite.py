"""The composite protocol MT(k*) — Algorithm 2 of Section IV.

MT(k*) recognizes ``TO(k+) = TO(1) | TO(2) | ... | TO(k)``: it runs the
subprotocols MT(1)..MT(k) conceptually in parallel and accepts an operation
as long as *some* still-running subprotocol can encode the new dependency.
Because Theorem 5 shows the vector prefixes of co-accepting subprotocols
stay equal, the implementation shares storage:

* ``PREFIX`` — columns ``1..k-1``; column ``h`` is element ``h`` of the
  vectors of every subprotocol MT(h+1)..MT(k).  Values here may repeat
  (several vectors may be equal in a prefix column).
* ``LASTCOL`` — columns ``1..k``; column ``h`` is the *last* element of
  MT(h)'s vectors and draws from MT(h)'s own ``ucount``/``lcount`` pair, so
  its defined values are all distinct.

Scheduling an operation of ``T_i`` on ``x`` finds ``j`` — the most recently
accepted accessor of ``x`` (with subprotocols run without the lines 9-10
read fallback, log order and vector order agree for every live
subprotocol, so a single shared ``RT``/``WT`` map suffices) — and walks the
columns:

* **step 2** (column ``h`` of LASTCOL, subprotocol MT(h)): if MT(h) is
  still running, the dependency is checked/encoded in its last column; a
  contradiction *stops MT(h)* instead of aborting the transaction.
* **step 3** (column ``h`` of PREFIX, subprotocols MT(h+1)..MT(k)): an
  existing opposite order stops them all; an encodable pair is encoded and
  the walk ends; an *equal* defined pair moves the walk to column ``h+1``.

If every subprotocol has stopped, the operation is rejected and — per
step 4 of Algorithm 2 — the whole schedule fails: all active transactions
must be aborted and restarted from scratch (the executor handles the
restart; as a recognizer the log is simply not in ``TO(k+)``).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..model.operations import Operation
from ..obs.instrument import Instrumented
from .protocol import Decision, DecisionStatus, Scheduler
from .table import VIRTUAL_TXN
from .timestamp import Counters, Element, UNDEFINED


class MTkStarScheduler(Instrumented, Scheduler):
    """The composite scheduler MT(k*) recognizing ``TO(1) | ... | TO(k)``."""

    def __init__(self, k: int, trace: bool = False) -> None:
        if k < 1:
            raise ValueError("vector size k must be at least 1")
        self.k = k
        self.trace = trace
        self.name = f"MT({k}*)"
        self.init_observability(
            self.name, counters=("stopped_subprotocols",)
        )
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        # PREFIX has k-1 columns, LASTCOL has k columns (1-based access).
        # Rows are keyed by transaction id; a row exists once the
        # transaction is first seen.
        self._prefix: dict[int, list[Element]] = {
            VIRTUAL_TXN: [UNDEFINED] * (self.k - 1)
        }
        self._lastcol: dict[int, list[Element]] = {
            VIRTUAL_TXN: [UNDEFINED] * self.k
        }
        # The virtual T0's vector is <0, *, ..., *> under every subprotocol:
        # element 1 is PREFIX(1) for MT(2).. and LASTCOL(1) for MT(1).
        if self.k > 1:
            self._prefix[VIRTUAL_TXN][0] = 0
        self._lastcol[VIRTUAL_TXN][0] = 0
        #: one counter pair per LASTCOL column (per subprotocol).
        self._counters = [Counters() for _ in range(self.k)]
        self.active: list[bool] = [True] * self.k  # index h-1 <-> MT(h)
        self._rt: dict[str, tuple[int, int]] = {}  # item -> (txn, seq)
        self._wt: dict[str, tuple[int, int]] = {}
        self._seq = 0
        self.failed = False
        self.live_txns: set[int] = set()
        self.reset_observability()

    # ------------------------------------------------------------------
    # Row access helpers
    # ------------------------------------------------------------------
    def _rows(self, txn: int) -> tuple[list[Element], list[Element]]:
        row = self._prefix.get(txn)
        if row is None:
            row = self._prefix[txn] = [UNDEFINED] * (self.k - 1)
            self._lastcol[txn] = [UNDEFINED] * self.k
        return row, self._lastcol[txn]

    def surviving_protocols(self) -> list[int]:
        """Dimensions ``h`` whose subprotocol MT(h) is still running."""
        return [h for h, alive in enumerate(self.active, start=1) if alive]

    def subprotocol_vector(self, txn: int, h: int) -> tuple[Element, ...]:
        """MT(h)'s view of ``TS(txn)``: PREFIX(1..h-1) + LASTCOL(h)."""
        if not 1 <= h <= self.k:
            raise ValueError(f"no subprotocol MT({h}) inside MT({self.k}*)")
        prefix, lastcol = self._rows(txn)
        return tuple(prefix[: h - 1]) + (lastcol[h - 1],)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _process(self, op: Operation) -> Decision:
        if op.txn == VIRTUAL_TXN:
            raise ValueError("transaction id 0 is reserved for the virtual T0")
        if self.failed:
            return Decision(
                DecisionStatus.REJECT, op, "composite scheduler failed"
            )
        i, x = op.txn, op.item
        j = self._latest_accessor(x)
        if self._encode_dependency(j, i):
            self._seq += 1
            if op.kind.is_read:
                self._rt[x] = (i, self._seq)
            else:
                self._wt[x] = (i, self._seq)
            self.live_txns.add(i)
            return Decision(DecisionStatus.ACCEPT, op)
        # Step 4 i): every subprotocol has stopped — abort all and rollback.
        self.failed = True
        if self.events.enabled:
            self.events.emit("global_restart", txn=i, item=x)
        return Decision(
            DecisionStatus.REJECT,
            op,
            "all subprotocols stopped; abort all active transactions",
        )

    def _latest_accessor(self, item: str) -> int:
        rt_txn, rt_seq = self._rt.get(item, (VIRTUAL_TXN, 0))
        wt_txn, wt_seq = self._wt.get(item, (VIRTUAL_TXN, 0))
        return wt_txn if wt_seq > rt_seq else rt_txn

    # ------------------------------------------------------------------
    # The Algorithm 2 column walk
    # ------------------------------------------------------------------
    def _encode_dependency(self, j: int, i: int) -> bool:
        """Record ``T_j -> T_i`` under every surviving subprotocol; returns
        whether at least one subprotocol survives afterwards."""
        if j == i:
            return True
        prefix_j, lastcol_j = self._rows(j)
        prefix_i, lastcol_i = self._rows(i)
        h = 1
        while True:
            # -- step 2: LASTCOL(h), the last column of subprotocol MT(h).
            if self.active[h - 1]:
                self._encode_lastcol(lastcol_j, lastcol_i, h)
            # -- step 3: PREFIX(h), shared by MT(h+1)..MT(k).
            if h == self.k:
                break
            if not any(self.active[h:]):
                break
            pa, pb = prefix_j[h - 1], prefix_i[h - 1]
            if pa is not UNDEFINED and pb is not UNDEFINED:
                if pa < pb:
                    break  # already encoded for every MT(h+1)..MT(k)
                if pa > pb:
                    self._stop_range(h + 1)  # case iii: prefix invalid
                    break
                h += 1  # case v: equal — walk to the next column
                continue
            # case iv: encodable — normal non-counter rules.
            if pa is UNDEFINED and pb is UNDEFINED:
                prefix_j[h - 1] = 1
                prefix_i[h - 1] = 2
            elif pb is UNDEFINED:
                prefix_i[h - 1] = pa + 1
            else:
                prefix_j[h - 1] = pb - 1
            break
        return any(self.active)

    def _encode_lastcol(
        self, lastcol_j: list[Element], lastcol_i: list[Element], h: int
    ) -> None:
        a, b = lastcol_j[h - 1], lastcol_i[h - 1]
        counters = self._counters[h - 1]
        if a is not UNDEFINED and b is not UNDEFINED:
            if a > b:  # case ii: contradiction — stop MT(h)
                self.active[h - 1] = False
                self.metrics.inc("stopped_subprotocols")
                if self.events.enabled:
                    self.events.emit("subprotocol_stop", h=h, cause="lastcol")
            # a < b: case iii "has been encoded" — nothing to do.  a == b is
            # impossible: defined values in a LASTCOL column are distinct.
        elif a is UNDEFINED and b is UNDEFINED:
            lastcol_j[h - 1] = counters.fresh_upper()
            lastcol_i[h - 1] = counters.fresh_upper()
        elif b is UNDEFINED:
            lastcol_i[h - 1] = counters.fresh_upper()
        else:
            lastcol_j[h - 1] = counters.fresh_lower()

    def _stop_range(self, first_h: int) -> None:
        for h in range(first_h, self.k + 1):
            if self.active[h - 1]:
                self.active[h - 1] = False
                self.metrics.inc("stopped_subprotocols")
                if self.events.enabled:
                    self.events.emit("subprotocol_stop", h=h, cause="prefix")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table_snapshot(self) -> Mapping[int, tuple[Any, ...]] | None:
        """Rows rendered as PREFIX + LASTCOL concatenations (tracing)."""
        if not self.trace:
            return None
        return {
            txn: tuple(prefix) + tuple(self._lastcol[txn])
            for txn, prefix in sorted(self._prefix.items())
        }
