"""The execution record shared by every pipeline driver.

:class:`ExecutionReport` is the contract between the execution pipeline
and everything downstream of it — benches, the conformance fuzzer, and
the serializability property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...model.log import Log
from ...model.operations import Operation


@dataclass
class ExecutionReport:
    """What an execution did, for the rollback/throughput benches."""

    committed: set[int] = field(default_factory=set)
    failed: set[int] = field(default_factory=set)
    restarts: int = 0
    ops_executed: int = 0
    ops_reexecuted: int = 0  # work thrown away and redone after aborts
    ignored_writes: int = 0
    undo_count: int = 0
    committed_ops: list[Operation] = field(default_factory=list)

    @property
    def committed_log(self) -> Log:
        """The log of performed operations of committed transactions — the
        serializability witness checked by tests."""
        committed = self.committed
        return Log(
            tuple(op for op in self.committed_ops if op.txn in committed)
        )

    def is_serializable(self) -> bool:
        """The committed projection must always be DSR (Theorem 2
        end-to-end)."""
        from ...model.dependency import DependencyGraph

        return not DependencyGraph.of_log(self.committed_log).has_cycle()
