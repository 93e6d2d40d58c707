"""repro: multidimensional timestamp protocols for concurrency control.

A complete reproduction of Leu & Bhargava, "Multidimensional Timestamp
Protocols for Concurrency Control" (ICDE 1986 / Purdue CSD-TR-521).
"""

__version__ = "1.0.0"

from .model import Log, Operation, OpKind, Transaction, read, write, two_step
from .core import (
    Decision,
    DecisionStatus,
    MTkScheduler,
    Ordering,
    Scheduler,
    TimestampVector,
    UNDEFINED,
    compare,
)

__all__ = [
    "__version__",
    "Log",
    "Operation",
    "OpKind",
    "Transaction",
    "read",
    "write",
    "two_step",
    "Decision",
    "DecisionStatus",
    "MTkScheduler",
    "Ordering",
    "Scheduler",
    "TimestampVector",
    "UNDEFINED",
    "compare",
]

from .core import (
    DMTkScheduler,
    HierarchicalScheduler,
    MTkStarScheduler,
    NestedScheduler,
)
from .classes import classify, region_of, census
from .engine import (
    ConventionalTOScheduler,
    IntervalScheduler,
    OptimisticScheduler,
    StrictTwoPLScheduler,
)

__all__ += [
    "MTkStarScheduler",
    "NestedScheduler",
    "HierarchicalScheduler",
    "DMTkScheduler",
    "classify",
    "region_of",
    "census",
    "ConventionalTOScheduler",
    "StrictTwoPLScheduler",
    "OptimisticScheduler",
    "IntervalScheduler",
]

from .core import MVMTkScheduler

__all__ += ["MVMTkScheduler"]

from .engine import PipelineExecutor, Session, TransactionService

__all__ += ["PipelineExecutor", "Session", "TransactionService"]
