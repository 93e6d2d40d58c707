"""repro: multidimensional timestamp protocols for concurrency control.

A complete reproduction of Leu & Bhargava, "Multidimensional Timestamp
Protocols for Concurrency Control" (ICDE 1986 / Purdue CSD-TR-521).

Every exported name is loaded on first access (:mod:`repro._lazy`):
``from repro import TransactionService`` compiles the pipeline, not the
class census or the baselines.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ".model",
        ("Log", "Operation", "OpKind", "Transaction", "read", "write", "two_step"),
    ),
    (
        ".core",
        (
            "Decision",
            "DecisionStatus",
            "MTkScheduler",
            "Ordering",
            "Scheduler",
            "TimestampVector",
            "UNDEFINED",
            "compare",
            "MTkStarScheduler",
            "NestedScheduler",
            "HierarchicalScheduler",
            "DMTkScheduler",
        ),
    ),
    (".classes", ("classify", "region_of", "census")),
    (
        ".engine",
        (
            "ConventionalTOScheduler",
            "StrictTwoPLScheduler",
            "OptimisticScheduler",
            "IntervalScheduler",
        ),
    ),
    (".core", ("MVMTkScheduler",)),
    (".engine", ("PipelineExecutor", "Session", "TransactionService")),
)
__all__.insert(0, "__version__")
