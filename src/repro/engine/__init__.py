"""Execution engine: executor, baseline schedulers, rollback machinery.

Names load on first access (:mod:`repro._lazy`): the pipeline never
compiles the 2PL/TO/OCC/interval baselines it does not run.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (
        "..core.protocol",
        ("Decision", "DecisionStatus", "RunResult", "Scheduler", "acceptance_count"),
    ),
    (
        ".pipeline",
        (
            "ExecutionReport",
            "PipelineExecutor",
            "Session",
            "ShardRouter",
            "ShardSet",
            "ShardSpec",
            "TransactionService",
        ),
    ),
    (".two_pl_scheduler", ("StrictTwoPLScheduler",)),
    (".to_scheduler", ("ConventionalTOScheduler",)),
    (".optimistic", ("OptimisticScheduler",)),
    (".interval", ("Interval", "IntervalScheduler")),
    (".adaptive", ("AdaptationEvent", "AdaptiveMTController")),
)
