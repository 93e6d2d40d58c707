"""The staged execution pipeline: session → admission → shard → storage.

Stage map (one dispatched operation, left to right)::

    Session/TransactionService        (sessions.py)   client programs
      └─> AdmissionQueue + RetryPolicy (admission.py)  arrivals, backoff
            └─> ShardSet + ShardRouter (shard.py)      partitioned,
                  └─> MT(k)/DMT(k) scheduler           cross-shard DSR
                        └─> StorageBackend + UndoLog

:class:`PipelineExecutor` (service.py) drives the stages.  Names load on
first access (:mod:`repro._lazy`), so a one-shard run never compiles the
windowed plane (parallel.py) or the 2PC data nodes (recovery.py,
transport.py).
"""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ".admission",
        (
            "AdmissionQueue",
            "CappedBackoff",
            "GlobalRestart",
            "ImmediateRetry",
            "POLICIES",
            "RetryPolicy",
            "resolve_policy",
        ),
    ),
    (".faults", ("Fault", "FaultPlan", "NodeCrash", "random_plan")),
    (
        ".parallel",
        (
            "DEFAULT_WINDOW",
            "ParallelExecutionError",
            "ParallelShardSet",
            "ShardEngine",
        ),
    ),
    (".recovery", ("DataNode", "RecoverableShardSet")),
    (".report", ("ExecutionReport",)),
    (
        ".transport",
        ("LoopbackTransport", "NodeFailure", "TcpTransport", "default_start_method"),
    ),
    (".router", ("ShardRouter", "stable_hash")),
    (".service", ("PipelineExecutor",)),
    (".sessions", ("Session", "SessionError", "TransactionService")),
    (".shard", ("Shard", "ShardSet", "ShardSpec")),
)
