"""The staged execution pipeline: session → admission → shard → storage.

Stage map (one dispatched operation, left to right)::

    Session/TransactionService        (sessions.py)   client programs
      └─> AdmissionQueue + RetryPolicy (admission.py)  batching, bounds,
            └─> ShardSet + ShardRouter (shard.py)      backoff
                  └─> MT(k)/DMT(k) scheduler           partitioned,
                        └─> StorageBackend + UndoLog   cross-shard DSR

:class:`PipelineExecutor` (service.py) drives the stages; the legacy
``repro.engine.executor.TransactionExecutor`` is a thin compatibility
subclass of it.
"""

from .admission import (
    AdmissionQueue,
    CappedBackoff,
    GlobalRestart,
    ImmediateRetry,
    POLICIES,
    RetryPolicy,
    resolve_policy,
)
from .faults import Fault, FaultPlan, NodeCrash, random_plan
from .parallel import (
    DEFAULT_WINDOW,
    ParallelExecutionError,
    ParallelShardSet,
    ShardEngine,
)
from .recovery import DataNode, RecoverableShardSet
from .report import ExecutionReport
from .transport import (
    LoopbackTransport,
    NodeFailure,
    TcpTransport,
    default_start_method,
)
from .router import ShardRouter, stable_hash
from .service import PipelineExecutor
from .sessions import Session, SessionError, TransactionService
from .shard import Shard, ShardSet, ShardSpec

__all__ = [
    "AdmissionQueue",
    "CappedBackoff",
    "DataNode",
    "DEFAULT_WINDOW",
    "default_start_method",
    "ExecutionReport",
    "Fault",
    "FaultPlan",
    "GlobalRestart",
    "ImmediateRetry",
    "LoopbackTransport",
    "NodeCrash",
    "NodeFailure",
    "ParallelExecutionError",
    "ParallelShardSet",
    "random_plan",
    "RecoverableShardSet",
    "TcpTransport",
    "PipelineExecutor",
    "POLICIES",
    "RetryPolicy",
    "resolve_policy",
    "Session",
    "SessionError",
    "Shard",
    "ShardEngine",
    "ShardRouter",
    "ShardSet",
    "ShardSpec",
    "stable_hash",
    "TransactionService",
]
