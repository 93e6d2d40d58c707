"""Execution engine: executor, baseline schedulers, rollback machinery."""

from ..core.protocol import (
    Decision,
    DecisionStatus,
    RunResult,
    Scheduler,
    acceptance_count,
)
from .pipeline import (
    ExecutionReport,
    PipelineExecutor,
    Session,
    ShardRouter,
    ShardSet,
    ShardSpec,
    TransactionService,
)
from .two_pl_scheduler import StrictTwoPLScheduler
from .to_scheduler import ConventionalTOScheduler
from .optimistic import OptimisticScheduler
from .interval import Interval, IntervalScheduler

__all__ = [
    "Decision",
    "DecisionStatus",
    "RunResult",
    "Scheduler",
    "acceptance_count",
    "ExecutionReport",
    "PipelineExecutor",
    "Session",
    "ShardRouter",
    "ShardSet",
    "ShardSpec",
    "TransactionService",
    "StrictTwoPLScheduler",
    "ConventionalTOScheduler",
    "OptimisticScheduler",
    "Interval",
    "IntervalScheduler",
]

from .adaptive import AdaptationEvent, AdaptiveMTController

__all__ += ["AdaptationEvent", "AdaptiveMTController"]
