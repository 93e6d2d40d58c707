"""Observability: metrics registry and event tracing.

This package is the machine-readable side of the reproduction.  Every
scheduler and the transaction executor report into a
:class:`~repro.obs.metrics.MetricsRegistry` through the shared
:class:`~repro.obs.instrument.Instrumented` mixin and emit structured
:class:`~repro.obs.trace.TraceEvent` records into a ring buffer.  The
repository's benchmark (``benchmarks/perf/run.py``) reads these
counters after each pass.

The package imports nothing from :mod:`repro.core` or
:mod:`repro.engine`, so the core protocol layer can depend on it
without cycles.
"""

from .instrument import Instrumented
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, StatsView
from .trace import EventTrace, TraceEvent

__all__ = [
    "Counter",
    "EventTrace",
    "Gauge",
    "Histogram",
    "Instrumented",
    "MetricsRegistry",
    "StatsView",
    "TraceEvent",
]
