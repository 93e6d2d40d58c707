"""Core protocols: MT(k), MT(k*), MT(k1,k2), DMT(k) and supporting machinery.

Names load on first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ".timestamp",
        (
            "Comparison",
            "Counters",
            "Element",
            "Ordering",
            "SiteTaggedCounters",
            "TimestampVector",
            "UNDEFINED",
            "compare",
            "is_greater",
            "is_less",
            "render_snapshot",
        ),
    ),
    (
        ".table",
        (
            "AccessFrequencyTracker",
            "EncodingPolicy",
            "NormalEncoding",
            "OptimizedEncoding",
            "SetOutcome",
            "TimestampTable",
            "VIRTUAL_TXN",
        ),
    ),
    (
        ".protocol",
        ("Decision", "DecisionStatus", "RunResult", "Scheduler", "acceptance_count"),
    ),
    (".mtk", ("MTkScheduler",)),
    (
        ".vector_processor",
        (
            "ParallelResult",
            "VectorComparator",
            "parallel_step_bound",
            "prefix_or_steps",
            "sequential_step_count",
        ),
    ),
    (".composite", ("MTkStarScheduler",)),
    (
        ".nested",
        (
            "GroupPath",
            "HierarchicalScheduler",
            "NestedScheduler",
            "groups_by_read_write_sets",
            "groups_by_site",
            "single_level",
        ),
    ),
    (".distributed", ("DMTkScheduler",)),
    (".multiversion", ("MVMTkScheduler",)),
)
