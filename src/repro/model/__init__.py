"""Transaction/log model substrate (Section II of the paper).

Names load on first access (:mod:`repro._lazy`): the serializers pull in
:mod:`repro.core.protocol`, which nothing else here needs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ".operations",
        ("OpKind", "Operation", "Transaction", "read", "write", "two_step", "multi_step"),
    ),
    (".log", ("Log", "serial_permutations")),
    (".dependency", ("DependencyEdge", "DependencyGraph", "dependency_pairs")),
    (
        ".generator",
        (
            "WorkloadSpec",
            "generate_transactions",
            "interleave",
            "random_log",
            "random_logs",
            "all_interleavings",
            "enumerate_two_step_systems",
            "enumerate_small_logs",
        ),
    ),
    (
        ".serialize",
        (
            "log_to_dict",
            "log_from_dict",
            "log_to_json",
            "log_from_json",
            "run_result_to_dict",
            "run_result_to_json",
        ),
    ),
)
