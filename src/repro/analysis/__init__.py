"""Analysis harnesses: degree of concurrency, complexity, reporting."""

from .concurrency import (
    AcceptanceRow,
    acceptance_by_dimension,
    acceptance_table,
    containment_matrix,
)
from .complexity import (
    CostSample,
    linearity_ratio,
    measure_cost,
    speedup_bound,
    sweep,
)
from .report import render_table, render_vector, render_vector_table

__all__ = [
    "AcceptanceRow",
    "acceptance_table",
    "containment_matrix",
    "acceptance_by_dimension",
    "CostSample",
    "measure_cost",
    "sweep",
    "linearity_ratio",
    "speedup_bound",
    "render_table",
    "render_vector",
    "render_vector_table",
]

from .certificate import (
    CertificateError,
    serializability_numbers,
    verify_certificate,
    verify_definition5_ranges,
)
from .partial_order import (
    incomparable_fraction,
    mean_incomparable_fraction,
    ordered_and_incomparable_pairs,
)

__all__ += [
    "CertificateError",
    "serializability_numbers",
    "verify_certificate",
    "verify_definition5_ranges",
    "incomparable_fraction",
    "mean_incomparable_fraction",
    "ordered_and_incomparable_pairs",
]

from .invariants import (
    InvariantViolation,
    check_all,
    check_chains_live,
    check_contiguous_prefixes,
    check_distinct_last_column,
    check_indices_live,
    check_strict_partial_order,
)

__all__ += [
    "InvariantViolation",
    "check_all",
    "check_chains_live",
    "check_contiguous_prefixes",
    "check_distinct_last_column",
    "check_indices_live",
    "check_strict_partial_order",
]
