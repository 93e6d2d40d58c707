"""Serializability class membership (Definitions 2-5, Fig. 4).

Names load on first access (:mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    (
        ".membership",
        (
            "INITIAL",
            "is_dsr",
            "dsr_order",
            "is_ssr",
            "precedence_pairs",
            "reads_from",
            "final_writers",
            "is_view_equivalent",
            "is_view_serializable",
            "view_serializability",
            "Verdict",
            "ViewSerializabilityUnknown",
        ),
    ),
    (".two_pl", ("is_two_pl",)),
    (
        ".to",
        (
            "is_tok",
            "to_memberships",
            "is_to1_declarative",
            "first_positions",
            "saturation_dimension",
        ),
    ),
    (
        ".hierarchy",
        (
            "ClassMembership",
            "CensusResult",
            "InconsistentMembership",
            "REGION_NAMES",
            "canonical_logs",
            "census",
            "classify",
            "region_of",
        ),
    ),
)
