"""The paper's primary contribution: PTSJ and PRETTI+, plus the join API."""

from repro.core.base import (
    CandidateGroup,
    JoinResult,
    JoinStats,
    PairColumns,
    PreparedIndex,
    SetContainmentJoin,
)
from repro.core.framework import (
    SignatureJoinBase,
    SignaturePreparedIndex,
    insert_into_groups,
)
from repro.core.pretti_plus import PRETTIPlus
from repro.core.ptsj import PTSJ
from repro.core.validation import ValidationReport, verify_join_result
from repro.core.registry import (
    ALGORITHMS,
    available_algorithms,
    choose_algorithm_name,
    make_algorithm,
    prepare_index,
    set_containment_join,
)

__all__ = [
    "CandidateGroup",
    "JoinResult",
    "JoinStats",
    "PairColumns",
    "PreparedIndex",
    "SetContainmentJoin",
    "SignatureJoinBase",
    "SignaturePreparedIndex",
    "insert_into_groups",
    "PTSJ",
    "PRETTIPlus",
    "ALGORITHMS",
    "available_algorithms",
    "choose_algorithm_name",
    "make_algorithm",
    "prepare_index",
    "set_containment_join",
    "ValidationReport",
    "verify_join_result",
]
