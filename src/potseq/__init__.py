"""Degree-sequence toolkit: graphicality tests, potentially K6-C4 / K5-C4
deciders with reasoned verdicts, witness construction, and an exhaustive
search oracle for verifying the closed-form tests at small n."""

from .sequences import (
    DegreeSequence,
    NotationError,
    SequenceShape,
    graphic_4321,
    is_graphic,
    is_graphic_layoff,
    layoff,
    low_degree_graphic_guarantee,
    parse_notation,
    render_notation,
    shape_of,
)
from .graphs import (
    Graph,
    K5_MINUS_C4,
    K6_MINUS_C4,
    PatternWitness,
    TargetPattern,
    complete_graph,
    contains_pattern,
    cycle_graph,
    decode_graph6,
    degree_sequence_of,
    encode_graph6,
    find_km_minus_c4,
    from_edgelist,
    to_dot,
    to_edgelist,
)
from .characterize import (
    ExceptionTable,
    Verdict,
    decide_k5c4,
    decide_k6c4,
    explain,
    k6c4_exceptions,
    sigma_formula_k6c4,
)
from .search import (
    DEFAULT_ORACLE_BOUND,
    EmbeddingFailure,
    Mismatch,
    NotPotentialError,
    OracleBoundError,
    RealizationCertificate,
    VerificationReport,
    enumerate_graphic_sequences,
    oracle_decide_k6c4,
    oracle_decide_pattern,
    oracle_realization_k6c4,
    realize_graphic,
    realize_with_k5c4,
    realize_with_k6c4,
    verify_range,
)

__version__ = "0.1.0"
