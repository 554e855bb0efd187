"""Lex segments of monomials: decompositions, Macaulay coefficients, duality.

The library computes, for a degree-delta monomial m in n variables, the
dimensions and direct-sum decompositions of the spaces spanned by the
monomials lex-larger (ideal segment) and lex-smaller (quotient segment)
than m, the Macaulay coefficient tuples of those dimensions read directly
off m, the set partition the two coefficient sets form, rank/unrank for
the lex-descending enumeration, and the sharp growth bounds for graded
ideals and quotients.  A brute-force oracle verifies every formula by
exhaustive enumeration on small instances.
"""

from .duality import (
    CoefficientSets,
    ShiftInheritanceReport,
    coefficient_sets,
    ideal_coefficients,
    quotient_coefficients,
    rank,
    reconstruct_from_ideal_set,
    reconstruct_from_quotient_set,
    shift_inheritance_check,
    unrank,
)
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    InvalidRepError,
    LexsegError,
    MonomialParseError,
    NoPredecessorError,
    NoSuccessorError,
    ResourceLimitError,
    UnitMonomialError,
)
from .macaulay import (
    MacaulayRep,
    binom,
    ideal_growth_bound,
    macaulay_rep,
    quotient_growth_bound,
    space_dimension,
)
from .monomial import Monomial, VariableWindow, lex_compare, parse_monomial, sort_lex_descending
from .oracle import (
    EnumeratedSpace,
    MonomialIdealSample,
    VerificationReport,
    enumerate_segment,
    enumerate_space,
    enumerate_summand,
    hilbert_next,
    random_monomial_sample,
    run_verification,
    span_multiply,
)
from .segments import (
    IDEAL,
    QUOTIENT,
    Decomposition,
    SegmentSpec,
    SplitResult,
    Summand,
    decompose,
    ideal_segment,
    multiply_decomposition,
    multiply_segment,
    quotient_segment,
    reduce_window,
    segment_dimension,
    split_once,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSets",
    "Decomposition",
    "EnumeratedSpace",
    "IDEAL",
    "InternalConsistencyError",
    "InvalidInputError",
    "InvalidRepError",
    "LexsegError",
    "MacaulayRep",
    "Monomial",
    "MonomialIdealSample",
    "MonomialParseError",
    "NoPredecessorError",
    "NoSuccessorError",
    "QUOTIENT",
    "ResourceLimitError",
    "SegmentSpec",
    "ShiftInheritanceReport",
    "SplitResult",
    "Summand",
    "UnitMonomialError",
    "VariableWindow",
    "VerificationReport",
    "binom",
    "coefficient_sets",
    "decompose",
    "enumerate_segment",
    "enumerate_space",
    "enumerate_summand",
    "hilbert_next",
    "ideal_coefficients",
    "ideal_growth_bound",
    "ideal_segment",
    "lex_compare",
    "macaulay_rep",
    "multiply_decomposition",
    "multiply_segment",
    "parse_monomial",
    "quotient_coefficients",
    "quotient_growth_bound",
    "quotient_segment",
    "rank",
    "random_monomial_sample",
    "reconstruct_from_ideal_set",
    "reconstruct_from_quotient_set",
    "reduce_window",
    "run_verification",
    "segment_dimension",
    "shift_inheritance_check",
    "sort_lex_descending",
    "space_dimension",
    "span_multiply",
    "split_once",
    "unrank",
]
