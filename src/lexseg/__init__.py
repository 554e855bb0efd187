"""Lex segments of monomials: decompositions, Macaulay coefficients, duality.

The library computes, for a degree-delta monomial m in n variables, the
dimensions and direct-sum decompositions of the spaces spanned by the
monomials lex-larger (ideal segment) and lex-smaller (quotient segment)
than m, the Macaulay coefficient tuples of those dimensions read directly
off m, the set partition the two coefficient sets form, rank/unrank for
the lex-descending enumeration, and the sharp growth bounds for graded
ideals and quotients.  The package root exports only these closed forms
and the error types.  The brute-force oracle that verifies every formula
by exhaustive enumeration on small instances is the submodule
`lexseg.oracle`, which `import lexseg` does not load.
"""

from .duality import (
    CoefficientSets,
    coefficient_sets,
    ideal_coefficients,
    quotient_coefficients,
    rank,
    reconstruct_from_ideal_set,
    reconstruct_from_quotient_set,
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
from .monomial import Monomial, VariableWindow, parse_monomial
from .segments import (
    IDEAL,
    QUOTIENT,
    Decomposition,
    SegmentSpec,
    Summand,
    decompose,
    ideal_segment,
    multiply_decomposition,
    multiply_segment,
    quotient_segment,
    segment_dimension,
    split_once,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSets",
    "Decomposition",
    "IDEAL",
    "InternalConsistencyError",
    "InvalidInputError",
    "InvalidRepError",
    "LexsegError",
    "MacaulayRep",
    "Monomial",
    "MonomialParseError",
    "NoPredecessorError",
    "NoSuccessorError",
    "QUOTIENT",
    "ResourceLimitError",
    "SegmentSpec",
    "Summand",
    "UnitMonomialError",
    "VariableWindow",
    "binom",
    "coefficient_sets",
    "decompose",
    "ideal_coefficients",
    "ideal_growth_bound",
    "ideal_segment",
    "macaulay_rep",
    "multiply_decomposition",
    "multiply_segment",
    "parse_monomial",
    "quotient_coefficients",
    "quotient_growth_bound",
    "quotient_segment",
    "rank",
    "reconstruct_from_ideal_set",
    "reconstruct_from_quotient_set",
    "segment_dimension",
    "space_dimension",
    "split_once",
    "unrank",
]
