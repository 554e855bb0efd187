"""Initial (ideal) and terminal (quotient) lex segments and their decompositions.

The ideal segment of m spans the degree-delta monomials strictly lex-larger
than m; the quotient segment spans those strictly lex-smaller.  Both split
into direct sums of shifted monomial spaces, which turns dimension counting
into sums of binomials.  Both the dimension and the decomposition are read
off one Macaulay coefficient tuple (see `duality`), that of m restricted to
the window: summand j is the term C(c_j, j).  Segments are held
intensionally (defining monomial, window, kind); only the oracle module
ever materializes generator lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import duality
from .errors import InvalidInputError
from .macaulay import MacaulayRep, space_dimension
from .monomial import Monomial, VariableWindow

IDEAL = "ideal"
QUOTIENT = "quotient"


@dataclass(frozen=True, slots=True)
class SegmentSpec:
    """A lex segment identified by its defining monomial.

    The window is always right-anchored at x_n; sub-windows [lo, n] appear
    as residuals of one-step splits.  The defining monomial keeps the full
    n-entry exponent vector with support inside the window.
    """

    kind: str
    m: Monomial
    window: VariableWindow
    inclusive: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (IDEAL, QUOTIENT):
            raise InvalidInputError(f"unknown segment kind {self.kind!r}")
        if self.m.is_unit:
            raise InvalidInputError("segments of the unit monomial are not defined")
        if self.window.size < 1:
            raise InvalidInputError("segment window cannot be empty")
        if self.window.hi != self.m.n:
            raise InvalidInputError(
                f"window {self.window} is not right-anchored at x_{self.m.n}"
            )
        if self.m.min_index() < self.window.lo:
            raise InvalidInputError(
                f"{self.m} has support below the window {self.window}"
            )

    @property
    def n(self) -> int:
        return self.m.n

    @property
    def delta(self) -> int:
        return self.m.degree

    def to_exclusive(self) -> SegmentSpec:
        """Exclusive segment with the same generator set.

        Inclusive ideal segments slide down to the successor, inclusive
        quotient segments up to the predecessor.  Fails when the segment
        is the whole graded piece, which no exclusive segment describes.
        """
        if not self.inclusive:
            return self
        mono = self.m.successor() if self.kind == IDEAL else self.m.predecessor()
        return SegmentSpec(self.kind, mono, self.window, inclusive=False)


def ideal_segment(m: Monomial, inclusive: bool = False) -> SegmentSpec:
    return SegmentSpec(IDEAL, m, VariableWindow(1, m.n), inclusive)


def quotient_segment(m: Monomial, inclusive: bool = False) -> SegmentSpec:
    return SegmentSpec(QUOTIENT, m, VariableWindow(1, m.n), inclusive)


@dataclass(frozen=True, slots=True)
class Summand:
    """prefix * (monomial space over window in the given degree).

    Degree -1 encodes the zero space; empty windows are allowed and carry
    dimension 1 only in degree 0.
    """

    prefix: Monomial
    window: VariableWindow
    degree: int

    def __post_init__(self) -> None:
        if self.degree < -1:
            raise InvalidInputError(f"summand degree {self.degree} below -1")

    def dimension(self) -> int:
        if self.degree < 0:
            return 0
        return space_dimension(self.window.size, self.degree)


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Ordered summands of a decomposed segment; generator sets are disjoint."""

    kind: str
    summands: tuple[Summand, ...]

    def dimension(self) -> int:
        return sum(s.dimension() for s in self.summands)


@dataclass(frozen=True, slots=True)
class SplitResult:
    """One splitting step: a monomial-space summand plus a prefixed residual segment."""

    summand: Summand
    residual_prefix: Monomial
    residual: Optional[SegmentSpec]


def split_once(seg: SegmentSpec) -> SplitResult:
    """Split off the first monomial-space summand of an exclusive segment.

    Ideal case (b = exponent of x_lo in m, plus one):
        I = x_lo^b M^{delta-b}  (+)  x_lo^{b-1} I_{[lo+1,n]}(m / x_lo^{b-1})
    Quotient case (g = min(m) + 1):
        Q = M_{[g,n]}^{delta}  (+)  x_{g-1} Q_{[g-1,n]}(m / x_{g-1})
    Degenerate segments (m a pure power at the window edge) produce a
    zero-dimension summand and an absent residual.
    """
    _require_exclusive(seg)
    n = seg.n
    if seg.kind == IDEAL:
        lo = seg.window.lo
        beta = seg.m.exponents[lo - 1] + 1
        summand = Summand(
            prefix=Monomial.from_factorization([lo] * beta, n),
            window=VariableWindow(lo, n),
            degree=seg.delta - beta,
        )
        residual_prefix = Monomial.from_factorization([lo] * (beta - 1), n)
        rest = seg.m.coarse_tail(lo) if lo < n else Monomial.unit(n)
        residual = None
        if not rest.is_unit:
            residual = SegmentSpec(IDEAL, rest, VariableWindow(lo + 1, n))
        return SplitResult(summand, residual_prefix, residual)

    gamma = seg.m.min_index() + 1
    summand = Summand(
        prefix=Monomial.unit(n),
        window=VariableWindow(gamma, n),
        degree=seg.delta,
    )
    residual_prefix = Monomial.from_factorization([gamma - 1], n)
    rest_exps = list(seg.m.exponents)
    rest_exps[gamma - 2] -= 1
    rest = Monomial(tuple(rest_exps))
    residual = None
    if not rest.is_unit:
        residual = SegmentSpec(QUOTIENT, rest, VariableWindow(gamma - 1, n))
    return SplitResult(summand, residual_prefix, residual)


def decompose(seg: SegmentSpec) -> Decomposition:
    """Full decomposition of an exclusive segment into monomial-space summands.

    Summand j is term C(c_j, j) of the segment's coefficient tuple, j = p..1.
    Ideal summand j (i = n - j runs window.lo..n-1):
        prefix m x_i / ct_i(m), window [i, n], degree c_j - j.
    Quotient summand j (j = delta..1):
        prefix m / ft_{delta-j}(m), window [n - c_j + j, n], degree j.
    Trivial summands are kept so the summand position always lines up with
    the Macaulay coefficient index.
    """
    _require_exclusive(seg)
    n = seg.n
    terms = _coefficients(seg).indexed()
    if seg.kind == IDEAL:
        exps = seg.m.exponents
        summands = [
            Summand(Monomial(exps[:n - j - 1] + (exps[n - j - 1] + 1,) + (0,) * j),
                    VariableWindow(n - j, n), c - j)
            for j, c in terms
        ]
    else:
        factors = seg.m.standard_factorization()
        summands = [
            Summand(Monomial.from_factorization(factors[:seg.delta - j], n),
                    VariableWindow(n - c + j, n), j)
            for j, c in terms
        ]
    return Decomposition(seg.kind, tuple(summands))


def segment_dimension(seg: SegmentSpec) -> int:
    """Exact dimension; an inclusive segment counts one more than its exclusive twin."""
    return _coefficients(seg).value() + seg.inclusive


def multiply_segment(seg: SegmentSpec) -> SegmentSpec:
    """The segment spanned in the next degree after multiplying by all variables.

    Exclusive ideal segments move to m * x_max(m), inclusive ones to m * x_n;
    quotient segments dualize: exclusive to m * x_n, inclusive to m * x_max(m).
    """
    if seg.window.lo != 1:
        raise InvalidInputError("multiplication needs the full window [1, n]")
    by_max = (seg.kind == IDEAL) != seg.inclusive
    factor = seg.m.max_index() if by_max else seg.n
    return replace(seg, m=seg.m.times_var(factor))


def multiply_decomposition(d: Decomposition) -> Decomposition:
    """Degree bump induced by multiplying a decomposed segment by the variables.

    Each nontrivial summand's degree rises by one over an unchanged window;
    zero summands (ideal degree -1, or an empty quotient window) stay zero.
    """
    bumped = []
    for s in d.summands:
        if d.kind == IDEAL and s.degree < 0:
            bumped.append(s)
        else:
            bumped.append(replace(s, degree=s.degree + 1))
    return Decomposition(d.kind, tuple(bumped))


def reduce_window(seg: SegmentSpec) -> SegmentSpec:
    """Raise a quotient segment's window floor to min(m); generators are unchanged.

    Monomials divisible by a variable below min(m) are lex-larger than m,
    so they never generate the quotient segment.
    """
    if seg.kind != QUOTIENT:
        raise InvalidInputError("window reduction applies to quotient segments only")
    lo = seg.m.min_index()
    if lo == seg.window.lo:
        return seg
    return replace(seg, window=VariableWindow(lo, seg.n))


def _require_exclusive(seg: SegmentSpec) -> None:
    if seg.inclusive:
        raise InvalidInputError(
            "inclusive segments are not decomposable directly; use to_exclusive() first"
        )


def _coefficients(seg: SegmentSpec) -> MacaulayRep:
    """The Macaulay coefficients of m on [lo, n]; their value is the exclusive dimension."""
    restricted = Monomial(seg.m.exponents[seg.window.lo - 1:])
    if seg.kind == IDEAL:
        return duality.ideal_coefficients(restricted)
    return duality.quotient_coefficients(restricted)
