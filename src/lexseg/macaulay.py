"""Exact binomials, Macaulay representations, and Hilbert-growth transforms.

Every nonnegative integer s has a unique representation

    s = C(s_p, p) + C(s_{p-1}, p-1) + ... + C(s_1, 1)

with strictly decreasing nonnegative numerators, under the convention that
C(a, b) = 0 when a < b.  The numerators drive the sharp bounds on how the
graded dimensions of an ideal (from below) and of a quotient (from above)
can grow from one degree to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import InvalidInputError, InvalidRepError


def binom(a: int, b: int) -> int:
    """C(a, b) with the vanishing convention: 0 whenever a < b (including a < 0)."""
    if b < 0:
        raise InvalidInputError("binomial lower index must be nonnegative")
    if a < b:
        return 0
    return comb(a, b)


def space_dimension(window_size: int, degree: int) -> int:
    """Number of degree-d monomials in a window of the given size.

    A zero-size window carries only the unit monomial: dimension 1 in
    degree 0 and 0 in positive degree.
    """
    if window_size < 0:
        raise InvalidInputError("window size must be nonnegative")
    if degree < 0:
        raise InvalidInputError("degree must be nonnegative")
    if window_size == 0:
        return 1 if degree == 0 else 0
    return binom(window_size + degree - 1, degree)


@dataclass(frozen=True, slots=True)
class MacaulayRep:
    """Coefficients (s_p, ..., s_1), most significant first, strictly decreasing."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if any(c < 0 for c in coeffs):
            raise InvalidRepError(f"negative coefficient in {coeffs}")
        if any(coeffs[k] <= coeffs[k + 1] for k in range(len(coeffs) - 1)):
            raise InvalidRepError(f"coefficients {coeffs} are not strictly decreasing")

    @property
    def p(self) -> int:
        return len(self.coefficients)

    def indexed(self) -> Iterator[tuple[int, int]]:
        """Yield (i, s_i) pairs from i = p down to 1."""
        p = self.p
        for k, c in enumerate(self.coefficients):
            yield p - k, c

    def value(self) -> int:
        return sum(binom(c, i) for i, c in self.indexed())

    def as_set(self) -> frozenset[int]:
        return frozenset(self.coefficients)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coefficients)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


def macaulay_rep(s: int, p: int) -> MacaulayRep:
    """The unique p-term Macaulay representation of s, found greedily.

    Chooses the largest s_p with C(s_p, p) <= s and recurses on the
    remainder; the strict decrease of the resulting numerators is
    automatic.  All arithmetic is exact.
    """
    if isinstance(s, bool) or isinstance(p, bool) or not isinstance(s, int) or not isinstance(p, int):
        raise InvalidInputError(
            f"s and p must be integers, got {type(s).__name__} and {type(p).__name__}"
        )
    if s < 0:
        raise InvalidInputError("cannot represent a negative integer")
    if p < 1:
        raise InvalidInputError("representation length must be positive")
    coeffs = []
    remainder = s
    for i in range(p, 0, -1):
        c = _greedy_numerator(remainder, i)
        coeffs.append(c)
        remainder -= binom(c, i)
    return MacaulayRep(tuple(coeffs))


def _greedy_numerator(s: int, i: int) -> int:
    """Largest c with C(c, i) <= s; c = i - 1 always qualifies via the convention."""
    lo, hi = i - 1, i
    while binom(hi, i) <= s:
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if binom(mid, i) <= s:
            lo = mid
        else:
            hi = mid
    return lo


def eval_rep(rep: MacaulayRep) -> int:
    """Evaluate sum of C(s_i, i) over the representation."""
    return rep.value()


def quotient_growth_bound(s: int, delta: int) -> int:
    """Upper bound on the next quotient dimension, sharp on terminal lex segments.

    With (t_delta, ..., t_1) the delta-th Macaulay coefficients of s, a graded
    quotient of dimension s in degree delta has dimension at most
    sum of C(t_i + 1, i + 1) in degree delta + 1.
    """
    if delta < 1:
        raise InvalidInputError("degree must be positive")
    rep = macaulay_rep(s, delta)
    return sum(binom(t + 1, i + 1) for i, t in rep.indexed())


def ideal_growth_bound(s: int, n: int) -> int:
    """Lower bound on the next ideal dimension, sharp on initial lex segments.

    Uses the (n-1)-th Macaulay coefficients of s.  Terms with s_i < i
    correspond to empty summands of the segment decomposition and stay
    empty after multiplying by the linear forms, so they contribute 0
    rather than C(s_i + 1, i) = 1.
    """
    if n < 2:
        raise InvalidInputError("need at least two variables")
    rep = macaulay_rep(s, n - 1)
    return sum(binom(c + 1, i) for i, c in rep.indexed() if c >= i)
