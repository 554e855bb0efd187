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
from typing import Iterator, Optional

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
        # One pass from the least significant end: each coefficient must be
        # an int (not a bool) above the one after it, and the last above -1.
        floor = -1
        for c in reversed(coeffs):
            if type(c) is not int:
                raise InvalidRepError(f"coefficient {c!r} in {coeffs} is not an integer")
            if c <= floor:
                if floor < 0:
                    raise InvalidRepError(f"negative coefficient in {coeffs}")
                raise InvalidRepError(f"coefficients {coeffs} are not strictly decreasing")
            floor = c

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

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


# Steps one term may descend before binary search finishes it.  A step is
# one small-int multiply and divide, the search about log2(c) binomials; a
# huge s with a small p can put a numerator astronomically far below the
# one above it.
_DESCENT_STEPS = 64


def macaulay_rep(s: int, p: int) -> MacaulayRep:
    """The unique p-term Macaulay representation of s, found greedily.

    Each s_i is the largest c with C(c, i) at most the remainder left by
    the terms above it.  The top numerator s_p comes from a doubling and
    binary search.  Every lower s_i lies below s_{i+1}, so it is found by
    one descending scan (the combinatorial-number-system unranking): start
    at c = s_{i+1} - 1 with C(c, i) = C(s_{i+1}, i+1) * (i+1) / s_{i+1},
    and step down with C(c-1, i) = C(c, i) * (c-i) / c until the binomial
    fits the remainder.  Over all terms the scan takes at most s_p steps.
    A term whose descent passes a fixed step count is finished by binary
    search below the current c, so work stays bounded even when s is huge
    and p small.  All arithmetic is exact.
    """
    if isinstance(s, bool) or isinstance(p, bool) or not isinstance(s, int) or not isinstance(p, int):
        raise InvalidInputError(
            f"s and p must be integers, got {type(s).__name__} and {type(p).__name__}"
        )
    if s < 0:
        raise InvalidInputError("cannot represent a negative integer")
    if p < 1:
        raise InvalidInputError("representation length must be positive")
    c = _greedy_numerator(s, p)
    b = binom(c, p)
    remainder = s - b
    coeffs = [c]
    for i in range(p - 1, 0, -1):
        # C(c - 1, i) from C(c, i + 1); c >= i here, since s_{i+1} >= i.
        b = b * (i + 1) // c
        c -= 1
        steps = 0
        while b > remainder:
            if steps == _DESCENT_STEPS:
                c = _greedy_numerator(remainder, i, c)
                b = binom(c, i)
                break
            b = b * (c - i) // c
            c -= 1
            steps += 1
        coeffs.append(c)
        remainder -= b
    return MacaulayRep(tuple(coeffs))


def _greedy_numerator(s: int, i: int, upper: Optional[int] = None) -> int:
    """Largest c with C(c, i) <= s; c = i - 1 always qualifies via the convention.

    Without a bound the search doubles upward from i first; a given upper
    bound must have C(upper, i) > s.
    """
    lo, hi = i - 1, upper
    if hi is None:
        hi = i
        while binom(hi, i) <= s:
            lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if binom(mid, i) <= s:
            lo = mid
        else:
            hi = mid
    return lo


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
