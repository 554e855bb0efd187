"""Monomials in a fixed variable window and the lexicographic order.

A monomial x_1^a_1 * ... * x_n^a_n is stored as its exponent vector.
Variables are indexed 1..n; the letter names a..z are a presentation
convenience for n <= 26.  All values are immutable and every operation
is a pure function of its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    InvalidInputError,
    MonomialParseError,
    NoPredecessorError,
    NoSuccessorError,
    UnitMonomialError,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_LETTER_TOKEN = re.compile(r"([a-z])(?:\^([0-9]+))?")


@dataclass(frozen=True, slots=True)
class VariableWindow:
    """Contiguous variable range [lo, hi]; lo = hi + 1 encodes the empty window.

    Empty windows arise as the ranges of trivial quotient summands; their
    monomial space has dimension 1 in degree 0 and 0 in positive degree.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo - 1:
            raise InvalidInputError(f"invalid variable window [{self.lo},{self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True, slots=True)
class Monomial:
    """Exponent-vector monomial over variables x_1..x_n."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        if not exps:
            raise InvalidInputError("a monomial needs at least one variable")
        for e in exps:
            if type(e) is not int:
                raise InvalidInputError(f"exponent {e!r} in {exps} is not an integer")
            if e < 0:
                raise InvalidInputError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def unit(cls, n: int) -> Monomial:
        return cls((0,) * n)

    @classmethod
    def from_factorization(cls, indices: Iterable[int], n: int) -> Monomial:
        """Rebuild a monomial from variable indices with multiplicity."""
        exps = [0] * n
        for j in indices:
            if not 1 <= j <= n:
                raise InvalidInputError(f"factor index {j} outside 1..{n}")
            exps[j - 1] += 1
        return cls(tuple(exps))

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    def min_index(self) -> int:
        """Smallest i with x_i dividing the monomial."""
        for i, e in enumerate(self.exponents, start=1):
            if e > 0:
                return i
        raise UnitMonomialError("min_index is undefined on the unit monomial")

    def max_index(self) -> int:
        """Largest i with x_i dividing the monomial."""
        for i in range(self.n, 0, -1):
            if self.exponents[i - 1] > 0:
                return i
        raise UnitMonomialError("max_index is undefined on the unit monomial")

    def standard_factorization(self) -> tuple[int, ...]:
        """Nondecreasing variable indices j_1 <= ... <= j_degree."""
        out: list[int] = []
        for i, e in enumerate(self.exponents, start=1):
            out.extend([i] * e)
        return tuple(out)

    def coarse_tail(self, i: int) -> Monomial:
        """Zero out the exponents of x_1..x_i, keeping the ambient n."""
        if not 0 <= i <= self.n - 1:
            raise InvalidInputError(f"coarse tail index {i} outside 0..{self.n - 1}")
        return Monomial((0,) * i + self.exponents[i:])

    def shift(self, i: int) -> Monomial:
        """Raise every variable index by i, viewed in n + i variables."""
        if i < 0:
            raise InvalidInputError("negative shifts are not supported")
        return Monomial((0,) * i + self.exponents)

    def times_var(self, i: int) -> Monomial:
        """Multiply by x_i."""
        if not 1 <= i <= self.n:
            raise InvalidInputError(f"variable index {i} outside 1..{self.n}")
        exps = list(self.exponents)
        exps[i - 1] += 1
        return Monomial(tuple(exps))

    def predecessor(self) -> Monomial:
        """The lex-smallest monomial that is lex-larger than this one.

        Writing m = w * x_j^g with j = max_index(m) and g maximal, the
        predecessor is w * x_{j-1} * x_n^{g-1}.
        """
        if self.is_unit or self.max_index() == 1:
            raise NoPredecessorError("the lex-largest monomial has no predecessor")
        j = self.max_index()
        g = self.exponents[j - 1]
        exps = list(self.exponents)
        exps[j - 1] = 0
        exps[j - 2] += 1
        exps[self.n - 1] += g - 1
        return Monomial(tuple(exps))

    def successor(self) -> Monomial:
        """The lex-largest monomial that is lex-smaller than this one."""
        g = self.exponents[-1]
        if g == self.degree:
            raise NoSuccessorError("the lex-smallest monomial has no successor")
        j = max(i for i in range(1, self.n) if self.exponents[i - 1] > 0)
        exps = list(self.exponents)
        exps[j - 1] -= 1
        exps[self.n - 1] = 0
        exps[j] += g + 1
        return Monomial(tuple(exps))

    def to_csv(self) -> str:
        """Canonical text form: comma-separated exponent vector."""
        return ",".join(str(e) for e in self.exponents)

    def to_letters(self) -> str:
        """Letter form like a^2*b*d^3*f^2; only available for n <= 26."""
        if self.n > 26:
            raise InvalidInputError("letter form needs n <= 26")
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(_LETTERS[i])
            elif e > 1:
                parts.append(f"{_LETTERS[i]}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.to_letters() if self.n <= 26 else self.to_csv()

    def __lt__(self, other: Monomial) -> bool:
        return lex_compare(self, other) < 0

    def __le__(self, other: Monomial) -> bool:
        return lex_compare(self, other) <= 0

    def __gt__(self, other: Monomial) -> bool:
        return lex_compare(self, other) > 0

    def __ge__(self, other: Monomial) -> bool:
        return lex_compare(self, other) >= 0


def lex_compare(a: Monomial, b: Monomial) -> int:
    """Compare in the lex order: 1 if a is lex-larger, -1 if lex-smaller, 0 if equal.

    A monomial is lex-larger when its exponent is bigger at the first index
    where the two vectors differ, so the order coincides with tuple order
    on exponent vectors.  Degrees need not match.
    """
    if a.n != b.n:
        raise InvalidInputError(f"cannot compare monomials in {a.n} and {b.n} variables")
    if a.exponents == b.exponents:
        return 0
    return 1 if a.exponents > b.exponents else -1


def parse_monomial(text: str, n_hint: Optional[int] = None) -> Monomial:
    """Parse the comma-separated exponent form, or the letter form if n_hint is given.

    "2,1,0,3,0,2" gives a^2*b*d^3*f^2 with n inferred from the vector length;
    "a^2*b*d^3*f^2" needs an explicit variable count via n_hint.
    """
    text = text.strip()
    if not text:
        raise MonomialParseError("empty monomial text", 0)
    if text[0] in "-0123456789":
        return _parse_csv(text, n_hint)
    return _parse_letters(text, n_hint)


def _parse_csv(text: str, n_hint: Optional[int]) -> Monomial:
    exps = []
    offset = 0
    for token in text.split(","):
        stripped = token.strip()
        if not re.fullmatch(r"[0-9]+", stripped):
            raise MonomialParseError(f"expected a nonnegative integer, got {stripped!r}", offset)
        exps.append(int(stripped))
        offset += len(token) + 1
    if n_hint is not None and n_hint != len(exps):
        raise MonomialParseError(
            f"exponent vector has length {len(exps)} but --n says {n_hint}", 0
        )
    return Monomial(tuple(exps))


def _parse_letters(text: str, n_hint: Optional[int]) -> Monomial:
    if n_hint is None:
        raise MonomialParseError("letter form needs an explicit variable count (--n)", 0)
    if n_hint > 26:
        raise MonomialParseError("letter form is limited to n <= 26", 0)
    exps = [0] * n_hint
    offset = 0
    for token in text.split("*"):
        match = _LETTER_TOKEN.fullmatch(token.strip())
        if match is None:
            raise MonomialParseError(f"bad factor {token!r}", offset)
        index = _LETTERS.index(match.group(1)) + 1
        if index > n_hint:
            raise MonomialParseError(
                f"variable {match.group(1)!r} is beyond the {n_hint} declared variables", offset
            )
        exps[index - 1] += int(match.group(2) or 1)
        offset += len(token) + 1
    return Monomial(tuple(exps))
