"""Macaulay coefficients read directly off a monomial, and their set duality.

The (n-1) ideal coefficients and the delta quotient coefficients of a
degree-delta monomial in n variables come straight from its coarse and
fine tails, and their Macaulay values are the dimensions of its ideal and
quotient segments.  Together the two coefficient sets always partition
{0, 1, ..., n + delta - 2}, which makes m reconstructible from either set
and yields a bijection between monomials and (n-1)-subsets, alongside a
rank/unrank pair for the lex-descending enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import InternalConsistencyError, InvalidInputError, UnitMonomialError
from .macaulay import MacaulayRep, macaulay_rep, space_dimension
from .monomial import Monomial


def ideal_coefficients(m: Monomial) -> MacaulayRep:
    """Macaulay coefficients of the ideal-segment dimension: s_i = i + deg(ct_{n-i}(m)) - 1.

    deg(ct_{n-i}(m)) = a_{n-i+1} + ... + a_n is a suffix sum of the exponents,
    so one scan yields every s_i; n = 1 yields the empty representation.
    """
    if m.is_unit:
        raise UnitMonomialError("coefficients are undefined on the unit monomial")
    tails = accumulate(reversed(m.exponents[1:]))
    return MacaulayRep(tuple(reversed([i + t - 1 for i, t in enumerate(tails, 1)])))


def quotient_coefficients(m: Monomial) -> MacaulayRep:
    """Macaulay coefficients of the quotient-segment dimension: t_i = n - min(ft_{delta-i}(m)) + i - 1."""
    if m.is_unit:
        raise UnitMonomialError("coefficients are undefined on the unit monomial")
    n, delta = m.n, m.degree
    factors = m.standard_factorization()
    coeffs = tuple(n - factors[delta - i] + i - 1 for i in range(delta, 0, -1))
    return MacaulayRep(coeffs)


@dataclass(frozen=True, slots=True)
class CoefficientSets:
    """The ideal and quotient coefficient sets of one monomial.

    They are disjoint and together cover {0, ..., n + delta - 2}; a
    violation would be a bug, not bad input.
    """

    n: int
    delta: int
    ideal_set: frozenset[int]
    quotient_set: frozenset[int]

    def __post_init__(self) -> None:
        universe = frozenset(range(self.n + self.delta - 1))
        if len(self.ideal_set) != self.n - 1 or len(self.quotient_set) != self.delta:
            raise InternalConsistencyError("coefficient multiset collapsed")
        if self.ideal_set & self.quotient_set:
            raise InternalConsistencyError("ideal and quotient coefficients overlap")
        if self.ideal_set | self.quotient_set != universe:
            raise InternalConsistencyError("coefficients do not cover the index range")


def coefficient_sets(m: Monomial) -> CoefficientSets:
    """Both coefficient sets of m, validated against the partition invariants."""
    return CoefficientSets(
        n=m.n,
        delta=m.degree,
        ideal_set=ideal_coefficients(m).as_set(),
        quotient_set=quotient_coefficients(m).as_set(),
    )


def _coefficient_set(values, p: int) -> list[int]:
    """The entries of a nonempty coefficient subset of {0, ..., p}, sorted ascending."""
    vals = list(values)
    if any(type(v) is not int for v in (p, *vals)):
        raise InvalidInputError(f"coefficients {vals} and p={p!r} must be integers")
    coeffs = sorted(set(vals))
    if len(coeffs) != len(vals):
        raise InvalidInputError("coefficient set contains duplicates")
    if not coeffs:
        raise InvalidInputError("cannot reconstruct from an empty coefficient set")
    if coeffs[0] < 0 or coeffs[-1] > p:
        raise InvalidInputError(f"coefficients {coeffs} outside 0..{p}")
    if len(coeffs) > p:
        raise InvalidInputError("coefficient set too large for the universe")
    return coeffs


def reconstruct_from_ideal_set(values, p: int) -> Monomial:
    """The unique monomial whose ideal coefficient set equals the given set.

    p fixes the universe {0, ..., p}; it cannot be inferred from the set
    because all x_1-multiples of m share its ideal coefficients.  The
    variable count is |set| + 1 and the degree is p - |set| + 1.
    """
    coeffs = _coefficient_set(values, p)
    n = len(coeffs) + 1
    exps = [0] * n
    exps[0] = p - coeffs[-1]
    exps[n - 1] = coeffs[0]
    for i in range(2, n):
        exps[i - 1] = coeffs[n - i] - coeffs[n - i - 1] - 1
    return Monomial(tuple(exps))


def reconstruct_from_quotient_set(values, p: int) -> Monomial:
    """The unique monomial whose quotient coefficient set equals the given set.

    The degree is |set|, the variable count p - |set| + 2, and the i-th
    factor index is j_i = n - t_{delta-i+1} + delta - i.
    """
    coeffs = _coefficient_set(values, p)
    delta = len(coeffs)
    n = p - delta + 2
    factors = [n - coeffs[delta - i] + delta - i for i in range(1, delta + 1)]
    return Monomial.from_factorization(factors, n)


def rank(m: Monomial) -> int:
    """1-based position of m in the lex-descending order of its graded piece."""
    if m.is_unit:
        raise UnitMonomialError("rank is undefined on the unit monomial")
    return 1 + ideal_coefficients(m).value()


def unrank(q: int, n: int, delta: int) -> Monomial:
    """The q-th monomial (lex-largest first) among the degree-delta monomials in n variables."""
    if any(type(v) is not int for v in (q, n, delta)):
        raise InvalidInputError(f"q={q!r}, n={n!r} and delta={delta!r} must be integers")
    if n < 1 or delta < 1:
        raise InvalidInputError("need n >= 1 and delta >= 1")
    total = space_dimension(n, delta)
    if not 1 <= q <= total:
        raise InvalidInputError(f"rank {q} outside 1..{total}")
    if n == 1:
        return Monomial((delta,))
    rep = macaulay_rep(q - 1, n - 1)
    return reconstruct_from_ideal_set(rep.as_set(), n + delta - 2)
