"""Segment specs, one-step splits, full decompositions, dimensions, multiplication."""

import itertools
import random

import pytest

from conftest import mono
from lexseg import (
    IDEAL,
    QUOTIENT,
    InvalidInputError,
    Monomial,
    NoPredecessorError,
    NoSuccessorError,
    SegmentSpec,
    VariableWindow,
    decompose,
    ideal_segment,
    multiply_decomposition,
    multiply_segment,
    quotient_segment,
    segment_dimension,
    split_once,
)
from lexseg.duality import coefficient_sets, rank, unrank
from lexseg.macaulay import ideal_growth_bound, quotient_growth_bound, space_dimension
from lexseg.oracle import enumerate_segment
from lexseg.segments import reduce_window

M68 = mono("a^2*b*d^3*f^2", 6)
M44 = mono("b^2*c*d", 4)


def summand_rows(deco):
    return [(s.prefix.to_csv(), s.window.lo, s.window.hi, s.degree, s.dimension())
            for s in deco.summands]


class TestSegmentSpec:
    def test_accessors(self):
        seg = ideal_segment(M68)
        assert seg.n == 6 and seg.delta == 8 and not seg.inclusive

    def test_unit_monomial_rejected(self):
        with pytest.raises(InvalidInputError):
            ideal_segment(Monomial.unit(3))

    def test_window_must_be_right_anchored(self):
        with pytest.raises(InvalidInputError):
            SegmentSpec(IDEAL, M68, VariableWindow(1, 5))

    def test_support_must_sit_inside_window(self):
        with pytest.raises(InvalidInputError):
            SegmentSpec(QUOTIENT, M68, VariableWindow(2, 6))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            SegmentSpec("segment", M68, VariableWindow(1, 6))

    @pytest.mark.parametrize("inclusive", [2, 1, 0, "no", None])
    def test_non_bool_inclusive_rejected(self, inclusive):
        # inclusive is added to the dimension, so 1 and 0 count too: only a
        # bool may say whether m itself belongs to the segment
        with pytest.raises(InvalidInputError):
            SegmentSpec(IDEAL, M68, VariableWindow(1, 6), inclusive)

    def test_to_exclusive_ideal_uses_successor(self):
        seg = ideal_segment(mono("1,1"), inclusive=True).to_exclusive()
        assert seg.m == mono("0,2") and not seg.inclusive

    def test_to_exclusive_quotient_uses_predecessor(self):
        seg = quotient_segment(mono("1,1"), inclusive=True).to_exclusive()
        assert seg.m == mono("2,0") and not seg.inclusive

    def test_to_exclusive_whole_piece_impossible(self):
        with pytest.raises(NoSuccessorError):
            ideal_segment(mono("0,0,3"), inclusive=True).to_exclusive()
        with pytest.raises(NoPredecessorError):
            quotient_segment(mono("3,0,0"), inclusive=True).to_exclusive()


class TestSplitOnce:
    def test_ideal_first_step(self):
        split = split_once(ideal_segment(M68))
        assert split.summand.prefix == mono("3,0,0,0,0,0")
        assert (split.summand.window.lo, split.summand.window.hi) == (1, 6)
        assert split.summand.degree == 5
        assert split.residual_prefix == mono("2,0,0,0,0,0")
        res = split.residual
        assert res.kind == IDEAL and res.window.lo == 2
        assert res.m == mono("0,1,0,3,0,2") and res.delta == 6

    def test_quotient_first_step(self):
        split = split_once(quotient_segment(M68))
        assert split.summand.prefix.is_unit
        assert (split.summand.window.lo, split.summand.window.hi) == (2, 6)
        assert split.summand.degree == 8
        assert split.residual_prefix == mono("1,0,0,0,0,0")
        res = split.residual
        assert res.kind == QUOTIENT and res.window.lo == 1
        assert res.m == mono("1,1,0,3,0,2") and res.delta == 7

    def test_degenerate_ideal_is_empty(self):
        split = split_once(ideal_segment(mono("4,0,0")))
        assert split.summand.degree == -1
        assert split.summand.dimension() == 0
        assert split.residual is None

    def test_degenerate_quotient_has_empty_window_summand(self):
        split = split_once(quotient_segment(mono("0,0,4")))
        assert split.summand.window.size == 0
        assert split.summand.dimension() == 0
        assert split.residual is not None and split.residual.m == mono("0,0,3")

    def test_inclusive_rejected(self):
        with pytest.raises(InvalidInputError):
            split_once(ideal_segment(M68, inclusive=True))


class TestDecompose:
    def test_ideal_summand_table(self):
        assert summand_rows(decompose(ideal_segment(M68))) == [
            ("3,0,0,0,0,0", 1, 6, 5, 252),
            ("2,2,0,0,0,0", 2, 6, 4, 70),
            ("2,1,1,0,0,0", 3, 6, 4, 35),
            ("2,1,0,4,0,0", 4, 6, 1, 3),
            ("2,1,0,3,1,0", 5, 6, 1, 2),
        ]

    def test_quotient_summand_table(self):
        assert summand_rows(decompose(quotient_segment(M68))) == [
            ("0,0,0,0,0,0", 2, 6, 8, 495),
            ("1,0,0,0,0,0", 2, 6, 7, 330),
            ("2,0,0,0,0,0", 3, 6, 6, 84),
            ("2,1,0,0,0,0", 5, 6, 5, 6),
            ("2,1,0,1,0,0", 5, 6, 4, 5),
            ("2,1,0,2,0,0", 5, 6, 3, 4),
            ("2,1,0,3,0,0", 7, 6, 2, 0),
            ("2,1,0,3,0,1", 7, 6, 1, 0),
        ]

    def test_windowed_ideal_table(self):
        seg = SegmentSpec(IDEAL, mono("0,1,0,3,0,2"), VariableWindow(2, 6))
        assert summand_rows(decompose(seg)) == [
            ("0,2,0,0,0,0", 2, 6, 4, 70),
            ("0,1,1,0,0,0", 3, 6, 4, 35),
            ("0,1,0,4,0,0", 4, 6, 1, 3),
            ("0,1,0,3,1,0", 5, 6, 1, 2),
        ]

    def test_lex_largest_decomposes_trivially(self):
        deco = decompose(ideal_segment(mono("5,0,0,0")))
        assert len(deco.summands) == 3
        assert all(s.degree == -1 and s.dimension() == 0 for s in deco.summands)
        assert deco.dimension() == 0

    def test_summand_counts(self):
        assert len(decompose(ideal_segment(M44)).summands) == 3
        assert len(decompose(quotient_segment(M44)).summands) == 4

    def test_summand_shapes_are_monotone(self):
        # ideal degrees never increase; quotient window floors never decrease
        for n, degree in [(3, 4), (4, 3)]:
            piece = [Monomial(t) for t in itertools.product(range(degree + 1), repeat=n)
                     if sum(t) == degree]
            for m in piece:
                ideal_degrees = [s.degree for s in decompose(ideal_segment(m)).summands]
                assert all(a >= b for a, b in zip(ideal_degrees, ideal_degrees[1:]))
                quotient_los = [s.window.lo for s in decompose(quotient_segment(m)).summands]
                assert all(a <= b for a, b in zip(quotient_los, quotient_los[1:]))

    def test_split_recursion_matches_closed_form(self):
        # peeling one summand at a time reproduces the closed-form tables;
        # an ideal recursion may tack on one extra summand at the last
        # single-variable window, which is always trivial
        for seg in (ideal_segment(M68), quotient_segment(M68),
                    ideal_segment(M44), quotient_segment(M44)):
            table = list(decompose(seg).summands)
            cur = seg
            prefix = Monomial.unit(seg.n)
            peeled = []
            while cur is not None:
                split = split_once(cur)
                lifted_prefix = Monomial(
                    tuple(p + q for p, q in zip(prefix.exponents, split.summand.prefix.exponents))
                )
                peeled.append((lifted_prefix, split.summand.window, split.summand.degree))
                prefix = Monomial(
                    tuple(p + q for p, q in zip(prefix.exponents, split.residual_prefix.exponents))
                )
                cur = split.residual
            assert len(peeled) in (len(table), len(table) + 1)
            for extra_prefix, extra_window, extra_degree in peeled[len(table):]:
                assert extra_degree == -1
            for (got_prefix, got_window, got_degree), want in zip(peeled, table):
                assert got_prefix == want.prefix
                assert got_window == want.window
                assert got_degree == want.degree


class TestSegmentDimension:
    def test_golden_pair(self):
        assert segment_dimension(ideal_segment(M68)) == 362
        assert segment_dimension(quotient_segment(M68)) == 924

    def test_extremes_are_zero(self):
        assert segment_dimension(ideal_segment(mono("5,0,0"))) == 0
        assert segment_dimension(quotient_segment(mono("0,0,5"))) == 0

    def test_inclusive_adds_one(self):
        assert segment_dimension(ideal_segment(M68, inclusive=True)) == 363
        assert segment_dimension(quotient_segment(M68, inclusive=True)) == 925

    def test_windowed_quotient(self):
        # 84 + 6 + 5 + 4 from the windowed summand table
        seg = SegmentSpec(QUOTIENT, mono("0,1,0,3,0,2"), VariableWindow(2, 6))
        assert segment_dimension(seg) == 99

    def test_windowed_dimensions_match_enumeration(self):
        # Every window [lo, n] that holds m's support, both kinds, both flags.
        cases = 0
        for n in range(1, 6):
            for degree in range(1, 6):
                for t in itertools.product(range(degree + 1), repeat=n):
                    if sum(t) != degree:
                        continue
                    m = Monomial(t)
                    for lo, kind, inclusive in itertools.product(
                        range(1, m.min_index() + 1), (IDEAL, QUOTIENT), (False, True)
                    ):
                        seg = SegmentSpec(kind, m, VariableWindow(lo, n), inclusive)
                        dim = segment_dimension(seg)
                        assert dim == len(enumerate_segment(seg)), seg
                        if not inclusive:
                            assert dim == decompose(seg).dimension(), seg
                        cases += 1
        assert cases == 3084

    def test_partition_of_the_graded_piece(self):
        for m in (M68, M44, mono("1,1"), mono("0,3,0")):
            total = segment_dimension(ideal_segment(m)) + segment_dimension(quotient_segment(m)) + 1
            from lexseg import space_dimension
            assert total == space_dimension(m.n, m.degree)


def tail_formula_rows(seg):
    """Summands straight from the paper's tails, one coarse tail or factor index each."""
    m, n = seg.m, seg.n
    if seg.kind == IDEAL:
        return [(Monomial(m.exponents[:i] + (0,) * (n - i)).times_var(i),
                 VariableWindow(i, n), m.coarse_tail(i).degree - 1)
                for i in range(seg.window.lo, n)]
    factors = m.standard_factorization()
    return [(Monomial.from_factorization(factors[:i - 1], n),
             VariableWindow(factors[i - 1] + 1, n), seg.delta - i + 1)
            for i in range(1, seg.delta + 1)]


class TestAtScale:
    def test_identities_on_random_monomials(self):
        # far beyond enumeration: each identity ties two independent code paths
        rng = random.Random(15)
        for _ in range(30):
            n, delta = rng.randint(2, 300), rng.randint(2, 300)
            cuts = sorted(rng.randint(0, delta) for _ in range(n - 1))
            m = Monomial(tuple(b - a for a, b in zip([0, *cuts], [*cuts, delta])))
            dims = {}
            for kind in (IDEAL, QUOTIENT):
                lo = rng.randint(1, m.min_index())
                seg = SegmentSpec(kind, m, VariableWindow(lo, n))
                deco = decompose(seg)
                rows = [(s.prefix, s.window, s.degree) for s in deco.summands]
                assert rows == tail_formula_rows(seg), (kind, m.to_csv(), lo)
                assert deco.dimension() == segment_dimension(seg)
                full = SegmentSpec(kind, m, VariableWindow(1, n))
                dims[kind] = segment_dimension(full)
                bound = (ideal_growth_bound(dims[kind], n) if kind == IDEAL
                         else quotient_growth_bound(dims[kind], delta))
                assert bound == segment_dimension(multiply_segment(full)), (kind, m.to_csv())
            total = space_dimension(n, delta)
            assert dims[IDEAL] + dims[QUOTIENT] + 1 == total
            q = rng.randint(1, total)
            assert rank(unrank(q, n, delta)) == q
            # the paper's theorem: the two coefficient sets partition {0, ..., n + delta - 2}
            sets = coefficient_sets(m)
            s, t = sets.ideal_set, sets.quotient_set
            assert (len(s), len(t)) == (n - 1, delta) and not s & t, m.to_csv()
            assert s | t == frozenset(range(n + delta - 1)), m.to_csv()
            if m.max_index() > 1:
                assert rank(m.predecessor()) == rank(m) - 1, m.to_csv()


class TestMultiplySegment:
    def test_exclusive_ideal_appends_to_max(self):
        product = multiply_segment(ideal_segment(M68))
        assert product.m == mono("2,1,0,3,0,3") and product.kind == IDEAL

    def test_inclusive_ideal_appends_to_last_variable(self):
        product = multiply_segment(ideal_segment(mono("1,1,0"), inclusive=True))
        assert product.m == mono("1,1,1") and product.inclusive

    def test_exclusive_quotient_appends_to_last_variable(self):
        product = multiply_segment(quotient_segment(mono("0,2,0")))
        assert product.m == mono("0,2,1")

    def test_inclusive_quotient_appends_to_max(self):
        product = multiply_segment(quotient_segment(mono("0,2,0"), inclusive=True))
        assert product.m == mono("0,3,0")

    def test_needs_full_window(self):
        seg = SegmentSpec(QUOTIENT, mono("0,1,0,3,0,2"), VariableWindow(2, 6))
        with pytest.raises(InvalidInputError):
            multiply_segment(seg)


class TestMultiplyDecomposition:
    def test_ideal_degrees_bump(self):
        deco = multiply_decomposition(decompose(ideal_segment(M68)))
        assert [s.degree for s in deco.summands] == [6, 5, 5, 2, 2]

    def test_trivial_summands_stay_trivial(self):
        deco = multiply_decomposition(decompose(ideal_segment(mono("5,0,0,0"))))
        assert [s.degree for s in deco.summands] == [-1, -1, -1]
        assert deco.dimension() == 0

    def test_quotient_degrees_bump(self):
        deco = multiply_decomposition(decompose(quotient_segment(M68)))
        assert [s.degree for s in deco.summands] == [9, 8, 7, 6, 5, 4, 3, 2]
        assert deco.dimension() == segment_dimension(multiply_segment(quotient_segment(M68)))
        assert deco.dimension() == 1348

    def test_ideal_dimension_matches_multiplied_segment(self):
        deco = multiply_decomposition(decompose(ideal_segment(M68)))
        assert deco.dimension() == segment_dimension(multiply_segment(ideal_segment(M68)))
        assert deco.dimension() == 653


class TestReduceWindow:
    def test_floor_rises_to_min(self):
        seg = quotient_segment(mono("0,1,0,3,0,2"))
        assert reduce_window(seg).window.lo == 2

    def test_already_reduced_is_unchanged(self):
        seg = SegmentSpec(QUOTIENT, mono("0,1,0,3,0,2"), VariableWindow(2, 6))
        assert reduce_window(seg) is seg

    def test_jump_to_last_variable(self):
        seg = quotient_segment(mono("0,0,0,3"))
        assert reduce_window(seg).window == VariableWindow(4, 4)

    def test_ideal_segments_rejected(self):
        with pytest.raises(InvalidInputError):
            reduce_window(ideal_segment(M68))
