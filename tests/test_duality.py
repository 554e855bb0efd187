"""Coefficient extraction, the set partition, reconstruction, and ranking."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mono
from lexseg import (
    InvalidInputError,
    MacaulayRep,
    Monomial,
    UnitMonomialError,
    binom,
    coefficient_sets,
    ideal_coefficients,
    ideal_segment,
    quotient_coefficients,
    quotient_segment,
    rank,
    reconstruct_from_ideal_set,
    reconstruct_from_quotient_set,
    segment_dimension,
    unrank,
)
from lexseg import duality, oracle

M68 = mono("a^2*b*d^3*f^2", 6)
M44 = mono("b^2*c*d", 4)


def graded_piece(n, degree):
    piece = [Monomial(t) for t in itertools.product(range(degree + 1), repeat=n)
             if sum(t) == degree]
    return sorted(piece, reverse=True)


def shift_inheritance(n, delta):
    """The oracle's shift_inheritance property on one (n, delta) cell."""
    return oracle._prop_shift_inheritance(oracle._Cell(n, delta))


class TestIdealCoefficients:
    def test_six_variable_tuple(self):
        assert ideal_coefficients(M68).coefficients == (10, 8, 7, 3, 2)

    def test_four_variable_tuple(self):
        assert ideal_coefficients(M44).coefficients == (6, 3, 1)

    def test_lex_largest_gives_stairs(self):
        for n, degree in [(3, 3), (5, 2)]:
            m = Monomial((degree,) + (0,) * (n - 1))
            rep = ideal_coefficients(m)
            assert rep.coefficients == tuple(range(n - 2, -1, -1))
            assert rep.value() == 0

    def test_single_variable_gives_empty_rep(self):
        rep = ideal_coefficients(Monomial((4,)))
        assert rep.coefficients == () and rep.value() == 0

    def test_unit_rejected(self):
        with pytest.raises(UnitMonomialError):
            ideal_coefficients(Monomial.unit(3))


class TestQuotientCoefficients:
    def test_six_variable_tuple(self):
        assert quotient_coefficients(M68).coefficients == (12, 11, 9, 6, 5, 4, 1, 0)

    def test_four_variable_tuple(self):
        assert quotient_coefficients(M44).coefficients == (5, 4, 2, 0)

    def test_lex_smallest_gives_stairs(self):
        for n, degree in [(3, 3), (2, 5)]:
            m = Monomial((0,) * (n - 1) + (degree,))
            rep = quotient_coefficients(m)
            assert rep.coefficients == tuple(range(degree - 1, -1, -1))
            assert rep.value() == 0

    def test_unit_rejected(self):
        with pytest.raises(UnitMonomialError):
            quotient_coefficients(Monomial.unit(3))


class TestCoefficientSets:
    def test_six_variable_partition(self):
        sets = coefficient_sets(M68)
        assert sets.ideal_set == frozenset({10, 8, 7, 3, 2})
        assert sets.quotient_set == frozenset({12, 11, 9, 6, 5, 4, 1, 0})
        assert sets.ideal_set | sets.quotient_set == frozenset(range(13))

    def test_one_variable_edge(self):
        sets = coefficient_sets(Monomial((1,)))
        assert sets.ideal_set == frozenset()
        assert sets.quotient_set == frozenset({0})

    def test_shifted_example(self):
        sets = coefficient_sets(mono("e^2*f*g", 7))
        assert sets.ideal_set == frozenset({9, 8, 7, 6, 3, 1})
        assert sets.quotient_set == frozenset({5, 4, 2, 0})

    def test_partition_exhaustive_small(self):
        for n, degree in [(3, 4), (4, 3)]:
            for m in graded_piece(n, degree):
                sets = coefficient_sets(m)
                assert len(sets.ideal_set) == n - 1
                assert len(sets.quotient_set) == degree
                assert not sets.ideal_set & sets.quotient_set
                assert sets.ideal_set | sets.quotient_set == frozenset(range(n + degree - 1))


class TestShiftInheritance:
    def test_multiplying_by_first_variable_three_times(self):
        m = mono("a^3*b^2*c*d", 4)
        assert ideal_coefficients(m).coefficients == (6, 3, 1)
        assert quotient_coefficients(m).coefficients == (9, 8, 7, 5, 4, 2, 0)

    def test_shifting_three_times(self):
        m = mono("e^2*f*g", 7)
        assert quotient_coefficients(m).coefficients == (5, 4, 2, 0)
        assert ideal_coefficients(m).coefficients == (9, 8, 7, 6, 3, 1)

    def test_report_passes_for_pure_power(self):
        # the one-variable cell holds only the pure power x_1^4
        result = shift_inheritance(1, 4)
        assert result.ok and result.detail == "1 monomials", result.as_line()

    def test_report_passes_exhaustive_small(self):
        result = shift_inheritance(4, 3)
        assert result.ok and result.detail == "20 monomials", result.as_line()

    def test_wrong_quotient_coefficients_fail(self, monkeypatch):
        # t_i read one too high: every coefficient set is off by one, which
        # the x_1 identity sees as the newcomer n + delta landing in place
        # of n + delta - 1
        original = duality.quotient_coefficients

        def wrong(m):
            return MacaulayRep(tuple(c + 1 for c in original(m).coefficients))

        monkeypatch.setattr(duality, "quotient_coefficients", wrong)
        result = shift_inheritance(3, 3)
        assert not result.ok and "quotient set extended" in result.detail, result.as_line()

    def test_unit_rejected(self):
        # the degree-0 cell is the unit monomial, whose coefficients are undefined
        with pytest.raises(UnitMonomialError):
            shift_inheritance(2, 0)


class TestReconstruction:
    def test_from_ideal_set(self):
        assert reconstruct_from_ideal_set({6, 3, 1}, 6) == M44

    def test_from_quotient_set(self):
        assert reconstruct_from_quotient_set({5, 4, 2, 0}, 6) == M44

    def test_six_variable_roundtrip_values(self):
        assert reconstruct_from_ideal_set({10, 8, 7, 3, 2}, 12) == M68
        assert reconstruct_from_quotient_set({12, 11, 9, 6, 5, 4, 1, 0}, 12) == M68

    def test_bottom_staircase_sets_give_extremes(self):
        # frozen against enumeration: the lex-largest monomial carries the
        # ideal set {0..n-2}, the lex-smallest the quotient set {0..delta-1}
        assert reconstruct_from_ideal_set({0, 1}, 4) == mono("3,0,0")
        assert reconstruct_from_quotient_set({0, 1, 2}, 4) == mono("0,0,3")

    def test_top_staircase_sets_give_opposite_extremes(self):
        assert reconstruct_from_ideal_set({4, 3}, 4) == mono("0,0,3")
        assert reconstruct_from_quotient_set({4, 3, 2}, 4) == mono("3,0,0")

    def test_rejects_bad_sets(self):
        with pytest.raises(InvalidInputError):
            reconstruct_from_ideal_set(set(), 4)
        with pytest.raises(InvalidInputError):
            reconstruct_from_ideal_set({5}, 4)
        with pytest.raises(InvalidInputError):
            reconstruct_from_ideal_set({-1, 2}, 4)
        with pytest.raises(InvalidInputError):
            reconstruct_from_ideal_set({0, 1, 2, 3, 4}, 4)
        with pytest.raises(InvalidInputError):
            reconstruct_from_quotient_set([2, 2, 1], 4)

    @pytest.mark.parametrize(
        "reconstruct, values, p",
        [
            (reconstruct_from_quotient_set, [2.0], 3),
            (reconstruct_from_quotient_set, [True], 2),
            (reconstruct_from_ideal_set, [1], True),
            (reconstruct_from_ideal_set, ["1"], 3),
            (reconstruct_from_quotient_set, [1], 2.0),
        ],
    )
    def test_rejects_non_integer_entries_and_p(self, reconstruct, values, p):
        with pytest.raises(InvalidInputError):
            reconstruct(values, p)

    def test_roundtrip_exhaustive_small(self):
        for n, degree in [(3, 3), (4, 2), (2, 5)]:
            p = n + degree - 2
            for m in graded_piece(n, degree):
                assert reconstruct_from_ideal_set(ideal_coefficients(m).as_set(), p) == m
                assert reconstruct_from_quotient_set(quotient_coefficients(m).as_set(), p) == m


class TestBijection:
    def test_images_cover_all_subsets(self):
        n, degree = 4, 3
        p = n + degree - 2
        images = {ideal_coefficients(m).as_set() for m in graded_piece(n, degree)}
        subsets = {frozenset(c) for c in itertools.combinations(range(p + 1), n - 1)}
        assert images == subsets


class TestRank:
    def test_six_variable_value(self):
        assert rank(M68) == 363

    def test_lex_largest_is_first(self):
        assert rank(mono("8,0,0,0,0,0")) == 1

    def test_lex_smallest_is_last(self):
        assert rank(mono("0,0,0,0,0,8")) == binom(13, 8) == 1287

    def test_rank_formulas_agree_exhaustive_small(self):
        for n, degree in [(3, 4), (4, 3), (1, 5)]:
            total = binom(n + degree - 1, degree)
            for k, m in enumerate(graded_piece(n, degree)):
                q = rank(m)
                assert q == k + 1
                assert q == total - quotient_coefficients(m).value()

    def test_rank_is_one_plus_segment_dimension(self):
        for m in (M68, M44, mono("0,3,0")):
            assert rank(m) == 1 + segment_dimension(ideal_segment(m))
            assert rank(m) == binom(m.n + m.degree - 1, m.degree) - segment_dimension(
                quotient_segment(m)
            )


class TestUnrank:
    def test_inverts_rank_exhaustive_small(self):
        for n, degree in [(3, 4), (4, 3), (1, 5)]:
            for m in graded_piece(n, degree):
                assert unrank(rank(m), n, degree) == m

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            unrank(0, 3, 2)
        with pytest.raises(InvalidInputError):
            unrank(7, 3, 2)
        with pytest.raises(InvalidInputError):
            unrank(1, 0, 2)

    @pytest.mark.parametrize(
        "q, n, delta", [(1, 2.0, 2), (True, 2, 2), (1, 2, True), (1, 2, 2.0)]
    )
    def test_non_integer_inputs_rejected(self, q, n, delta):
        with pytest.raises(InvalidInputError):
            unrank(q, n, delta)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=7),
           st.data())
    def test_roundtrip_random(self, n, degree, data):
        q = data.draw(st.integers(min_value=1, max_value=binom(n + degree - 1, degree)))
        m = unrank(q, n, degree)
        assert m.n == n and m.degree == degree
        assert rank(m) == q
