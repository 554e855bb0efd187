"""Binomials, Macaulay representations, and the growth transforms."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lexseg.macaulay
from lexseg import (
    InvalidInputError,
    InvalidRepError,
    MacaulayRep,
    binom,
    ideal_growth_bound,
    macaulay_rep,
    quotient_growth_bound,
    space_dimension,
)


class TestBinom:
    def test_values(self):
        assert binom(10, 5) == 252
        assert binom(13, 8) == 1287

    def test_bottom_is_one(self):
        assert binom(0, 0) == 1
        assert binom(7, 0) == 1

    def test_vanishing_convention(self):
        assert binom(1, 2) == 0
        assert binom(-1, 0) == 0
        assert binom(-3, 2) == 0

    def test_negative_lower_index_rejected(self):
        with pytest.raises(InvalidInputError):
            binom(3, -1)


class TestSpaceDimension:
    def test_values(self):
        assert space_dimension(6, 8) == 1287
        assert space_dimension(6, 5) == 252
        assert space_dimension(5, 4) == 70

    def test_degree_zero(self):
        for n in (1, 2, 9):
            assert space_dimension(n, 0) == 1

    def test_empty_window(self):
        assert space_dimension(0, 2) == 0
        assert space_dimension(0, 1) == 0
        assert space_dimension(0, 0) == 1

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            space_dimension(-1, 2)
        with pytest.raises(InvalidInputError):
            space_dimension(2, -1)


class TestMacaulayRepType:
    def test_holds_coefficients_most_significant_first(self):
        rep = MacaulayRep((9, 7, 5, 4, 1, 0))
        assert rep.p == 6
        assert list(rep.indexed()) == [(6, 9), (5, 7), (4, 5), (3, 4), (2, 1), (1, 0)]
        assert str(rep) == "9,7,5,4,1,0"

    def test_rejects_non_decreasing(self):
        with pytest.raises(InvalidRepError):
            MacaulayRep((3, 3, 1))
        with pytest.raises(InvalidRepError):
            MacaulayRep((2, 5))

    def test_rejects_negative(self):
        with pytest.raises(InvalidRepError):
            MacaulayRep((3, -1))

    @pytest.mark.parametrize(
        "coeffs", [(3.5, 1), (3, 1.0), (True, 0), (2, False), ("3", 1), (3, None)]
    )
    def test_rejects_non_integer(self, coeffs):
        with pytest.raises(InvalidRepError):
            MacaulayRep(coeffs)

    def test_empty_rep_evaluates_to_zero(self):
        assert MacaulayRep(()).value() == 0


class TestMacaulayRepConstruction:
    def test_known_six_term_representation(self):
        assert macaulay_rep(114, 6).coefficients == (9, 7, 5, 4, 1, 0)

    def test_known_five_term_representation(self):
        assert macaulay_rep(362, 5).coefficients == (10, 8, 7, 3, 2)

    def test_known_eight_term_representation(self):
        assert macaulay_rep(924, 8).coefficients == (12, 11, 9, 6, 5, 4, 1, 0)

    def test_zero_pads_to_stairs(self):
        for p in range(1, 7):
            assert macaulay_rep(0, p).coefficients == tuple(range(p - 1, -1, -1))

    def test_eval_inverts(self):
        assert macaulay_rep(114, 6).value() == 114
        assert MacaulayRep((12, 11, 9, 6, 5, 4, 1, 0)).value() == 924

    def test_roundtrip_exhaustive_small(self):
        for p in range(1, 6):
            for s in range(0, 600):
                assert macaulay_rep(s, p).value() == s

    def test_monotone_in_s(self):
        for p in (2, 4):
            prev = macaulay_rep(0, p).coefficients
            for s in range(1, 400):
                cur = macaulay_rep(s, p).coefficients
                assert cur > prev
                prev = cur

    def test_uniqueness_by_exhaustive_search_small(self):
        # every strictly decreasing 3-tuple hits a distinct value
        seen = {}
        for a in range(2, 15):
            for b in range(1, a):
                for c in range(0, b):
                    value = binom(a, 3) + binom(b, 2) + binom(c, 1)
                    assert value not in seen, (a, b, c, seen[value])
                    seen[value] = (a, b, c)
        for s in range(0, 200):
            assert seen[s] == macaulay_rep(s, 3).coefficients

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            macaulay_rep(-1, 3)
        with pytest.raises(InvalidInputError):
            macaulay_rep(5, 0)

    @pytest.mark.parametrize(
        "s, p", [(2.5, 2), (2.0, 2), (3, 2.0), ("3", 2), (3, None), (True, 2), (3, True), (False, 1)]
    )
    def test_non_integer_inputs_rejected(self, s, p):
        with pytest.raises(InvalidInputError):
            macaulay_rep(s, p)

    @staticmethod
    def assert_greedy(s, p):
        """The value is s, the numerators strictly decrease, and each is greedy-maximal."""
        coeffs = macaulay_rep(s, p).coefficients
        assert len(coeffs) == p
        assert all(coeffs[k] > coeffs[k + 1] for k in range(p - 1))
        remainder = s
        for i, c in zip(range(p, 0, -1), coeffs):
            assert binom(c, i) <= remainder < binom(c + 1, i), (s, p, i, c)
            remainder -= binom(c, i)
        assert remainder == 0

    def test_scan_random_graded_ranks(self):
        # s below the dimension of a graded piece, as rank/unrank use it
        rng = random.Random(20240)
        for p, delta in [(800, 800), (800, 50), (50, 800), (200, 200), (3, 400), (1, 10)]:
            for _ in range(2):
                self.assert_greedy(rng.randrange(binom(p + delta, delta)), p)
        for _ in range(25):
            p, delta = rng.randint(1, 800), rng.randint(1, 800)
            self.assert_greedy(rng.randrange(binom(p + delta, delta)), p)

    def test_scan_random_far_above_graded_range(self):
        rng = random.Random(20241)
        for _ in range(20):
            p, delta = rng.randint(1, 800), rng.randint(1, 200)
            s = binom(p + delta, delta) * rng.randrange(2, 10**rng.randint(2, 300))
            self.assert_greedy(s + rng.randrange(10**6), p)

    @pytest.mark.parametrize("s, p", [(10**100, 3), (10**300, 7)])
    def test_huge_s_small_p_takes_search_fallback(self, s, p, monkeypatch):
        bounded = []
        search = lexseg.macaulay._greedy_numerator

        def recording(value, i, upper=None):
            if upper is not None:
                bounded.append(i)
            return search(value, i, upper)

        monkeypatch.setattr(lexseg.macaulay, "_greedy_numerator", recording)
        self.assert_greedy(s, p)
        assert bounded

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=9))
    def test_roundtrip_random(self, s, p):
        rep = macaulay_rep(s, p)
        assert rep.value() == s
        coeffs = rep.coefficients
        assert all(coeffs[k] > coeffs[k + 1] for k in range(len(coeffs) - 1))


class TestQuotientGrowthBound:
    def test_zero(self):
        for delta in (1, 3, 8):
            assert quotient_growth_bound(0, delta) == 0

    def test_full_piece_grows_to_full_piece(self):
        # frozen against enumeration: 6 = dim of degree 2 in 3 vars -> 10
        assert quotient_growth_bound(6, 2) == 10
        assert quotient_growth_bound(10, 2) == 20

    def test_known_eight_term_value(self):
        # frozen against the enumerated complement span in the (6,8) cell
        assert quotient_growth_bound(924, 8) == 1348

    def test_bad_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            quotient_growth_bound(4, 0)


class TestIdealGrowthBound:
    def test_zero(self):
        for n in (2, 4, 6):
            assert ideal_growth_bound(0, n) == 0

    def test_known_five_term_value(self):
        # frozen against the enumerated span of the 362-dim initial segment
        assert ideal_growth_bound(362, 6) == 653

    def test_vanishing_terms_contribute_nothing(self):
        # one generator in three variables spans exactly 3 products,
        # frozen against enumeration; counting the vanishing term would give 4
        assert ideal_growth_bound(1, 3) == 3

    def test_needs_two_variables(self):
        with pytest.raises(InvalidInputError):
            ideal_growth_bound(5, 1)
