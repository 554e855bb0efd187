"""Monomial basics: lex order, factorizations, tails, shifts, predecessor."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mono
from lexseg import (
    InvalidInputError,
    Monomial,
    MonomialParseError,
    NoPredecessorError,
    NoSuccessorError,
    UnitMonomialError,
    VariableWindow,
    parse_monomial,
)
from lexseg.monomial import lex_compare


def all_tuples(n, degree):
    """Every degree-d exponent tuple over n variables, by raw product filtering."""
    return [t for t in itertools.product(range(degree + 1), repeat=n) if sum(t) == degree]


class TestConstruction:
    def test_exponents_are_normalized_to_tuple(self):
        m = Monomial([2, 0, 1])
        assert m.exponents == (2, 0, 1)
        assert m.n == 3 and m.degree == 3

    def test_rejects_empty_vector(self):
        with pytest.raises(InvalidInputError):
            Monomial(())

    def test_rejects_negative_exponent(self):
        with pytest.raises(InvalidInputError):
            Monomial((1, -1))

    @pytest.mark.parametrize(
        "exps", [(1.5, 0), (2.0, 1), (True, 2), (0, False), ("1", 0), (None,), (1, 2, 3.0)]
    )
    def test_rejects_non_integer_exponent(self, exps):
        with pytest.raises(InvalidInputError):
            Monomial(exps)

    def test_unit(self):
        u = Monomial.unit(4)
        assert u.is_unit and u.degree == 0 and u.n == 4

    def test_from_factorization_counts_multiplicities(self):
        assert Monomial.from_factorization((2, 2, 2, 4, 5, 5), 5).exponents == (0, 3, 0, 1, 2)

    def test_from_factorization_rejects_out_of_range_index(self):
        with pytest.raises(InvalidInputError):
            Monomial.from_factorization((0,), 3)
        with pytest.raises(InvalidInputError):
            Monomial.from_factorization((4,), 3)


class TestVariableWindow:
    def test_size(self):
        assert VariableWindow(2, 6).size == 5

    def test_empty_window_allowed(self):
        assert VariableWindow(7, 6).size == 0

    def test_rejects_nonsense_ranges(self):
        with pytest.raises(InvalidInputError):
            VariableWindow(0, 3)
        with pytest.raises(InvalidInputError):
            VariableWindow(5, 3)


class TestLexOrder:
    def test_pure_power_beats_mixed(self):
        assert lex_compare(mono("3,0,0"), mono("2,1,0")) == 1

    def test_reflexive_equality(self):
        m = mono("2,1,0,3,0,2")
        assert lex_compare(m, m) == 0

    def test_degree_three_in_three_variables_sorts_to_known_order(self):
        expected = ["a^3", "a^2*b", "a^2*c", "a*b^2", "a*b*c", "a*c^2",
                    "b^3", "b^2*c", "b*c^2", "c^3"]
        monomials = [mono(text, 3) for text in expected]
        shuffled = sorted(monomials, key=lambda m: m.exponents)  # destroy the order
        # sorted() compares through Monomial's lex operators
        assert [str(m) for m in sorted(shuffled, reverse=True)] == expected

    def test_mismatched_variable_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            lex_compare(mono("1,0"), mono("1,0,0"))

    def test_antisymmetry_on_a_full_graded_piece(self):
        piece = [Monomial(t) for t in all_tuples(3, 3)]
        for a, b in itertools.product(piece, repeat=2):
            assert lex_compare(a, b) == -lex_compare(b, a)

    def test_rich_comparisons_agree_with_compare(self):
        a, b = mono("2,1,0"), mono("1,2,0")
        assert a > b and b < a and a >= a and b <= b and not a < b


class TestFactorization:
    def test_known_factorization(self):
        assert mono("0,3,0,1,2").standard_factorization() == (2, 2, 2, 4, 5, 5)

    def test_pure_power(self):
        assert mono("4,0").standard_factorization() == (1, 1, 1, 1)

    def test_six_variable_example(self):
        assert mono("a^2*b*d^3*f^2", 6).standard_factorization() == (1, 1, 2, 4, 4, 4, 6, 6)

    def test_unit_factors_to_empty(self):
        assert Monomial.unit(3).standard_factorization() == ()

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=7))
    def test_roundtrip(self, exps):
        m = Monomial(tuple(exps))
        assert Monomial.from_factorization(m.standard_factorization(), m.n) == m


class TestMinMax:
    def test_spread_support(self):
        m = mono("a^2*b*d^3*f^2", 6)
        assert m.min_index() == 1 and m.max_index() == 6

    def test_single_variable(self):
        m = mono("0,0,5")
        assert m.min_index() == 3 and m.max_index() == 3

    def test_interior_support(self):
        m = mono("0,1,0,4")
        assert m.min_index() == 2 and m.max_index() == 4

    def test_unit_rejected(self):
        with pytest.raises(UnitMonomialError):
            Monomial.unit(2).min_index()
        with pytest.raises(UnitMonomialError):
            Monomial.unit(2).max_index()


class TestTails:
    # running example: a^2*b*d^4 in four variables, degree 7
    m = Monomial((2, 1, 0, 4))

    def test_coarse_tail_zero_is_identity(self):
        assert self.m.coarse_tail(0) == self.m

    def test_coarse_tails(self):
        assert self.m.coarse_tail(1) == Monomial((0, 1, 0, 4))
        assert self.m.coarse_tail(2) == Monomial((0, 0, 0, 4))
        assert self.m.coarse_tail(3) == Monomial((0, 0, 0, 4))

    def test_coarse_tail_range(self):
        with pytest.raises(InvalidInputError):
            self.m.coarse_tail(4)
        with pytest.raises(InvalidInputError):
            self.m.coarse_tail(-1)

    def test_fine_tail_zero_is_identity(self):
        assert self.m.fine_tail(0) == self.m

    def test_fine_tails(self):
        assert self.m.fine_tail(1) == Monomial((1, 1, 0, 4))
        assert self.m.fine_tail(2) == Monomial((0, 1, 0, 4))
        assert self.m.fine_tail(5) == Monomial((0, 0, 0, 2))
        assert self.m.fine_tail(7) == Monomial.unit(4)

    def test_fine_tail_range(self):
        with pytest.raises(InvalidInputError):
            self.m.fine_tail(8)

    def test_fine_tail_drops_degree_exactly(self):
        for t in all_tuples(4, 5):
            m = Monomial(t)
            for i in range(6):
                assert m.fine_tail(i).degree == 5 - i

    def test_coarse_tail_zeroes_prefix_and_keeps_suffix(self):
        for t in all_tuples(4, 4):
            m = Monomial(t)
            for i in range(4):
                tail = m.coarse_tail(i)
                assert tail.exponents[:i] == (0,) * i
                assert tail.exponents[i:] == t[i:]


class TestShift:
    def test_shift_by_three(self):
        assert mono("b^2*c*d", 4).shift(3) == mono("e^2*f*g", 7)

    def test_zero_shift_is_identity(self):
        m = mono("1,2,0")
        assert m.shift(0) == m

    def test_single_variable(self):
        assert Monomial((2,)).shift(1) == Monomial((0, 2))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            mono("1,0").shift(-1)

    def test_degree_preserved_and_indices_raised(self):
        for t in all_tuples(3, 4):
            m = Monomial(t)
            for i in range(3):
                s = m.shift(i)
                assert s.n == m.n + i and s.degree == m.degree
                assert s.min_index() == m.min_index() + i
                assert s.max_index() == m.max_index() + i


class TestPredecessor:
    def test_two_variable_base_case(self):
        assert mono("1,1").predecessor() == mono("2,0")

    def test_six_variable_value(self):
        # frozen from a full enumeration of the degree-8 piece in 6 variables
        assert mono("a^2*b*d^3*f^2", 6).predecessor() == Monomial((2, 1, 0, 3, 1, 1))

    def test_pure_middle_power(self):
        # frozen from a full enumeration of the degree-3 piece in 3 variables
        assert mono("0,3,0").predecessor() == Monomial((1, 0, 2))

    def test_lex_largest_has_none(self):
        with pytest.raises(NoPredecessorError):
            mono("3,0,0").predecessor()
        with pytest.raises(NoPredecessorError):
            Monomial.unit(3).predecessor()

    def test_adjacency_on_full_graded_pieces(self):
        for n, degree in [(2, 4), (3, 3), (4, 2)]:
            piece = sorted((Monomial(t) for t in all_tuples(n, degree)), reverse=True)
            for prev, cur in zip(piece, piece[1:]):
                assert cur.predecessor() == prev


class TestSuccessor:
    def test_inverse_of_predecessor(self):
        for n, degree in [(2, 4), (3, 3), (4, 2)]:
            piece = sorted((Monomial(t) for t in all_tuples(n, degree)), reverse=True)
            for prev, cur in zip(piece, piece[1:]):
                assert prev.successor() == cur

    def test_lex_smallest_has_none(self):
        with pytest.raises(NoSuccessorError):
            mono("0,0,3").successor()


class TestTextForms:
    def test_csv_roundtrip(self):
        m = parse_monomial("2,1,0,3,0,2")
        assert m.to_csv() == "2,1,0,3,0,2"
        assert m == mono("a^2*b*d^3*f^2", 6)

    def test_letter_roundtrip(self):
        m = mono("b^2*c*d", 4)
        assert m.to_letters() == "b^2*c*d"
        assert m.exponents == (0, 2, 1, 1)

    def test_letters_for_unit(self):
        assert Monomial.unit(3).to_letters() == "1"

    def test_csv_rejects_junk_with_position(self):
        with pytest.raises(MonomialParseError):
            parse_monomial("2,x,1")
        with pytest.raises(MonomialParseError):
            parse_monomial("2,-1,1")

    def test_letters_need_variable_count(self):
        with pytest.raises(MonomialParseError):
            parse_monomial("a^2*b")

    def test_letters_beyond_declared_count_rejected(self):
        exc = pytest.raises(MonomialParseError, parse_monomial, "a*e", 4)
        assert exc.value.position == 2

    def test_csv_length_must_match_hint(self):
        with pytest.raises(MonomialParseError):
            parse_monomial("1,2", 3)

    def test_empty_rejected(self):
        with pytest.raises(MonomialParseError):
            parse_monomial("  ")
