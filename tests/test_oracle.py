"""Brute-force enumeration, spans, random samples, and the verification sweep."""

import gc
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import mono
from lexseg import duality, macaulay, oracle, segments
from lexseg import (
    InvalidInputError,
    Monomial,
    ResourceLimitError,
    SegmentSpec,
    VariableWindow,
    decompose,
    ideal_segment,
    quotient_segment,
)
from lexseg.oracle import (
    check_cell,
    check_golden_values,
    check_macaulay_uniqueness,
    enumerate_segment,
    enumerate_space,
    enumerate_summand,
    run_verification,
)
from lexseg.segments import IDEAL, QUOTIENT, Decomposition, SplitResult, Summand

M68 = mono("a^2*b*d^3*f^2", 6)


class TestEnumerateSpace:
    def test_degree_three_in_three_variables(self):
        space = enumerate_space(3, 3)
        expected = ["a^3", "a^2*b", "a^2*c", "a*b^2", "a*b*c", "a*c^2",
                    "b^3", "b^2*c", "b*c^2", "c^3"]
        assert [str(m) for m in space] == expected

    def test_single_variable(self):
        space = enumerate_space(1, 7)
        assert space == (Monomial((7,)),)

    def test_six_eight_count(self):
        assert len(enumerate_space(6, 8)) == 1287

    def test_index(self):
        assert enumerate_space(6, 8).index(M68) == 362

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerate_space(30, 30)
        enumerate_space(3, 3, cap=10)
        with pytest.raises(ResourceLimitError):
            enumerate_space(3, 3, cap=9)


class TestEnumerateSegment:
    def test_ideal_count(self):
        assert len(enumerate_segment(ideal_segment(M68))) == 362

    def test_lex_largest_has_empty_segment(self):
        assert enumerate_segment(ideal_segment(mono("4,0,0"))) == []

    def test_quotient_count_four_variables(self):
        # frozen by this very enumeration; cross-checked against the
        # coefficient tuple (5,4,2,0) evaluating to 10
        assert len(enumerate_segment(quotient_segment(mono("b^2*c*d", 4)))) == 10

    def test_inclusive_adds_the_monomial_itself(self):
        m = mono("0,3,0")
        exclusive = enumerate_segment(ideal_segment(m))
        inclusive = enumerate_segment(ideal_segment(m, inclusive=True))
        assert len(inclusive) == len(exclusive) + 1
        assert inclusive[-1] == m

    def test_windowed_segment_drops_left_variables(self):
        wide = enumerate_segment(quotient_segment(mono("0,0,0,3")))
        narrow = enumerate_segment(
            SegmentSpec(QUOTIENT, mono("0,0,0,3"), VariableWindow(4, 4))
        )
        assert wide == narrow == []

    def test_windowed_count(self):
        seg = SegmentSpec(QUOTIENT, mono("0,1,0,3,0,2"), VariableWindow(2, 6))
        assert len(enumerate_segment(seg)) == 99

    def test_cap_enforced_before_enumerating(self, monkeypatch):
        # the window space has C(59, 30) monomials: the cap must refuse before
        # any tuple is built
        def unreachable(*args):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(oracle, "_exponent_tuples", unreachable)
        with pytest.raises(ResourceLimitError):
            enumerate_segment(quotient_segment(Monomial((30,) + (0,) * 29)))


class TestEnumerateSummand:
    def test_prefix_times_window(self):
        deco = decompose(ideal_segment(mono("1,1")))
        gens = enumerate_summand(deco.summands[0])
        assert gens == [mono("2,0")]

    def test_trivial_summand_is_empty(self):
        deco = decompose(ideal_segment(mono("4,0,0")))
        assert all(enumerate_summand(s) == [] for s in deco.summands)

    def test_union_over_summands_matches_segment(self):
        for seg in (ideal_segment(M68), quotient_segment(M68)):
            collected = []
            for summand in decompose(seg).summands:
                collected.extend(enumerate_summand(summand))
            assert sorted(collected, key=lambda m: m.exponents, reverse=True) == enumerate_segment(seg)
            assert len(collected) == len(set(collected))

    def test_cap_enforced_before_enumerating(self, monkeypatch):
        # C(59, 30) generators: the cap must refuse before any tuple is built
        def unreachable(*args):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(oracle, "_exponent_tuples", unreachable)
        with pytest.raises(ResourceLimitError):
            enumerate_summand(Summand(Monomial.unit(30), VariableWindow(1, 30), 30))


class TestSegmentBlock:
    @pytest.mark.parametrize("n, delta", [(n, d) for n in range(1, 6) for d in range(1, 6)])
    def test_block_is_the_enumerated_segment(self, n, delta):
        # every window a segment of m may sit on, both kinds and flags
        cell = oracle._Cell(n, delta)
        unit = Monomial.unit(n)
        for m in cell.space:
            for lo in range(1, m.min_index() + 1):
                for kind in (IDEAL, QUOTIENT):
                    for inclusive in (False, True):
                        seg = SegmentSpec(kind, m, VariableWindow(lo, n), inclusive)
                        block = cell.segment_block(seg, unit)
                        gens = enumerate_segment(seg)
                        positions = [cell.pos[g.exponents] for g in gens]
                        assert block is not None and list(range(*block)) == positions, seg


class TestSpanMultiply:
    def test_one_generator(self):
        assert oracle._products((2, 0)) == [(3, 0), (2, 1)]

    def test_six_variable_segment_span(self):
        # frozen against enumeration: the 362-dim segment spans 653 products
        gens = [g.exponents for g in enumerate_segment(ideal_segment(M68))]
        span = {u for t in gens for u in oracle._products(t)}
        sizes, _ = oracle._Cell(6, 8).spans
        assert len(gens) == 362 and sizes[362] == len(span) == 653
        product = enumerate_segment(ideal_segment(mono("2,1,0,3,0,3")))
        assert span == {g.exponents for g in product}


class TestHilbertNext:
    def test_full_piece(self):
        cell = oracle._Cell(3, 2)
        grown = cell.spans[0][cell.total]
        assert (grown, cell.total_next - grown) == (10, 0)

    def test_empty_sample(self):
        cell = oracle._Cell(3, 2)
        grown = cell.spans[0][0]
        assert (grown, cell.total_next - grown) == (0, 10)

    def test_bounds_hold_on_seeded_samples(self):
        results = check_cell(4, 3, rng=random.Random(7), samples=50)
        (result,) = [r for r in results if r.prop == "growth_bound_random"]
        assert result.ok and result.detail == "samples=50", result.as_line()

    def test_sampling_is_reproducible(self, monkeypatch):
        # the report shows only samples=N, so read the generator each cell
        # hands to the sampler; getstate() consumes no draw
        original = oracle._prop_growth_bound_random

        def sweep(seed):
            states = []

            def recording(cell, rng, samples):
                states.append(rng.getstate())
                return original(cell, rng, samples)

            monkeypatch.setattr(oracle, "_prop_growth_bound_random", recording)
            return run_verification(max_n=2, max_delta=2, seed=seed), states

        first, second, other = sweep(11), sweep(11), sweep(12)
        assert first == second and len(first[1]) == 4
        assert all(a != b for a, b in zip(first[1], other[1]))


class TestVerification:
    def test_small_cells_pass(self):
        for n, delta in [(1, 1), (2, 3), (3, 2), (4, 4)]:
            results = check_cell(n, delta, rng=random.Random(3), samples=5)
            bad = [r for r in results if not r.ok]
            assert bad == [], [r.as_line() for r in bad]

    def test_golden_values_pass(self):
        results = check_golden_values()
        assert all(r.ok for r in results), [r.as_line() for r in results if not r.ok]

    def test_uniqueness_small(self):
        results = check_macaulay_uniqueness(max_s=300, max_p=4)
        assert len(results) == 4 and all(r.ok for r in results)

    @pytest.mark.parametrize("max_n, max_delta", [(0, 6), (-2, 6), (5, 0), (5, -1)])
    def test_empty_grid_rejected(self, max_n, max_delta):
        with pytest.raises(InvalidInputError):
            run_verification(max_n=max_n, max_delta=max_delta)

    def test_report_shape(self):
        report = run_verification(max_n=2, max_delta=2, samples_per_cell=3)
        assert report.ok and report.random_samples == 12
        lines = report.lines()
        assert lines[0].startswith("cell=(1,1) property=enumeration_order status=ok")
        assert any(line.startswith("cell=global property=macaulay_uniqueness_p8") for line in lines)


def _status(prop, n=3, delta=3):
    (result,) = [r for r in check_cell(n, delta) if r.prop == prop]
    return result


def _multiply_by_last(seg):
    return replace(seg, m=seg.m.times_var(seg.n))


def _multiply_then_include(seg):
    product = segments.multiply_segment(seg)
    return product if product.inclusive else replace(product, inclusive=True)


def _split_beta_too_small(seg):
    if seg.kind != IDEAL:
        return segments.split_once(seg)
    lo, n = seg.window.lo, seg.n
    beta = seg.m.exponents[lo - 1]
    summand = Summand(Monomial.from_factorization([lo] * beta, n), VariableWindow(lo, n), seg.delta - beta)
    rest = seg.m.coarse_tail(lo) if lo < n else Monomial.unit(n)
    residual = None if rest.is_unit else SegmentSpec(IDEAL, rest, VariableWindow(lo + 1, n))
    return SplitResult(summand, Monomial.from_factorization([lo] * max(beta - 1, 0), n), residual)


def _decompose_drop_last(seg):
    d = segments.decompose(seg)
    return Decomposition(d.kind, d.summands[:-1])


def _decompose_repeat_first(seg):
    d = segments.decompose(seg)
    return Decomposition(d.kind, d.summands + d.summands[:1])


def _decompose_shift_shared_window(seg):
    # the quotient summand M_[2,n]^delta opens the decomposition of every m
    # divisible by x_1; moving its window up by one breaks all of them at once
    d = segments.decompose(seg)
    shared = Summand(Monomial.unit(seg.n), VariableWindow(2, seg.n), seg.delta)
    moved = replace(shared, window=VariableWindow(3, seg.n))
    return Decomposition(d.kind, tuple(moved if s == shared else s for s in d.summands))


def _decompose_restated_off_blocks(seg):
    # P * M_[lo,n]^d restated as P * M_[lo,n-1]^d (+) P * x_n * M_[lo,n]^(d-1):
    # the same generators, but the first piece is no block of the lex list
    d = segments.decompose(seg)
    pieces = []
    for s in d.summands:
        if s.degree < 1 or s.window.size < 3:
            pieces.append(s)
            continue
        pieces.append(replace(s, window=VariableWindow(s.window.lo, seg.n - 1)))
        pieces.append(Summand(s.prefix.times_var(seg.n), s.window, s.degree - 1))
    return Decomposition(d.kind, tuple(pieces))


def _split_residual_inclusive(seg, kinds=(IDEAL, QUOTIENT)):
    split = segments.split_once(seg)
    if split.residual is None or seg.kind not in kinds:
        return split
    return replace(split, residual=replace(split.residual, inclusive=True))


def _split_ideal_residual_inclusive(seg):
    return _split_residual_inclusive(seg, kinds=(IDEAL,))


def _reduce_window_keeping_m(seg):
    return replace(segments.reduce_window(seg), inclusive=True)


def _space_dimension_plus_one(window_size, degree):
    return macaulay.space_dimension(window_size, degree) + 1


def _segment_dimension_plus_one(seg):
    return segments.segment_dimension(seg) + 1


def _quotient_growth_bound_plus_one(s, delta):
    return macaulay.quotient_growth_bound(s, delta) + 1


FAULTS = [
    ("multiply_segment", _multiply_by_last, "multiplication_agreement"),
    ("multiply_segment", _multiply_then_include, "multiplication_agreement"),
    ("split_once", _split_beta_too_small, "split_agreement"),
    ("decompose", _decompose_drop_last, "decomposition_partition"),
    ("decompose", _decompose_repeat_first, "decomposition_partition"),
    ("reduce_window", _reduce_window_keeping_m, "window_reduction"),
    ("decompose", _decompose_shift_shared_window, "decomposition_partition"),
    ("split_once", _split_residual_inclusive, "split_agreement"),
    ("split_once", _split_ideal_residual_inclusive, "split_agreement"),
    ("decompose", _decompose_drop_last, "multiply_decomposition_dims"),
    ("space_dimension", _space_dimension_plus_one, "enumeration_order"),
    ("segment_dimension", _segment_dimension_plus_one, "segment_dimensions"),
    ("quotient_growth_bound", _quotient_growth_bound_plus_one, "growth_formula_lex"),
]

_ideal_coefficients = duality.ideal_coefficients
_quotient_coefficients = duality.quotient_coefficients


def _predecessor_is_self(m):
    return m


def _quotient_coefficients_reversed(m):
    return _quotient_coefficients(Monomial(m.exponents[::-1]))


def _ideal_coefficients_of_pure_power(m):
    return _ideal_coefficients(Monomial((m.degree,) + (0,) * (m.n - 1)))


def _reconstruct_times_x1(values, p, original=duality.reconstruct_from_quotient_set):
    return original(values, p).times_var(1)


def _unrank_one_early(q, n, delta, original=duality.unrank):
    # unrank(q - 1) would raise at q = 1 rather than answer wrongly
    return original(max(q - 1, 1), n, delta)


# wrong closed forms the oracle reaches through duality or Monomial, not its
# own namespace
PATCHES = [
    (Monomial, "predecessor", _predecessor_is_self, "predecessor_adjacency"),
    (duality, "quotient_coefficients", _quotient_coefficients_reversed, "coefficient_dimensions"),
    (duality, "ideal_coefficients", _ideal_coefficients_of_pure_power, "bijection"),
    (duality, "reconstruct_from_quotient_set", _reconstruct_times_x1, "reconstruction_roundtrip"),
    (duality, "unrank", _unrank_one_early, "rank_unrank"),
]


class TestFaultInjection:
    """A wrong closed form in the oracle's namespace must fail its property."""

    @pytest.mark.parametrize("name, fault, prop", FAULTS)
    def test_fault_is_reported(self, monkeypatch, name, fault, prop):
        monkeypatch.setattr(oracle, name, fault)
        result = _status(prop)
        assert not result.ok, result.as_line()

    @pytest.mark.parametrize("owner, name, fault, prop", PATCHES, ids=[p[3] for p in PATCHES])
    def test_patched_fault_is_reported(self, monkeypatch, owner, name, fault, prop):
        monkeypatch.setattr(owner, name, fault)
        result = _status(prop)
        assert not result.ok, result.as_line()

    def test_sets_that_are_not_the_tuples_are_reported(self, monkeypatch):
        # the partition holds for the coefficient tuples, not for whatever
        # coefficient_sets returns: two empty sets must not pass
        empty = SimpleNamespace(ideal_set=frozenset(), quotient_set=frozenset())
        monkeypatch.setattr(duality, "coefficient_sets", lambda m: empty)
        result = _status("set_partition")
        assert not result.ok and "coefficient tuples" in result.detail, result.as_line()

    def test_sets_that_overlap_are_reported(self, monkeypatch):
        # wrong tuples, and sets built from them without CoefficientSets'
        # own validation: the property itself must see the overlap
        monkeypatch.setattr(duality, "quotient_coefficients", _quotient_coefficients_reversed)
        monkeypatch.setattr(
            duality,
            "coefficient_sets",
            lambda m: SimpleNamespace(
                ideal_set=duality.ideal_coefficients(m).as_set(),
                quotient_set=duality.quotient_coefficients(m).as_set(),
            ),
        )
        result = _status("set_partition")
        assert not result.ok and "do not partition" in result.detail, result.as_line()

    def test_growth_bound_violation_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "ideal_growth_bound", lambda s, n: macaulay.ideal_growth_bound(s, n) + 10**6
        )
        results = check_cell(3, 3, rng=random.Random(3), samples=5)
        (result,) = [r for r in results if r.prop == "growth_bound_random"]
        assert not result.ok, result.as_line()

    def test_summand_off_block_is_reported(self, monkeypatch):
        # each summand must fill one contiguous block of the lex list; the
        # same generators cut into pieces that are not blocks do not pass
        monkeypatch.setattr(oracle, "decompose", _decompose_restated_off_blocks)
        assert not _status("decomposition_partition").ok

    def test_equivalent_product_in_another_form_is_reported(self, monkeypatch):
        # an exclusive ideal product restated as the inclusive segment of its
        # predecessor spans the same monomials, but a product must keep its
        # segment's kind and inclusiveness to be read as a slice
        def restated(seg):
            product = segments.multiply_segment(seg)
            if product.kind != IDEAL or product.inclusive or product.m.max_index() == 1:
                return product
            return replace(product, m=product.m.predecessor(), inclusive=True)

        monkeypatch.setattr(oracle, "multiply_segment", restated)
        assert not _status("multiplication_agreement").ok

    def test_next_degree_listing_premise_is_reported(self):
        # products are read as slices of the next degree's listing, so a
        # listing that is unsorted or misses a product fails the property
        unsorted = oracle._Cell(3, 3)
        unsorted.next_sorted = False
        incomplete = oracle._Cell(3, 3)
        incomplete.spans = (incomplete.spans[0], None)
        for cell in (unsorted, incomplete):
            assert not oracle._prop_multiplication_agreement(cell).ok


class TestTiles:
    def test_exact_tiling_in_any_order(self):
        assert oracle._tiles([(3, 7), (0, 3), (7, 9)], 0, 9)

    def test_empty_blocks_are_ignored(self):
        assert oracle._tiles([(0, 0), (2, 5), (4, 4), (5, 5)], 2, 5)
        assert oracle._tiles([(0, 0)], 4, 4)
        assert oracle._tiles([], 4, 4)

    def test_gap_rejected(self):
        assert not oracle._tiles([(0, 3), (4, 9)], 0, 9)

    def test_overlap_rejected(self):
        assert not oracle._tiles([(0, 4), (3, 9)], 0, 9)
        assert not oracle._tiles([(0, 9), (0, 9)], 0, 9)

    def test_none_block_rejected(self):
        assert not oracle._tiles(None, 0, 9)

    def test_ends_must_match(self):
        assert not oracle._tiles([(1, 9)], 0, 9)
        assert not oracle._tiles([(0, 8)], 0, 9)
        assert not oracle._tiles([(0, 10)], 0, 9)
        assert not oracle._tiles([], 0, 9)


def test_all_reps_leave_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        oracle._all_reps_up_to(3, 200)
        assert gc.collect() == 0
    finally:
        gc.enable()
