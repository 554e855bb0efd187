"""Brute-force ground truth: exhaustive enumeration against every formula.

Everything here works by materializing monomial lists and spans for small
(n, delta) cells and comparing them with the closed-form operations of the
other modules.  The verification sweep treats each cell independently and
purely, so cells could run concurrently; results merge deterministically
by cell coordinates.

An ideal segment is a prefix of the cell's lex-descending list of degree-delta
monomials and a quotient segment a suffix, so each segment check compares
the closed form's output against a slice of that enumerated list: by the lex
positions of the generators it enumerates, or by the size and largest
position of a brute-force span.  A product segment must therefore stay on
the full window with its segment's kind and inclusiveness: one that does
not, or whose monomial is missing from the next degree's list, is reported
as a failure.  Positions come from enumeration alone, never from rank or
dimension formulas: the oracle exists to check those formulas, so it must
not trust them.

A decomposition summand (prefix times a window space) and a split's
prefixed residual listing each fill one contiguous block of the list.  Each
distinct summand is enumerated once per cell, and its block is read off the
positions of its generators; per monomial, the blocks of a segment's pieces
must then tile the segment's slice exactly, an O(n + delta) interval check.
A split's residual segment is a prefix (ideal) or a suffix (quotient) of
its prefixed listing, cut at the residual monomial's position.  This is a
contract on the closed forms: a summand whose generators do not sit at
consecutive positions in lex order is reported as a failure, even where a
union of such pieces would still cover the slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import duality, segments
from .errors import InvalidInputError, NoPredecessorError, ResourceLimitError
from .macaulay import (
    binom,
    ideal_growth_bound,
    macaulay_rep,
    quotient_growth_bound,
    space_dimension,
)
from .monomial import Monomial
from .segments import (
    IDEAL,
    QUOTIENT,
    Decomposition,
    SegmentSpec,
    SplitResult,
    decompose,
    ideal_segment,
    multiply_decomposition,
    multiply_segment,
    quotient_segment,
    reduce_window,
    segment_dimension,
    split_once,
)

DEFAULT_ENUMERATION_CAP = 10**7


def _exponent_tuples(nvars: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All degree-d exponent tuples over nvars variables, lex-descending."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _exponent_tuples(nvars - 1, degree - first):
            yield (first,) + rest


def _window_tuples(n: int, lo: int, hi: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of full length n with support inside [lo, hi], lex-descending."""
    size = hi - lo + 1
    if size == 0:
        return [(0,) * n] if degree == 0 else []
    head, tail = (0,) * (lo - 1), (0,) * (n - hi)
    return [head + t + tail for t in _exponent_tuples(size, degree)]


@dataclass(frozen=True, slots=True)
class EnumeratedSpace:
    """Complete lex-descending listing of the degree-delta monomials in n variables."""

    n: int
    delta: int
    monomials: tuple[Monomial, ...]

    def index(self, m: Monomial) -> int:
        return self.monomials.index(m)

    def __len__(self) -> int:
        return len(self.monomials)


def enumerate_space(n: int, delta: int, cap: int = DEFAULT_ENUMERATION_CAP) -> EnumeratedSpace:
    """Materialize a whole graded piece, refusing anything above the cap."""
    total = space_dimension(n, delta)
    if total > cap:
        raise ResourceLimitError(f"space of dimension {total} exceeds the cap {cap}")
    monomials = tuple(Monomial(t) for t in _exponent_tuples(n, delta))
    return EnumeratedSpace(n, delta, monomials)


def enumerate_segment(seg: SegmentSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Monomial]:
    """Generator list of a segment by direct filtering, lex-descending."""
    window = _capped_window_tuples(seg.n, seg.window.lo, seg.window.hi, seg.delta, cap)
    return [Monomial(t) for t in _segment_of(seg, window)]


def enumerate_summand(summand: segments.Summand) -> list[Monomial]:
    """Generators of one decomposition summand: prefix times its window space."""
    if summand.degree < 0:
        return []
    tails = _window_tuples(summand.prefix.n, summand.window.lo, summand.window.hi, summand.degree)
    return [Monomial(t) for t in _prefixed(summand.prefix.exponents, tails)]


def _capped_window_tuples(n: int, lo: int, hi: int, degree: int, cap: int) -> list[tuple[int, ...]]:
    size = space_dimension(hi - lo + 1, degree)
    if size > cap:
        raise ResourceLimitError(f"window space of dimension {size} exceeds the cap {cap}")
    return _window_tuples(n, lo, hi, degree)


def _segment_of(seg: SegmentSpec, window: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The tuples of seg's window listing that generate seg, by direct comparison with m."""
    target = seg.m.exponents
    if seg.kind == IDEAL:
        if seg.inclusive:
            return [t for t in window if t >= target]
        return [t for t in window if t > target]
    if seg.inclusive:
        return [t for t in window if t <= target]
    return [t for t in window if t < target]


def _prefixed(prefix: tuple[int, ...], tails: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return [tuple(p + t for p, t in zip(prefix, tail)) for tail in tails]


def span_multiply(generators: Iterable[Monomial]) -> list[Monomial]:
    """Deduplicated products {g * x_i}, lex-descending; the span of S_1 times the input."""
    return [Monomial(t) for t in sorted(_span_tuples(list(generators)), reverse=True)]


def _span_tuples(gens: Sequence[Monomial]) -> set[tuple[int, ...]]:
    if not gens:
        return set()
    if len({g.degree for g in gens}) != 1:
        raise InvalidInputError("span generators must share one degree")
    n = gens[0].n
    return {
        g.exponents[:i] + (g.exponents[i] + 1,) + g.exponents[i + 1 :]
        for g in gens
        for i in range(n)
    }


@dataclass(frozen=True, slots=True)
class MonomialIdealSample:
    """A set of distinct degree-delta generators; the test fixture for growth bounds."""

    n: int
    delta: int
    generators: tuple[Monomial, ...]


def _sample_of(space: EnumeratedSpace, size: int, rng: random.Random) -> MonomialIdealSample:
    picks = rng.sample(range(len(space)), size)
    return MonomialIdealSample(space.n, space.delta, tuple(space.monomials[i] for i in sorted(picks)))


def hilbert_next(sample: MonomialIdealSample, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[int, int]:
    """(dim of the span in the next degree, dim of its complement)."""
    total_next = space_dimension(sample.n, sample.delta + 1)
    if total_next > cap:
        raise ResourceLimitError(f"next graded piece of dimension {total_next} exceeds the cap {cap}")
    grown = len(_span_tuples(sample.generators))
    return grown, total_next - grown


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckResult:
    cell: str
    prop: str
    ok: bool
    detail: str = ""

    def as_line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"cell={self.cell} property={self.prop} status={status} detail={self.detail}"


@dataclass(frozen=True, slots=True)
class VerificationReport:
    results: tuple[CheckResult, ...]
    random_samples: int

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        return [r.as_line() for r in self.results]


class _Cell:
    """Per-cell precomputation shared by all property checks.

    Segments are checked as slices of the cell's own enumerated lists:
    `pos` and `next_pos` give each exponent tuple its lex position, and
    window enumerations, decompositions and the position blocks of
    summands and prefixed listings are memoized for the cell's lifetime.
    """

    def __init__(self, n: int, delta: int, cap: int):
        self.n = n
        self.delta = delta
        self.cap = cap
        self.label = f"({n},{delta})"
        self.space = enumerate_space(n, delta, cap)
        self.exps = [m.exponents for m in self.space.monomials]
        self.total = len(self.exps)
        self.pos = {t: k for k, t in enumerate(self.exps)}
        self.next_exps = [m.exponents for m in enumerate_space(n, delta + 1, cap).monomials]
        self.next_pos = {t: k for k, t in enumerate(self.next_exps)}
        self.total_next = len(self.next_exps)
        # premise of reading a next-degree segment as a slice of next_exps
        self.next_sorted = self.total_next == space_dimension(n, delta + 1) and all(
            a > b for a, b in zip(self.next_exps, self.next_exps[1:])
        )
        self._windows: dict[tuple[int, int, int, int], list[tuple[int, ...]]] = {}
        self._prefix_spans: Optional[tuple[list[int], Optional[list[int]]]] = None
        self._decompositions: dict[int, tuple[Decomposition, Decomposition]] = {}
        self._blocks: dict[tuple, Optional[tuple[int, int]]] = {}

    def prefix_spans(self) -> tuple[list[int], Optional[list[int]]]:
        """Size and largest next-degree position of span(S_1 * first j monomials), j = 0..total.

        One incremental walk over the brute-force span sets.  The positions
        are None when some product is missing from next_exps.
        """
        if self._prefix_spans is None:
            sizes, largest = [0], [-1]
            span: set[tuple[int, ...]] = set()
            top, complete = -1, True
            for t in self.exps:
                for i in range(self.n):
                    u = t[:i] + (t[i] + 1,) + t[i + 1 :]
                    if u not in span:
                        span.add(u)
                        k = self.next_pos.get(u)
                        if k is None:
                            complete = False
                        elif k > top:
                            top = k
                sizes.append(len(span))
                largest.append(top)
            self._prefix_spans = (sizes, largest if complete else None)
        return self._prefix_spans

    def window_tuples(self, n: int, lo: int, hi: int, degree: int) -> list[tuple[int, ...]]:
        key = (n, lo, hi, degree)
        if key not in self._windows:
            self._windows[key] = _capped_window_tuples(n, lo, hi, degree, self.cap)
        return self._windows[key]

    def segment_tuples(self, seg: SegmentSpec) -> list[tuple[int, ...]]:
        """enumerate_segment(seg) as raw exponent tuples."""
        return _segment_of(seg, self.window_tuples(seg.n, seg.window.lo, seg.window.hi, seg.delta))

    def summand_tuples(self, summand: segments.Summand) -> list[tuple[int, ...]]:
        """enumerate_summand(summand) as raw exponent tuples."""
        if summand.degree < 0:
            return []
        window = summand.window
        tails = self.window_tuples(summand.prefix.n, window.lo, window.hi, summand.degree)
        return _prefixed(summand.prefix.exponents, tails)

    def decompositions(self, k: int) -> tuple[Decomposition, Decomposition]:
        """decompose() of the k-th monomial's exclusive ideal and quotient segments."""
        if k not in self._decompositions:
            m = self.space.monomials[k]
            self._decompositions[k] = (decompose(ideal_segment(m)), decompose(quotient_segment(m)))
        return self._decompositions[k]

    def _block(self, gens: list[tuple[int, ...]]) -> Optional[tuple[int, int]]:
        """The block [start, end) that gens fill at consecutive positions in order, else None."""
        if not gens:
            return (0, 0)
        start = self.pos.get(gens[0])
        if start is None or list(map(self.pos.get, gens)) != list(range(start, start + len(gens))):
            return None
        return start, start + len(gens)

    def summand_blocks(
        self, summands: Iterable[segments.Summand]
    ) -> Optional[list[tuple[int, int]]]:
        """Each summand's position block, or None when some summand fills no block."""
        blocks = []
        for s in summands:
            key = (s.prefix.exponents, s.window.lo, s.window.hi, s.degree)
            if key not in self._blocks:
                self._blocks[key] = self._block(self.summand_tuples(s))
            if self._blocks[key] is None:
                return None
            blocks.append(self._blocks[key])
        return blocks

    def split_blocks(self, split: SplitResult) -> Optional[list[tuple[int, int]]]:
        """Blocks of a split's summand and prefixed residual, or None when one fills no block."""
        res = split.residual
        pieces = [split.summand]
        if res is not None:
            pieces.append(segments.Summand(split.residual_prefix, res.window, res.delta))
        blocks = self.summand_blocks(pieces)
        if blocks is None or res is None:
            return blocks
        start, end = blocks.pop()
        p = self.pos.get(_prefixed(split.residual_prefix.exponents, [res.m.exponents])[0])
        if p is None or not start <= p < end:
            return None
        # the residual keeps the listing above (ideal) or below (quotient) its monomial
        if res.kind == IDEAL:
            blocks.append((start, p + res.inclusive))
        else:
            blocks.append((p + 1 - res.inclusive, end))
        return blocks


def _tiles(blocks: Optional[Sequence[tuple[int, int]]], lo: int, hi: int) -> bool:
    """True when the blocks [start, end), in any order, cover lo..hi-1 exactly once.

    Empty blocks (start == end) are ignored; None (no blocks) never tiles.
    """
    if blocks is None:
        return False
    edge = lo
    for start, end in sorted(b for b in blocks if b[0] != b[1]):
        if start != edge or end < start:
            return False
        edge = end
    return edge == hi


def _check(cell_label: str, prop: str, failures: list[str], checked: str) -> CheckResult:
    if failures:
        return CheckResult(cell_label, prop, False, failures[0])
    return CheckResult(cell_label, prop, True, checked)


def check_cell(
    n: int,
    delta: int,
    rng: Optional[random.Random] = None,
    samples: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[CheckResult]:
    """Run every per-cell invariant for one (n, delta) cell."""
    cell = _Cell(n, delta, cap)
    results = [
        _prop_enumeration_order(cell),
        _prop_predecessor_adjacency(cell),
        _prop_segment_dimensions(cell),
        _prop_decomposition_partition(cell),
        _prop_split_agreement(cell),
        _prop_coefficient_dimensions(cell),
        _prop_set_partition(cell),
        _prop_bijection(cell),
        _prop_reconstruction_roundtrip(cell),
        _prop_rank_unrank(cell),
        _prop_multiplication_agreement(cell),
        _prop_multiply_decomposition_dims(cell),
        _prop_window_reduction(cell),
        _prop_shift_inheritance(cell),
        _prop_growth_formula_lex(cell),
    ]
    if rng is not None and samples > 0:
        results.append(_prop_growth_bound_random(cell, rng, samples))
    return results


def _prop_enumeration_order(cell: _Cell) -> CheckResult:
    failures = []
    if cell.total != space_dimension(cell.n, cell.delta):
        failures.append(f"count {cell.total} != formula {space_dimension(cell.n, cell.delta)}")
    for k in range(1, cell.total):
        if not cell.exps[k - 1] > cell.exps[k]:
            failures.append(f"order violated at position {k}")
            break
    return _check(cell.label, "enumeration_order", failures, f"{cell.total} monomials")


def _prop_predecessor_adjacency(cell: _Cell) -> CheckResult:
    failures = []
    try:
        cell.space.monomials[0].predecessor()
        failures.append("lex-largest monomial produced a predecessor")
    except NoPredecessorError:
        pass
    for k in range(1, cell.total):
        if cell.space.monomials[k].predecessor().exponents != cell.exps[k - 1]:
            failures.append(f"predecessor mismatch at position {k}")
            break
    return _check(cell.label, "predecessor_adjacency", failures, f"{cell.total} monomials")


def _prop_segment_dimensions(cell: _Cell) -> CheckResult:
    failures = []
    total = cell.total
    for k, m in enumerate(cell.space.monomials):
        ideal_dim = segment_dimension(ideal_segment(m))
        quot_dim = segment_dimension(quotient_segment(m))
        checks = (
            ideal_dim == k,
            quot_dim == total - k - 1,
            segment_dimension(ideal_segment(m, inclusive=True)) == k + 1,
            segment_dimension(quotient_segment(m, inclusive=True)) == total - k,
            ideal_dim + quot_dim + 1 == total,
        )
        if not all(checks):
            failures.append(f"dimension mismatch at m={m.to_csv()}")
            break
    return _check(cell.label, "segment_dimensions", failures, f"{total} monomials")


def _prop_decomposition_partition(cell: _Cell) -> CheckResult:
    """The summands of each segment's decomposition partition its slice."""
    failures = []
    for k, m in enumerate(cell.space.monomials):
        for deco, lo, hi in zip(cell.decompositions(k), (0, k + 1), (k, cell.total)):
            if not _tiles(cell.summand_blocks(deco.summands), lo, hi):
                failures.append(f"{deco.kind} partition broken at m={m.to_csv()}")
                break
        if failures:
            break
    return _check(cell.label, "decomposition_partition", failures, f"{cell.total} monomials")


def _prop_split_agreement(cell: _Cell) -> CheckResult:
    """A one-step split's summand and prefixed residual partition the segment's slice."""
    failures = []
    for k, m in enumerate(cell.space.monomials):
        for seg, lo, hi in ((ideal_segment(m), 0, k), (quotient_segment(m), k + 1, cell.total)):
            if not _tiles(cell.split_blocks(split_once(seg)), lo, hi):
                failures.append(f"split mismatch for {seg.kind} at m={m.to_csv()}")
                break
        if failures:
            break
    return _check(cell.label, "split_agreement", failures, f"{cell.total} monomials")


def _prop_coefficient_dimensions(cell: _Cell) -> CheckResult:
    failures = []
    for k, m in enumerate(cell.space.monomials):
        if duality.ideal_coefficients(m).value() != k:
            failures.append(f"ideal coefficients wrong at m={m.to_csv()}")
            break
        if duality.quotient_coefficients(m).value() != cell.total - k - 1:
            failures.append(f"quotient coefficients wrong at m={m.to_csv()}")
            break
    return _check(cell.label, "coefficient_dimensions", failures, f"{cell.total} monomials")


def _prop_set_partition(cell: _Cell) -> CheckResult:
    failures = []
    for m in cell.space.monomials:
        try:
            duality.coefficient_sets(m)
        except Exception as exc:  # any invariant breach is a failure
            failures.append(f"partition failed at m={m.to_csv()}: {exc}")
            break
    return _check(cell.label, "set_partition", failures, f"{cell.total} monomials")


def _prop_bijection(cell: _Cell) -> CheckResult:
    failures = []
    universe = frozenset(range(cell.n + cell.delta - 1))
    images = set()
    for m in cell.space.monomials:
        s = duality.ideal_coefficients(m).as_set()
        if len(s) != cell.n - 1 or not s <= universe:
            failures.append(f"image not an (n-1)-subset at m={m.to_csv()}")
            break
        images.add(s)
    expected = binom(cell.n + cell.delta - 1, cell.n - 1)
    if not failures and len(images) != cell.total:
        failures.append(f"map not injective: {len(images)} images for {cell.total} monomials")
    if not failures and len(images) != expected:
        failures.append(f"image count {len(images)} != subset count {expected}")
    return _check(cell.label, "bijection", failures, f"{cell.total} monomials")


def _prop_reconstruction_roundtrip(cell: _Cell) -> CheckResult:
    if cell.n == 1:
        return CheckResult(cell.label, "reconstruction_roundtrip", True, "skipped: needs n >= 2")
    failures = []
    p = cell.n + cell.delta - 2
    for m in cell.space.monomials:
        s = duality.ideal_coefficients(m).as_set()
        t = duality.quotient_coefficients(m).as_set()
        if duality.reconstruct_from_ideal_set(s, p) != m:
            failures.append(f"ideal-set reconstruction broken at m={m.to_csv()}")
            break
        if duality.reconstruct_from_quotient_set(t, p) != m:
            failures.append(f"quotient-set reconstruction broken at m={m.to_csv()}")
            break
    return _check(cell.label, "reconstruction_roundtrip", failures, f"{cell.total} monomials")


def _prop_rank_unrank(cell: _Cell) -> CheckResult:
    failures = []
    total = cell.total
    for k, m in enumerate(cell.space.monomials):
        q = duality.rank(m)
        q_from_quotient = total - duality.quotient_coefficients(m).value()
        if q != k + 1 or q_from_quotient != q:
            failures.append(f"rank mismatch at m={m.to_csv()}")
            break
        if duality.unrank(q, cell.n, cell.delta) != m:
            failures.append(f"unrank mismatch at q={q}")
            break
    return _check(cell.label, "rank_unrank", failures, f"{total} monomials")


def _prop_multiplication_agreement(cell: _Cell) -> CheckResult:
    """Each product segment is exactly the brute-force span of its segment.

    An ideal segment's span is the span S_j of the first j monomials, and a
    quotient segment's is the complement of one.  A product segment on the
    full window that keeps its kind and inclusiveness, enumerated, is a
    prefix or a suffix of next_exps, so it agrees exactly when S_j fills
    that prefix (or the suffix's complement): |S_j| equals the prefix length
    and S_j's largest position lies below it.  A product in any other form
    fails, and so does the whole property when next_exps is not sorted or
    misses a product.
    """
    sizes, largest = cell.prefix_spans()
    if not cell.next_sorted or largest is None:
        failures = [f"degree {cell.delta + 1} listing is unsorted or incomplete"]
        return _check(cell.label, "multiplication_agreement", failures, "")
    failures = []
    for k, m in enumerate(cell.space.monomials):
        for seg in (
            ideal_segment(m),
            ideal_segment(m, inclusive=True),
            quotient_segment(m),
            quotient_segment(m, inclusive=True),
        ):
            # e = 1 when m itself sits on the prefix side: the inclusive ideal
            # segment, and the exclusive quotient segment (complement of S_{k+1});
            # the product's prefix side is then next_exps[:p + e]
            e = int((seg.kind == IDEAL) == seg.inclusive)
            product = multiply_segment(seg)
            p = cell.next_pos.get(product.m.exponents)
            agrees = (
                p is not None
                and (product.window.lo, product.window.hi) == (1, cell.n)
                and (product.kind, product.inclusive) == (seg.kind, seg.inclusive)
                and sizes[k + e] == p + e
                and largest[k + e] < p + e
            )
            if not agrees:
                failures.append(
                    f"{seg.kind} inclusive={seg.inclusive} multiplication off at m={m.to_csv()}"
                )
                break
        if failures:
            break
    return _check(cell.label, "multiplication_agreement", failures, f"{cell.total} monomials")


def _prop_multiply_decomposition_dims(cell: _Cell) -> CheckResult:
    failures = []
    for k, m in enumerate(cell.space.monomials):
        for seg, deco in zip((ideal_segment(m), quotient_segment(m)), cell.decompositions(k)):
            got = multiply_decomposition(deco).dimension()
            want = segment_dimension(multiply_segment(seg))
            if got != want:
                failures.append(
                    f"{seg.kind} multiplied decomposition {got} != {want} at m={m.to_csv()}"
                )
                break
        if failures:
            break
    return _check(cell.label, "multiply_decomposition_dims", failures, f"{cell.total} monomials")


def _prop_window_reduction(cell: _Cell) -> CheckResult:
    failures = []
    for m in cell.space.monomials:
        seg = quotient_segment(m)
        reduced = reduce_window(seg)
        if reduced.window.lo != m.min_index():
            failures.append(f"window floor wrong at m={m.to_csv()}")
            break
        if cell.segment_tuples(seg) != cell.segment_tuples(reduced):
            failures.append(f"window reduction changed generators at m={m.to_csv()}")
            break
    return _check(cell.label, "window_reduction", failures, f"{cell.total} monomials")


def _prop_shift_inheritance(cell: _Cell) -> CheckResult:
    failures = []
    for m in cell.space.monomials:
        report = duality.shift_inheritance_check(m)
        if not report.ok:
            failures.append(f"{report.failures[0]} at m={m.to_csv()}")
            break
    return _check(cell.label, "shift_inheritance", failures, f"{cell.total} monomials")


def _prop_growth_formula_lex(cell: _Cell) -> CheckResult:
    """Sharpness: the growth transforms reproduce lex-segment spans exactly."""
    failures = []
    sizes, _ = cell.prefix_spans()
    for k in range(cell.total + 1):
        if cell.n >= 2 and ideal_growth_bound(k, cell.n) != sizes[k]:
            failures.append(f"ideal growth formula != span at segment size {k}")
            break
        if quotient_growth_bound(cell.total - k, cell.delta) != cell.total_next - sizes[k]:
            failures.append(f"quotient growth formula != complement at segment size {k}")
            break
    return _check(cell.label, "growth_formula_lex", failures, f"{cell.total + 1} segment sizes")


def _prop_growth_bound_random(cell: _Cell, rng: random.Random, samples: int) -> CheckResult:
    failures = []
    for _ in range(samples):
        size = rng.randint(0, cell.total)
        sample = _sample_of(cell.space, size, rng)
        grown, complement = hilbert_next(sample)
        if cell.n >= 2 and grown < ideal_growth_bound(size, cell.n):
            failures.append(f"ideal lower bound violated by a {size}-generator sample")
            break
        if complement > quotient_growth_bound(cell.total - size, cell.delta):
            failures.append(f"quotient upper bound violated by a {size}-generator sample")
            break
    return _check(cell.label, "growth_bound_random", failures, f"samples={samples}")


# ---------------------------------------------------------------------------
# global checks and golden spot values
# ---------------------------------------------------------------------------


def _all_reps_up_to(p: int, budget: int) -> dict[int, list[tuple[int, ...]]]:
    """Every strictly decreasing p-tuple evaluating to at most the budget, by value."""
    out: dict[int, list[tuple[int, ...]]] = {}
    # (terms left, bound on the next coefficient, value so far, coefficients so far)
    stack: list[tuple[int, int, int, tuple[int, ...]]] = [(p, budget + p + 2, 0, ())]
    while stack:
        i, prev, value, acc = stack.pop()
        if i == 0:
            out.setdefault(value, []).append(acc)
            continue
        for c in range(i - 1, prev):
            term = binom(c, i)
            if value + term > budget:
                break
            stack.append((i - 1, c, value + term, acc + (c,)))
    return out


def check_macaulay_uniqueness(max_s: int = 5000, max_p: int = 8) -> list[CheckResult]:
    """Exhaustive search: each s has exactly one representation, the greedy one."""
    results = []
    for p in range(1, max_p + 1):
        reps = _all_reps_up_to(p, max_s)
        failures = []
        for s in range(max_s + 1):
            found = reps.get(s, [])
            if len(found) != 1:
                failures.append(f"s={s} has {len(found)} representations at p={p}")
                break
            if found[0] != macaulay_rep(s, p).coefficients:
                failures.append(f"greedy disagrees with search at s={s}, p={p}")
                break
        results.append(
            _check("global", f"macaulay_uniqueness_p{p}", failures, f"s up to {max_s}")
        )
    return results


_GOLDEN_M68 = Monomial((2, 1, 0, 3, 0, 2))
_GOLDEN_M44 = Monomial((0, 2, 1, 1))

_GOLDEN_IDEAL_SUMMANDS = (
    ((3, 0, 0, 0, 0, 0), 1, 5),
    ((2, 2, 0, 0, 0, 0), 2, 4),
    ((2, 1, 1, 0, 0, 0), 3, 4),
    ((2, 1, 0, 4, 0, 0), 4, 1),
    ((2, 1, 0, 3, 1, 0), 5, 1),
)
_GOLDEN_QUOTIENT_SUMMANDS = (
    ((0, 0, 0, 0, 0, 0), 2, 8),
    ((1, 0, 0, 0, 0, 0), 2, 7),
    ((2, 0, 0, 0, 0, 0), 3, 6),
    ((2, 1, 0, 0, 0, 0), 5, 5),
    ((2, 1, 0, 1, 0, 0), 5, 4),
    ((2, 1, 0, 2, 0, 0), 5, 3),
    ((2, 1, 0, 3, 0, 0), 7, 2),
    ((2, 1, 0, 3, 0, 1), 7, 1),
)


def check_golden_values() -> list[CheckResult]:
    """Frozen desk-scale values, cross-checked against fresh enumeration."""
    results = []

    failures = []
    space68 = enumerate_space(6, 8)
    position = space68.index(_GOLDEN_M68)
    ideal_dim = segment_dimension(ideal_segment(_GOLDEN_M68))
    quot_dim = segment_dimension(quotient_segment(_GOLDEN_M68))
    if (ideal_dim, quot_dim) != (362, 924):
        failures.append(f"dimensions ({ideal_dim},{quot_dim}) != (362,924)")
    if position != 362 or len(space68) != 1287 or ideal_dim + quot_dim + 1 != 1287:
        failures.append("enumeration disagrees with 362+924+1=1287")
    if duality.rank(_GOLDEN_M68) != 363:
        failures.append("rank != 363")
    results.append(_check("(6,8)", "golden_dimensions", failures, "362+924+1=1287"))

    failures = []
    if duality.ideal_coefficients(_GOLDEN_M68).coefficients != (10, 8, 7, 3, 2):
        failures.append("ideal coefficients != (10,8,7,3,2)")
    if duality.quotient_coefficients(_GOLDEN_M68).coefficients != (12, 11, 9, 6, 5, 4, 1, 0):
        failures.append("quotient coefficients != (12,11,9,6,5,4,1,0)")
    results.append(_check("(6,8)", "golden_coefficients", failures, "both tuples"))

    failures = []
    got_ideal = tuple(
        (s.prefix.exponents, s.window.lo, s.degree)
        for s in decompose(ideal_segment(_GOLDEN_M68)).summands
    )
    got_quot = tuple(
        (s.prefix.exponents, s.window.lo, s.degree)
        for s in decompose(quotient_segment(_GOLDEN_M68)).summands
    )
    if got_ideal != _GOLDEN_IDEAL_SUMMANDS:
        failures.append("ideal decomposition table mismatch")
    if got_quot != _GOLDEN_QUOTIENT_SUMMANDS:
        failures.append("quotient decomposition table mismatch")
    results.append(_check("(6,8)", "golden_decompositions", failures, "13 summands"))

    failures = []
    sets44 = duality.coefficient_sets(_GOLDEN_M44)
    if sets44.ideal_set != frozenset({6, 3, 1}) or sets44.quotient_set != frozenset({5, 4, 2, 0}):
        failures.append("coefficient sets of the (4,4) monomial mismatch")
    if duality.reconstruct_from_ideal_set({6, 3, 1}, 6) != _GOLDEN_M44:
        failures.append("ideal-set reconstruction mismatch")
    if duality.reconstruct_from_quotient_set({5, 4, 2, 0}, 6) != _GOLDEN_M44:
        failures.append("quotient-set reconstruction mismatch")
    quot44 = [g.exponents for g in enumerate_segment(quotient_segment(_GOLDEN_M44))]
    if len(quot44) != 10 or duality.quotient_coefficients(_GOLDEN_M44).value() != 10:
        failures.append("quotient segment of the (4,4) monomial is not 10-dimensional")
    results.append(_check("(4,4)", "golden_duality", failures, "sets, reconstruction, dimension"))

    return results


def run_verification(
    max_n: int = 5,
    max_delta: int = 6,
    seed: int = 0,
    samples_per_cell: int = 35,
    cap: int = DEFAULT_ENUMERATION_CAP,
    uniqueness_budget: int = 5000,
    uniqueness_max_p: int = 8,
) -> VerificationReport:
    """Full sweep: per-cell invariants, golden spot values, and rep uniqueness."""
    results: list[CheckResult] = []
    sampled = 0
    for n in range(1, max_n + 1):
        for delta in range(1, max_delta + 1):
            rng = random.Random(seed * 1_000_003 + n * 1_000 + delta)
            results.extend(check_cell(n, delta, rng=rng, samples=samples_per_cell, cap=cap))
            sampled += samples_per_cell
    results.extend(check_golden_values())
    results.extend(check_macaulay_uniqueness(uniqueness_budget, uniqueness_max_p))
    return VerificationReport(tuple(results), random_samples=sampled)
