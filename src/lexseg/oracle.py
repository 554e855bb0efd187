"""Brute-force ground truth: exhaustive enumeration against every formula.

Everything here works by materializing monomial lists and spans for small
(n, delta) cells and comparing them with the closed-form operations of the
other modules.  A cell computes the closed forms of each of its monomials
once, as (ideal, quotient) pairs of coefficient tuples, exclusive segments
and decompositions, and every property reads those pairs.  The verification
sweep treats each cell independently and purely, so cells could run
concurrently; results merge deterministically by cell coordinates.

The public surface: `enumerate_space` (a graded piece as a lex-descending
tuple), `enumerate_segment` and `enumerate_summand` (generator lists), each
raising ResourceLimitError above the enumeration cap, then `check_cell` (one
cell) and `run_verification` (the sweep).  Both generator lists come from
one capped enumerator of prefix times a window space.  The cap is the
constant DEFAULT_ENUMERATION_CAP; only `enumerate_space` takes another.

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

A decomposition summand, a window space and a prefixed window space each
fill one contiguous block of the list.  Each distinct one is enumerated
once per cell, and its block is read off the positions of its generators.
A segment on a window, times a prefix, is that prefixed window space's
block cut at the position of prefix * m: the part above it (ideal) or
below it (quotient).  Per monomial, the blocks of a segment's pieces must
then tile the segment's slice exactly, an O(n + delta) interval check, and
a window reduction must keep the segment's block.  This is a contract on
the closed forms: a summand whose generators do not sit at consecutive
positions in lex order is reported as a failure, even where a union of
such pieces would still cover the slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add, ge, gt, le, lt
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


def _summand_tuples(summand: segments.Summand) -> list[tuple[int, ...]]:
    """Full-length exponent tuples of prefix times the window space, lex-descending.

    Refuses more than DEFAULT_ENUMERATION_CAP tuples before building any.
    """
    degree, size = summand.degree, summand.window.size
    if degree < 0:
        return []
    dimension = summand.dimension()
    if dimension > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"window space of dimension {dimension} exceeds the cap {DEFAULT_ENUMERATION_CAP}"
        )
    prefix, lo, hi = summand.prefix.exponents, summand.window.lo, summand.window.hi
    if size == 0:
        return [prefix] if degree == 0 else []
    head, middle, tail = prefix[: lo - 1], prefix[lo - 1 : hi], prefix[hi:]
    return [head + tuple(map(add, middle, t)) + tail for t in _exponent_tuples(size, degree)]


def enumerate_space(n: int, delta: int, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[Monomial, ...]:
    """Materialize a whole graded piece, lex-descending, refusing anything above the cap."""
    total = space_dimension(n, delta)
    if total > cap:
        raise ResourceLimitError(f"space of dimension {total} exceeds the cap {cap}")
    return tuple(Monomial(t) for t in _exponent_tuples(n, delta))


def enumerate_segment(seg: SegmentSpec) -> list[Monomial]:
    """Generator list of a segment by direct filtering of its window space, lex-descending."""
    window = _summand_tuples(segments.Summand(Monomial.unit(seg.n), seg.window, seg.delta))
    if seg.kind == IDEAL:
        generates = ge if seg.inclusive else gt
    else:
        generates = le if seg.inclusive else lt
    return [Monomial(t) for t in window if generates(t, seg.m.exponents)]


def enumerate_summand(summand: segments.Summand) -> list[Monomial]:
    """Generators of one decomposition summand: prefix times its window space."""
    return [Monomial(t) for t in _summand_tuples(summand)]


def _products(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The exponent tuples of t * x_i for i = 1..n: the span of S_1 times one generator."""
    return [t[:i] + (t[i] + 1,) + t[i + 1 :] for i in range(len(t))]


# ---------------------------------------------------------------------------
# verification sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CheckResult:
    cell: str
    prop: str
    ok: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "ok" if self.ok else "FAIL"

    def as_line(self) -> str:
        return f"cell={self.cell} property={self.prop} status={self.status} detail={self.detail}"


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
    `pos` and `next_pos` give each exponent tuple its lex position.  The
    closed forms of the k-th monomial are computed once, as (ideal,
    quotient) pairs: `coefficients[k]` (the coefficient tuples),
    `segments[k]` (the exclusive segments) and `decompositions[k]`; every
    property reads them there.  `spans` holds the brute-force span of each
    lex prefix.  The position block of each summand or (prefixed) window
    space is memoized for the cell's lifetime; segments are cuts of those
    blocks, so no generator list outlives its block.
    """

    def __init__(self, n: int, delta: int):
        self.n = n
        self.delta = delta
        self.label = f"({n},{delta})"
        self.space = enumerate_space(n, delta)
        self.exps = [m.exponents for m in self.space]
        self.total = len(self.exps)
        self.pos = {t: k for k, t in enumerate(self.exps)}
        self.next_exps = [m.exponents for m in enumerate_space(n, delta + 1)]
        self.next_pos = {t: k for k, t in enumerate(self.next_exps)}
        self.total_next = len(self.next_exps)
        # premise of reading a next-degree segment as a slice of next_exps
        self.next_sorted = self.total_next == space_dimension(n, delta + 1) and all(
            a > b for a, b in zip(self.next_exps, self.next_exps[1:])
        )
        # the tuples come first, so that a degree-0 cell raises UnitMonomialError
        self.coefficients = [
            (duality.ideal_coefficients(m), duality.quotient_coefficients(m)) for m in self.space
        ]
        self.segments = [(ideal_segment(m), quotient_segment(m)) for m in self.space]
        self.decompositions = [(decompose(i), decompose(q)) for i, q in self.segments]
        # size and largest next-degree position of span(S_1 * exps[:j]), j = 0..total,
        # from one walk over the brute-force span; no positions when a product
        # is missing from next_exps
        sizes, largest = [0], [-1]
        span: set[tuple[int, ...]] = set()
        top, complete = -1, True
        for t in self.exps:
            for u in _products(t):
                if u not in span:
                    span.add(u)
                    k = self.next_pos.get(u)
                    if k is None:
                        complete = False
                    elif k > top:
                        top = k
            sizes.append(len(span))
            largest.append(top)
        self.spans: tuple[list[int], Optional[list[int]]] = (sizes, largest if complete else None)
        self._blocks: dict[tuple, Optional[tuple[int, int]]] = {}

    def fail(self, prop: str, message: str) -> CheckResult:
        return CheckResult(self.label, prop, False, message)

    def passed(self, prop: str, detail: Optional[str] = None) -> CheckResult:
        if detail is None:
            detail = f"{self.total} monomials"
        return CheckResult(self.label, prop, True, detail)

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
                self._blocks[key] = self._block(_summand_tuples(s))
            if self._blocks[key] is None:
                return None
            blocks.append(self._blocks[key])
        return blocks

    def segment_block(self, seg: SegmentSpec, prefix: Monomial) -> Optional[tuple[int, int]]:
        """The block of prefix times seg's generators, or None when there is none.

        The block of prefix times seg's window space, cut at the position of
        prefix * m: the listing above it (ideal) or below it (quotient).
        """
        blocks = self.summand_blocks([segments.Summand(prefix, seg.window, seg.delta)])
        if blocks is None:
            return None
        ((start, end),) = blocks
        p = self.pos.get(tuple(map(add, prefix.exponents, seg.m.exponents)))
        if p is None or not start <= p < end:
            return None
        if seg.kind == IDEAL:
            return start, p + seg.inclusive
        return p + 1 - seg.inclusive, end

    def split_blocks(self, split: SplitResult) -> Optional[list[tuple[int, int]]]:
        """Blocks of a split's summand and prefixed residual, or None when one fills no block."""
        blocks = self.summand_blocks([split.summand])
        if blocks is None or split.residual is None:
            return blocks
        residual = self.segment_block(split.residual, split.residual_prefix)
        return None if residual is None else blocks + [residual]


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
) -> list[CheckResult]:
    """Run every per-cell invariant for one (n, delta) cell."""
    cell = _Cell(n, delta)
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
    prop = "enumeration_order"
    formula = space_dimension(cell.n, cell.delta)
    if cell.total != formula:
        return cell.fail(prop, f"count {cell.total} != formula {formula}")
    for k in range(1, cell.total):
        if not cell.exps[k - 1] > cell.exps[k]:
            return cell.fail(prop, f"order violated at position {k}")
    return cell.passed(prop)


def _prop_predecessor_adjacency(cell: _Cell) -> CheckResult:
    prop = "predecessor_adjacency"
    try:
        cell.space[0].predecessor()
    except NoPredecessorError:
        pass
    else:
        return cell.fail(prop, "lex-largest monomial produced a predecessor")
    for k in range(1, cell.total):
        if cell.space[k].predecessor().exponents != cell.exps[k - 1]:
            return cell.fail(prop, f"predecessor mismatch at position {k}")
    return cell.passed(prop)


def _prop_segment_dimensions(cell: _Cell) -> CheckResult:
    prop = "segment_dimensions"
    total = cell.total
    for k, (m, (ideal, quotient)) in enumerate(zip(cell.space, cell.segments)):
        ideal_dim = segment_dimension(ideal)
        quot_dim = segment_dimension(quotient)
        checks = (
            ideal_dim == k,
            quot_dim == total - k - 1,
            segment_dimension(ideal_segment(m, inclusive=True)) == k + 1,
            segment_dimension(quotient_segment(m, inclusive=True)) == total - k,
            ideal_dim + quot_dim + 1 == total,
        )
        if not all(checks):
            return cell.fail(prop, f"dimension mismatch at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_decomposition_partition(cell: _Cell) -> CheckResult:
    """The summands of each segment's decomposition partition its slice."""
    prop = "decomposition_partition"
    for k, m in enumerate(cell.space):
        for deco, lo, hi in zip(cell.decompositions[k], (0, k + 1), (k, cell.total)):
            if not _tiles(cell.summand_blocks(deco.summands), lo, hi):
                return cell.fail(prop, f"{deco.kind} partition broken at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_split_agreement(cell: _Cell) -> CheckResult:
    """A one-step split's summand and prefixed residual partition the segment's slice."""
    prop = "split_agreement"
    for k, m in enumerate(cell.space):
        for seg, lo, hi in zip(cell.segments[k], (0, k + 1), (k, cell.total)):
            if not _tiles(cell.split_blocks(split_once(seg)), lo, hi):
                return cell.fail(prop, f"split mismatch for {seg.kind} at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_coefficient_dimensions(cell: _Cell) -> CheckResult:
    prop = "coefficient_dimensions"
    for k, (m, (ideal, quotient)) in enumerate(zip(cell.space, cell.coefficients)):
        if ideal.value() != k:
            return cell.fail(prop, f"ideal coefficients wrong at m={m.to_csv()}")
        if quotient.value() != cell.total - k - 1:
            return cell.fail(prop, f"quotient coefficients wrong at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_set_partition(cell: _Cell) -> CheckResult:
    """The paper's theorem: the two coefficient sets partition {0, ..., n + delta - 2}."""
    prop = "set_partition"
    universe = frozenset(range(cell.n + cell.delta - 1))
    for m, (ideal, quotient) in zip(cell.space, cell.coefficients):
        try:
            sets = duality.coefficient_sets(m)
        except Exception as exc:  # any invariant breach is a failure
            return cell.fail(prop, f"partition failed at m={m.to_csv()}: {exc}")
        s, t = sets.ideal_set, sets.quotient_set
        if (s, t) != (ideal.as_set(), quotient.as_set()):
            return cell.fail(prop, f"sets differ from the coefficient tuples at m={m.to_csv()}")
        if (len(s), len(t)) != (cell.n - 1, cell.delta) or s & t or s | t != universe:
            return cell.fail(prop, f"sets do not partition the universe at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_bijection(cell: _Cell) -> CheckResult:
    prop = "bijection"
    universe = frozenset(range(cell.n + cell.delta - 1))
    images = set()
    for m, (ideal, _) in zip(cell.space, cell.coefficients):
        s = ideal.as_set()
        if len(s) != cell.n - 1 or not s <= universe:
            return cell.fail(prop, f"image not an (n-1)-subset at m={m.to_csv()}")
        images.add(s)
    expected = binom(cell.n + cell.delta - 1, cell.n - 1)
    if len(images) != cell.total:
        return cell.fail(
            prop, f"map not injective: {len(images)} images for {cell.total} monomials"
        )
    if len(images) != expected:
        return cell.fail(prop, f"image count {len(images)} != subset count {expected}")
    return cell.passed(prop)


def _prop_reconstruction_roundtrip(cell: _Cell) -> CheckResult:
    prop = "reconstruction_roundtrip"
    if cell.n == 1:
        return cell.passed(prop, "skipped: needs n >= 2")
    p = cell.n + cell.delta - 2
    for m, (ideal, quotient) in zip(cell.space, cell.coefficients):
        if duality.reconstruct_from_ideal_set(ideal.as_set(), p) != m:
            return cell.fail(prop, f"ideal-set reconstruction broken at m={m.to_csv()}")
        if duality.reconstruct_from_quotient_set(quotient.as_set(), p) != m:
            return cell.fail(prop, f"quotient-set reconstruction broken at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_rank_unrank(cell: _Cell) -> CheckResult:
    prop = "rank_unrank"
    total = cell.total
    for k, (m, (_, quotient)) in enumerate(zip(cell.space, cell.coefficients)):
        q = duality.rank(m)
        q_from_quotient = total - quotient.value()
        if q != k + 1 or q_from_quotient != q:
            return cell.fail(prop, f"rank mismatch at m={m.to_csv()}")
        if duality.unrank(q, cell.n, cell.delta) != m:
            return cell.fail(prop, f"unrank mismatch at q={q}")
    return cell.passed(prop)


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
    prop = "multiplication_agreement"
    sizes, largest = cell.spans
    if not cell.next_sorted or largest is None:
        return cell.fail(prop, f"degree {cell.delta + 1} listing is unsorted or incomplete")
    for k, (m, (ideal, quotient)) in enumerate(zip(cell.space, cell.segments)):
        for seg in (
            ideal,
            ideal_segment(m, inclusive=True),
            quotient,
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
                return cell.fail(
                    prop,
                    f"{seg.kind} inclusive={seg.inclusive} multiplication off at m={m.to_csv()}",
                )
    return cell.passed(prop)


def _prop_multiply_decomposition_dims(cell: _Cell) -> CheckResult:
    prop = "multiply_decomposition_dims"
    for k, m in enumerate(cell.space):
        for seg, deco in zip(cell.segments[k], cell.decompositions[k]):
            got = multiply_decomposition(deco).dimension()
            want = segment_dimension(multiply_segment(seg))
            if got != want:
                return cell.fail(
                    prop, f"{seg.kind} multiplied decomposition {got} != {want} at m={m.to_csv()}"
                )
    return cell.passed(prop)


def _prop_window_reduction(cell: _Cell) -> CheckResult:
    """Raising a quotient segment's window floor to min(m) keeps its block."""
    prop = "window_reduction"
    unit = Monomial.unit(cell.n)
    for m, (_, seg) in zip(cell.space, cell.segments):
        reduced = reduce_window(seg)
        if reduced.window.lo != m.min_index():
            return cell.fail(prop, f"window floor wrong at m={m.to_csv()}")
        block = cell.segment_block(seg, unit)
        if block is None or block != cell.segment_block(reduced, unit):
            return cell.fail(prop, f"window reduction changed generators at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_shift_inheritance(cell: _Cell) -> CheckResult:
    """How the coefficient sets respond to x_1-multiplication and shifting.

    Multiplying by x_1 keeps the ideal set and adds n + delta - 1 to the
    quotient set; shifting every index up by one does the opposite.
    """
    prop = "shift_inheritance"
    ideal, quotient = duality.ideal_coefficients, duality.quotient_coefficients
    newcomer = cell.n + cell.delta - 1
    for m, pair in zip(cell.space, cell.coefficients):
        s_set, t_set = (c.as_set() for c in pair)
        x1m, shifted = m.times_var(1), m.shift(1)
        identities = (
            ("ideal set preserved under x_1 multiple", ideal(x1m).as_set(), s_set),
            ("quotient set extended under x_1 multiple", quotient(x1m).as_set(), t_set | {newcomer}),
            ("quotient set preserved under shift", quotient(shifted).as_set(), t_set),
            ("ideal set extended under shift", ideal(shifted).as_set(), s_set | {newcomer}),
        )
        broken = [name for name, got, want in identities if got != want]
        if broken:
            return cell.fail(prop, f"{broken[0]} at m={m.to_csv()}")
    return cell.passed(prop)


def _prop_growth_formula_lex(cell: _Cell) -> CheckResult:
    """Sharpness: the growth transforms reproduce lex-segment spans exactly."""
    prop = "growth_formula_lex"
    sizes, _ = cell.spans
    for k in range(cell.total + 1):
        if cell.n >= 2 and ideal_growth_bound(k, cell.n) != sizes[k]:
            return cell.fail(prop, f"ideal growth formula != span at segment size {k}")
        if quotient_growth_bound(cell.total - k, cell.delta) != cell.total_next - sizes[k]:
            return cell.fail(prop, f"quotient growth formula != complement at segment size {k}")
    return cell.passed(prop, f"{cell.total + 1} segment sizes")


def _prop_growth_bound_random(cell: _Cell, rng: random.Random, samples: int) -> CheckResult:
    prop = "growth_bound_random"
    for _ in range(samples):
        size = rng.randint(0, cell.total)
        picks = rng.sample(range(cell.total), size)
        grown = len({u for k in picks for u in _products(cell.exps[k])})
        if cell.n >= 2 and grown < ideal_growth_bound(size, cell.n):
            return cell.fail(prop, f"ideal lower bound violated by a {size}-generator sample")
        if cell.total_next - grown > quotient_growth_bound(cell.total - size, cell.delta):
            return cell.fail(prop, f"quotient upper bound violated by a {size}-generator sample")
    return cell.passed(prop, f"samples={samples}")


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
    uniqueness_budget: int = 5000,
    uniqueness_max_p: int = 8,
) -> VerificationReport:
    """Full sweep: per-cell invariants, golden spot values, and rep uniqueness."""
    if max_n < 1 or max_delta < 1:
        raise InvalidInputError(
            f"the sweep needs max_n >= 1 and max_delta >= 1, got {max_n} and {max_delta}"
        )
    results: list[CheckResult] = []
    sampled = 0
    for n in range(1, max_n + 1):
        for delta in range(1, max_delta + 1):
            rng = random.Random(seed * 1_000_003 + n * 1_000 + delta)
            results.extend(check_cell(n, delta, rng=rng, samples=samples_per_cell))
            sampled += samples_per_cell
    results.extend(check_golden_values())
    results.extend(check_macaulay_uniqueness(uniqueness_budget, uniqueness_max_p))
    return VerificationReport(tuple(results), random_samples=sampled)
