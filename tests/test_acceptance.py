"""Acceptance suite: every exit criterion, each reporting one pass/fail line.

All numeric comparisons are exact integer equality (zero tolerance).  The
exhaustive sweep covers every cell with n <= 5 and delta <= 6 plus the two
spot cells, and must finish within its time budget.
"""

import itertools
import time

import pytest

from conftest import mono
from lexseg import (
    binom,
    coefficient_sets,
    decompose,
    ideal_coefficients,
    ideal_segment,
    macaulay_rep,
    quotient_coefficients,
    quotient_segment,
    reconstruct_from_ideal_set,
    reconstruct_from_quotient_set,
    run_verification,
    segment_dimension,
)
from lexseg import cli

M68 = mono("a^2*b*d^3*f^2", 6)
M44 = mono("b^2*c*d", 4)

SWEEP_MAX_N = 5
SWEEP_MAX_DELTA = 6


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    report = run_verification(max_n=SWEEP_MAX_N, max_delta=SWEEP_MAX_DELTA, seed=0)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _cli_output(*argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def test_criterion_1_golden_dimensions():
    code_i, out_i = _cli_output("dim", "--kind", "ideal", "--m", "2,1,0,3,0,2")
    code_q, out_q = _cli_output("dim", "--kind", "quotient", "--m", "2,1,0,3,0,2")
    ok = (
        code_i == 0
        and code_q == 0
        and out_i == "362\n"
        and out_q == "924\n"
        and 362 + 924 + 1 == 1287 == binom(13, 8)
    )
    # each dimension call must stay under a millisecond
    repeats = 200
    start = time.perf_counter()
    for _ in range(repeats):
        segment_dimension(ideal_segment(M68))
        segment_dimension(quotient_segment(M68))
    per_call = (time.perf_counter() - start) / (2 * repeats)
    ok = ok and per_call < 1e-3
    _report(1, "golden dimensions", ok)


def test_criterion_2_golden_macaulay_rep():
    rep = macaulay_rep(114, 6)
    ok = rep.coefficients == (9, 7, 5, 4, 1, 0) and rep.value() == 114
    _report(2, "golden Macaulay representation", ok)


def test_criterion_3_golden_coefficients():
    sets44 = coefficient_sets(M44)
    shifted = mono("e^2*f*g", 7)
    multiplied = mono("a^3*b^2*c*d", 4)
    ok = (
        ideal_coefficients(M68).coefficients == (10, 8, 7, 3, 2)
        and quotient_coefficients(M68).coefficients == (12, 11, 9, 6, 5, 4, 1, 0)
        and sets44.ideal_set == frozenset({6, 3, 1})
        and sets44.quotient_set == frozenset({5, 4, 2, 0})
        and quotient_coefficients(shifted).coefficients == (5, 4, 2, 0)
        and ideal_coefficients(shifted).coefficients == (9, 8, 7, 6, 3, 1)
        and ideal_coefficients(multiplied).coefficients == (6, 3, 1)
        and quotient_coefficients(multiplied).coefficients == (9, 8, 7, 5, 4, 2, 0)
    )
    _report(3, "golden coefficients", ok)


def test_criterion_4_golden_decompositions():
    ideal_rows = [
        (s.prefix.to_csv(), s.window.lo, s.window.hi, s.degree)
        for s in decompose(ideal_segment(M68)).summands
    ]
    quotient_rows = [
        (s.prefix.to_csv(), s.window.lo, s.window.hi, s.degree)
        for s in decompose(quotient_segment(M68)).summands
    ]
    ok = ideal_rows == [
        ("3,0,0,0,0,0", 1, 6, 5),
        ("2,2,0,0,0,0", 2, 6, 4),
        ("2,1,1,0,0,0", 3, 6, 4),
        ("2,1,0,4,0,0", 4, 6, 1),
        ("2,1,0,3,1,0", 5, 6, 1),
    ] and quotient_rows == [
        ("0,0,0,0,0,0", 2, 6, 8),
        ("1,0,0,0,0,0", 2, 6, 7),
        ("2,0,0,0,0,0", 3, 6, 6),
        ("2,1,0,0,0,0", 5, 6, 5),
        ("2,1,0,1,0,0", 5, 6, 4),
        ("2,1,0,2,0,0", 5, 6, 3),
        ("2,1,0,3,0,0", 7, 6, 2),
        ("2,1,0,3,0,1", 7, 6, 1),
    ]
    ok = ok and [s.dimension() for s in decompose(ideal_segment(M68)).summands] == [
        252, 70, 35, 3, 2,
    ]
    ok = ok and [s.dimension() for s in decompose(quotient_segment(M68)).summands] == [
        495, 330, 84, 6, 5, 4, 0, 0,
    ]
    _report(4, "golden decompositions", ok)


def test_criterion_5_golden_reconstruction():
    ok = (
        reconstruct_from_ideal_set({6, 3, 1}, 6) == M44
        and reconstruct_from_quotient_set({5, 4, 2, 0}, 6) == M44
    )
    _report(5, "golden reconstruction", ok)


def test_criterion_6_exhaustive_sweep(sweep):
    report, elapsed = sweep
    cells = {r.cell for r in report.results if r.cell != "global"}
    expected_cells = {
        f"({n},{d})"
        for n, d in itertools.product(range(1, SWEEP_MAX_N + 1), range(1, SWEEP_MAX_DELTA + 1))
    } | {"(6,8)", "(4,4)"}
    ok = report.ok and cells == expected_cells and elapsed < 60.0
    _report(6, "exhaustive oracle sweep", ok)


def test_criterion_7_growth_bound_suite(sweep):
    report, _ = sweep
    lex_rows = [r for r in report.results if r.prop == "growth_formula_lex"]
    random_rows = [r for r in report.results if r.prop == "growth_bound_random"]
    ok = (
        len(lex_rows) == SWEEP_MAX_N * SWEEP_MAX_DELTA
        and all(r.ok for r in lex_rows)
        and all(r.ok for r in random_rows)
        and report.random_samples >= 1000
    )
    _report(7, "growth bound suite", ok)


def test_criterion_8_representation_uniqueness(sweep):
    report, _ = sweep
    rows = [r for r in report.results if r.prop.startswith("macaulay_uniqueness_p")]
    ok = len(rows) == 8 and all(r.ok for r in rows)
    _report(8, "representation uniqueness", ok)
