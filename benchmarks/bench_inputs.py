"""Seeded inputs and reference answers for the three workloads.

Inputs are generated without calling lexseg.  A uniformly random rank q
among the degree-delta monomials in n variables is drawn as its Macaulay
subset, an (n-1)-subset of {0, ..., n+delta-2}.  The rank is
1 + sum C(c_i, i) over the subset in increasing order, and the monomial at
that rank follows from the subset by stars and bars.  The same seed always
gives the same inputs; pass k of a run draws from its own stream, so
successive passes never repeat an input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

QUERY_SIZES = (50, 200, 800)

# (operation, module that implements it); every pass runs each operation
# once on every (n, delta) in QUERY_SIZES x QUERY_SIZES.
QUERY_OPS = (
    ("parse_monomial", "monomial"),
    ("predecessor", "monomial"),
    ("rank", "duality"),
    ("unrank", "duality"),
    ("segment_dimension_ideal", "segments"),
    ("segment_dimension_quotient", "segments"),
    ("decompose_ideal", "segments"),
    ("decompose_quotient", "segments"),
    ("ideal_coefficients", "duality"),
    ("quotient_coefficients", "duality"),
    ("macaulay_rep", "macaulay"),
    ("ideal_growth_bound", "macaulay"),
    ("quotient_growth_bound", "macaulay"),
)
OP_MODULE = dict(QUERY_OPS)

# Pinned so that a change to run_verification's defaults does not change
# the workload.
VERIFY_PARAMS = {
    "max_n": 5,
    "max_delta": 6,
    "samples_per_cell": 35,
    "uniqueness_budget": 5000,
    "uniqueness_max_p": 8,
}
CELL_PROPERTIES = (
    "enumeration_order",
    "predecessor_adjacency",
    "segment_dimensions",
    "decomposition_partition",
    "split_agreement",
    "coefficient_dimensions",
    "set_partition",
    "bijection",
    "reconstruction_roundtrip",
    "rank_unrank",
    "multiplication_agreement",
    "multiply_decomposition_dims",
    "window_reduction",
    "shift_inheritance",
    "growth_formula_lex",
    "growth_bound_random",
)
GOLDEN_CHECKS = 4
VERIFY_RESULTS = (
    VERIFY_PARAMS["max_n"] * VERIFY_PARAMS["max_delta"] * len(CELL_PROPERTIES)
    + GOLDEN_CHECKS
    + VERIFY_PARAMS["uniqueness_max_p"]
)

CLI_SUBCOMMANDS = (
    "dim", "decompose", "multiply", "macrep", "growth",
    "coeffs", "partition", "reconstruct", "rank", "unrank",
)
CLI_VALID_PER_PASS = 36
CLI_INVALID_PER_PASS = 4
CLI_MAX_N = 8
CLI_MAX_DELTA = 8


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent, reproducible stream for pass `index` of a run."""
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# reference combinatorics (independent of lexseg)
# ---------------------------------------------------------------------------


def space_size(n: int, delta: int) -> int:
    return comb(n + delta - 1, delta)


def random_subset(rng: random.Random, size: int, universe: int) -> list[int]:
    """A uniform `size`-subset of range(universe), increasing."""
    return sorted(rng.sample(range(universe), size))


def subset_value(subset: list[int]) -> int:
    """sum C(c_i, i) over an increasing subset; its Macaulay representation is the subset."""
    return sum(comb(c, i) for i, c in enumerate(subset, start=1))


def monomial_of_subset(subset: list[int], delta: int) -> tuple[int, ...]:
    """Exponents of the monomial whose ideal coefficient set is `subset`."""
    n = len(subset) + 1
    top = n + delta - 2
    if n == 1:
        return (delta,)
    exps = [0] * n
    exps[0] = top - subset[-1]
    exps[-1] = subset[0]
    for i in range(2, n):
        exps[i - 1] = subset[n - i] - subset[n - i - 1] - 1
    return tuple(exps)


def rank_of(exps: tuple[int, ...]) -> int:
    """1-based lex-descending rank, from the suffix degrees of the exponent vector."""
    n = len(exps)
    q, suffix = 1, 0
    for i in range(1, n):
        suffix += exps[n - i]
        q += comb(i + suffix - 1, i)
    return q


def times_var(exps: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Multiply by x_i (1-based)."""
    return exps[: i - 1] + (exps[i - 1] + 1,) + exps[i:]


def max_index(exps: tuple[int, ...]) -> int:
    return max(i for i, e in enumerate(exps, start=1) if e > 0)


def csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# query_large
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One closed-form call: what to run and what the reference knows about it."""

    op: str
    n: int
    delta: int
    exps: tuple[int, ...]
    subset: tuple[int, ...]
    q: int

    @property
    def label(self) -> str:
        return f"{OP_MODULE[self.op]}.{self.op}.n{self.n}_d{self.delta}"


def draw_query(rng: random.Random, op: str, n: int, delta: int) -> Query:
    """A fresh uniformly random monomial of the class, as subset, exponents and rank."""
    while True:
        subset = random_subset(rng, n - 1, n + delta - 1)
        q = 1 + subset_value(subset)
        if op != "predecessor" or q > 1:  # the lex-largest monomial has no predecessor
            break
    return Query(op, n, delta, monomial_of_subset(subset, delta), tuple(subset), q)


def query_pass(seed: int, index: int) -> list[Query]:
    """Every operation once on every size class, in a seeded order."""
    rng = pass_rng("query_large", seed, index)
    queries = [
        draw_query(rng, op, n, delta)
        for op, _ in QUERY_OPS
        for n in QUERY_SIZES
        for delta in QUERY_SIZES
    ]
    rng.shuffle(queries)
    return queries


def prepare_query(lib, query: Query) -> tuple[str, tuple]:
    """(target, args) for one query; resolve(lib, target) gives the function to call."""
    op = query.op
    if op == "parse_monomial":
        return "monomial.parse_monomial", (csv(query.exps),)
    if op == "unrank":
        return "duality.unrank", (query.q, query.n, query.delta)
    if op == "macaulay_rep":
        return "macaulay.macaulay_rep", (query.q - 1, query.n - 1)
    if op == "ideal_growth_bound":
        return "macaulay.ideal_growth_bound", (query.q - 1, query.n)
    if op == "quotient_growth_bound":
        total = space_size(query.n, query.delta)
        return "macaulay.quotient_growth_bound", (total - query.q, query.delta)
    m = lib.monomial.Monomial(query.exps)
    if op == "predecessor":
        return "monomial.Monomial.predecessor", (m,)
    if op in ("rank", "ideal_coefficients", "quotient_coefficients"):
        return f"duality.{op}", (m,)
    function, _, side = op.rpartition("_")
    seg = lib.segments.ideal_segment(m) if side == "ideal" else lib.segments.quotient_segment(m)
    return f"segments.{function}", (seg,)


def resolve(lib, target: str):
    """Look a dotted name up at call time, so installed trace wrappers are used."""
    obj = lib
    for part in target.split("."):
        obj = getattr(obj, part)
    return obj


def check_query(query: Query, result) -> bool:
    """Compare one result with the answer the benchmark derives from the drawn subset."""
    n, delta, q = query.n, query.delta, query.q
    total = space_size(n, delta)
    op = query.op
    if op in ("parse_monomial", "unrank"):
        return result.exponents == query.exps
    if op == "predecessor":
        return rank_of(result.exponents) == q - 1
    if op == "rank":
        return result == q
    if op == "segment_dimension_ideal":
        return result == q - 1
    if op == "segment_dimension_quotient":
        return result == total - q
    if op == "decompose_ideal":
        return len(result.summands) == n - 1 and result.dimension() == q - 1
    if op == "decompose_quotient":
        return len(result.summands) == delta and result.dimension() == total - q
    if op in ("ideal_coefficients", "macaulay_rep"):
        return result.coefficients == query.subset[::-1] and result.value() == q - 1
    if op == "quotient_coefficients":
        complement = sorted(set(range(n + delta - 1)) - set(query.subset), reverse=True)
        return result.coefficients == tuple(complement) and result.value() == total - q
    # Growth bounds are sharp on lex segments: the bound equals the dimension
    # of the segment multiplied by the linear forms.
    if op == "ideal_growth_bound":
        return result == rank_of(times_var(query.exps, max_index(query.exps))) - 1
    if op == "quotient_growth_bound":
        return result == space_size(n, delta + 1) - rank_of(times_var(query.exps, n))
    raise ValueError(f"unknown operation {op}")


# ---------------------------------------------------------------------------
# verify_sweep
# ---------------------------------------------------------------------------


def verify_seed(seed: int, index: int) -> int:
    return pass_rng("verify_sweep", seed, index).randrange(2**31)


def expected_verify_units() -> dict[str, int]:
    """Check-result count per unit of one sweep: each cell, the golden set, the uniqueness set."""
    units = {
        f"({n},{delta})": len(CELL_PROPERTIES)
        for n in range(1, VERIFY_PARAMS["max_n"] + 1)
        for delta in range(1, VERIFY_PARAMS["max_delta"] + 1)
    }
    units["golden"] = GOLDEN_CHECKS
    units["uniqueness"] = VERIFY_PARAMS["uniqueness_max_p"]
    return units


# ---------------------------------------------------------------------------
# cli_query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliQuery:
    subcommand: str
    argv: tuple[str, ...]
    exit_code: int
    stdout: str


def _desk_monomial(rng: random.Random):
    n = rng.randint(2, CLI_MAX_N)
    delta = rng.randint(1, CLI_MAX_DELTA)
    subset = random_subset(rng, n - 1, n + delta - 1)
    exps = monomial_of_subset(subset, delta)
    return n, delta, subset, exps, 1 + subset_value(subset)


def _valid_query(rng: random.Random, sub: str, lib) -> CliQuery:
    n, delta, subset, exps, q = _desk_monomial(rng)
    total = space_size(n, delta)
    kind = rng.choice(("ideal", "quotient"))
    m = csv(exps)
    if sub == "dim":
        inclusive = rng.random() < 0.5
        argv = ["dim", "--kind", kind, "--m", m] + (["--inclusive"] if inclusive else [])
        value = q - 1 if kind == "ideal" else total - q
        return CliQuery(sub, tuple(argv), 0, f"{value + inclusive}\n")
    if sub == "decompose":
        seg = (lib.segments.ideal_segment if kind == "ideal" else lib.segments.quotient_segment)(
            lib.monomial.Monomial(exps)
        )
        rows = [
            f"{s.prefix.to_csv()} | [{s.window.lo},{s.window.hi}] | {s.degree} | {s.dimension()}"
            for s in lib.segments.decompose(seg).summands
        ]
        return CliQuery(sub, ("decompose", "--kind", kind, "--m", m), 0, "\n".join(rows) + "\n")
    if sub == "multiply":
        inclusive = rng.random() < 0.5
        by_max = (kind == "ideal") != inclusive
        product = times_var(exps, max_index(exps) if by_max else n)
        mode = "inclusive" if inclusive else "exclusive"
        argv = ["multiply", "--kind", kind, "--m", m] + (["--inclusive"] if inclusive else [])
        text = f"kind={kind} {mode} window=[1,{n}] delta={delta + 1} m={csv(product)}\n"
        return CliQuery(sub, tuple(argv), 0, text)
    if sub == "macrep":
        return CliQuery(sub, ("macrep", str(q - 1), str(n - 1)), 0, csv(subset[::-1]) + "\n")
    if sub == "growth":
        if kind == "ideal":
            value = rank_of(times_var(exps, max_index(exps))) - 1
            return CliQuery(sub, ("growth", "--kind", kind, "--n", str(n), str(q - 1)), 0, f"{value}\n")
        value = space_size(n, delta + 1) - rank_of(times_var(exps, n))
        argv = ("growth", "--kind", kind, "--delta", str(delta), str(total - q))
        return CliQuery(sub, argv, 0, f"{value}\n")
    complement = sorted(set(range(n + delta - 1)) - set(subset), reverse=True)
    if sub == "coeffs":
        text = f"S=({csv(subset[::-1])})\nT=({csv(complement)})\n"
        return CliQuery(sub, ("coeffs", "--m", m), 0, text)
    if sub == "partition":
        text = "S={" + csv(subset[::-1]) + "} T={" + csv(complement) + "} partition=ok\n"
        return CliQuery(sub, ("partition", "--m", m), 0, text)
    if sub == "reconstruct":
        if kind == "ideal":
            argv = ("reconstruct", "--set", csv(subset), "--p", str(n + delta - 2))
        else:
            argv = ("reconstruct", "--set", csv(complement), "--p", str(n + delta - 2),
                    "--from", "quotient")
        return CliQuery(sub, argv, 0, m + "\n")
    if sub == "rank":
        return CliQuery(sub, ("rank", "--m", m), 0, f"{q}\n")
    if sub == "unrank":
        argv = ("unrank", "--q", str(q), "--n", str(n), "--delta", str(delta))
        return CliQuery(sub, argv, 0, m + "\n")
    raise ValueError(f"unknown subcommand {sub}")


def _invalid_query(rng: random.Random) -> CliQuery:
    """Bad input with its documented exit code: 1 domain error, 2 usage or parse error."""
    n, delta, _, exps, _ = _desk_monomial(rng)
    total = space_size(n, delta)
    choices = (
        ("dim", ("dim", "--kind", "ideal", "--m", csv(exps[:-1]) + ",x"), 2),
        ("dim", ("dim", "--kind", "quotient", "--m", "a^2*b"), 2),
        ("rank", ("rank", "--m", csv((0,) * n)), 1),
        ("unrank", ("unrank", "--q", str(total + 1), "--n", str(n), "--delta", str(delta)), 1),
        ("macrep", ("macrep", str(total), "0"), 1),
        ("growth", ("growth", "--kind", "ideal", str(total)), 2),
        ("reconstruct", ("reconstruct", "--set", "2,2", "--p", str(n + delta)), 1),
        ("reconstruct", ("reconstruct", "--set", "a,b", "--p", str(n + delta)), 2),
        ("decompose", ("decompose", "--kind", "ideal", "--m", csv((0,) * n)), 1),
    )
    sub, argv, code = rng.choice(choices)
    return CliQuery(sub, argv, code, "")


def cli_pass(lib, seed: int, index: int) -> list[CliQuery]:
    """36 valid queries (each subcommand 3 or 4 times) and 4 invalid ones, seeded order."""
    rng = pass_rng("cli_query", seed, index)
    subs = [CLI_SUBCOMMANDS[k % len(CLI_SUBCOMMANDS)] for k in range(CLI_VALID_PER_PASS)]
    queries = [_valid_query(rng, sub, lib) for sub in subs]
    queries += [_invalid_query(rng) for _ in range(CLI_INVALID_PER_PASS)]
    rng.shuffle(queries)
    return queries
