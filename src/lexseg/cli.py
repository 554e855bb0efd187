"""Command-line front end.

One subcommand per operation family; plain output prints only the result
payload, --json wraps it as {"input": ..., "result": ...}.  Exit codes:
0 success, 1 domain error, 2 usage or parse error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from . import duality, oracle, segments
from .errors import LexsegError, MonomialParseError
from .macaulay import (
    ideal_growth_bound,
    macaulay_rep,
    quotient_growth_bound,
)
from .monomial import Monomial, parse_monomial

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    """Missing or inconsistent flags that argparse cannot express."""


# int() alone would also read "1_0", "+3", " 3" and non-ASCII digits
_DIGITS = re.compile(r"[0-9]+")


def _integer(text: str) -> int:
    """An integer argument: ASCII digits, optionally after a minus sign."""
    if not _DIGITS.fullmatch(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


def _segment_from_args(args: argparse.Namespace) -> segments.SegmentSpec:
    m = parse_monomial(args.m, args.n)
    inclusive = getattr(args, "inclusive", False)
    if args.kind == segments.IDEAL:
        return segments.ideal_segment(m, inclusive=inclusive)
    return segments.quotient_segment(m, inclusive=inclusive)


def _segment_text(seg: segments.SegmentSpec) -> str:
    mode = "inclusive" if seg.inclusive else "exclusive"
    return f"kind={seg.kind} {mode} window={seg.window} delta={seg.delta} m={seg.m.to_csv()}"


def _segment_json(seg: segments.SegmentSpec) -> dict:
    return {
        "kind": seg.kind,
        "inclusive": seg.inclusive,
        "window": [seg.window.lo, seg.window.hi],
        "delta": seg.delta,
        "m": seg.m.to_csv(),
    }


def _set_text(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values, reverse=True)) + "}"


def _emit(args: argparse.Namespace, input_obj: dict, result, plain: str) -> None:
    if args.json:
        print(json.dumps({"input": input_obj, "result": result}))
    else:
        print(plain)


def _cmd_macrep(args: argparse.Namespace) -> int:
    rep = macaulay_rep(args.s, args.p)
    _emit(args, {"s": args.s, "p": args.p}, list(rep.coefficients), str(rep))
    return EXIT_OK


def _cmd_growth(args: argparse.Namespace) -> int:
    if args.kind == segments.IDEAL:
        if args.n is None:
            raise _UsageError("growth --kind ideal needs --n")
        value = ideal_growth_bound(args.s, args.n)
        input_obj = {"kind": args.kind, "n": args.n, "s": args.s}
    else:
        if args.delta is None:
            raise _UsageError("growth --kind quotient needs --delta")
        value = quotient_growth_bound(args.s, args.delta)
        input_obj = {"kind": args.kind, "delta": args.delta, "s": args.s}
    _emit(args, input_obj, value, str(value))
    return EXIT_OK


def _cmd_dim(args: argparse.Namespace) -> int:
    seg = _segment_from_args(args)
    value = segments.segment_dimension(seg)
    _emit(args, _segment_json(seg), value, str(value))
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    seg = _segment_from_args(args)
    deco = segments.decompose(seg)
    rows = [
        {
            "prefix": s.prefix.to_csv(),
            "window": [s.window.lo, s.window.hi],
            "degree": s.degree,
            "dim": s.dimension(),
        }
        for s in deco.summands
    ]
    plain = "\n".join(
        f"{r['prefix']} | [{r['window'][0]},{r['window'][1]}] | {r['degree']} | {r['dim']}"
        for r in rows
    )
    _emit(args, _segment_json(seg), {"summands": rows, "dim": deco.dimension()}, plain)
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    seg = _segment_from_args(args)
    product = segments.multiply_segment(seg)
    _emit(args, _segment_json(seg), _segment_json(product), _segment_text(product))
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    m = parse_monomial(args.m, args.n)
    s_rep = duality.ideal_coefficients(m)
    t_rep = duality.quotient_coefficients(m)
    plain = f"S=({s_rep})\nT=({t_rep})"
    result = {"S": list(s_rep.coefficients), "T": list(t_rep.coefficients)}
    _emit(args, {"m": m.to_csv()}, result, plain)
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    m = parse_monomial(args.m, args.n)
    sets = duality.coefficient_sets(m)
    plain = f"S={_set_text(sets.ideal_set)} T={_set_text(sets.quotient_set)} partition=ok"
    result = {
        "S": sorted(sets.ideal_set, reverse=True),
        "T": sorted(sets.quotient_set, reverse=True),
        "partition": "ok",
    }
    _emit(args, {"m": m.to_csv()}, result, plain)
    return EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    tokens = [tok.strip() for tok in args.set.split(",")]
    if not all(_DIGITS.fullmatch(tok) for tok in tokens):
        raise _UsageError(f"bad coefficient set {args.set!r}")
    values = [int(tok) for tok in tokens]
    if args.source == segments.IDEAL:
        m = duality.reconstruct_from_ideal_set(values, args.p)
    else:
        m = duality.reconstruct_from_quotient_set(values, args.p)
    _emit(
        args,
        {"set": sorted(values, reverse=True), "p": args.p, "from": args.source},
        m.to_csv(),
        m.to_csv(),
    )
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    m = parse_monomial(args.m, args.n)
    value = duality.rank(m)
    _emit(args, {"m": m.to_csv()}, value, str(value))
    return EXIT_OK


def _cmd_unrank(args: argparse.Namespace) -> int:
    if args.n is None:
        raise _UsageError("unrank needs --n")
    m = duality.unrank(args.q, args.n, args.delta)
    _emit(args, {"q": args.q, "n": args.n, "delta": args.delta}, m.to_csv(), m.to_csv())
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report = oracle.run_verification(
        max_n=args.max_n, max_delta=args.max_delta, seed=args.seed
    )
    summary = (
        f"summary checks={len(report.results)} failures={len(report.failures)} "
        f"seed={args.seed} random_samples={report.random_samples}"
    )
    result = {
        "checks": [
            {"cell": r.cell, "property": r.prop, "status": r.status, "detail": r.detail}
            for r in report.results
        ],
        "failures": len(report.failures),
        "random_samples": report.random_samples,
    }
    _emit(
        args,
        {"max_n": args.max_n, "max_delta": args.max_delta, "seed": args.seed},
        result,
        "\n".join([*report.lines(), summary]),
    )
    return EXIT_OK if report.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexseg",
        description="Lex segments, Macaulay representations, coefficient duality, "
        "growth bounds, and a brute-force verification sweep.",
    )
    # every subcommand takes --json; only those that read a monomial or a
    # variable count take --n
    json_only = argparse.ArgumentParser(add_help=False)
    json_only.add_argument("--json", action="store_true", help="emit a single JSON object")
    common = argparse.ArgumentParser(add_help=False, parents=[json_only])
    common.add_argument(
        "--n", type=_integer, default=None,
        help="variable count, required for letter-form monomials like a^2*b",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("macrep", parents=[json_only], help="Macaulay representation of an integer")
    p.add_argument("s", type=_integer)
    p.add_argument("p", type=_integer)
    p.set_defaults(func=_cmd_macrep)

    p = sub.add_parser("growth", parents=[common], help="sharp growth bound for the next degree")
    p.add_argument("--kind", choices=(segments.IDEAL, segments.QUOTIENT), required=True)
    p.add_argument("--delta", type=_integer, default=None, help="degree (quotient bound)")
    p.add_argument("s", type=_integer, help="current graded dimension")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("dim", parents=[common], help="dimension of a lex segment")
    p.add_argument("--kind", choices=(segments.IDEAL, segments.QUOTIENT), required=True)
    p.add_argument("--inclusive", action="store_true")
    p.add_argument("--m", required=True, help="monomial (exponent vector or letter form)")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("decompose", parents=[common],
                       help="summands of a segment: prefix | [lo,hi] | degree | dim")
    p.add_argument("--kind", choices=(segments.IDEAL, segments.QUOTIENT), required=True)
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("multiply", parents=[common],
                       help="segment spanned in the next degree by the variable products")
    p.add_argument("--kind", choices=(segments.IDEAL, segments.QUOTIENT), required=True)
    p.add_argument("--inclusive", action="store_true")
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("coeffs", parents=[common], help="ideal and quotient coefficient tuples")
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("partition", parents=[common],
                       help="coefficient sets and their partition verdict")
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("reconstruct", parents=[json_only],
                       help="monomial from a coefficient set and universe top p")
    p.add_argument("--set", required=True, help="comma-separated coefficients, e.g. 6,3,1")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--from", dest="source", choices=(segments.IDEAL, segments.QUOTIENT),
                   default=segments.IDEAL)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("rank", parents=[common],
                       help="1-based lex-descending position of a monomial")
    p.add_argument("--m", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("unrank", parents=[common], help="monomial at a given position")
    p.add_argument("--q", type=_integer, required=True)
    p.add_argument("--delta", type=_integer, required=True)
    p.set_defaults(func=_cmd_unrank)

    p = sub.add_parser("verify", parents=[json_only], help="run the brute-force verification sweep")
    p.add_argument("--max-n", type=_integer, default=5)
    p.add_argument("--max-delta", type=_integer, default=6)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MonomialParseError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LexsegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
