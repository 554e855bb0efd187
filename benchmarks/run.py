"""lexseg benchmark: one command, three workloads, every output checked.

    python3 benchmarks/run.py --workload query_large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lexseg is imported from ./src.
Workloads (see benchmarks/NOTES.md for the mix and the reason for each):

    query_large   closed-form queries at n, delta in {50, 200, 800}
    verify_sweep  oracle.run_verification with every parameter pinned
    cli_query     lexseg.cli.main on desk-scale queries, in-process

--trace 0 measures the workload untraced and prints the end-to-end
metrics.  --trace 1 is a separate run that prints the per-layer metrics
(see bench_layers.py) and writes its spans under .bench_out/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table
and a JSON environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import bench_layers as layers  # noqa: E402
import bench_workloads as wl  # noqa: E402
from bench_stats import blocked_percentile, median  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
INTERPRETER_REPEATS = 5


def end_to_end(m: wl.Measurement) -> tuple[dict[str, float], dict]:
    """The metrics, and the sample count behind each."""
    p95, blocks = blocked_percentile(m.op_ms, wl.TAIL_FRACTION)
    metrics = {
        "setup_s": median(m.setup_s),
        "wall_s": median(m.pass_s),
        "latency_p50_ms": median(m.op_ms),
        "latency_p95_ms": p95,
        "peak_rss_mb": m.peak_rss_mb,
    }
    samples = {
        "setup_s": len(m.setup_s),
        "wall_s": len(m.pass_s),
        "latency_p50_ms": len(m.op_ms),
        "latency_p95_ms": {"samples": len(m.op_ms), "blocks": blocks},
    }
    return metrics, samples


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def environment(args, interpreter_ms: float, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cli.interpreter_ms": interpreter_ms,
        "samples": samples,
    }


def print_result(metrics: dict[str, float], units: dict[str, str], m: wl.Measurement,
                 env: dict) -> None:
    ratio = m.failed / m.attempted
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6f} {units[name]}")
    print(f"{'failed_ratio':<48} {ratio:>16.6f} ratio ({m.failed}/{m.attempted})")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexseg" / "__init__.py").is_file():
        print(f"error: no lexseg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    if args.trace:
        metrics, m, notes = layers.run_traced(SRC, args.workload, args.seed, OUT_DIR)
        units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
        missing = [name for name in units if name not in metrics]
        if missing:
            print(f"not measured: {', '.join(missing)}", file=sys.stderr)
        metrics = {name: metrics[name] for name in units if name in metrics}
        env = environment(args, metrics.get("cli.interpreter_ms"), notes.pop("samples"))
        env.update(notes)
    else:
        m = wl.RUNNERS[args.workload](SRC, args.seed, args.seconds)
        metrics, samples = end_to_end(m)
        units = dict(END_TO_END)
        samples["cli.interpreter_ms"] = INTERPRETER_REPEATS
        env = environment(args, median(wl.interpreter_ms(SRC, INTERPRETER_REPEATS)), samples)
    print_result(metrics, units, m, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
