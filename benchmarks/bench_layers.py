"""The traced run: per-layer metrics, by module of the lexseg package.

Every traced run reports the same names, so per-layer numbers can be
compared between commits whichever workload the run was started for:

* closed-form probes: the median time per call of every query_large
  operation at five (n, delta) size classes, timed directly;
* module totals of the run's own workload: one untraced and one traced pass
  over the same inputs; `<module>.calls` counts calls that enter a module
  from another module or from the benchmark, `<module>.self_s` is the time
  spent in the module outside its calls into other modules, and
  `trace_overhead_s` is the traced minus the untraced pass time;
* the oracle breakdown, from a traced pinned sweep;
* the CLI: `cli.main` per subcommand in-process; from child processes, the
  import times from `-X importtime`, whole `python -m lexseg.cli` calls and
  a bare interpreter start-up as the control.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import bench_inputs as inputs
import bench_workloads as wl
from bench_stats import median
from bench_trace import Tracer, lexseg_namespaces

PROBE_CLASSES = ((50, 50), (200, 200), (800, 800), (800, 50), (50, 800))
PROBE_REPEATS = 7
CLI_INPROCESS_PASSES = 5
IMPORT_REPEATS = 7
IMPORT_MODULES = ("monomial", "macaulay", "segments", "duality", "oracle", "cli")
ORACLE_PHASES = ("enumerate_space", "check_golden_values", "check_macaulay_uniqueness")
ORACLE_ALWAYS = tuple(f"_prop_{p}" for p in inputs.CELL_PROPERTIES) + ORACLE_PHASES
_MONOMIAL_COUNT = re.compile(r"^(\d+) monomials$")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints, in print order."""
    out = []
    for n, delta in PROBE_CLASSES:
        for op, module in inputs.QUERY_OPS:
            out.append((f"{module}.{op}.n{n}_d{delta}_ms", "ms", "lower"))
    for module in wl.LIB_MODULES:
        out.append((f"{module}.calls", "count", "lower"))
        out.append((f"{module}.self_s", "s", "lower"))
    out.append(("trace_overhead_s", "s", "lower"))
    for prop in inputs.CELL_PROPERTIES:
        out.append((f"oracle.{prop}.self_s", "s", "lower"))
    for phase in ORACLE_PHASES:
        out.append((f"oracle.{phase}.self_s", "s", "lower"))
    out.append(("oracle.monomials_checked", "count", "higher"))
    out.append(("cli.import_ms", "ms", "lower"))
    for module in IMPORT_MODULES:
        out.append((f"cli.import.{module}_ms", "ms", "lower"))
    for sub in inputs.CLI_SUBCOMMANDS:
        out.append((f"cli.{sub}.main_ms", "ms", "lower"))
    out.append(("cli.process_ms", "ms", "lower"))
    out.append(("cli.interpreter_ms", "ms", "lower"))
    return out


def _traced(lib: wl.Lib, always=None) -> tuple[Tracer, list[str]]:
    tracer = Tracer()
    missing = tracer.install(lib.modules(), lexseg_namespaces(), always)
    return tracer, missing


# ---------------------------------------------------------------------------
# closed-form probes
# ---------------------------------------------------------------------------


def closed_form_probe(lib: wl.Lib, seed: int, m: wl.Measurement) -> dict[str, float]:
    rng = inputs.pass_rng("probe", seed, 0)
    out = {}
    for n, delta in PROBE_CLASSES:
        for op, module in inputs.QUERY_OPS:
            queries = [inputs.draw_query(rng, op, n, delta) for _ in range(PROBE_REPEATS)]
            prepared = [inputs.prepare_query(lib, q) for q in queries]
            _, timed = wl.time_queries(lib, prepared)
            wl.check_queries(queries, timed, m)
            out[f"{module}.{op}.n{n}_d{delta}_ms"] = median([t * 1e3 for t, _ in timed])
    return out


# ---------------------------------------------------------------------------
# one untraced and one traced pass of each workload
# ---------------------------------------------------------------------------


@dataclass
class TracedPair:
    """One untraced and one traced pass over the same inputs."""

    tracer: Tracer
    untraced_s: float
    traced_s: float
    missing: list[str] = field(default_factory=list)
    report: object = None
    main_ms: dict[str, list[float]] = field(default_factory=dict)


def query_pair(lib: wl.Lib, seed: int, m: wl.Measurement) -> TracedPair:
    queries, prepared = wl.prepared_query_pass(lib, seed, 0)
    untraced, timed = wl.time_queries(lib, prepared)
    wl.check_queries(queries, timed, m)
    tracer, _ = _traced(lib)
    try:
        traced, timed = wl.time_queries(lib, prepared)
    finally:
        tracer.uninstall()
    wl.check_queries(queries, timed, m)
    return TracedPair(tracer, untraced, traced)


def sweep_pair(lib: wl.Lib, seed: int, m: wl.Measurement) -> TracedPair:
    vseed = inputs.verify_seed(seed, 0)
    untraced, report, units = wl.sweep(lib, vseed)
    wl.check_sweep(report, units, m)
    tracer, missing = _traced(lib, {"oracle": ORACLE_ALWAYS})
    try:
        traced, report, units = wl.sweep(lib, vseed)
    finally:
        tracer.uninstall()
    wl.check_sweep(report, units, m)
    return TracedPair(tracer, untraced, traced, missing, report=report)


def cli_pair(lib: wl.Lib, seed: int, m: wl.Measurement) -> TracedPair:
    passes = [inputs.cli_pass(lib, seed, k) for k in range(CLI_INPROCESS_PASSES)]
    main_ms: dict[str, list[float]] = {}
    untraced = traced = 0.0
    for queries in passes:
        pass_s, timed = wl.time_cli(lib, queries)
        wl.check_cli_pass(queries, timed, m)
        untraced += pass_s
        for query, (seconds, _, _) in zip(queries, timed):
            if query.exit_code == 0:
                main_ms.setdefault(query.subcommand, []).append(seconds * 1e3)
    tracer, _ = _traced(lib)
    try:
        for queries in passes:
            pass_s, timed = wl.time_cli(lib, queries)
            wl.check_cli_pass(queries, timed, m)
            traced += pass_s
    finally:
        tracer.uninstall()
    return TracedPair(tracer, untraced, traced, main_ms=main_ms)


def module_totals(pair: TracedPair) -> dict[str, float]:
    totals = pair.tracer.by_module()
    out = {}
    for module in wl.LIB_MODULES:
        calls, self_s = totals.get(module, (0, 0.0))
        out[f"{module}.calls"] = calls
        out[f"{module}.self_s"] = self_s
    out["trace_overhead_s"] = pair.traced_s - pair.untraced_s
    return out


def oracle_breakdown(pair: TracedPair) -> dict[str, float]:
    names = pair.tracer.by_name()
    out = {}
    for prop in inputs.CELL_PROPERTIES:
        hit = names.get(f"oracle._prop_{prop}")
        if hit is not None:
            out[f"oracle.{prop}.self_s"] = hit[1]
    for phase in ORACLE_PHASES:
        hit = names.get(f"oracle.{phase}")
        if hit is not None:
            out[f"oracle.{phase}.self_s"] = hit[1]
    report = pair.report
    if not isinstance(report, Exception):
        out["oracle.monomials_checked"] = sum(
            int(hit.group(1))
            for r in report.results
            if (hit := _MONOMIAL_COUNT.match(r.detail)) is not None
        )
    return out


# ---------------------------------------------------------------------------
# CLI start-up
# ---------------------------------------------------------------------------


def _importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """module -> (self us, cumulative us) from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[0].strip().isdigit():
            out[parts[2].strip()] = (int(parts[0]), int(parts[1]))
    return out


def cli_startup(src: Path, lib: wl.Lib, seed: int, m: wl.Measurement) -> dict[str, float]:
    """Start-up costs of the CLI, from child processes.

    Import times of lexseg.cli are interleaved with bare interpreter
    start-ups; `cli.process_ms` is the whole `python -m lexseg.cli` call
    over one pass of queries, each answer checked.
    """
    env = wl.child_env(src)
    imports: dict[str, list[float]] = {}
    interpreter: list[float] = []
    for _ in range(IMPORT_REPEATS):
        interpreter.extend(wl.interpreter_ms(src, 1))
        proc = wl.run_child(("-X", "importtime", "-c", "import lexseg.cli"), env, src.parent)
        times = _importtime(proc.stderr)
        m.record(proc.returncode == 0 and "lexseg.cli" in times, "import lexseg.cli")
        if "lexseg.cli" in times:
            imports.setdefault("cli.import_ms", []).append(times["lexseg.cli"][1] / 1e3)
        for module in IMPORT_MODULES:
            if f"lexseg.{module}" in times:
                imports.setdefault(f"cli.import.{module}_ms", []).append(
                    times[f"lexseg.{module}"][0] / 1e3
                )
    out = {name: median(values) for name, values in imports.items()}
    out["cli.interpreter_ms"] = median(interpreter)
    process_ms = []
    for query in inputs.cli_pass(lib, seed, CLI_INPROCESS_PASSES):
        t0 = perf_counter()
        proc = wl.run_child(("-m", "lexseg.cli", *query.argv), env, src.parent)
        process_ms.append((perf_counter() - t0) * 1e3)
        wl.check_cli(query, proc.returncode, proc.stdout, m)
    out["cli.process_ms"] = median(process_ms)
    return out


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def run_traced(src: Path, workload: str, seed: int, out_dir: Path):
    """(metrics, measurement, notes) of a traced run started for `workload`."""
    m = wl.Measurement()
    lib = wl.Lib(src)
    metrics: dict[str, float] = closed_form_probe(lib, seed, m)
    sweep = sweep_pair(lib, seed, m)
    cli = cli_pair(lib, seed, m)
    if workload == "verify_sweep":
        own = sweep
    elif workload == "cli_query":
        own = cli
    else:
        own = query_pair(lib, seed, m)
    metrics.update(module_totals(own))
    metrics.update(oracle_breakdown(sweep))
    for sub, samples in cli.main_ms.items():
        metrics[f"cli.{sub}.main_ms"] = median(samples)
    metrics.update(cli_startup(src, lib, seed, m))

    spans_file = out_dir / f"spans_{workload}.bin"
    own.tracer.write(spans_file)
    notes = {
        "spans": len(own.tracer),
        "spans_file": spans_file.relative_to(src.parent).as_posix(),
        "missing_spans": sweep.missing,
        "untraced_pass_s": own.untraced_s,
        "traced_pass_s": own.traced_s,
        "samples": {
            "closed_form_per_class": PROBE_REPEATS,
            "cli.main_ms": {sub: len(v) for sub, v in cli.main_ms.items()},
            "cli.import_ms": IMPORT_REPEATS,
            "cli.interpreter_ms": IMPORT_REPEATS,
            "cli.process_ms": inputs.CLI_VALID_PER_PASS + inputs.CLI_INVALID_PER_PASS,
        },
    }
    return metrics, m, notes
