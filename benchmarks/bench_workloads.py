"""The three workloads, untraced: every end-to-end number comes from here.

Each workload is a closed loop with one caller.  It sets up several times
(fresh import of lexseg plus the first pass's inputs) and reports the
median set-up time, then runs passes over freshly generated inputs until
the timed time reaches the requested seconds and the tail percentile has
enough samples.  Inputs are generated, and outputs checked, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import bench_inputs as inputs
from bench_stats import min_samples

LIB_MODULES = ("monomial", "macaulay", "segments", "duality", "oracle", "cli")
SETUP_REPEATS = 9
TAIL_FRACTION = 0.95
MIN_OPS = min_samples(TAIL_FRACTION)
CHILD_TIMEOUT_S = 30
MAX_REPORTED_ERRORS = 3


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    def record(self, ok: bool, what: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED_ERRORS:
                print(f"wrong answer: {what} {detail}".rstrip(), file=sys.stderr)


class Lib:
    """Some lexseg modules by short name, freshly imported from a source tree.

    Any loaded copy is dropped first, so each set-up pays for the import of
    what its workload uses, and nothing more.
    """

    def __init__(self, src: Path, modules=LIB_MODULES):
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for key in [k for k in sys.modules if k == "lexseg" or k.startswith("lexseg.")]:
            del sys.modules[key]
        importlib.invalidate_caches()
        self.names = tuple(modules)
        for short in self.names:
            setattr(self, short, importlib.import_module(f"lexseg.{short}"))

    def modules(self) -> dict:
        return {short: getattr(self, short) for short in self.names}


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _enough(m: Measurement, seconds: float) -> bool:
    return sum(m.pass_s) >= seconds and len(m.op_ms) >= MIN_OPS


def _traceback(exc: BaseException) -> str:
    return "".join(traceback.format_exception(exc)).rstrip()


# ---------------------------------------------------------------------------
# query_large
# ---------------------------------------------------------------------------


def prepared_query_pass(lib: Lib, seed: int, index: int):
    queries = inputs.query_pass(seed, index)
    return queries, [inputs.prepare_query(lib, q) for q in queries]


def time_queries(lib: Lib, prepared) -> tuple[float, list[tuple[float, object]]]:
    """Run one pass; returns the pass time and (seconds, result or exception) per call."""
    calls = [(inputs.resolve(lib, target), args) for target, args in prepared]
    out = []
    gc.collect()
    pass_start = perf_counter()
    for fn, args in calls:
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            result = exc
        out.append((perf_counter() - t0, result))
    return perf_counter() - pass_start, out


def check_queries(queries, timed, m: Measurement) -> None:
    for query, (_, result) in zip(queries, timed):
        if isinstance(result, Exception):
            m.record(False, query.label, _traceback(result))
        else:
            m.record(inputs.check_query(query, result), query.label)


def run_query_large(src: Path, seed: int, seconds: float) -> Measurement:
    m = Measurement()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = Lib(src, ("monomial", "macaulay", "segments", "duality"))
        queries, prepared = prepared_query_pass(lib, seed, 0)
        m.setup_s.append(perf_counter() - t0)
    index = 0
    while not _enough(m, seconds):
        if index:
            queries, prepared = prepared_query_pass(lib, seed, index)
        pass_s, timed = time_queries(lib, prepared)
        m.pass_s.append(pass_s)
        m.op_ms.extend(t * 1e3 for t, _ in timed)
        check_queries(queries, timed, m)
        index += 1
    m.peak_rss_mb = self_rss_mb()
    return m


# ---------------------------------------------------------------------------
# verify_sweep
# ---------------------------------------------------------------------------


class UnitTimer:
    """Times each unit of a sweep: every cell, the golden checks, the uniqueness checks."""

    PATCHED = ("check_cell", "check_golden_values", "check_macaulay_uniqueness")

    def __init__(self, oracle):
        self.oracle = oracle
        self.units: list[tuple[str, float, list]] = []
        self._saved = {}

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            results = fn(*args, **kwargs)
            seconds = perf_counter() - t0
            if name == "check_cell":
                label = f"({args[0]},{args[1]})"
            else:
                label = "golden" if name == "check_golden_values" else "uniqueness"
            self.units.append((label, seconds, results))
            return results

        return timed

    def __enter__(self) -> UnitTimer:
        for name in self.PATCHED:
            self._saved[name] = getattr(self.oracle, name)
            setattr(self.oracle, name, self._wrap(name, self._saved[name]))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(self.oracle, name, fn)


def sweep(lib: Lib, vseed: int):
    """One pinned sweep; returns (seconds, report or exception, timed units)."""
    gc.collect()
    with UnitTimer(lib.oracle) as timer:
        t0 = perf_counter()
        try:
            report = lib.oracle.run_verification(seed=vseed, **inputs.VERIFY_PARAMS)
        except Exception as exc:  # a raising sweep fails every unit
            report = exc
        seconds = perf_counter() - t0
    return seconds, report, timer.units


def check_sweep(report, units, m: Measurement) -> None:
    expected = inputs.expected_verify_units()
    if isinstance(report, Exception):
        for label in expected:
            m.record(False, f"verify {label}", _traceback(report))
        return
    got = {label: results for label, _, results in units}
    sweep_ok = report.ok and len(report.results) == inputs.VERIFY_RESULTS
    for label, count in expected.items():
        results = got.get(label, [])
        bad = [r.as_line() for r in results if not r.ok]
        ok = sweep_ok and len(results) == count and not bad
        m.record(ok, f"verify {label}", f"{len(results)} of {count} results; {bad[:1]}")


def run_verify_sweep(src: Path, seed: int, seconds: float) -> Measurement:
    m = Measurement()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = Lib(src, ("oracle",))
        vseed = inputs.verify_seed(seed, 0)
        m.setup_s.append(perf_counter() - t0)
    index = 0
    while not _enough(m, seconds):
        if index:
            vseed = inputs.verify_seed(seed, index)
        pass_s, report, units = sweep(lib, vseed)
        m.pass_s.append(pass_s)
        m.op_ms.extend(s * 1e3 for _, s, _ in units)
        check_sweep(report, units, m)
        index += 1
    m.peak_rss_mb = self_rss_mb()
    return m


# ---------------------------------------------------------------------------
# cli_query
# ---------------------------------------------------------------------------


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env: dict, cwd: Path) -> subprocess.CompletedProcess:
    """Run the interpreter to completion; a child that hangs is killed and reported as exit -1."""
    cmd = [sys.executable, *argv]
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=cwd,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, -1, "", f"timed out after {CHILD_TIMEOUT_S} s")


def run_main(cli, argv) -> tuple[object, str]:
    """(exit code, stdout) of lexseg.cli.main in-process; an exception takes the code's place."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors by exiting
            code = exc.code
        except Exception as exc:  # a crash is a failed query, not a crashed benchmark
            code = exc
    return code, out.getvalue()


def time_cli(lib: Lib, queries) -> tuple[float, list[tuple[float, object, str]]]:
    """Run one pass; returns the pass time and (seconds, exit code, stdout) per query."""
    out = []
    gc.collect()
    pass_start = perf_counter()
    for query in queries:
        t0 = perf_counter()
        code, stdout = run_main(lib.cli, query.argv)
        out.append((perf_counter() - t0, code, stdout))
    return perf_counter() - pass_start, out


def check_cli(query: inputs.CliQuery, code, stdout: str, m: Measurement) -> None:
    ok = code == query.exit_code and stdout == query.stdout
    if isinstance(code, Exception):
        detail = f"argv={' '.join(query.argv)}\n{_traceback(code)}"
    else:
        detail = (
            f"argv={' '.join(query.argv)} exit={code} (want {query.exit_code}) "
            f"stdout={stdout[:120]!r} (want {query.stdout[:120]!r})"
        )
    m.record(ok, f"cli {query.subcommand}", "" if ok else detail)


def check_cli_pass(queries, timed, m: Measurement) -> None:
    for query, (_, code, stdout) in zip(queries, timed):
        check_cli(query, code, stdout, m)


def run_cli_query(src: Path, seed: int, seconds: float) -> Measurement:
    m = Measurement()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = Lib(src, ("cli", "monomial", "segments"))
        queries = inputs.cli_pass(lib, seed, 0)
        m.setup_s.append(perf_counter() - t0)
    index = 0
    while not _enough(m, seconds):
        if index:
            queries = inputs.cli_pass(lib, seed, index)
        pass_s, timed = time_cli(lib, queries)
        m.pass_s.append(pass_s)
        m.op_ms.extend(t * 1e3 for t, _, _ in timed)
        check_cli_pass(queries, timed, m)
        index += 1
    m.peak_rss_mb = self_rss_mb()
    return m


def interpreter_ms(src: Path, repeats: int) -> list[float]:
    """Bare `python -c pass` start-up times: the control no lexseg change should move."""
    env = child_env(src)
    out = []
    for _ in range(repeats):
        t0 = perf_counter()
        run_child(("-c", "pass"), env, src.parent)
        out.append((perf_counter() - t0) * 1e3)
    return out


RUNNERS = {
    "query_large": run_query_large,
    "verify_sweep": run_verify_sweep,
    "cli_query": run_cli_query,
}
