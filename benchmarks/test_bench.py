"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bench_inputs as inputs
import bench_layers as layers
import bench_workloads as wl
import run
from bench_stats import MIN_TAIL, blocked_percentile, min_samples, percentile
from bench_trace import Tracer, read_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def lib():
    return wl.Lib(SRC)


def test_same_seed_gives_identical_inputs(lib):
    assert inputs.query_pass(7, 0) == inputs.query_pass(7, 0)
    assert inputs.query_pass(7, 0) != inputs.query_pass(8, 0)
    assert inputs.query_pass(7, 0) != inputs.query_pass(7, 1)
    assert inputs.verify_seed(7, 3) == inputs.verify_seed(7, 3)
    assert inputs.verify_seed(7, 3) != inputs.verify_seed(7, 4)
    assert inputs.cli_pass(lib, 7, 0) == inputs.cli_pass(lib, 7, 0)
    assert inputs.cli_pass(lib, 7, 0) != inputs.cli_pass(lib, 7, 1)


def test_pass_inputs_never_repeat():
    seen = set()
    for index in range(3):
        for q in inputs.query_pass(5, index):
            key = (q.op, q.n, q.delta, q.q)
            assert key not in seen
            seen.add(key)


def test_reference_agrees_with_library_on_small_pieces(lib):
    Monomial = lib.monomial.Monomial
    for n in range(2, 5):
        for delta in range(1, 5):
            total = inputs.space_size(n, delta)
            for q in range(1, total + 1):
                m = lib.duality.unrank(q, n, delta)
                subset = sorted(lib.duality.ideal_coefficients(m).coefficients)
                assert inputs.monomial_of_subset(subset, delta) == m.exponents
                assert 1 + inputs.subset_value(subset) == q == inputs.rank_of(m.exponents)
                up = Monomial(inputs.times_var(m.exponents, inputs.max_index(m.exponents)))
                assert inputs.rank_of(up.exponents) == lib.duality.rank(up)


def test_percentile_keeps_ten_samples_beyond():
    values = list(range(min_samples(0.95)))
    p95 = percentile(values, 0.95)
    assert sum(v > p95 for v in values) >= MIN_TAIL
    with pytest.raises(ValueError):
        percentile(values[:-1], 0.95)
    assert min_samples(0.95) == 200
    assert wl.MIN_OPS == 200
    burst = [1e6] * len(values)
    assert blocked_percentile(values + burst + values, 0.95) == (p95, 3)
    with pytest.raises(ValueError):
        blocked_percentile(values[:-1], 0.95)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "benchmarks/run.py"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.RUNNERS)
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == (
        layers.per_layer_metrics()
    )


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_printed_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "verify_sweep", "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in spec["end_to_end"]
    }
    proc = _run(["--workload", "cli_query", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in spec["per_layer"]
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "query_large", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stubbed_wrong_answer_raises_failed_count(lib):
    queries, prepared = wl.prepared_query_pass(lib, 4, 0)
    small = [(q, p) for q, p in zip(queries, prepared) if q.n <= 200 and q.delta <= 200]
    queries, prepared = [q for q, _ in small], [p for _, p in small]
    real_rank, real_dim = lib.duality.rank, lib.segments.segment_dimension

    def broken_dim(seg):
        raise RuntimeError("stub")

    lib.duality.rank = lambda m: real_rank(m) + 1
    lib.segments.segment_dimension = broken_dim
    try:
        _, timed = wl.time_queries(lib, prepared)
    finally:
        lib.duality.rank, lib.segments.segment_dimension = real_rank, real_dim
    m = wl.Measurement()
    wl.check_queries(queries, timed, m)
    stubbed = sum(q.op in ("rank", "segment_dimension_ideal", "segment_dimension_quotient")
                  for q in queries)
    assert m.attempted == len(queries)
    assert m.failed == stubbed > 0

    query = inputs.cli_pass(lib, 4, 0)[0]
    m = wl.Measurement()
    wl.check_cli(query, query.exit_code, query.stdout + "x", m)
    wl.check_cli(query, RuntimeError("stub"), query.stdout, m)
    wl.check_cli(query, query.exit_code, query.stdout, m)
    assert (m.attempted, m.failed) == (3, 2)


def _fake_modules():
    """Two modules: high.top calls low.leaf twice, low.leaf calls low.helper."""
    low = types.ModuleType("fake.low")
    high = types.ModuleType("fake.high")
    exec("def leaf(x):\n    return helper(x)\ndef helper(x):\n    return x + 1\n", low.__dict__)
    high.leaf = low.leaf
    exec("def top(x):\n    return leaf(x) + leaf(x)\n", high.__dict__)
    return low, high


def test_tracer_spans_and_self_time(tmp_path):
    low, high = _fake_modules()
    tracer = Tracer()
    tracer.install({"low": low, "high": high}, [low, high])
    try:
        assert high.top(1) == 4
    finally:
        tracer.uninstall()
    assert high.leaf is low.leaf and not hasattr(low.leaf, "__wrapped__")
    # top crosses in from the caller, leaf twice from high; helper stays inside low.
    assert [tracer.names[i] for i in tracer.name_id] == ["high.top", "low.leaf", "low.leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    own = tracer.self_times()
    root = tracer.end[0] - tracer.start[0]
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(root)
    assert tracer.by_module()["low"][0] == 2
    path = tmp_path / "spans.bin"
    tracer.write(path)
    header, arrays = read_spans(path)
    assert header["count"] == 3 and list(arrays["parent"]) == [-1, 0, 0]
