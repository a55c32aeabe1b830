"""Tests of the benchmark itself (not collected by the repository's test run).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import runner  # noqa: E402
import generate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.core.workload import Workload  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _same(a, b) -> bool:
    """Deep equality over the generators' dicts, lists and arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


GENERATORS = {
    "cold-shapes": lambda seed: generate.cold_shapes(seed),
    "paid-refresh": lambda seed: generate.paid_refresh(seed, cells=256),
    "sql-dashboard": lambda seed: {
        **generate.sql_dashboard(seed, tenants_per_client=10),
        "columns": generate.sql_relation_columns(seed, rows=2000),
    },
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_requests(name):
    generator = GENERATORS[name]
    assert _same(generator(7), generator(7))
    assert not _same(generator(7), generator(8))


def test_cold_shapes_are_distinct_and_round_robin():
    shapes = generate.cold_shapes(3)
    assert len({generate.shape_key(spec) for spec in shapes}) == len(shapes)
    families = len(generate.COLD_FAMILIES)
    for start in range(0, len(shapes), families):
        assert sorted(s["family"] for s in shapes[start:start + families]) == sorted(
            generate.COLD_FAMILIES
        )
    assert all(generate.shape_cells(spec) <= 1024 for spec in shapes)


def test_follow_up_oracle_matches_the_sql_compiler():
    from repro.relational import workload_from_sql

    schema = generate.build_schema()
    rng = np.random.default_rng(0)
    for _ in range(20):
        statements, specs = generate._follow_up(rng)
        compiled, _ = workload_from_sql(schema, statements)
        assert np.array_equal(compiled.matrix, workloads.oracle_rows(specs))


def _corrupt_one_answer(monkeypatch, after: int = 3):
    """Make the ``after``-th ``Workload.answer`` call return a wrong vector."""
    original = Workload.answer
    calls = {"n": 0}

    def answer(self, data):
        result = original(self, data)
        calls["n"] += 1
        if calls["n"] == after:
            result = result.copy()
            result[0] += 1.0
        return result

    monkeypatch.setattr(Workload, "answer", answer)


@pytest.mark.parametrize("name", ["paid-refresh", "sql-dashboard"])
@pytest.mark.parametrize("corrupt", [False, True])
def test_a_corrupted_answer_fails_the_checks(monkeypatch, tmp_path, name, corrupt):
    bench = workloads.WORKLOADS[name](5, smoke=True, out_dir=tmp_path)
    server = bench.setup()
    try:
        if corrupt:
            _corrupt_one_answer(monkeypatch)
        result = runner.timed_pass(bench, server, 1.0)
    finally:
        bench.teardown(server)
    assert result["correct"] is (not corrupt), result["checks"]


def test_underived_follow_ups_fail_the_checks(monkeypatch, tmp_path):
    """Follow-ups that all come back as errors must not pass as checked."""
    from repro.engine.session import Session

    bench = workloads.WORKLOADS["sql-dashboard"](5, smoke=True, out_dir=tmp_path)
    server = bench.setup()
    try:
        monkeypatch.setattr(Session, "_serve_from_release", lambda self, *a, **k: None)
        result = runner.timed_pass(bench, server, 1.0)
    finally:
        bench.teardown(server)
    checks = result["checks"]
    assert checks["free_equals_release"] == {"ok": False, "checked": 0, "bad": 0}
    assert not checks["all_answered"]["ok"] and not result["correct"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_quick(tmp_path, name):
    started = time.perf_counter()
    report = runner.run_benchmark(name, 1, 1.0, smoke=True, out_dir=tmp_path)
    assert time.perf_counter() - started < 30.0
    assert report["correct"], report["untraced"]["checks"]
    assert report["failed"] == 0 and report["attempted"] > 0
    assert not list(tmp_path.glob("*.db")), "state stores must be removed on teardown"


@pytest.mark.parametrize("seed", [1, 2])
def test_traced_smoke_reports_every_layer(tmp_path, seed):
    report = runner.run_benchmark("sql-dashboard", seed, 1.0, trace=True, smoke=True, out_dir=tmp_path)
    assert report["correct"]
    assert report["traced_first"] is (seed % 2 == 1)
    assert set(report["per_layer"]) == set(layers.METRICS)
    assert report["per_layer"]["sql.calls"] > 0
    assert 0.0 <= report["per_layer"]["trace.uncovered_frac"] < 0.2
    assert not hasattr(Workload.answer, "__wrapped__"), "shims must be removed after the pass"


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, None, 1, 0),
        Span("child", 1.0, 4.0, 0, 1, 0),
        Span("grandchild", 2.0, 3.0, 1, 1, 0),
        Span("child", 5.0, 6.0, 0, 1, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_shims_nest_and_carry_the_request_id():
    class Layer:
        def outer(self, key):
            return self.inner()

        def inner(self):
            return 42

    tracer = Tracer()
    module = sys.modules[__name__]
    module.Layer = Layer
    tracer.install(shims=((__name__, "Layer.inner", "inner"),),
                   roots=((__name__, "Layer.outer", "server.ask"),))
    try:
        record = {}
        tracer.dispatched["tenant"] = record
        tracer.enabled = True
        assert Layer().outer("tenant") == 42
        Layer().inner()  # outside any request: not recorded
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("server.ask", None, 1),
        ("inner", 0, 1),
    ]
    assert record["request"] == 1 and "started" in record


def test_tail_percentile_keeps_ten_samples_beyond():
    assert runner.tail_percentile(1000) == 99.0
    assert runner.tail_percentile(150) == 90.0
    assert runner.tail_percentile(100) == 90.0
    assert runner.tail_percentile(99) == 85.0
    assert runner.tail_percentile(40) == 75.0
