"""Runs one workload: set-up, an untraced timed pass, optionally a traced one.

End-to-end numbers come from the untraced pass only.  With ``trace=True``
another pass on a fresh set-up runs with the timing shims of :mod:`spans`
installed, and the per-layer numbers come from its spans; the difference in
throughput between the two passes is the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from pathlib import Path

import layers
import workloads
from spans import Tracer

#: An untraced run sets up at least SETUP_REPEATS times, and more (up to
#: SETUP_MAX) until the set-ups took SETUP_SECONDS; ``setup_s`` is their
#: median, so a workload with a quick set-up gets more samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX = 12
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least 10 samples beyond it."""
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= 10.0:
            return percentile
    return 50.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latencies(records: list[dict], kind: str | None = None) -> list[float]:
    return [
        r["done"] - r["sent"]
        for r in records
        if r["error"] is None and (kind is None or r[kind])
    ]


def end_to_end(records: list[dict], serving_seconds: float, ratios: list[float]) -> dict:
    """The end-to-end figures of one timed pass (seconds in, ms out)."""
    ok = [r for r in records if r["error"] is None]
    everything = _latencies(records)
    paid = _latencies(records, "paid")
    free = _latencies(records, "free")
    tail = tail_percentile(len(everything))
    return {
        "answers_per_s": len(ok) / serving_seconds,
        "answer_p50_ms": 1e3 * statistics.median(everything) if everything else None,
        "answer_tail_ms": 1e3 * percentile(everything, tail) if everything else None,
        "answer_tail_percentile": tail,
        "paid_p50_ms": 1e3 * statistics.median(paid) if paid else None,
        "free_p50_ms": 1e3 * statistics.median(free) if free else None,
        "error_vs_identity": (
            math.exp(statistics.fmean(math.log(r) for r in ratios)) if ratios else None
        ),
        "failed_frac": (len(records) - len(ok)) / max(len(records), 1),
        "samples": {"all": len(everything), "paid": len(paid), "free": len(free)},
        "serving_seconds": serving_seconds,
    }


def timed_pass(bench: workloads.Bench, server, seconds: float) -> dict:
    """Run the clients against a set-up server and check what they got."""
    plans_before = server.planner.plans_built
    started = time.perf_counter()
    records = bench.run_clients(server, seconds)
    wall = time.perf_counter() - started
    plans_built = server.planner.plans_built - plans_before
    checks = bench.check(server, records, plans_built)
    failed = sum(r["error"] is not None for r in records)
    checks["all_answered"] = {"ok": failed == 0, "failed": failed}
    serving = wall - bench.client_seconds
    return {
        "records": records,
        "wall_seconds": wall,
        "metrics": end_to_end(records, serving, bench.ratios),
        "checks": checks,
        "correct": all(check["ok"] for check in checks.values()),
    }


def _untraced_pass(bench: workloads.Bench, seconds: float, repeat: bool) -> tuple[list, dict]:
    """Set up (repeatedly if ``repeat``), time the last set-up's server; (set-up seconds, pass)."""
    setups = []
    server = None
    while not setups or repeat and len(setups) < SETUP_MAX and (
        len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS
    ):
        if server is not None:
            bench.teardown(server)
        started = time.perf_counter()
        server = bench.setup()
        setups.append(time.perf_counter() - started)
    try:
        return setups, timed_pass(bench, server, seconds)
    finally:
        bench.teardown(server)


def _traced_pass(bench: workloads.Bench, seconds: float) -> tuple[dict, dict, Tracer]:
    """A pass on a fresh set-up with the shims installed; (pass, per-layer, tracer)."""
    tracer = Tracer()
    tracer.install()
    bench.tracer = tracer
    try:
        server = bench.setup()
        try:
            counters_before = layers.counters(server)
            tracer.reset()
            tracer.enabled = True
            try:
                traced = timed_pass(bench, server, seconds)
            finally:
                tracer.enabled = False
            counters = layers.counter_delta(counters_before, layers.counters(server))
            per_layer = layers.per_layer(tracer.spans, traced["records"], server, counters)
        finally:
            bench.teardown(server)
    finally:
        tracer.uninstall()
        bench.tracer = None
    return traced, per_layer, tracer


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    smoke: bool = False,
    out_dir: Path = Path("."),
    spans_path: Path | None = None,
) -> dict:
    """One benchmark run; returns the full report (see ``run.py``).

    A traced run also makes an untraced pass, to measure the tracing
    overhead.  Whichever pass runs second finds the process warmer, so odd
    seeds run the traced pass first and even seeds run it second; the
    overhead of one run is a single pair of passes and carries the
    run-to-run spread of ``answers_per_s``.  A traced run writes its spans
    to ``spans_path`` as JSON lines, if given.
    """
    bench = workloads.WORKLOADS[name](seed, smoke=smoke, out_dir=out_dir)
    traced_first = trace and seed % 2 == 1
    if traced_first:
        traced, per_layer, tracer = _traced_pass(bench, seconds)
    setups, untraced = _untraced_pass(bench, seconds, repeat=not (trace or smoke))
    if trace and not traced_first:
        traced, per_layer, tracer = _traced_pass(bench, seconds)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "untraced": {k: v for k, v in untraced.items() if k != "records"},
        "correct": untraced["correct"],
        "attempted": len(untraced["records"]),
        "failed": untraced["checks"]["all_answered"]["failed"],
    }
    if trace:
        per_layer["trace.overhead_pct"] = 100.0 * (
            untraced["metrics"]["answers_per_s"] / traced["metrics"]["answers_per_s"] - 1.0
        )
        report["traced_first"] = traced_first
        report["traced"] = {k: v for k, v in traced.items() if k != "records"}
        report["per_layer"] = per_layer
        report["profile"] = layers.profile(tracer.spans, traced["records"])
        report["correct"] = report["correct"] and traced["correct"]
        report["attempted"] += len(traced["records"])
        report["failed"] += traced["checks"]["all_answered"]["failed"]
        report["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    report["peak_rss_mb"] = peak_rss_mb()
    return report
