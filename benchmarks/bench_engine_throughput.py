"""Serving-throughput benchmark: sessions x workers over one shared engine.

Measures what the serving layer (``repro.engine.server``) is for: answers
per second from a pool of concurrent tenants sharing one planner and one
content-addressed plan cache, swept over worker counts.  Two paths:

* **paid** — every request runs the full warm pipeline: plan-cache hit
  (strategy optimization skipped), mechanism run (noise + inference), and
  an atomic budget charge.  Requests bring their own data vector so each
  one genuinely executes instead of reusing a release.
* **reuse** — each tenant pays once, then hammers requests served from the
  released estimate: the per-request work is exactly the shard-parallel
  ``W @ x_hat`` derivation, the hot path of a warm dashboard.  Reuse
  requests pass ``coalesce=False``: the point is per-request throughput,
  and identical concurrent requests would otherwise collapse into one
  execution.

A **coalescing burst** is also measured: N identical concurrent requests
from one tenant must produce exactly one release and one budget charge
(leaders + followers are reported from the server's counters).

Timing is **warmed up and best-of-3**: each phase runs once untimed, then
three timed repeats keep the best — one scheduler hiccup no longer moves
``reuse_speedup_vs_1``.

Emits an ``engine_throughput`` section into ``BENCH_kron_fastpath.json``
(read-modify-write: the other sections are preserved) with one row per
worker count: answers/sec on both paths, the plan-cache hit rate, speedups
over the 1-worker row, and the server's per-stage
latency snapshot.  A second ``engine_store`` section (:func:`run_store`)
measures the durable state tier: cold-boot vs warm-reboot first-answer
latency (the warmed plan cache must skip strategy optimization entirely)
and the per-answer cost of the write-ahead budget ledger, asserted below
10% of a paid answer.  A third ``engine_forecast`` section
(:func:`run_forecast`) measures the forecasting tier: the first answer on a
correctly-forecast shape (plan pre-warmed from last epoch's arrivals)
against the reactive cold start that pays strategy optimization inline —
with the answers asserted bit-for-bit identical, since pre-planning moves
*when* the plan is built, never *what* is answered.  ``cpu_count`` is
recorded alongside — scaling is physically bounded by it, so the
accompanying test only asserts the four-worker speedup bar when four
cores exist.

BLAS pools are pinned to one thread (before numpy loads) so the sweep
measures *engine* concurrency, not the BLAS library's internal pool — when
run under pytest numpy may already be loaded and the pin is best-effort.

Run with:  python benchmarks/bench_engine_throughput.py [--workers N]
``--workers N`` sweeps (1, N) instead of the default ladder — the CI smoke
job runs ``--workers 2``.  Set ``REPRO_BENCH_QUICK=1`` for a smoke run
(small domain, fewer requests, JSON not rewritten).
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.engine import ForecastEngine, Planner, Server, StateStore
from repro.engine.planner import REFERENCE_PRIVACY

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Domain size: big enough that one request is dominated by GIL-releasing
#: numpy work (matvecs, the cached least-squares solve), small enough that
#: the full sweep stays in seconds.
CELLS = 256 if QUICK else 2048

#: Worker counts swept (the 1-worker thread row is the speedup baseline).
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4)

#: Tenants sharing the server and requests per phase.
TENANTS = 4 if QUICK else 8
PAID_REQUESTS = 8 if QUICK else 48
REUSE_REQUESTS = 16 if QUICK else 96
BURST_REQUESTS = 8 if QUICK else 16

#: Timed repeats per phase (after one untimed warmup); the best is kept.
REPEATS = 3

#: Ample per-tenant budget: throughput, not budget exhaustion, is measured.
TENANT_BUDGET = PrivacyParams(epsilon=1e6, delta=1e-4)
REQUEST_EPSILON = 1.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kron_fastpath.json"


def _prefix_workload(cells: int) -> Workload:
    """All 1-D prefix ranges: an ``n x n`` lower-triangular query matrix."""
    return Workload(np.tril(np.ones((cells, cells))), name=f"prefix-{cells}")


def _data_vector(cells: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 50, size=cells).astype(float)


def _measure(run, count: int, *, repeats: int = REPEATS) -> float:
    """Best-of-``repeats`` answers/sec after one untimed warmup run.

    The warmup absorbs one-time costs (first-touch allocations, pool thread
    start-up); taking the best repeat rather than the mean keeps the ratio
    rows stable against scheduler noise.
    """
    run()
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = max(best, count / max(time.perf_counter() - started, 1e-9))
    return best


def _throughput_row(workers: int, planner: Planner, workload: Workload) -> dict:
    data = _data_vector(CELLS)
    server = Server(
        TENANT_BUDGET,
        data=data,
        planner=planner,
        workers=workers,
        shard_min_rows=512,
        random_state=0,
    )
    tenants = [f"tenant-{i}" for i in range(TENANTS)]
    for tenant in tenants:
        server.open_session(tenant)
    hits_before = planner.cache.hits
    lookups_before = planner.cache.hits + planner.cache.misses

    # Paid path: per-request data => every request executes the mechanism
    # (and, by the same token, never coalesces with its identical siblings).
    paid = [
        (tenants[i % TENANTS], workload, {"epsilon": REQUEST_EPSILON, "data": data})
        for i in range(PAID_REQUESTS)
    ]
    paid_per_sec = _measure(lambda: server.ask_many(paid), PAID_REQUESTS)
    hit_rate = (planner.cache.hits - hits_before) / max(
        planner.cache.hits + planner.cache.misses - lookups_before, 1
    )

    # Reuse path: one paid release per tenant, then free derived answers.
    # coalesce=False — per-request throughput is the quantity under test;
    # coalescing identical concurrent requests would serve N for the price
    # of one and report a fictitious rate.
    for tenant in tenants:
        server.ask(tenant, workload, epsilon=REQUEST_EPSILON)
    reuse = [
        (tenants[i % TENANTS], workload, {"coalesce": False})
        for i in range(REUSE_REQUESTS)
    ]
    answers = server.ask_many(reuse)
    assert all(a.served_from_release for a in answers), "reuse path must be free"
    reuse_per_sec = _measure(lambda: server.ask_many(reuse), REUSE_REQUESTS)

    stats = server.stats()
    server.close()
    return {
        "workers": workers,
        "tenants": TENANTS,
        "paid_requests": PAID_REQUESTS,
        "reuse_requests": REUSE_REQUESTS,
        "paid_answers_per_sec": paid_per_sec,
        "reuse_answers_per_sec": reuse_per_sec,
        "plan_cache_hit_rate": hit_rate,
        "stages": stats["stages"],
        "max_spent_epsilon": max(
            entry["epsilon"] for entry in stats["spent"].values()
        ),
    }


def _coalescing_burst(planner: Planner, workload: Workload) -> dict:
    """Fire BURST_REQUESTS identical concurrent requests from one tenant.

    Invariants asserted from the server's own counters: exactly one
    release (one plan execution) and exactly one budget charge, however
    the burst raced — every other request was a coalesced follower or a
    free post-completion reuse of the release.
    """
    data = _data_vector(CELLS)
    server = Server(
        TENANT_BUDGET,
        data=data,
        planner=planner,
        workers=min(BURST_REQUESTS, 8),
        shard_min_rows=512,
        random_state=0,
    )
    session = server.open_session("burst")
    futures = [
        server.submit("burst", workload, epsilon=REQUEST_EPSILON)
        for _ in range(BURST_REQUESTS)
    ]
    started = time.perf_counter()
    answers = [future.result() for future in futures]
    elapsed = time.perf_counter() - started
    stats = server.stats()
    server.close()
    # Followers receive the leader's SessionAnswer *object* (spent and all),
    # so "charged once" is asserted on the accountant, not on the answers:
    # exactly one debit, exactly one release, one distinct paid answer.
    distinct_paid = {id(a) for a in answers if a.spent is not None}
    assert len(distinct_paid) == 1, (
        f"burst must execute exactly one paid answer, got {len(distinct_paid)}"
    )
    assert session.releases == 1, "burst must execute exactly once"
    assert session.accountant.spent_epsilon == REQUEST_EPSILON
    reference = answers[0].estimate
    for answer in answers[1:]:
        np.testing.assert_array_equal(answer.estimate, reference)
    return {
        "burst": BURST_REQUESTS,
        "charges": len(session.accountant.history),
        "releases": session.releases,
        "leaders": stats["coalesce"]["leaders"],
        "followers": stats["coalesce"]["followers"],
        "answers_per_sec": BURST_REQUESTS / max(elapsed, 1e-9),
    }


#: Write-ahead roundtrips timed for the ledger-overhead microbench.
LEDGER_ROUNDS = 20 if QUICK else 100

#: Warm paid answers averaged for the per-answer denominator.
STORE_PAID_ANSWERS = 4 if QUICK else 12

#: Domain size for the store section.  A ledger roundtrip is two SQLite
#: transactions (~0.1-0.3 ms even on WAL + synchronous=NORMAL), a fixed
#: per-answer cost — so the overhead *fraction* is only meaningful against
#: a realistically sized paid answer, not a toy one.  512 cells keeps the
#: quick run in seconds while the paid answer (noise + inference on an
#: n x n prefix workload) stays in the milliseconds.
STORE_CELLS = 512 if QUICK else 2048


def run_store() -> dict:
    """Benchmark the durable state tier: warm reboots and ledger overhead.

    Two questions, each answered against a real on-disk store:

    * **what does a restart cost?** — the first answer on a cold (empty)
      store pays strategy optimization; the first answer after a *reboot*
      (fresh server + fresh planner over the same file) must ride the
      warmed plan cache, so the ratio is roughly the optimization time
      saved per restart.  ``warm_plans_built`` is asserted to be zero.
    * **what does crash-safety cost per answer?** — the write-ahead ledger
      adds one ``BEGIN IMMEDIATE``/``INSERT``/``COMMIT`` plus one settle
      ``UPDATE`` per paid answer.  The microbenched roundtrip is compared
      against a whole warm paid answer; WAL with ``synchronous=NORMAL``
      keeps the fraction far under the 10% budget the test asserts.
    """
    workload = _prefix_workload(STORE_CELLS)
    data = _data_vector(STORE_CELLS)
    path = os.path.join(tempfile.mkdtemp(prefix="repro-bench-store-"), "state.db")

    store = StateStore(path)
    cold_started = time.perf_counter()
    with Server(
        TENANT_BUDGET, data=data, workers=1, store=store, random_state=0
    ) as server:
        server.ask("tenant-0", workload, epsilon=REQUEST_EPSILON, data=data)
        cold_seconds = time.perf_counter() - cold_started

        # Warm paid answers: per-request data forces the full paid pipeline
        # (plan-cache hit, mechanism run, durable charge) on every ask.
        def paid_round():
            for _ in range(STORE_PAID_ANSWERS):
                server.ask("tenant-0", workload, epsilon=REQUEST_EPSILON, data=data)

        paid_per_sec = _measure(paid_round, STORE_PAID_ANSWERS)
        paid_answer_seconds = 1.0 / paid_per_sec

    # Ledger microbench on the same live store: one full write-ahead
    # roundtrip (PENDING commit + settle to SPENT) per paid answer.  A
    # short warmup absorbs first-touch page allocation in the WAL.
    for _ in range(min(10, LEDGER_ROUNDS)):
        entry = store.ledger_begin("bench", PrivacyParams(1e-6, 0.0), "bench")
        store.ledger_settle(entry, "SPENT")
    started = time.perf_counter()
    for _ in range(LEDGER_ROUNDS):
        entry = store.ledger_begin("bench", PrivacyParams(1e-6, 0.0), "bench")
        store.ledger_settle(entry, "SPENT")
    ledger_roundtrip_seconds = (time.perf_counter() - started) / LEDGER_ROUNDS
    store.close()

    # Warm reboot: a fresh planner and cache over the same file — the
    # persisted plan must serve the first answer with zero optimizations.
    reboot_started = time.perf_counter()
    with Server(
        TENANT_BUDGET,
        data=data,
        workers=1,
        store=path,
        planner=Planner(),
        random_state=0,
    ) as server:
        server.ask("tenant-1", workload, epsilon=REQUEST_EPSILON, data=data)
        warm_seconds = time.perf_counter() - reboot_started
        stats = server.stats()
        warm_plans_built = server.planner.plans_built
        plans_warmed = stats["store"]["plans_warmed"]

    section = {
        "workload": f"1-D prefix ranges ({STORE_CELLS} x {STORE_CELLS} lower-triangular)",
        "cells": STORE_CELLS,
        "cold_first_answer_seconds": cold_seconds,
        "warm_reboot_first_answer_seconds": warm_seconds,
        "warm_reboot_speedup": cold_seconds / max(warm_seconds, 1e-9),
        "plans_warmed": plans_warmed,
        "warm_plans_built": warm_plans_built,
        "paid_answer_seconds": paid_answer_seconds,
        "ledger_rounds": LEDGER_ROUNDS,
        "ledger_roundtrip_seconds": ledger_roundtrip_seconds,
        "ledger_overhead_fraction": ledger_roundtrip_seconds / paid_answer_seconds,
    }
    if not QUICK:
        report = {}
        if RESULT_PATH.exists():
            report = json.loads(RESULT_PATH.read_text())
        report["engine_store"] = section
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return section


def run_forecast() -> dict:
    """Benchmark the forecasting tier: pre-planned vs reactive cold start.

    The scenario the forecaster exists for: a shape arrived last epoch, the
    forecaster predicted it would arrive again, and the pre-planner warmed
    the plan cache on idle capacity before the request showed up.  Measured
    head-to-head on fresh servers with identical seeds:

    * **reactive** — a cold server answers the first request, paying the
      whole strategy optimization inline;
    * **pre-planned** — a forecast engine records one arrival, ``tick()``
      re-forecasts and pre-warms (that cost is reported separately as
      ``preplan_seconds`` — it runs on background capacity, not on the
      request), and the first request rides the warm cache.

    Both answers must be bit-for-bit identical (same tenant seed, same
    plan), with identical expected workload error — asserted here, because
    a forecast tier that changed an answer would be a correctness bug
    dressed up as a latency win.
    """
    workload = _prefix_workload(CELLS)
    data = _data_vector(CELLS)

    with Server(TENANT_BUDGET, data=data, workers=1, random_state=0) as server:
        started = time.perf_counter()
        reactive = server.ask("tenant-0", workload, epsilon=REQUEST_EPSILON)
        reactive_seconds = time.perf_counter() - started
        reactive_built = server.planner.plans_built

    planner = Planner()
    engine = ForecastEngine(
        planner, params=REFERENCE_PRIVACY, epoch_seconds=60.0, background=False
    )
    engine.record("tenant-0", workload)
    preplan_started = time.perf_counter()
    prewarmed = engine.tick()
    preplan_seconds = time.perf_counter() - preplan_started
    with Server(
        TENANT_BUDGET,
        data=data,
        workers=1,
        planner=planner,
        forecast=engine,
        random_state=0,
    ) as server:
        built_before = planner.plans_built
        started = time.perf_counter()
        preplanned = server.ask("tenant-0", workload, epsilon=REQUEST_EPSILON)
        preplanned_seconds = time.perf_counter() - started
        request_builds = planner.plans_built - built_before
        forecast_stats = server.stats()["forecast"]

    np.testing.assert_array_equal(preplanned.answers, reactive.answers)
    section = {
        "workload": f"1-D prefix ranges ({CELLS} x {CELLS} lower-triangular)",
        "cells": CELLS,
        "reactive_first_answer_seconds": reactive_seconds,
        "preplanned_first_answer_seconds": preplanned_seconds,
        "first_answer_speedup": reactive_seconds / max(preplanned_seconds, 1e-9),
        "preplan_seconds": preplan_seconds,
        "prewarmed_plans": prewarmed,
        "reactive_plans_built": reactive_built,
        "request_plans_built": request_builds,
        "answers_equal": True,  # np.testing above raised otherwise
        "expected_workload_error": preplanned.expected_error,
        "reactive_expected_workload_error": reactive.expected_error,
        "forecast_hits": forecast_stats["hits"],
        "forecast_misses": forecast_stats["misses"],
    }
    if not QUICK:
        report = {}
        if RESULT_PATH.exists():
            report = json.loads(RESULT_PATH.read_text())
        report["engine_forecast"] = section
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return section


def run(worker_counts=WORKER_COUNTS) -> dict:
    planner = Planner()
    workload = _prefix_workload(CELLS)
    # One cold optimization up front; every swept request must then hit.
    cold_started = time.perf_counter()
    planner.plan(workload, PrivacyParams(REQUEST_EPSILON, TENANT_BUDGET.delta))
    cold_seconds = time.perf_counter() - cold_started

    rows = [_throughput_row(workers, planner, workload) for workers in worker_counts]
    baseline = rows[0]  # the 1-worker row
    for row in rows:
        row["paid_speedup_vs_1"] = (
            row["paid_answers_per_sec"] / baseline["paid_answers_per_sec"]
        )
        row["reuse_speedup_vs_1"] = (
            row["reuse_answers_per_sec"] / baseline["reuse_answers_per_sec"]
        )

    section = {
        "workload": f"1-D prefix ranges ({CELLS} x {CELLS} lower-triangular)",
        "cells": CELLS,
        "cpu_count": os.cpu_count(),
        "cold_plan_seconds": cold_seconds,
        "plans_built": planner.plans_built,
        "repeats": REPEATS,
        "rows": rows,
        "coalescing": _coalescing_burst(planner, workload),
    }
    if not QUICK:
        report = {}
        if RESULT_PATH.exists():
            report = json.loads(RESULT_PATH.read_text())
        report["engine_throughput"] = section
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return section


def test_engine_store():
    """Durable-tier overheads: warm reboots skip optimization, the ledger
    costs well under 10% of a paid answer."""
    section = run_store()
    assert section["warm_plans_built"] == 0, (
        "a warm reboot must never rerun strategy optimization: "
        f"{section['warm_plans_built']} cold builds"
    )
    assert section["plans_warmed"] >= 1
    assert section["ledger_overhead_fraction"] < 0.10, (
        "the write-ahead ledger must stay under 10% of a paid answer: "
        f"{section['ledger_overhead_fraction']:.3f}"
    )


def test_engine_forecast():
    """A correct forecast beats the reactive cold start without touching the
    answer: zero builds at request time, bit-for-bit equality, lower first-
    answer latency."""
    section = run_forecast()
    assert section["request_plans_built"] == 0, (
        "a correctly-forecast request must never build cold: "
        f"{section['request_plans_built']} builds"
    )
    assert section["answers_equal"]
    assert (
        section["expected_workload_error"]
        == section["reactive_expected_workload_error"]
    )
    assert section["forecast_hits"] == 1 and section["forecast_misses"] == 0
    assert (
        section["preplanned_first_answer_seconds"]
        < section["reactive_first_answer_seconds"]
    ), (
        "pre-planned first answer must beat the reactive cold start: "
        f"{section['preplanned_first_answer_seconds']:.4f}s vs "
        f"{section['reactive_first_answer_seconds']:.4f}s"
    )


def test_engine_throughput():
    """Consistency always; the 4-worker speedup bars only on >= 4 cores."""
    section = run()
    assert section["plans_built"] == 1, "the sweep must never re-optimize"
    for row in section["rows"]:
        # Every paid request hit the warm plan cache...
        assert row["plan_cache_hit_rate"] == 1.0
        # ...and no tenant budget was oversubscribed.
        assert row["max_spent_epsilon"] <= TENANT_BUDGET.epsilon + 1e-9
    burst = section["coalescing"]
    assert burst["charges"] == 1 and burst["releases"] == 1
    assert burst["leaders"] + burst["followers"] <= burst["burst"]
    by_workers = {row["workers"]: row for row in section["rows"]}
    cores = os.cpu_count() or 1
    if 4 in by_workers and cores >= 4:
        assert by_workers[4]["reuse_speedup_vs_1"] >= 2.0, (
            "4 workers must at least double warm-path answers/sec on >= 4 cores: "
            f"{by_workers[4]}"
        )


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep (1, N) instead of the default worker ladder",
    )
    return parser.parse_args()


if __name__ == "__main__":
    arguments = _parse_args()
    counts = WORKER_COUNTS
    if arguments.workers is not None:
        counts = tuple(sorted({1, max(1, arguments.workers)}))
    section = run(counts)
    print(json.dumps(section, indent=2))
    store_section = run_store()
    print(json.dumps(store_section, indent=2))
    forecast_section = run_forecast()
    print(json.dumps(forecast_section, indent=2))
    if not QUICK:
        print(
            "\n[engine_throughput + engine_store + engine_forecast sections "
            f"written into {RESULT_PATH}]"
        )
