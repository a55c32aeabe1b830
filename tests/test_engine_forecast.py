"""The forecasting differential tier: pre-planning moves *when* plans are
built, never *what* is answered.

What this file proves (``docs/architecture.md`` §10):

* **differential**: a pre-planned answer is bit-for-bit identical to the
  reactive answer (same per-request RNG state protocol as the executor
  oracle tests), and a correctly-forecast epoch answers with **zero** cold
  plan builds — spied on ``eigen_design`` itself, not just the counters;
* **misprediction degrades to exactly the reactive path** — the unpredicted
  shape is planned cold as if forecasting were off, and pre-warming never
  touches a budget (the accountant stays untouched and, with a durable
  ledger attached, the ledger stays empty through a pre-plan);
* **forecaster algebra** (hypothesis property tests): rates are always
  non-negative, the top-K mix is stable under permutation of how the
  history was accumulated, and history truncation is monotone
  (``truncate(truncate(h, a), b) == truncate(h, min(a, b))``);
* **persistence**: arrival history survives a real ``SIGKILL`` and a
  rebooted forecaster resumes from it, skipping (and counting) corrupt
  rows — best-effort, like every warmth write;
* the satellite regressions: structurally-identical workloads built
  separately share a ``workload_fingerprint`` (history must aggregate
  across connections), and ``Server.stats()`` keeps its documented golden
  shape (cache / stages / coalesce / store / forecast, all numeric).
"""

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.engine import PlanCache, Planner, Server, Session, StateStore
from repro.engine.forecast import (
    ArrivalRecorder,
    ForecastEngine,
    Forecaster,
    PrePlanner,
    truncate_history,
)
from repro.engine.planner import REFERENCE_PRIVACY, workload_fingerprint
from repro.exceptions import ReproError

PRIVACY = PrivacyParams(epsilon=4.0, delta=1e-4)
CELLS = 12

pytestmark = pytest.mark.timeout(120)


class FakeClock:
    """An injectable clock: epochs advance exactly when the test says so."""

    def __init__(self, now: float = 1_000.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def prefix_workload(cells: int = CELLS) -> Workload:
    return Workload(np.tri(cells), name=f"prefix{cells}")


def marginal_workload(cells: int = CELLS) -> Workload:
    return Workload(np.eye(cells), name=f"marginal{cells}")


def forecast_engine(planner, clock, **overrides) -> ForecastEngine:
    options = dict(
        params=REFERENCE_PRIVACY,
        epoch_seconds=10.0,
        clock=clock,
        background=False,
    )
    options.update(overrides)
    return ForecastEngine(planner, **options)


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "state.db")


# ------------------------------------------------------ fingerprint identity
class TestFingerprintIdentity:
    def test_structurally_identical_workloads_share_a_fingerprint(self):
        """The memo is keyed on the object, but the digest is keyed on the
        *content*: two connections building the same shape independently must
        aggregate into one arrival history (and one plan cache entry)."""
        first = Workload(np.tri(CELLS), name="conn-1")
        second = Workload(np.tri(CELLS), name="conn-2")
        assert first is not second
        assert workload_fingerprint(first) == workload_fingerprint(second)
        # The memo caches on each object without changing the digest.
        assert workload_fingerprint(first) == workload_fingerprint(first)

    def test_different_shapes_get_different_fingerprints(self):
        assert workload_fingerprint(prefix_workload()) != workload_fingerprint(
            marginal_workload()
        )


# ------------------------------------------------------------ truncate/rates
class TestTruncateHistory:
    def test_keeps_the_most_recent_epochs(self):
        history = {1: {"a": 1}, 5: {"a": 2}, 3: {"b": 1}}
        assert truncate_history(history, 2) == {5: {"a": 2}, 3: {"b": 1}}

    def test_zero_keeps_nothing_and_negative_raises(self):
        assert truncate_history({1: {"a": 1}}, 0) == {}
        with pytest.raises(ReproError):
            truncate_history({}, -1)


fingerprints = st.text(alphabet="abcdef", min_size=1, max_size=3)
histories = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.dictionaries(fingerprints, st.integers(min_value=0, max_value=50), max_size=4),
    max_size=6,
)


class TestForecasterProperties:
    @settings(max_examples=60, deadline=None)
    @given(history=histories, alpha=st.floats(min_value=0.01, max_value=1.0))
    def test_rates_are_non_negative(self, history, alpha):
        rates = Forecaster(alpha=alpha).rates(history)
        assert all(rate >= 0 for rate in rates.values())
        # ... and never invent fingerprints that were never observed.
        observed = {f for counts in history.values() for f in counts}
        assert set(rates) == observed

    @settings(max_examples=60, deadline=None)
    @given(history=histories, data=st.data())
    def test_top_k_is_stable_under_permutation(self, history, data):
        """The mix is a function of the history's *content*: accumulating the
        same arrivals in any order (dict insertion order included) forecasts
        identically."""
        items = list(history.items())
        shuffled_epochs = data.draw(st.permutations(items))
        permuted = {}
        for epoch, counts in shuffled_epochs:
            entries = data.draw(st.permutations(list(counts.items())))
            permuted[epoch] = dict(entries)
        forecaster = Forecaster(top_k=3)
        assert forecaster.mix(history) == forecaster.mix(permuted)

    @settings(max_examples=60, deadline=None)
    @given(
        history=histories,
        first=st.integers(min_value=0, max_value=10),
        second=st.integers(min_value=0, max_value=10),
    )
    def test_truncation_is_monotone(self, history, first, second):
        composed = truncate_history(truncate_history(history, first), second)
        assert composed == truncate_history(history, min(first, second))


class TestForecaster:
    def test_rates_decay_for_a_shape_that_stops_arriving(self):
        forecaster = Forecaster(alpha=0.5)
        steady = {0: {"a": 4}, 1: {"a": 4}, 2: {"a": 4}}
        gone = {0: {"a": 4}, 1: {}, 2: {}}
        assert forecaster.rates(gone)["a"] < forecaster.rates(steady)["a"]

    def test_gap_epochs_count_as_zero(self):
        # Epoch 1 is absent entirely; the rate must decay exactly as if an
        # explicit zero-count epoch had been recorded.
        forecaster = Forecaster(alpha=0.5)
        explicit = forecaster.rates({0: {"a": 8}, 1: {"a": 0}, 2: {"a": 0}})
        gapped = forecaster.rates({0: {"a": 8}, 2: {}})
        assert gapped["a"] == pytest.approx(explicit["a"])

    def test_mix_orders_hottest_first_and_drops_zero(self):
        history = {0: {"hot": 10, "warm": 2, "cold": 0}}
        mix = Forecaster(top_k=8).mix(history)
        assert [fingerprint for fingerprint, _ in mix] == ["hot", "warm"]
        assert all(rate > 0 for _, rate in mix)

    def test_mix_respects_top_k(self):
        history = {0: {f"f{i}": i + 1 for i in range(6)}}
        assert len(Forecaster(top_k=2).mix(history)) == 2

    def test_invalid_knobs_raise(self):
        with pytest.raises(ReproError):
            Forecaster(alpha=0.0)
        with pytest.raises(ReproError):
            Forecaster(top_k=0)


# ------------------------------------------------------------------ recorder
class TestArrivalRecorder:
    def test_counts_per_epoch_and_ring_buffers(self):
        clock = FakeClock()
        recorder = ArrivalRecorder(
            "t", epoch_seconds=10.0, history_epochs=2, clock=clock
        )
        recorder.record("a")
        recorder.record("a")
        clock.advance(10.0)
        recorder.record("b")
        clock.advance(10.0)
        recorder.record("c")
        history = recorder.history()
        # history_epochs=2: the oldest epoch fell off the ring.
        assert len(history) == 2
        assert [sorted(counts) for _, counts in sorted(history.items())] == [
            ["b"],
            ["c"],
        ]
        assert recorder.recorded == 4

    def test_roll_flushes_only_completed_epochs(self, store_path):
        clock = FakeClock()
        with StateStore(store_path) as store:
            recorder = ArrivalRecorder(
                "t", epoch_seconds=10.0, store=store, clock=clock
            )
            recorder.record("a")
            assert recorder.roll() is False  # the active epoch stays pending
            assert store.load_arrivals("t") == {}
            clock.advance(10.0)
            recorder.record("a")
            assert recorder.roll() is True
            epoch = sorted(store.load_arrivals("t"))[0]
            assert store.load_arrivals("t") == {epoch: {"a": 1}}
            # flush() takes the active epoch too (the shutdown path), and an
            # incremental re-flush never double-counts: deltas are consumed.
            recorder.flush()
            recorder.flush()
            assert sum(
                count
                for counts in store.load_arrivals("t").values()
                for count in counts.values()
            ) == recorder.recorded == 2

    def test_resumes_persisted_history_on_construction(self, store_path):
        clock = FakeClock()
        with StateStore(store_path) as store:
            first = ArrivalRecorder("t", epoch_seconds=10.0, store=store, clock=clock)
            first.record("a", count=3)
            first.flush()
            second = ArrivalRecorder("t", epoch_seconds=10.0, store=store, clock=clock)
            assert second.history() == first.history()

    def test_invalid_knobs_raise(self):
        with pytest.raises(ReproError):
            ArrivalRecorder("t", epoch_seconds=0.0)
        with pytest.raises(ReproError):
            ArrivalRecorder("t", history_epochs=0)


# ------------------------------------------------------- differential tier
class TestDifferential:
    """Pre-planning changes when plans are built, never what is answered."""

    def ask(self, planner, workload, *, seed=7):
        session = Session(
            PRIVACY, data=np.arange(float(CELLS)), planner=planner
        )
        answer = session.ask(
            workload, epsilon=0.5, random_state=np.random.default_rng(seed)
        )
        return session, answer

    def test_preplanned_answer_is_bit_for_bit_reactive(self):
        workload = prefix_workload()
        # Reactive: a cold planner builds the plan when the request arrives.
        reactive_planner = Planner()
        _, reactive = self.ask(reactive_planner, workload)
        # Forecast: the engine observed the shape last epoch and pre-planned
        # it before the request; the request then hits the warm cache.
        clock = FakeClock()
        forecast_planner = Planner()
        engine = forecast_engine(forecast_planner, clock)
        engine.record("tenant", workload)
        clock.advance(10.0)
        assert engine.tick() == 1
        assert forecast_planner.plans_built == 1
        _, preplanned = self.ask(forecast_planner, workload)
        assert forecast_planner.plans_built == 1  # the request built nothing
        np.testing.assert_array_equal(preplanned.answers, reactive.answers)
        assert preplanned.expected_error == reactive.expected_error
        assert preplanned.mechanism == reactive.mechanism

    def test_forecast_hit_epoch_answers_with_zero_plans_built(self, monkeypatch):
        """The spy proof: after a correct forecast, a whole epoch of arrivals
        answers without ``eigen_design`` running even once."""
        import repro.engine.planner as planner_module

        calls = {"count": 0}
        real = planner_module.eigen_design

        def spied(workload, **options):
            calls["count"] += 1
            return real(workload, **options)

        monkeypatch.setattr(planner_module, "eigen_design", spied)
        clock = FakeClock()
        planner = Planner()
        engine = forecast_engine(planner, clock, top_k=4)
        shapes = [prefix_workload(), marginal_workload()]
        for workload in shapes:
            for _ in range(3):
                engine.record("tenant", workload)
        clock.advance(10.0)
        built = engine.tick()
        assert built == len(shapes)
        assert calls["count"] > 0  # pre-planning did the cold optimization
        built_at_tick = planner.plans_built
        calls["count"] = 0
        # The forecast epoch: every predicted shape arrives and is answered.
        session = Session(PRIVACY, data=np.arange(float(CELLS)), planner=planner)
        for workload in shapes:
            answer = session.ask(workload, epsilon=0.3)
            # Pre-warmed cache hit, or better: free reuse of an earlier
            # release — either way, nothing was planned cold.
            assert answer.plan_cache_hit or answer.served_from_release
            engine.record("tenant", workload)
        assert calls["count"] == 0
        assert planner.plans_built == built_at_tick
        stats = engine.stats()
        assert stats["hits"] == len(shapes)
        assert stats["misses"] == 0

    def test_misprediction_degrades_to_exactly_the_reactive_path(self):
        clock = FakeClock()
        planner = Planner()
        engine = forecast_engine(planner, clock)
        engine.record("tenant", prefix_workload())
        clock.advance(10.0)
        engine.tick()  # predicts the prefix shape
        built_at_tick = planner.plans_built
        # ... but a different shape arrives: planned cold, exactly like a
        # forecast-free engine, and answered bit-for-bit the same.
        surprise = marginal_workload()
        engine.record("tenant", surprise)
        _, mispredicted = self.ask(planner, surprise)
        assert planner.plans_built == built_at_tick + 1
        _, reactive = self.ask(Planner(), surprise)
        np.testing.assert_array_equal(mispredicted.answers, reactive.answers)
        stats = engine.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0

    def test_prewarming_touches_no_budget(self, store_path):
        """No accountant exists on the forecast path: through a full record +
        tick cycle the durable ledger stays empty and a session's accountant
        stays untouched."""
        with StateStore(store_path) as store:
            planner = Planner()
            clock = FakeClock()
            engine = forecast_engine(planner, clock, store=store)
            session = Session(
                PRIVACY,
                data=np.arange(float(CELLS)),
                planner=planner,
                store=store,
                tenant="alice",
            )
            engine.record("alice", prefix_workload())
            clock.advance(10.0)
            assert engine.tick() == 1
            assert session.accountant.spent_epsilon == 0.0
            assert store.ledger_counts("alice") == {}
            # The paid request that then hits the pre-warmed plan is the
            # first and only thing the ledger ever sees.
            session.ask(prefix_workload(), epsilon=0.5)
            assert session.accountant.spent_epsilon == pytest.approx(0.5)
            assert sum(store.ledger_counts("alice").values()) == 1

    def test_union_preplan_serves_the_forecast_batch(self):
        """The paper's premise operationalized: one strategy designed for the
        predicted union answers a batch of the mix with no cold build."""
        clock = FakeClock()
        planner = Planner()
        engine = forecast_engine(planner, clock, top_k=4)
        hot, warm = prefix_workload(), marginal_workload()
        for _ in range(5):
            engine.record("tenant", hot)
        engine.record("tenant", warm)
        clock.advance(10.0)
        engine.tick()
        assert engine.stats()["union_preplans"] == 1
        built_at_tick = planner.plans_built
        # The batch unions its members exactly like the pre-planner did
        # (content-addressed: the union's fingerprint ignores its name), so
        # the collective request finds the union plan already warm.
        session = Session(PRIVACY, data=np.arange(float(CELLS)), planner=planner)
        mix_order = [fp for fp, _ in engine.mix()]
        members = sorted(
            [hot, warm], key=lambda w: mix_order.index(workload_fingerprint(w))
        )
        answers = session.ask_batch(members, epsilon=0.5)
        assert len(answers) == 2
        assert planner.plans_built == built_at_tick
        assert answers[0].plan_cache_hit

    def test_unplannable_shape_never_takes_preplanning_down(self):
        class ExplodingPlanner(Planner):
            def plan(self, workload, params, *, key=None):
                raise ReproError("strategy optimization failed")

        preplanner = PrePlanner(ExplodingPlanner(), REFERENCE_PRIVACY)
        built = preplanner.preplan([("fp", prefix_workload(), 1.0)])
        assert built == 0  # swallowed: pre-warming must never raise
        assert preplanner.prewarm_failures == 1


# --------------------------------------------------------------- the engine
class TestForecastEngine:
    def test_prewarm_skips_already_warm_shapes(self):
        clock = FakeClock()
        planner = Planner()
        engine = forecast_engine(planner, clock)
        workload = prefix_workload()
        engine.record("tenant", workload)
        clock.advance(10.0)
        assert engine.tick() == 1
        engine.record("tenant", workload)
        clock.advance(10.0)
        assert engine.tick() == 0  # still predicted, already warm
        stats = engine.stats()
        assert stats["prewarm_planned"] == 1
        assert stats["prewarm_already_warm"] == 1
        assert planner.plans_built == 1

    def test_histories_aggregate_across_tenants(self):
        clock = FakeClock()
        engine = forecast_engine(Planner(), clock)
        workload = prefix_workload()
        engine.record("alice", workload)
        engine.record("bob", workload)
        history = engine.aggregate_history()
        (counts,) = history.values()
        assert counts[workload_fingerprint(workload)] == 2

    def test_background_mode_preplans_without_tick(self):
        clock = FakeClock()
        planner = Planner()
        engine = forecast_engine(planner, clock, background=True)
        workload = prefix_workload()
        engine.record("tenant", workload)
        clock.advance(10.0)
        # The epoch boundary is noticed by the next arrival, which schedules
        # pre-planning on the background thread; close() joins it.
        engine.record("tenant", workload)
        engine.close()
        assert planner.plans_built == 1
        assert engine.stats()["epochs_rolled"] == 1


# ------------------------------------------------------------- server layer
class TestServerForecast:
    def test_server_wires_recording_and_stats(self):
        with Server(
            PRIVACY, data=np.arange(float(CELLS)), workers=2, forecast=True
        ) as server:
            server.ask("alice", np.tri(CELLS), epsilon=0.3)
            forecast = server.stats()["forecast"]
            assert forecast["recorded"] == 1
            assert forecast["shapes"] == 1
            assert server.forecast is not None

    def test_forecast_off_by_default(self):
        with Server(PRIVACY, data=np.arange(float(CELLS)), workers=2) as server:
            assert server.forecast is None
            assert server.stats()["forecast"] is None


# --------------------------------------------------------- stats golden shape
def assert_all_numeric(mapping, path=""):
    for key, value in mapping.items():
        where = f"{path}.{key}" if path else str(key)
        if isinstance(value, dict):
            assert_all_numeric(value, where)
        else:
            assert isinstance(
                value, (int, float, bool)
            ), f"stats counter {where} is {type(value).__name__}, not numeric"


class TestServerStatsGoldenShape:
    def test_every_documented_section_is_present_and_numeric(self, store_path):
        """The bench harness reads these sections by name; a stats refactor
        that drops or de-numerifies one must fail here, not in the bench."""
        with Server(
            PRIVACY,
            data=np.arange(float(CELLS)),
            workers=2,
            store=store_path,
            forecast=True,
        ) as server:
            server.ask("alice", np.tri(CELLS), epsilon=0.3)
            stats = server.stats()
        for section in (
            "tenants",
            "answers_served",
            "workers",
            "shards",
            "plans_built",
            "plan_requests",
        ):
            assert isinstance(stats[section], (int, float)), section
        # Unbounded admission by default; a set bound reads back exactly.
        assert stats["queue_depth"] is None
        with Server(PRIVACY, workers=1, queue_depth=8) as bounded:
            assert bounded.stats()["queue_depth"] == 8
            assert type(bounded.stats()["queue_depth"]) is int
        # Counter sections: present, and numeric all the way down.
        assert_all_numeric(stats["coalesce"], "coalesce")
        assert_all_numeric(stats["stages"], "stages")
        assert_all_numeric(stats["plan_cache"], "plan_cache")
        assert_all_numeric(stats["forecast"], "forecast")
        store_stats = dict(stats["store"])
        assert store_stats.pop("available") is True
        assert store_stats.pop("path")  # the one documented non-numeric field
        assert_all_numeric(store_stats, "store")
        # Per-tenant spend attribution stays numeric too.
        assert_all_numeric(stats["spent"]["alice"], "spent.alice")


# ------------------------------------------------------------- persistence
FORECAST_DRIVER = textwrap.dedent(
    """
    import os
    import signal
    import sys

    import numpy as np

    from repro.core.privacy import PrivacyParams
    from repro.engine import Server

    server = Server(
        PrivacyParams(4.0, 1e-4),
        data=np.arange(float({cells})),
        workers=2,
        store=sys.argv[1],
        forecast=True,
    )
    for _ in range(3):
        server.ask("alice", np.tri({cells}), epsilon=0.2)
    server.forecast.flush()
    print("FLUSHED", flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
    """
).format(cells=CELLS)


def run_forecast_driver(store_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(
        [sys.executable, "-c", FORECAST_DRIVER, store_path],
        env=env,
        capture_output=True,
        text=True,
        timeout=90,
    )


class TestForecastPersistence:
    def test_history_survives_sigkill_and_forecaster_resumes(self, store_path):
        completed = run_forecast_driver(store_path)
        assert completed.returncode == -signal.SIGKILL, completed.stderr
        assert "FLUSHED" in completed.stdout
        with StateStore(store_path) as store:
            history = store.load_arrivals("alice")
            assert sum(
                count for counts in history.values() for count in counts.values()
            ) == 3
            # The rebooted engine resumes from the persisted history: the
            # crashed process's arrivals forecast the first epoch here.
            clock = FakeClock(now=10_000_000.0)
            planner = Planner()
            engine = forecast_engine(planner, clock, store=store)
            engine.recorder("alice")  # loads the tenant's history
            mix = engine.mix()
            assert len(mix) == 1
            assert engine.stats()["shapes"] == 1  # exemplar survived too
            assert engine.tick() == 1  # pre-plans purely from persisted state
            assert planner.plans_built == 1

    def test_corrupt_rows_are_skipped_and_counted(self, store_path):
        with StateStore(store_path) as store:
            store.add_arrivals("alice", 5, {"good": 2})
            store.save_shape("good", prefix_workload())
        # Poison the history behind the store's back.
        raw = sqlite3.connect(store_path)
        raw.execute(
            "INSERT INTO arrivals (tenant, fingerprint, epoch, count)"
            " VALUES ('alice', 'bad-epoch', 'not-an-epoch', 1)"
        )
        raw.execute(
            "INSERT INTO arrivals (tenant, fingerprint, epoch, count)"
            " VALUES ('alice', 'bad-count', 6, -9)"
        )
        raw.execute(
            "INSERT INTO shapes (fingerprint, payload, created)"
            " VALUES ('bad-shape', X'DEADBEEF', 'now')"
        )
        raw.commit()
        raw.close()
        with StateStore(store_path) as store:
            history = store.load_arrivals("alice")
            assert history == {5: {"good": 2}}
            shapes = store.load_shapes()
            assert [fingerprint for fingerprint, _ in shapes] == ["good"]
            assert store.load_failures == 3
            # The forecaster built on top sees only the clean rows.
            engine = forecast_engine(Planner(), FakeClock(), store=store)
            engine.recorder("alice")
            assert engine.mix() == [("good", pytest.approx(2 * 0.3))]


# -------------------------------------------- satellite: locked shared state
class TestForecastLockDiscipline:
    """Regressions for the two races ``repro-lint`` surfaced in bring-up
    (see ``docs/linting.md``): the exemplar-persist membership check ran
    outside the engine lock (two racing first arrivals of a new shape both
    persisted it), and the ``PrePlanner`` counters were bare ``+=``,
    raced by the background pre-plan thread against synchronous ticks."""

    def test_concurrent_first_arrivals_persist_the_exemplar_once(self):
        class CountingStore:
            def __init__(self):
                self.saved = []
                self._lock = threading.Lock()

            def load_shapes(self):
                return []

            def load_arrivals(self, tenant, last_epochs):
                return {}

            def save_shape(self, fingerprint, workload):
                time.sleep(0.01)  # widen the claim-then-write window
                with self._lock:
                    self.saved.append(fingerprint)

        store = CountingStore()
        engine = forecast_engine(Planner(), FakeClock(), store=store)
        workload = prefix_workload()
        barrier = threading.Barrier(8)

        def arrive():
            barrier.wait()
            engine.record("tenant", workload)

        threads = [threading.Thread(target=arrive) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The persist slot is claimed under the engine lock: exactly one
        # writer, no matter how the eight arrivals interleave.
        assert store.saved == [workload_fingerprint(workload)]

    def test_preplanner_counters_are_exact_under_concurrent_prewarms(self):
        planner = Planner()
        preplanner = PrePlanner(planner, REFERENCE_PRIVACY)
        workload = prefix_workload()
        planner.plan(workload, REFERENCE_PRIVACY)  # warm the shared cache
        barrier = threading.Barrier(8)

        def prewarm():
            barrier.wait()
            for _ in range(50):
                preplanner._prewarm(workload)

        threads = [threading.Thread(target=prewarm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Locked increments lose no updates: 8 threads x 50 warm hits.
        assert preplanner.prewarm_already_warm == 400
        assert preplanner.prewarm_planned == 0
        assert preplanner.prewarm_failures == 0
