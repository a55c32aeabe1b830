"""Workload forecasting and adaptive pre-planning.

The paper's core premise is that a strategy tuned to the *workload* beats
answering each query in isolation — yet a purely reactive engine only tunes
to each request as it arrives, paying cold strategy-optimization latency on
every new shape.  This module closes that gap the way BRAD-style planners
do: treat the workload as **forecastable** — queries x arrival counts per
epoch — and spend idle capacity preparing for the predicted mix before it
arrives.  Three pieces, composed by :class:`ForecastEngine`:

* :class:`ArrivalRecorder` — per-tenant arrival history: how many times each
  workload *fingerprint* (the planner's content-addressed digest, so
  structurally identical queries from different connections aggregate)
  arrived in each fixed-length epoch.  Ring-buffered to a bounded number of
  epochs, and persisted through the :class:`~repro.engine.store.StateStore`
  (best-effort, like every warmth write) so a rebooted server resumes
  forecasting from the history the previous process recorded;
* :class:`Forecaster` — an exponentially-weighted per-fingerprint arrival
  rate over the epoch history, and the **top-K next-epoch workload mix**
  derived from it (deterministically ordered, so equal histories produce
  equal forecasts however they were accumulated);
* :class:`PrePlanner` — turns a forecast into warmth on the executor's idle
  capacity: (a) **pre-warms the plan cache** for every predicted-hot shape
  (exactly the plan the reactive path would have built — answers are
  bit-for-bit unchanged, only *when* the plan is built moves), and (b)
  **designs one strategy for the predicted union** of the hot shapes
  (:meth:`~repro.engine.planner.Planner.preplan_union`), so a batch of the
  forecast mix is served by a single workload-tuned optimization — the
  paper's premise, operationalized.

Invariants the differential test tier (``tests/test_engine_forecast.py``)
pins down:

* pre-planning changes *when* plans are built, never *what* is answered:
  a correctly-forecast epoch answers bit-for-bit identically to the
  reactive path, with zero cold plan builds;
* a mispredicted epoch degrades to exactly the reactive path — the arrival
  is planned cold as if forecasting were off;
* pre-planning never touches a budget: no accountant appears anywhere on
  the forecast path.

Ownership (``docs/architecture.md`` §10): the forecaster lives in the
serving process.  Its pre-warm work runs on a dedicated
background thread (never a request worker), and the plans it builds flow
through the shared planner — build gates, counters, and plan-store
persistence included — so a racing reactive request never duplicates an
optimization the pre-planner already started.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.engine.planner import Planner, workload_fingerprint
from repro.exceptions import ReproError

__all__ = [
    "ArrivalRecorder",
    "ForecastEngine",
    "Forecaster",
    "PrePlanner",
    "truncate_history",
]

#: Default epoch length in seconds (the ``serve --forecast-epoch`` knob).
DEFAULT_EPOCH_SECONDS = 60.0

#: Default ring-buffer bound: how many epochs of history a recorder keeps.
DEFAULT_HISTORY_EPOCHS = 64

#: Default forecast width: how many predicted-hot shapes are pre-planned.
DEFAULT_TOP_K = 8

#: Default exponential weight on the newest epoch's counts.
DEFAULT_ALPHA = 0.3


def truncate_history(history, epochs: int) -> dict:
    """The ``epochs`` most recent epochs of ``history`` (a fresh dict).

    The recorder's ring-buffer rule, exposed as a pure function so its
    algebra can be property-tested: truncation keeps the *newest* epochs,
    and composing truncations is the same as truncating once to the
    smaller bound — ``truncate(truncate(h, a), b) == truncate(h, min(a, b))``.
    """
    if epochs < 0:
        raise ReproError(f"cannot keep {epochs} epochs of history")
    kept = sorted(history)[-epochs:] if epochs else []
    return {epoch: dict(history[epoch]) for epoch in kept}


class ArrivalRecorder:
    """Per-tenant ``fingerprint x epoch`` arrival counts, ring-buffered.

    Epochs are fixed wall-clock windows (``epoch_seconds``), indexed
    absolutely (``clock() // epoch_seconds``) so histories recorded by
    different processes against one store line up.  ``clock`` is injectable
    for tests and benchmarks.

    With a store bound, the recorder **loads** the tenant's persisted
    history on construction and **flushes** completed epochs back as they
    roll (plus a final partial flush on :meth:`flush`); writes are additive
    deltas, so an incremental flush never double-counts.  Persistence is
    best-effort warmth — an unreachable store degrades to in-memory-only.

    Thread-safe: one lock guards the ring buffer and the pending deltas;
    the store call runs outside it (the store has its own lock).
    """

    def __init__(
        self,
        tenant: str = "default",
        *,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
        history_epochs: int = DEFAULT_HISTORY_EPOCHS,
        store=None,
        clock=time.time,
    ):
        if epoch_seconds <= 0:
            raise ReproError(f"epoch_seconds must be positive, got {epoch_seconds}")
        if history_epochs < 1:
            raise ReproError(f"history_epochs must be >= 1, got {history_epochs}")
        self.tenant = tenant
        self.epoch_seconds = float(epoch_seconds)
        self.history_epochs = int(history_epochs)
        self._store = store
        self._clock = clock
        self._lock = threading.Lock()
        #: epoch -> Counter(fingerprint -> count), bounded by history_epochs.
        self._counts: dict[int, Counter] = {}
        #: epoch -> Counter of deltas not yet flushed to the store.
        self._pending: dict[int, Counter] = {}
        self.recorded = 0
        if store is not None:
            for epoch, counts in store.load_arrivals(
                tenant, last_epochs=self.history_epochs
            ).items():
                self._counts[epoch] = Counter(counts)

    def epoch(self) -> int:
        """The current absolute epoch index."""
        return int(self._clock() // self.epoch_seconds)

    def record(self, fingerprint: str, count: int = 1) -> int:
        """Count ``count`` arrivals of ``fingerprint`` in the current epoch;
        returns that epoch's index.  Completed epochs are flushed lazily the
        next time one rolls over."""
        epoch = self.epoch()
        with self._lock:
            self._counts.setdefault(epoch, Counter())[fingerprint] += count
            self._pending.setdefault(epoch, Counter())[fingerprint] += count
            self.recorded += count
            self._counts = truncate_history_counters(
                self._counts, self.history_epochs
            )
        return epoch

    def roll(self) -> bool:
        """Flush every *completed* epoch's pending deltas to the store and
        truncate the ring buffer.  Returns True when anything was flushed."""
        return self._flush(before=self.epoch())

    def flush(self) -> bool:
        """Flush **all** pending deltas, including the active epoch's — the
        shutdown path (additive upserts make a later re-flush safe)."""
        return self._flush(before=None)

    def _flush(self, before: int | None) -> bool:
        with self._lock:
            due = {
                epoch: counts
                for epoch, counts in self._pending.items()
                if before is None or epoch < before
            }
            for epoch in due:
                del self._pending[epoch]
            self._counts = truncate_history_counters(
                self._counts, self.history_epochs
            )
        if self._store is None:
            return False
        flushed = False
        for epoch, counts in sorted(due.items()):
            if counts and self._store.add_arrivals(self.tenant, epoch, dict(counts)):
                flushed = True
        return flushed

    def history(self) -> dict[int, dict[str, int]]:
        """A snapshot ``{epoch: {fingerprint: count}}`` of the ring buffer."""
        with self._lock:
            return {epoch: dict(counts) for epoch, counts in self._counts.items()}


def truncate_history_counters(counts: dict, epochs: int) -> dict:
    """Ring-buffer truncation preserving the Counter values (internal)."""
    if len(counts) <= epochs:
        return counts
    kept = sorted(counts)[-epochs:]
    return {epoch: counts[epoch] for epoch in kept}


class Forecaster:
    """Exponentially-weighted per-fingerprint arrival rates and the top-K mix.

    Given an ``{epoch: {fingerprint: count}}`` history, the predicted
    next-epoch rate of a fingerprint is the exponentially-weighted average
    of its per-epoch counts over the *contiguous* epoch range of the
    history — epochs in which a fingerprint did not arrive count as zero,
    so a shape that stops arriving decays instead of staying hot forever:

    ``rate <- (1 - alpha) * rate + alpha * count``   (oldest epoch first)

    Properties the test tier pins down: rates are always non-negative; the
    mix is a pure function of the history *content* (stable under any
    permutation of how the history was accumulated — ties break on the
    fingerprint, so ordering is total); and it never invents fingerprints.
    """

    def __init__(self, *, alpha: float = DEFAULT_ALPHA, top_k: int = DEFAULT_TOP_K):
        if not 0 < alpha <= 1:
            raise ReproError(f"alpha must be in (0, 1], got {alpha}")
        if top_k < 1:
            raise ReproError(f"top_k must be >= 1, got {top_k}")
        self.alpha = float(alpha)
        self.top_k = int(top_k)

    def rates(self, history) -> dict[str, float]:
        """Predicted next-epoch arrival rate per fingerprint (non-negative)."""
        if not history:
            return {}
        epochs = sorted(history)
        fingerprints = sorted({f for counts in history.values() for f in counts})
        rates = dict.fromkeys(fingerprints, 0.0)
        for epoch in range(epochs[0], epochs[-1] + 1):
            counts = history.get(epoch, {})
            for fingerprint in fingerprints:
                count = max(0, int(counts.get(fingerprint, 0)))
                rates[fingerprint] += self.alpha * (count - rates[fingerprint])
        return rates

    def mix(self, history, k: int | None = None) -> list[tuple[str, float]]:
        """The top-``k`` ``(fingerprint, rate)`` pairs, hottest first.

        Zero-rate fingerprints are dropped; ties break lexicographically on
        the fingerprint, so the mix is deterministic for equal histories.
        """
        k = self.top_k if k is None else int(k)
        ranked = sorted(
            (
                (fingerprint, rate)
                for fingerprint, rate in self.rates(history).items()
                if rate > 0
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:k]


class PrePlanner:
    """Turn a forecast mix into plan-cache warmth — compute, never budget.

    Two moves per forecast, both through the shared
    :class:`~repro.engine.planner.Planner` (build gates, counters and
    plan-store persistence included):

    * **pre-warm**: every predicted-hot shape that is not already cached is
      planned — exactly the plan the reactive path would build, so a later
      paid request answers bit-for-bit identically, just without the cold
      strategy-optimization latency;
    * **union design**: the hot shapes sharing the mix's dominant cell count
      are unioned (hottest first) and planned as **one** workload-tuned
      strategy — the plan a batch of the predicted mix hits directly.

    No accountant exists on this path: pre-planning cannot spend, strand,
    or reserve budget (the differential tier asserts the ledger stays
    empty through a pre-plan).
    """

    def __init__(self, planner: Planner, params: PrivacyParams, *, union: bool = True):
        self.planner = planner
        self.params = params
        self.union = bool(union)
        # The counters race: the background forecast thread pre-plans while
        # tests/benchmarks drive synchronous ticks, so increments take the
        # lock (reads stay lock-free, like every stats surface here).
        self._lock = threading.Lock()
        self.prewarm_planned = 0
        self.prewarm_already_warm = 0
        self.prewarm_failures = 0
        self.union_preplans = 0

    def preplan(self, shapes) -> int:
        """Pre-plan ``(fingerprint, workload, weight)`` triples; returns how
        many plans were actually built (vs. found warm)."""
        shapes = [entry for entry in shapes if entry[1] is not None]
        built = 0
        for _, workload, _ in shapes:
            outcome = self._prewarm(workload)
            built += outcome
        if self.union and len(shapes) > 1:
            by_cells: dict[int, list] = {}
            for fingerprint, workload, weight in shapes:
                by_cells.setdefault(workload.column_count, []).append(
                    (fingerprint, workload, weight)
                )
            dominant = max(
                by_cells.values(), key=lambda group: sum(w for _, _, w in group)
            )
            if len(dominant) > 1:
                try:
                    self.planner.preplan_union(
                        [workload for _, workload, _ in dominant], self.params
                    )
                    with self._lock:
                        self.union_preplans += 1
                except ReproError:
                    with self._lock:
                        self.prewarm_failures += 1
        return built

    def _prewarm(self, workload: Workload) -> int:
        cache = self.planner.cache
        key = self.planner.plan_key(workload, self.params)
        if cache is not None and key is not None and cache.peek(key) is not None:
            with self._lock:
                self.prewarm_already_warm += 1
            return 0
        try:
            self.planner.plan(workload, self.params, key=key)
        except ReproError:
            # An unplannable shape (e.g. uncacheable, or optimization
            # failed) is the reactive path's problem when it actually
            # arrives; pre-warming must never take the engine down.
            with self._lock:
                self.prewarm_failures += 1
            return 0
        with self._lock:
            self.prewarm_planned += 1
        return 1


class ForecastEngine:
    """Recorder + forecaster + pre-planner, wired for a serving process.

    The :class:`~repro.engine.server.Server` owns one (``forecast=True``)
    and calls :meth:`record` for every request a session resolves.  When
    the wall clock crosses an epoch boundary the engine re-forecasts and
    pre-plans for the predicted mix — on a dedicated single background
    thread by default (``background=True``), so the work rides idle
    capacity and never blocks a request worker; with ``background=False``
    pre-planning only happens on an explicit :meth:`tick` (what tests and
    benchmarks use to make epochs deterministic).

    Forecast accuracy is counted per arrival once a prediction exists:
    a recorded fingerprint in the predicted set is a **hit**, anything else
    a **miss** — surfaced (with the pre-planner's counters) in
    ``Server.stats()["forecast"]``.
    """

    def __init__(
        self,
        planner: Planner,
        *,
        params: PrivacyParams,
        epoch_seconds: float = DEFAULT_EPOCH_SECONDS,
        history_epochs: int = DEFAULT_HISTORY_EPOCHS,
        top_k: int = DEFAULT_TOP_K,
        alpha: float = DEFAULT_ALPHA,
        store=None,
        clock=time.time,
        background: bool = True,
    ):
        self.planner = planner
        self.params = params
        self.epoch_seconds = float(epoch_seconds)
        self.history_epochs = int(history_epochs)
        self.forecaster = Forecaster(alpha=alpha, top_k=top_k)
        self.preplanner = PrePlanner(planner, params)
        self._store = store
        self._clock = clock
        self._lock = threading.Lock()
        self._recorders: dict[str, ArrivalRecorder] = {}
        #: fingerprint -> exemplar workload (what makes a prediction plannable).
        self._shapes: dict[str, Workload] = {}
        self._shapes_persisted: set[str] = set()
        #: The last forecast's predicted fingerprints (None before the first).
        self._predicted: set[str] | None = None
        self._mix: list[tuple[str, float]] = []
        self._epoch = int(self._clock() // self.epoch_seconds)
        self.hits = 0
        self.misses = 0
        self.epochs_rolled = 0
        self.preplan_runs = 0
        self.preplan_failures = 0
        self._pool = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-forecast")
            if background
            else None
        )
        self._closed = False
        if store is not None:
            for fingerprint, workload in store.load_shapes():
                self._shapes.setdefault(fingerprint, workload)
                self._shapes_persisted.add(fingerprint)

    # -------------------------------------------------------------- recording
    def recorder(self, tenant: str) -> ArrivalRecorder:
        """The tenant's recorder (created, and history-loaded, on demand)."""
        with self._lock:
            recorder = self._recorders.get(tenant)
            if recorder is None:
                recorder = ArrivalRecorder(
                    tenant,
                    epoch_seconds=self.epoch_seconds,
                    history_epochs=self.history_epochs,
                    store=self._store,
                    clock=self._clock,
                )
                self._recorders[tenant] = recorder
            return recorder

    def record(self, tenant: str, workload: Workload) -> str | None:
        """Record one arrival of ``workload`` for ``tenant``.

        Cheap and non-raising by contract (it sits on the serving hot path,
        free and paid alike): an unfingerprintable workload is skipped, and
        epoch-boundary pre-planning is handed to the background thread.
        Returns the fingerprint recorded, or ``None``.
        """
        fingerprint = workload_fingerprint(workload)
        if fingerprint is None:
            return None
        self.recorder(tenant).record(fingerprint)
        schedule = False
        persist = False
        with self._lock:
            if fingerprint not in self._shapes:
                self._shapes[fingerprint] = workload
            if self._predicted is not None:
                if fingerprint in self._predicted:
                    self.hits += 1
                else:
                    self.misses += 1
            epoch = int(self._clock() // self.epoch_seconds)
            if epoch != self._epoch:
                self._epoch = epoch
                self.epochs_rolled += 1
                schedule = True
            if self._store is not None and fingerprint not in self._shapes_persisted:
                # Claim the persist slot under the lock, so two racing
                # arrivals of a brand-new shape write the exemplar once.
                self._shapes_persisted.add(fingerprint)
                persist = True
        if persist:
            # Persist the exemplar once (best-effort) so a rebooted engine
            # can pre-plan this fingerprint straight from history; the store
            # write itself runs outside the lock (it may do I/O).
            try:
                self._store.save_shape(fingerprint, workload)
            except BaseException:
                with self._lock:
                    self._shapes_persisted.discard(fingerprint)
                raise
        if schedule:
            if self._pool is not None and not self._closed:
                self._pool.submit(self._safe_preplan)
        return fingerprint

    # ------------------------------------------------------------- forecasting
    def aggregate_history(self) -> dict[int, dict[str, int]]:
        """All tenants' histories folded together (the plan cache is shared,
        so pre-planning forecasts the *server's* mix, not one tenant's)."""
        with self._lock:
            recorders = list(self._recorders.values())
        total: dict[int, Counter] = {}
        for recorder in recorders:
            for epoch, counts in recorder.history().items():
                total.setdefault(epoch, Counter()).update(counts)
        return {epoch: dict(counts) for epoch, counts in total.items()}

    def mix(self) -> list[tuple[str, float]]:
        """The current predicted next-epoch mix, hottest first."""
        return self.forecaster.mix(self.aggregate_history())

    def tick(self) -> int:
        """Roll every recorder, re-forecast, and pre-plan **synchronously**;
        returns the number of plans built.  The deterministic entry point
        (tests, benchmarks, ``background=False`` deployments)."""
        with self._lock:
            self._epoch = int(self._clock() // self.epoch_seconds)
            recorders = list(self._recorders.values())
        for recorder in recorders:
            recorder.roll()
        return self._preplan()

    def _safe_preplan(self) -> None:
        try:
            with self._lock:
                recorders = list(self._recorders.values())
            for recorder in recorders:
                recorder.roll()
            self._preplan()
        except BaseException:  # the background thread must never die noisily
            with self._lock:
                self.preplan_failures += 1

    def _preplan(self) -> int:
        mix = self.forecaster.mix(self.aggregate_history())
        with self._lock:
            shapes = [
                (fingerprint, self._shapes.get(fingerprint), weight)
                for fingerprint, weight in mix
            ]
            self._mix = mix
            self._predicted = {fingerprint for fingerprint, _ in mix}
            self.preplan_runs += 1
        return self.preplanner.preplan(shapes)

    # -------------------------------------------------------------- lifecycle
    def flush(self) -> None:
        """Flush every recorder's pending arrival deltas to the store."""
        with self._lock:
            recorders = list(self._recorders.values())
        for recorder in recorders:
            recorder.flush()

    def close(self) -> None:
        """Stop the background thread and flush histories (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self.flush()

    # ------------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """Numeric forecast counters for ``Server.stats()["forecast"]``."""
        with self._lock:
            predicted = 0 if self._predicted is None else len(self._predicted)
            recorded = sum(r.recorded for r in self._recorders.values())
            out = {
                "epoch_seconds": self.epoch_seconds,
                "top_k": self.forecaster.top_k,
                "recorded": recorded,
                "hits": self.hits,
                "misses": self.misses,
                "epochs_rolled": self.epochs_rolled,
                "predicted": predicted,
                "shapes": len(self._shapes),
                "preplan_runs": self.preplan_runs,
                "preplan_failures": self.preplan_failures,
            }
        preplanner = self.preplanner
        out.update(
            {
                "prewarm_planned": preplanner.prewarm_planned,
                "prewarm_already_warm": preplanner.prewarm_already_warm,
                "prewarm_failures": preplanner.prewarm_failures,
                "union_preplans": preplanner.union_preplans,
            }
        )
        return out
