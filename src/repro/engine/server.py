"""The multi-tenant serving layer: one engine, many budgeted sessions.

A :class:`Server` is the concurrency story of the engine (``docs/
architecture.md`` §6): it owns **one** shared :class:`~repro.engine.planner
.Planner` (and through it one content-addressed
:class:`~repro.engine.cache.PlanCache`), hands out per-tenant budgeted
:class:`~repro.engine.session.Session` objects, and answers requests from a
thread pool.  Everything the sessions share — the accountants, the plan
cache, the planner's build gates, the factor-``eigh`` memo — is
lock-protected at its own layer, so the server adds no global serialization
of its own: distinct tenants (and distinct workload shapes) plan, execute and
account fully in parallel, while the *same* warm shape is optimized exactly
once and then served from the cache by everyone.

Two shard-parallel paths exploit numpy's GIL release for large requests:

* **data ingestion** — a tuple-level :class:`~repro.relational.relation
  .Relation` is partitioned into row chunks, each chunk is histogrammed into
  its own data vector on the shard pool, and the per-shard vectors are
  merged by summation (histograms are additive over row partitions);
* **answer derivation** — deriving ``m`` answers ``W @ x_hat`` from a
  released estimate is partitioned into row blocks of the query matrix (or
  of the structured row operator via ``row_block``), each block multiplied
  on the shard pool, and the blocks concatenated.  This is the hot warm-path
  operation: once a plan is cached and an estimate released, serving a big
  workload is *only* this matmul.

Request work runs on one pool and shard work on a second, so a request that
shards never waits on its own siblings for a worker (no pool-within-pool
starvation).

Two pieces sit above the thread pools (``docs/architecture.md`` §7):

* **in-flight coalescing** — N concurrent *identical* requests (same
  tenant-visible query, same privacy slice, same release span) execute
  once: the first becomes the leader, the rest attach to its future and
  receive the same answer, and the tenant's budget is charged exactly once
  per burst (the planner's per-fingerprint build gates, extended from
  planning to answering);
* **the line protocol** (:meth:`Server.serve`) — one streaming front-end:
  it reads lines as they arrive, replies in input order as soon as each
  reply's prefix is complete, keeps each tenant's requests in order, and
  optionally bounds admission (``queue_depth``): requests beyond the bound
  are rejected immediately with a ``retry_after`` hint instead of
  buffered, and a ``stop`` event drains in-flight work and rejects the
  rest (clean shutdown).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.domain.schema import Schema
from repro.engine.forecast import ForecastEngine
from repro.engine.planner import (
    REFERENCE_PRIVACY,
    REFERENCE_PRIVACY_PURE,
    Planner,
    workload_fingerprint,
)
from repro.engine.session import Session, SessionAnswer
from repro.engine.store import StateStore
from repro.exceptions import ReproError
from repro.mechanisms.accountant import BudgetExceededError
from repro.relational.relation import Relation
from repro.relational.vectorize import data_vector

__all__ = ["Server"]

#: Below this many query rows (or relation rows) a request is answered on the
#: calling thread: the per-shard dispatch overhead would exceed the matmul.
DEFAULT_SHARD_MIN_ROWS = 4096


class _StageStats:
    """Running per-stage latency counters: mean over the lifetime, p95 over a
    bounded sample window.

    Cheap by construction — one lock, one deque append per record — because
    it sits on the serving hot path.  The p95 is computed over the last
    ``window`` samples (a full reservoir would grow without bound on a
    long-lived server); the mean is exact over the lifetime.
    """

    def __init__(self, window: int = 512):
        self._lock = threading.Lock()
        self._window = int(window)
        self._stages: dict[str, tuple[int, float, deque]] = {}

    def record(self, stage: str, seconds: float) -> None:
        with self._lock:
            entry = self._stages.get(stage)
            if entry is None:
                entry = [0, 0.0, deque(maxlen=self._window)]
                self._stages[stage] = entry
            entry[0] += 1
            entry[1] += seconds
            entry[2].append(seconds)

    def mean(self, stage: str) -> float | None:
        """Lifetime mean latency of ``stage`` in seconds, or ``None``."""
        with self._lock:
            entry = self._stages.get(stage)
            if entry is None or entry[0] == 0:
                return None
            return entry[1] / entry[0]

    def snapshot(self) -> dict:
        with self._lock:
            entries = {
                stage: (count, total, sorted(window))
                for stage, (count, total, window) in self._stages.items()
            }
        out = {}
        for stage, (count, total, window) in entries.items():
            p95 = window[int(0.95 * (len(window) - 1))] if window else 0.0
            out[stage] = {
                "count": count,
                "mean_ms": 1e3 * total / max(count, 1),
                "p95_ms": 1e3 * p95,
            }
        return out


def _row_chunks(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``shards`` contiguous blocks."""
    bounds = np.linspace(0, total, min(shards, total) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


class Server:
    """A thread-pooled, multi-tenant front end over one shared engine.

    Parameters
    ----------
    budget:
        Default per-tenant privacy budget for sessions opened implicitly
        (e.g. by the line protocol); :meth:`open_session` may override it.
    schema / data:
        Shared with every session: the schema for SQL requests, and the
        sensitive input (a data vector or a :class:`Relation`, which is
        vectorised shard-parallel on construction).
    planner:
        The shared :class:`Planner`; a fresh one (with a fresh plan cache)
        by default.  Passing the same planner to several servers shares the
        warm cache between them.
    workers:
        Request-pool threads: how many tenant requests execute at once.
    shards:
        Shard-pool parallelism for one large request (defaults to
        ``workers``); ``1`` disables sharding.
    shard_min_rows:
        Sharding threshold — requests (or relations) with fewer rows run
        unsharded on the calling thread.
    queue_depth:
        Admission bound for :meth:`serve`: at most this many requests of
        one stream may be admitted-but-unfinished, and the rest are
        rejected with ``retry_after`` instead of buffered.  ``None`` (the
        default) admits every request.
    store:
        The durable state tier (``docs/architecture.md`` §8): a
        :class:`~repro.engine.store.StateStore`, or a path (the server opens
        — and then owns and closes — a store there).  On boot the plan cache
        is warmed from every persisted plan, and each tenant session binds
        the store: budgets gain the crash-safe write-ahead ledger (durable
        spend recovered on open), releases survive restarts.  Default
        ``None``: fully in-memory, prior behaviour unchanged.
    default_epsilon / default_delta / random_state:
        Forwarded to each opened :class:`Session`; each tenant's noise
        stream is seeded from ``(random_state, tenant name)``, never from
        opening order, so seeded runs are reproducible however threads
        race to open sessions.  Note the scope of that promise: the line
        protocol (:meth:`serve`) is fully reproducible because it keeps
        each tenant's requests in order, while *racing* same-tenant
        requests through :meth:`ask_many` draw from the session stream in
        arrival order — pass ``random_state`` per request there if you
        need bit-reproducibility.

    Examples
    --------
    >>> server = Server(PrivacyParams(1.0, 1e-4), data=np.full(64, 3.0),
    ...                 workers=2, random_state=0)
    >>> session = server.open_session("tenant-a")
    >>> answer = server.ask("tenant-a", np.ones((1, 64)), epsilon=0.5)
    >>> answer.spent is not None
    True
    >>> server.stats()["tenants"]
    1
    >>> server.close()
    """

    def __init__(
        self,
        budget: PrivacyParams,
        *,
        schema: Schema | None = None,
        data: np.ndarray | Relation | None = None,
        planner: Planner | None = None,
        workers: int = 4,
        shards: int | None = None,
        shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS,
        queue_depth: int | None = None,
        default_epsilon: float | None = None,
        default_delta: float | None = None,
        random_state=None,
        store: StateStore | str | None = None,
        forecast: bool | ForecastEngine = False,
        forecast_epoch_seconds: float = 60.0,
        forecast_top_k: int = 8,
    ):
        if queue_depth is not None and queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {queue_depth}")
        self.budget = budget
        self.schema = schema
        self.planner = planner if planner is not None else Planner()
        self.workers = max(1, int(workers))
        self.shards = self.workers if shards is None else max(1, int(shards))
        self.shard_min_rows = max(1, int(shard_min_rows))
        self.queue_depth = None if queue_depth is None else int(queue_depth)
        self.default_epsilon = default_epsilon
        self.default_delta = default_delta
        self._random_state = random_state
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        # Separate pool for intra-request shards: a sharding request running
        # *on* the request pool must never wait for its own shard tasks to
        # find a free request worker (classic nested-pool starvation).
        self._shard_pool = (
            ThreadPoolExecutor(max_workers=self.shards, thread_name_prefix="repro-shard")
            if self.shards > 1
            else None
        )
        # The durable state tier.  A path means this server owns (and
        # closes) the store; an existing StateStore is caller-owned and may
        # be shared.  The planner's plan_store is installed only when the
        # planner carries none (a caller-owned planner may be shared with
        # other servers) and uninstalled on close, so a shared planner
        # never points at a closed store.
        self._store: StateStore | None = None
        self._store_owned = False
        self._plan_store_installed = False
        self._plans_warmed = 0
        if store is not None:
            if isinstance(store, StateStore):
                self._store = store
            else:
                self._store = StateStore(store)
                self._store_owned = True
            if self.planner.plan_store is None:
                self.planner.plan_store = self._store
                self._plan_store_installed = True
            if self.planner.cache is not None:
                # Boot warm: every persisted plan lands in the shared cache,
                # so previously-planned shapes skip strategy optimization
                # entirely after a restart.
                self._plans_warmed = self.planner.cache.warm(self._store.load_plans())
        # The forecasting tier (docs/architecture.md §10).  ``forecast=True``
        # builds an engine against the shared planner (and the store, when
        # present, so arrival history survives restarts); a caller-provided
        # :class:`~repro.engine.forecast.ForecastEngine` is used as-is and
        # stays caller-owned (tests pass one with an injected clock and
        # ``background=False``).  Plans are privacy-level agnostic per
        # regime, so the pre-planner plans at the reference privacy of the
        # server budget's regime — exactly the key reactive requests hit.
        self._forecast: ForecastEngine | None = None
        self._forecast_owned = False
        if isinstance(forecast, ForecastEngine):
            self._forecast = forecast
        elif forecast:
            self._forecast = ForecastEngine(
                self.planner,
                params=(
                    REFERENCE_PRIVACY if budget.delta > 0 else REFERENCE_PRIVACY_PURE
                ),
                epoch_seconds=forecast_epoch_seconds,
                top_k=forecast_top_k,
                store=self._store,
            )
            self._forecast_owned = True
        self._lock = threading.RLock()
        self._sessions: dict[str, Session] = {}
        self._answers_served = 0
        self._closed = False
        self._stage_stats = _StageStats()
        # In-flight coalescing: one leader executes, followers share its
        # future.  Keys are content-addressed request identities (see
        # :meth:`_coalesce_key`); the map only ever holds in-flight bursts.
        self._inflight: dict[tuple, Future] = {}
        self._coalesce_lock = threading.Lock()
        self._coalesce_leaders = 0
        self._coalesce_followers = 0
        self._data = self._resolve_data(data) if data is not None else None

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut every pool down (idempotent); sessions stay readable.

        Shutdown waits for in-flight work — the pools drain, they do not
        abandon requests.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        if self._shard_pool is not None:
            self._shard_pool.shutdown(wait=True)
        if self._forecast is not None and self._forecast_owned:
            # Before the store goes away: close() flushes pending arrival
            # deltas so the next boot forecasts from this process's history.
            self._forecast.close()
        if self._store is not None:
            if self._plan_store_installed:
                self.planner.plan_store = None
                self._plan_store_installed = False
            if self._store_owned:
                self._store.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ data
    def _resolve_data(self, data) -> np.ndarray:
        """The shared data vector; Relations are histogrammed shard-parallel."""
        if not isinstance(data, Relation):
            return np.asarray(data, dtype=float)
        if self.schema is None:
            raise ReproError(
                "a Server needs a schema to bucket tuple-level (Relation) data"
            )
        rows = data.row_count
        if self._shard_pool is None or rows < max(self.shard_min_rows, 2 * self.shards):
            return data_vector(data, self.schema)
        names = data.column_names

        def shard(lo: int, hi: int) -> np.ndarray:
            chunk = Relation(
                {name: data.column(name)[lo:hi] for name in names}, name=data.name
            )
            return data_vector(chunk, self.schema)

        futures = [
            self._shard_pool.submit(shard, lo, hi)
            for lo, hi in _row_chunks(rows, self.shards)
        ]
        # Histograms over a row partition add up to the full histogram.
        return np.sum([future.result() for future in futures], axis=0)

    # -------------------------------------------------------------- sessions
    def open_session(
        self,
        tenant: str,
        budget: PrivacyParams | None = None,
        *,
        default_epsilon: float | None = None,
        default_delta: float | None = None,
    ) -> Session:
        """Open (and register) the budgeted session for ``tenant``.

        Each tenant owns exactly one accountant: opening an already-open
        tenant raises instead of silently granting a second budget.
        """
        with self._lock:
            if tenant in self._sessions:
                raise ReproError(f"tenant {tenant!r} already has an open session")
            # Seed from the tenant *name*, not an open-order counter: under
            # concurrency, tenants open in whichever order pool threads
            # first touch them, and an order-dependent seed would make
            # seeded runs unreproducible.
            random_state = (
                None
                if self._random_state is None
                else np.random.default_rng(
                    [self._random_state, *tenant.encode("utf-8")]
                )
            )
            session = Session(
                budget if budget is not None else self.budget,
                schema=self.schema,
                data=self._data,
                planner=self.planner,
                default_epsilon=(
                    default_epsilon if default_epsilon is not None else self.default_epsilon
                ),
                default_delta=(
                    default_delta if default_delta is not None else self.default_delta
                ),
                random_state=random_state,
                release_answerer=self.sharded_answers,
                stage_timer=self._stage_stats.record,
                store=self._store,
                tenant=tenant,
                arrival_recorder=(
                    None
                    if self._forecast is None
                    else (
                        lambda workload, _tenant=tenant: self._forecast.record(
                            _tenant, workload
                        )
                    )
                ),
            )
            self._sessions[tenant] = session
            return session

    def session(self, tenant: str, *, create: bool = True) -> Session:
        """The tenant's session, opening one with the default budget if asked."""
        with self._lock:
            session = self._sessions.get(tenant)
        if session is not None:
            return session
        if not create:
            raise ReproError(f"tenant {tenant!r} has no open session")
        try:
            return self.open_session(tenant)
        except ReproError:
            # Two threads raced to open the same tenant: reuse the winner's.
            return self.session(tenant, create=False)

    @property
    def forecast(self) -> ForecastEngine | None:
        """The forecasting tier, or ``None`` when ``forecast=False``."""
        return self._forecast

    def tenants(self) -> list[str]:
        """Names of the open tenants (snapshot)."""
        with self._lock:
            return sorted(self._sessions)

    # ---------------------------------------------------------- coalescing
    def _coalesce_key(self, tenant: str, request, options) -> tuple | None:
        """The content-addressed identity of a coalescable request.

        Two requests coalesce when a tenant-visible observer could not tell
        their answers apart: same tenant, same request *content*, same
        privacy slice, against the same release span (a release landing
        between two identical asks changes what the second one should see,
        so the span length is part of the key).  Requests that bring their
        own ``data=`` or ``random_state=`` are never coalesced — explicit
        data answers about a different dataset, and an explicit seed is a
        demand for an *independent* draw.
        """
        if options.get("data") is not None or options.get("random_state") is not None:
            return None
        if isinstance(request, str):
            body = ("sql", request)
        elif isinstance(request, (list, tuple)) and request and all(
            isinstance(item, str) for item in request
        ):
            body = ("sql", tuple(request))
        elif isinstance(request, Workload):
            fingerprint = workload_fingerprint(request)
            if fingerprint is None:
                return None
            body = ("workload", fingerprint)
        elif isinstance(request, np.ndarray):
            digest = hashlib.sha1()
            digest.update(str(request.shape).encode())
            digest.update(np.ascontiguousarray(request, dtype=float).tobytes())
            body = ("matrix", digest.hexdigest())
        else:
            return None
        session = self.session(tenant)
        return (
            tenant,
            body,
            options.get("epsilon"),
            options.get("delta"),
            bool(options.get("per_query", False)),
            session.releases,
        )

    # ------------------------------------------------------------ serving API
    def ask(self, tenant: str, request, *, coalesce: bool = True, **options) -> SessionAnswer:
        """Answer one request for ``tenant`` on the calling thread.

        ``options`` are forwarded to :meth:`Session.ask` (``epsilon``,
        ``delta``, ``per_query``, ...).

        Identical concurrent requests **coalesce**: the first in flight
        becomes the leader and executes; the rest attach to its future and
        receive the *same* :class:`SessionAnswer` (same estimate, same
        noise draw), and the tenant's budget is charged exactly once for
        the burst.  Real traffic is full of such bursts (every viewer of
        the same dashboard asks the same query), and answering them once is
        both cheaper and no worse for privacy — one release, post-processed
        to everyone.  Pass ``coalesce=False`` to force an independent
        execution (e.g. when measuring per-request throughput).

        No deadlock under a full pool: a follower can only exist once its
        leader is *running* (the leader registers the in-flight key from
        its own worker), so followers blocking pool workers always have a
        progressing leader.
        """
        key = self._coalesce_key(tenant, request, options) if coalesce else None
        if key is None:
            answer = self.session(tenant).ask(request, **options)
            with self._lock:
                self._answers_served += 1
            return answer
        with self._coalesce_lock:
            future = self._inflight.get(key)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[key] = future
                self._coalesce_leaders += 1
            else:
                self._coalesce_followers += 1
        if not leader:
            # The leader's outcome *is* this request's outcome — including a
            # refusal (same tenant, same budget: the follower would have been
            # refused identically).
            answer = future.result()
            with self._lock:
                self._answers_served += 1
            return answer
        try:
            answer = self.session(tenant).ask(request, **options)
        except BaseException as error:
            with self._coalesce_lock:
                self._inflight.pop(key, None)
            future.set_exception(error)
            raise
        # Unregister *before* resolving: a request arriving after the result
        # exists must start a fresh burst (its release span differs anyway).
        with self._coalesce_lock:
            self._inflight.pop(key, None)
        future.set_result(answer)
        with self._lock:
            self._answers_served += 1
        return answer

    def submit(self, tenant: str, request, **options):
        """Schedule :meth:`ask` on the request pool; returns its future."""
        with self._lock:
            if self._closed:
                raise ReproError("the server is closed")
        enqueued = time.perf_counter()

        def run():
            self._stage_stats.record("queue_wait", time.perf_counter() - enqueued)
            return self.ask(tenant, request, **options)

        return self._pool.submit(run)

    def ask_many(self, requests) -> list[SessionAnswer]:
        """Answer ``(tenant, request)`` (or ``(tenant, request, options)``)
        pairs concurrently on the request pool, preserving order.

        The first failure (e.g. a :class:`BudgetExceededError`) propagates
        after every future has settled, so no work is silently abandoned
        mid-flight.
        """
        futures = []
        for entry in requests:
            tenant, request, *rest = entry
            options = rest[0] if rest else {}
            futures.append(self.submit(tenant, request, **options))
        results, first_error = [], None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as error:  # settle every future before raising
                results.append(None)
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------- sharded answers
    def sharded_answers(self, workload: Workload, estimate: np.ndarray) -> np.ndarray:
        """``W @ x_hat`` with the query rows partitioned over the shard pool.

        Falls back to ``workload.answer`` for small workloads, a disabled
        shard pool, or purely Gram-implicit workloads (no row source).  Each
        shard is a dense-block matmul — numpy drops the GIL inside it, so
        blocks genuinely overlap on multicore hardware — and the blocks are
        concatenated in row order, which is exactly the unsharded result.
        """
        rows = workload.query_count
        if (
            self._shard_pool is None
            or rows < max(self.shard_min_rows, 2 * self.shards)
        ):
            return workload.answer(estimate)
        source = workload.row_source()
        if source is None:
            return workload.answer(estimate)

        def shard(lo: int, hi: int) -> np.ndarray:
            if isinstance(source, np.ndarray):
                block = source[lo:hi]
            else:
                block = source.row_block(lo, hi)
            return block @ estimate

        futures = [
            self._shard_pool.submit(shard, lo, hi)
            for lo, hi in _row_chunks(rows, self.shards)
        ]
        return np.concatenate([future.result() for future in futures])

    # ---------------------------------------------------------- line protocol
    def handle_request(self, line: str) -> dict:
        """Answer one line-delimited request; never raises on a bad request.

        A line is either a bare SQL counting query (tenant ``"default"``,
        session defaults for the budget slice) or a JSON object::

            {"tenant": "alice", "sql": "SELECT COUNT(*) FROM t", "epsilon": 0.1}

        (``"sql"`` may also be a list of statements answered as one
        consistent request.)  The reply is a JSON-serialisable dict; errors
        — unparsable lines, over-budget requests, unknown SQL — come back as
        ``{"error": ...}`` replies instead of exceptions, so one bad request
        never takes the serving loop down.
        """
        line = line.strip()
        tenant, epsilon, delta = "default", None, None
        statements: list[str] | str = line
        try:
            if line.startswith("{"):
                payload = json.loads(line)
                if not isinstance(payload, dict) or "sql" not in payload:
                    raise ReproError('a JSON request must carry a "sql" field')
                tenant = str(payload.get("tenant", "default"))
                statements = payload["sql"]
                epsilon = payload.get("epsilon")
                delta = payload.get("delta")
            answer = self.ask(tenant, statements, epsilon=epsilon, delta=delta)
        except json.JSONDecodeError as error:
            return {"tenant": tenant, "error": f"bad JSON request: {error}"}
        except BudgetExceededError as error:
            return {"tenant": tenant, "error": str(error), "refused": True}
        except ReproError as error:  # MaterializationError et al. included
            return {"tenant": tenant, "error": str(error)}
        except (TypeError, ValueError) as error:
            # e.g. a non-numeric "epsilon" in the payload: a bad request,
            # not a serving-loop failure.
            return {"tenant": tenant, "error": f"bad request: {error}"}
        spent = answer.spent
        return {
            "tenant": tenant,
            "labels": answer.labels,
            "answers": [float(value) for value in answer.answers],
            "mechanism": answer.mechanism,
            "spent": None if spent is None else {"epsilon": spent.epsilon, "delta": spent.delta},
            "served_from_release": answer.served_from_release,
            "plan_cache_hit": answer.plan_cache_hit,
        }

    @staticmethod
    def _peek_tenant(line: str) -> str:
        """The tenant a request line addresses (cheap parse, never raises)."""
        line = line.strip()
        if line.startswith("{"):
            try:
                payload = json.loads(line)
                if isinstance(payload, dict):
                    return str(payload.get("tenant", "default"))
            except json.JSONDecodeError:
                pass
        return "default"

    def serve(self, lines, out=None, *, stop: threading.Event | None = None) -> list:
        """Run the line protocol over ``lines``, pipelined through the pool.

        ``lines`` may be any iterable, including a live stream such as
        ``sys.stdin``: it is pulled one line at a time on the calling
        thread, never read ahead, so a reply can go out before the next
        line exists.

        Distinct tenants are answered concurrently; each tenant's own
        requests run **in submission order** (at most one in flight), so a
        tenant's later query sees its earlier releases — the stream behaves
        like the session it is.  Replies are emitted in input order (each as
        one JSON line when ``out`` is given) as soon as their prefix is
        complete.  Returns the list of reply dicts.

        Ordering is enforced by chaining — the next request of a tenant is
        submitted from the completion callback of the previous one — rather
        than by blocking a pool worker on a predecessor, which could
        deadlock a small pool.

        With ``queue_depth`` set, at most that many requests may be
        admitted-but-unfinished at once; a request arriving beyond that is
        rejected *immediately* with ``{"rejected": true, "retry_after":
        seconds}`` and touches no session and no budget.

        ``stop`` (a :class:`threading.Event`) makes shutdown clean: once
        set, requests not yet started are answered with a ``rejected``
        reply instead of executing, while everything already in flight
        drains and replies normally — the SIGINT path of ``python -m repro
        serve``.
        """
        replies: list = []
        # Tenants with a request in flight, mapped to the requests queued
        # behind it as (index, line, admitted-at) triples.
        queued: dict[str, deque] = {}
        progress = threading.Condition()
        state = {"emitted": 0, "unfinished": 0}

        def shutting_down(tenant: str) -> dict | None:
            if stop is None or not stop.is_set():
                return None
            error = "server shutting down; request not admitted"
            return {"tenant": tenant, "error": error, "rejected": True}

        def settle(index: int, reply: dict) -> None:
            # Caller holds ``progress``.
            replies[index] = reply
            while state["emitted"] < len(replies) and replies[state["emitted"]] is not None:
                if out is not None:
                    print(json.dumps(replies[state["emitted"]]), file=out, flush=True)
                state["emitted"] += 1
            progress.notify_all()

        def run(line: str, admitted: float) -> dict:
            self._stage_stats.record("queue_wait", time.perf_counter() - admitted)
            return self.handle_request(line)

        def start(tenant: str, index: int, line: str, admitted: float) -> None:
            def finish(done) -> None:
                try:
                    reply = done.result()
                except Exception as error:  # pragma: no cover - handle_request guards
                    reply = {"tenant": tenant, "error": repr(error)}
                advance(tenant, index, reply)

            self._pool.submit(run, line, admitted).add_done_callback(finish)

        def advance(tenant: str, index: int, reply: dict) -> None:
            """Settle one request of ``tenant`` and start its next one."""
            while True:
                with progress:
                    state["unfinished"] -= 1
                    settle(index, reply)
                    if not queued[tenant]:
                        del queued[tenant]
                        return
                    index, line, admitted = queued[tenant].popleft()
                reply = shutting_down(tenant)
                if reply is None:
                    start(tenant, index, line, admitted)
                    return

        for line in lines:
            if not line.strip():
                continue
            tenant = self._peek_tenant(line)
            admitted = time.perf_counter()
            with progress:
                index = len(replies)
                replies.append(None)
                reply = shutting_down(tenant)
                unfinished = state["unfinished"]
                if reply is None and self.queue_depth is not None and (
                    unfinished >= self.queue_depth
                ):
                    reply = {
                        "tenant": tenant,
                        "error": f"server overloaded: admission queue full ({self.queue_depth})",
                        "rejected": True,
                        "retry_after": self._retry_after(unfinished),
                    }
                if reply is not None:
                    settle(index, reply)
                    continue
                state["unfinished"] += 1
                if tenant in queued:
                    queued[tenant].append((index, line, admitted))
                    continue
                queued[tenant] = deque()
            start(tenant, index, line, admitted)
        with progress:
            progress.wait_for(lambda: state["emitted"] == len(replies))
        return replies

    def _retry_after(self, in_flight: int) -> float:
        """A retry hint for a rejected request: roughly how long the current
        backlog needs to drain one slot (mean execute latency x queue depth
        per worker), floored at 50 ms so early rejections are never 0."""
        mean = self._stage_stats.mean("execute")
        if mean is None:
            mean = 0.1
        return round(max(0.05, mean * max(in_flight, 1) / self.workers), 4)

    # ------------------------------------------------------------- monitoring
    def stats(self) -> dict:
        """One snapshot of the serving counters and the shared-cache stats.

        ``coalesce`` counts bursts: ``leaders`` is the number of actual
        executions of coalescable requests, ``followers`` the requests that
        attached to an in-flight leader (served with zero execution and zero
        budget) — a burst of N identical requests shows as 1 leader + N-1
        followers.  ``stages`` carries per-stage latency accounting (running
        mean and windowed p95, milliseconds) for ``queue_wait``,
        ``plan_lookup`` (warm plans), ``plan_build`` (cold plans), ``execute``
        and ``derive``.

        With a durable state tier attached, ``store`` carries the store's
        own counters (row counts, ``busy_retries``, ``persist_failures``,
        ``available`` — the degradation signal) plus ``plans_warmed``, and
        each tenant's ``spent`` entry gains ``by_label`` — per-request-kind
        attribution from the accountant's history (the ledger's
        :meth:`~repro.engine.store.StateStore.ledger_by_label` is the
        durable, restart-surviving equivalent).

        With forecasting on, ``forecast`` carries the forecast engine's
        counters (``hits`` / ``misses`` against the predicted mix,
        ``prewarm_planned`` / ``prewarm_already_warm``, ``union_preplans``,
        ``epochs_rolled``, ...); it is ``None`` when ``forecast=False``.
        """
        with self._lock:
            sessions = dict(self._sessions)
            answers_served = self._answers_served
        with self._coalesce_lock:
            coalesce = {
                "leaders": self._coalesce_leaders,
                "followers": self._coalesce_followers,
            }
        cache = self.planner.cache
        return {
            "tenants": len(sessions),
            "answers_served": answers_served,
            "workers": self.workers,
            "shards": self.shards,
            "queue_depth": self.queue_depth,
            "coalesce": coalesce,
            "stages": self._stage_stats.snapshot(),
            "plans_built": self.planner.plans_built,
            "plan_requests": self.planner.requests,
            "plan_cache": None if cache is None else cache.stats,
            "store": (
                None
                if self._store is None
                else {**self._store.stats(), "plans_warmed": self._plans_warmed}
            ),
            "forecast": (
                None if self._forecast is None else self._forecast.stats()
            ),
            "spent": {
                tenant: {
                    "epsilon": session.accountant.spent_epsilon,
                    "delta": session.accountant.spent_delta,
                    "by_label": session.accountant.spent_by_label(),
                }
                for tenant, session in sorted(sessions.items())
            },
        }
