"""Budgeted query-answering sessions: many requests, one accountant.

A :class:`Session` is the engine's executor: it owns a
:class:`~repro.mechanisms.accountant.PrivacyAccountant`, accepts requests in
whatever form the caller has — a raw query matrix, a
:class:`~repro.core.workload.Workload`, or SQL counting-query strings parsed
through :mod:`repro.relational.sql` — and answers each one through the
planner/plan-cache pipeline:

* every *paid* request is planned (warm shapes hit the
  :class:`~repro.engine.cache.PlanCache` and skip strategy optimization),
  executed against the session's data vector, and debited from the budget
  under sequential composition;
* requests whose row space is contained in an earlier release's strategy are
  **served from the released estimate** ``x_hat`` at zero marginal budget —
  answering a post-processed question costs nothing (the post-processing
  property of differential privacy);
* compatible requests can be **batched**: :meth:`Session.ask_batch` unions
  them into one workload, spends the budget once, and derives every answer
  from a single ``x_hat``, so the batch is mutually consistent end to end;
* a request that does not fit the remaining budget raises
  :class:`~repro.mechanisms.accountant.BudgetExceededError` *before* any
  noise is drawn or budget is spent — the session stays usable.

Sessions are **thread-safe** and built to be served concurrently (see
:class:`~repro.engine.server.Server`): the budget is reserved through the
accountant's atomic :meth:`~repro.mechanisms.accountant.PrivacyAccountant
.charge` *before* the mechanism runs (and handed back if the run fails), so
two threads can never jointly overspend; session-local state (releases,
history, the noise stream) is guarded by one lock, while the expensive
planning and mechanism execution run outside it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.error import per_query_error
from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.domain.schema import Schema
from repro.engine import faults
from repro.engine.mechanism import StrategyMechanism
from repro.engine.planner import Plan, Planner
from repro.exceptions import MaterializationError, ReproError, SingularStrategyError, WorkloadError
from repro.mechanisms.accountant import BudgetExceededError, PrivacyAccountant
from repro.mechanisms.matrix_mechanism import MechanismResult
from repro.relational.relation import Relation
from repro.relational.sql import workload_from_sql
from repro.relational.vectorize import data_vector
from repro.utils.rng import as_generator

__all__ = ["Session", "SessionAnswer"]


@dataclass
class SessionAnswer:
    """One answered request, with full provenance.

    ``spent`` is the privacy cost debited for this answer — ``None`` when the
    answer was derived from an earlier release (free post-processing).  For
    batched requests every member reports the single *collective* spend and
    its ``batch_size``.
    """

    labels: Sequence[str]
    answers: np.ndarray
    expected_error: float | None
    mechanism: str
    spent: PrivacyParams | None
    plan: Plan | None = None
    plan_cache_hit: bool = False
    served_from_release: bool = False
    batch_size: int = 1
    per_query_expected: np.ndarray | None = None
    estimate: np.ndarray | None = None

    def rows(self) -> list[dict]:
        """One dict per query, for tabular reporting."""
        out = []
        for index, (label, answer) in enumerate(zip(self.labels, self.answers)):
            row = {"query": label, "answer": float(answer)}
            if self.per_query_expected is not None:
                row["expected_rmse"] = float(self.per_query_expected[index])
            out.append(row)
        return out


@dataclass
class _Release:
    """A paid release the session may reuse: the strategy and its estimate."""

    strategy: object
    estimate: np.ndarray
    params: PrivacyParams
    label: str = ""
    #: Lazily computed: a full-rank strategy supports *every* workload, so
    #: the per-request reuse probe is O(1) after the first ask instead of a
    #: fresh O(n^3) support check per release per request.
    _full_rank: bool | None = None

    def full_rank(self) -> bool:
        if self._full_rank is None:
            try:
                self._full_rank = bool(
                    self.strategy.rank == self.strategy.column_count
                )
            except (MaterializationError, SingularStrategyError):
                self._full_rank = False
        return self._full_rank


class Session:
    """A long-lived, budget-accounted query-answering session.

    Parameters
    ----------
    budget:
        Total (epsilon, delta) the session may spend, enforced by a
        :class:`PrivacyAccountant` under sequential composition.
    schema:
        Required to accept SQL requests or tuple-level (:class:`Relation`)
        data; optional otherwise.
    data:
        The sensitive input: a length-``n`` data vector, or a
        :class:`Relation` (bucketed through ``schema`` on construction).
        May also be supplied per request.
    planner:
        Shared :class:`Planner` (and through it the plan cache).  Defaults to
        a fresh planner with a fresh cache.
    default_epsilon / default_delta:
        Per-request budget when a request does not name its own.  With no
        default epsilon a request must pass ``epsilon=``; with no default
        delta, approximate-DP sessions give each request a proportional
        slice ``budget.delta * epsilon / budget.epsilon``.
    random_state:
        Seeds the session's noise stream (per-request override available).
        Each request draws from an independent child generator spawned
        deterministically from the session seed, so concurrent requests
        never contend on (or corrupt) one shared bit stream.
    release_answerer:
        Optional hook ``(workload, estimate) -> answers`` used to derive
        answers from a released estimate — a
        :class:`~repro.engine.server.Server` injects its shard-parallel
        answerer here.  Defaults to ``workload.answer(estimate)``.
    stage_timer:
        Optional hook ``(stage, seconds)`` fed per-request stage latencies
        (``"plan_lookup"`` for a warm plan, ``"plan_build"`` for a cold one,
        ``"execute"``, ``"derive"``) — the server's per-stage accounting.
        Must be cheap and non-raising.
    store / tenant:
        Optional durable state tier (a :class:`~repro.engine.store.StateStore`)
        and the tenant key this session's state lives under.  With a store
        bound, the accountant gains a write-ahead budget ledger (recovering
        the tenant's durable spend on construction — a ``PENDING`` row a
        crashed process left behind is conservatively counted), releases
        are persisted so free-reuse spans survive restarts, and the
        crash-matrix fault points of :mod:`repro.engine.faults` arm the
        paid path.  Ledger writes **fail closed** (a paid request that
        cannot be durably reserved is refused); release persistence is
        best-effort warmth.
    """

    def __init__(
        self,
        budget: PrivacyParams,
        *,
        schema: Schema | None = None,
        data: np.ndarray | Relation | None = None,
        planner: Planner | None = None,
        default_epsilon: float | None = None,
        default_delta: float | None = None,
        random_state=None,
        release_answerer=None,
        stage_timer=None,
        store=None,
        tenant: str = "default",
        arrival_recorder=None,
    ):
        self.budget = budget
        self.accountant = PrivacyAccountant(budget)
        self.schema = schema
        self.planner = planner if planner is not None else Planner()
        self.default_epsilon = default_epsilon
        self.default_delta = default_delta
        self._rng = as_generator(random_state)
        self._release_answerer = release_answerer
        self._stage_timer = stage_timer
        self._store = store
        self._tenant = tenant
        #: Optional hook ``(workload) -> None`` called for every resolved
        #: request, paid and free alike — the workload forecaster's arrival
        #: feed (:mod:`repro.engine.forecast`).  Observational only: it runs
        #: non-raising, before any budget or planner work, so it can never
        #: change what a request answers or costs.
        self._arrival_recorder = arrival_recorder
        self._data = self._resolve_data(data) if data is not None else None
        self._releases: list[_Release] = []
        if store is not None:
            # Recover durable spend first (fail-closed: an unreachable
            # ledger refuses the session rather than risk a double-spend),
            # then rebuild the free-reuse pool from persisted releases
            # (best-effort: load_releases never raises).
            self.accountant.bind_ledger(store, tenant)
            for entry in store.load_releases(tenant):
                self._releases.append(
                    _Release(
                        strategy=entry["strategy"],
                        estimate=entry["estimate"],
                        params=entry["params"],
                        label=entry["label"],
                    )
                )
        self.history: list[SessionAnswer] = []
        #: Guards session-local mutable state: the release pool, the answer
        #: history, and the seed stream.  Planning and mechanism execution
        #: happen outside it (the planner and accountant carry their own
        #: synchronization), so concurrent requests overlap on the heavy
        #: numpy work.
        self._lock = threading.RLock()

    # -------------------------------------------------------------- plumbing
    def _resolve_data(self, data) -> np.ndarray:
        if isinstance(data, Relation):
            if self.schema is None:
                raise ReproError(
                    "a Session needs a schema to bucket tuple-level (Relation) data"
                )
            return data_vector(data, self.schema)
        return np.asarray(data, dtype=float)

    def _resolve_request(self, request) -> tuple[Workload, Sequence[str]]:
        if isinstance(request, Workload):
            return request, request.query_labels
        if isinstance(request, str):
            request = [request]
        if isinstance(request, (list, tuple)) and request and all(
            isinstance(item, str) for item in request
        ):
            if self.schema is None:
                raise ReproError("a Session needs a schema to accept SQL requests")
            return workload_from_sql(self.schema, list(request))
        if isinstance(request, np.ndarray):
            workload = Workload(request, name="adhoc")
            return workload, [f"query[{i}]" for i in range(workload.query_count)]
        raise ReproError(
            f"cannot interpret request of type {type(request).__name__}; pass a "
            "Workload, a query matrix, or SQL counting-query string(s)"
        )

    def _request_params(self, epsilon, delta) -> PrivacyParams:
        if epsilon is None:
            epsilon = self.default_epsilon
        if epsilon is None:
            raise ReproError(
                "request has no epsilon: pass epsilon=... or construct the "
                "Session with default_epsilon"
            )
        if delta is None:
            delta = self.default_delta
        if delta is None:
            delta = (
                self.budget.delta * float(epsilon) / self.budget.epsilon
                if self.budget.delta > 0
                else 0.0
            )
        return PrivacyParams(float(epsilon), float(delta))

    @property
    def remaining(self) -> PrivacyParams | None:
        """The unspent budget (``None`` once exhausted in either parameter)."""
        return self.accountant.remaining

    @property
    def releases(self) -> int:
        """Number of paid releases so far (the reusable ``x_hat`` pool)."""
        return len(self._releases)

    def _request_rng(self, random_state) -> np.random.Generator:
        """A per-request generator: explicit seed, or a spawned child.

        Spawning (rather than handing out the shared session generator)
        keeps concurrent requests off one mutable bit stream — a
        :class:`numpy.random.Generator` is not safe to share across threads
        — while staying deterministic for a seeded session.
        """
        if random_state is not None:
            return as_generator(random_state)
        with self._lock:
            return self._rng.spawn(1)[0]

    def _record_stage(self, stage: str, seconds: float) -> None:
        if self._stage_timer is not None:
            self._stage_timer(stage, seconds)

    def _derive_answers(self, workload: Workload, estimate: np.ndarray) -> np.ndarray:
        started = time.perf_counter()
        if self._release_answerer is not None:
            answers = self._release_answerer(workload, estimate)
        else:
            answers = workload.answer(estimate)
        self._record_stage("derive", time.perf_counter() - started)
        return answers

    # --------------------------------------------------------- free reuse path
    def _serve_from_release(
        self, workload: Workload, per_query: bool = False, releases=None
    ) -> SessionAnswer | None:
        """Answer from a recorded release, or ``None`` if none supports it.

        ``releases`` is a snapshot of the release pool: callers on the
        serving path copy it under the session lock and run the (possibly
        heavy) probe + answer derivation *outside* the lock, so a big free
        matmul never blocks the tenant's other requests.  The per-release
        ``full_rank`` memo is an idempotent bool, so the benign race of two
        threads filling it is harmless.
        """
        if releases is None:
            with self._lock:
                releases = list(self._releases)
        for release in reversed(releases):
            strategy = release.strategy
            if strategy is None or workload.column_count != release.estimate.shape[0]:
                continue
            # Cached full-rank releases (the common case after sensitivity
            # completion) support everything; only rank-deficient releases
            # pay the per-workload row-space check — routed through the
            # structured-operator path, which refuses (MaterializationError,
            # treated as "unsupported") rather than densify an ``n x n``
            # Gram beyond the budget just to decide reuse.
            if not release.full_rank():
                try:
                    if not strategy.supports_workload(workload):
                        continue
                except (MaterializationError, SingularStrategyError):
                    continue
            answers = self._derive_answers(workload, release.estimate)
            expected = None
            per_query_expected = None
            if per_query and release.params.is_approximate:
                try:
                    per_query_expected = per_query_error(workload, strategy, release.params)
                    expected = float(np.sqrt(np.mean(per_query_expected**2)))
                except (MaterializationError, SingularStrategyError):
                    per_query_expected = None
            return SessionAnswer(
                labels=[],
                answers=answers,
                expected_error=expected,
                mechanism=f"release-reuse[{release.label}]",
                spent=None,
                served_from_release=True,
                per_query_expected=per_query_expected,
                estimate=release.estimate,
            )
        return None

    # ------------------------------------------------------------------- ask
    def ask(
        self,
        request,
        *,
        epsilon: float | None = None,
        delta: float | None = None,
        data: np.ndarray | Relation | None = None,
        random_state=None,
        per_query: bool = False,
    ) -> SessionAnswer:
        """Answer one request privately.

        The request may be a :class:`Workload`, a raw ``(m, n)`` query
        matrix, one SQL counting-query string, or a list of them.  Overlap
        with an earlier release is served free; otherwise the request is
        planned, executed, and debited ``(epsilon, delta)``.

        Passing ``data=`` answers against that data instead of the
        session's: such requests neither reuse earlier releases nor leave
        a reusable one behind (every recorded estimate describes the
        session's own data, so cross-data reuse would silently answer
        about the wrong dataset).

        The budget is **reserved atomically** before anything runs: the
        accountant's :meth:`~repro.mechanisms.accountant.PrivacyAccountant
        .charge` checks and debits under one lock (two concurrent requests
        can never both squeeze through a half-spent budget), raising
        :class:`BudgetExceededError` with nothing spent and nothing
        executed.  If planning or the mechanism itself fails after the
        reservation — no noise was released — the charge is handed back and
        the session stays usable.
        """
        workload, labels = self._resolve_request(request)
        if self._arrival_recorder is not None:
            try:
                self._arrival_recorder(workload)
            except Exception:
                # Forecasting is strictly observational; a broken recorder
                # must never take down the request it was watching.
                pass
        # Release reuse is only sound against the session's own data: every
        # recorded estimate was computed on it.  A request that brings its
        # own data= must pay its way.
        if data is None:
            with self._lock:
                releases = list(self._releases)
            # Probe + answer derivation run outside the lock: the free path
            # is the serving hot path and must not serialize the tenant.
            reused = self._serve_from_release(
                workload, per_query=per_query, releases=releases
            )
            if reused is not None:
                reused.labels = labels
                with self._lock:
                    self.history.append(reused)
                return reused
        params = self._request_params(epsilon, delta)
        vector = self._resolve_data(data) if data is not None else self._data
        if vector is None:
            raise ReproError(
                "the Session has no data: pass data= at construction or per request"
            )
        label = workload.name or labels[0]
        # Atomic check-and-debit: the reservation happens before the (noisy)
        # release, the refusal happens without mutating anything.  With a
        # durable ledger the write-ahead PENDING row commits inside charge,
        # *before* any noise exists for it to account.
        self.accountant.charge(params, label=label)
        try:
            # Crash here (PENDING durable, no noise drawn): recovery counts
            # the row — budget stranded, never double-spent.  A *raising*
            # injection models a pre-noise failure and exercises the refund.
            faults.trip(faults.AFTER_CHARGE)
            lookup_started = time.perf_counter()
            cache = self.planner.cache
            key = None if cache is None else self.planner.plan_key(workload, params)
            cache_hit = key is not None and cache.peek(key) is not None
            plan = self.planner.plan(workload, params, key=key)
            self._record_stage(
                "plan_lookup" if cache_hit else "plan_build",
                time.perf_counter() - lookup_started,
            )
            rng = self._request_rng(random_state)
            execute_started = time.perf_counter()
            result = plan.execute(workload, vector, params, random_state=rng)
            self._record_stage("execute", time.perf_counter() - execute_started)
            # Crash here (noise drawn, row still PENDING): recovery *must*
            # count it — losing this row would be a privacy violation.
            faults.trip(faults.AFTER_EXECUTE)
        except BaseException:
            # The release did not happen (no noise was drawn for it), so the
            # reservation goes back — a failed request must not burn budget.
            # The matching ledger row is VOIDED (or, if that write fails,
            # left PENDING: durably stranded, never double-spent).
            self.accountant.refund(params, label=label)
            raise
        # The release happened: promote the write-ahead row to SPENT.  From
        # here on nothing may refund — the noise is out.
        self.accountant.commit(params, label=label)
        faults.trip(faults.AFTER_COMMIT)
        with self._lock:
            answer = self._record(
                workload, labels, plan, result, params, cache_hit, per_query,
                reusable=data is None,
            )
        # Crash between COMMIT and here loses only warmth (the persisted
        # release), never budget correctness.
        faults.trip(faults.AFTER_PERSIST)
        return answer

    def ask_batch(
        self,
        requests,
        *,
        epsilon: float | None = None,
        delta: float | None = None,
        data: np.ndarray | Relation | None = None,
        random_state=None,
        per_query: bool = False,
    ) -> list[SessionAnswer]:
        """Answer several compatible requests from a single paid release.

        All requests are unioned into one workload over the same cells, one
        plan is executed, the budget is debited **once**, and every answer
        derives from the same ``x_hat`` — so answers are mutually consistent
        across the whole batch.  Returns one :class:`SessionAnswer` per
        request, each reporting the collective spend and the batch size.

        A batch of **one** request collapses to a plain :meth:`ask` — no
        union wrapper is built, so the request keeps its own workload
        identity (and fingerprint) and a shape that is already warm in the
        plan cache stays warm.
        """
        if not requests:
            raise ReproError("ask_batch needs at least one request")
        resolved = [self._resolve_request(request) for request in requests]
        cells = resolved[0][0].column_count
        if any(workload.column_count != cells for workload, _ in resolved):
            raise WorkloadError("all batched requests must share the same cells")
        if len(resolved) == 1:
            workload, labels = resolved[0]
            answer = self.ask(
                workload,
                epsilon=epsilon,
                delta=delta,
                data=data,
                random_state=random_state,
                per_query=per_query,
            )
            answer.labels = labels
            return [answer]
        union = Workload.union([workload for workload, _ in resolved], name="session-batch")
        all_labels = [label for _, labels in resolved for label in labels]
        collective = self.ask(
            union,
            epsilon=epsilon,
            delta=delta,
            data=data,
            random_state=random_state,
            per_query=per_query,
        )
        collective.labels = all_labels
        answers: list[SessionAnswer] = []
        offset = 0
        for workload, labels in resolved:
            stop = offset + workload.query_count
            answer = SessionAnswer(
                labels=labels,
                answers=collective.answers[offset:stop],
                expected_error=collective.expected_error,
                mechanism=collective.mechanism,
                spent=collective.spent,
                plan=collective.plan,
                plan_cache_hit=collective.plan_cache_hit,
                served_from_release=collective.served_from_release,
                batch_size=len(resolved),
                per_query_expected=None
                if collective.per_query_expected is None
                else collective.per_query_expected[offset:stop],
                estimate=collective.estimate,
            )
            answers.append(answer)
            offset = stop
        with self._lock:
            # Replace the union's history entry with the per-request answers
            # by *identity* — under concurrency the collective is not
            # necessarily the last entry, so a blind pop() could drop some
            # other thread's answer (and `==` is unusable on answers holding
            # numpy arrays).
            for index in range(len(self.history) - 1, -1, -1):
                if self.history[index] is collective:
                    del self.history[index]
                    break
            self.history.extend(answers)
        return answers

    # ---------------------------------------------------------------- record
    def _record(
        self,
        workload: Workload,
        labels: Sequence[str],
        plan: Plan,
        result: MechanismResult,
        params: PrivacyParams,
        cache_hit: bool,
        per_query: bool,
        reusable: bool = True,
    ) -> SessionAnswer:
        per_query_expected = None
        strategy = (
            plan.mechanism.strategy
            if isinstance(plan.mechanism, StrategyMechanism)
            else None
        )
        if per_query and strategy is not None and params.is_approximate:
            try:
                per_query_expected = per_query_error(workload, strategy, params)
            except (MaterializationError, SingularStrategyError):
                per_query_expected = None
        # Only estimates computed on the session's own data may serve future
        # (session-data) requests for free.
        if reusable and result.estimate is not None and strategy is not None:
            release = _Release(
                strategy=strategy,
                estimate=result.estimate,
                params=params,
                label=workload.name or labels[0],
            )
            self._releases.append(release)
            if self._store is not None:
                # Best-effort: a failed persist degrades this release to
                # in-memory-only (counted in the store's persist_failures),
                # it never fails the already-paid answer.
                self._store.save_release(
                    self._tenant, release.label, params, strategy, release.estimate
                )
        answer = SessionAnswer(
            labels=labels,
            answers=result.answers,
            expected_error=plan.expected_error(params),
            mechanism=result.mechanism,
            spent=params,
            plan=plan,
            plan_cache_hit=cache_hit,
            per_query_expected=per_query_expected,
            estimate=result.estimate,
        )
        self.history.append(answer)
        return answer
