"""The query planner: analyse a workload, produce an executable :class:`Plan`.

The planner is the optimizer stage of the engine's declarative-frontend /
optimizer / executor split.  Given a workload and a privacy regime it

1. **analyses** the workload (size, Kronecker structure, explicitness —
   :func:`analyze_workload`);
2. **enumerates candidate mechanisms**: the eigen-design strategy (Program 2,
   riding the factorized fast path beyond the materialization budget), the
   workload-as-strategy and identity baselines, and optionally the direct
   Gaussian/Laplace mechanisms;
3. **cost-ranks** them by closed-form expected workload error (Prop. 4 /
   Sec. 3.5) and returns the winner wrapped in a :class:`Plan`.  Candidates
   within :data:`TIE_TOLERANCE` of the best error tie, and the tie goes to
   the strategy with fewer rows.

The two baselines need no Gram and no factor: the identity's error trace
is ``trace(W^T W)`` at sensitivity 1, and the workload-as-strategy's is
``rank(W^T W)`` at the workload's own sensitivity.

Strategy optimization is the expensive step, so plans are memoised in a
content-addressed :class:`~repro.engine.cache.PlanCache`: workloads are keyed
by the *content* of their factor Grams (or matrix/Gram bytes), exactly like
the factor-``eigh`` memo in :mod:`repro.utils.operators`, so two structurally
identical workloads built independently share one plan.  Because every error
expression factorises into ``(strategy-dependent core) x (privacy-dependent
noise scale)``, a cached plan serves *any* privacy setting of the same regime
— expected errors are rescaled, never recomputed.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.eigen_design import eigen_design
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.engine.cache import PlanCache
from repro.engine.mechanism import DirectMechanism, Mechanism, StrategyMechanism
from repro.exceptions import (
    MaterializationError,
    OptimizationError,
    PrivacyError,
    ReproError,
    SingularStrategyError,
)
from repro.mechanisms.matrix_mechanism import MechanismResult
from repro.utils.operators import within_materialization_budget

__all__ = [
    "Plan",
    "PlanCandidate",
    "Planner",
    "WorkloadProfile",
    "analyze_workload",
    "workload_fingerprint",
]

#: Reference setting at which cold plans price their candidates; warm lookups
#: rescale to the request's parameters instead of recomputing traces.
REFERENCE_PRIVACY = PrivacyParams(epsilon=1.0, delta=1e-4)
REFERENCE_PRIVACY_PURE = PrivacyParams(epsilon=1.0, delta=0.0)

#: Candidate errors within this relative distance of the best one tie; the
#: tie goes to the strategy with fewer rows, so rounding never decides.
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class WorkloadProfile:
    """What the planner learns about a workload before choosing a strategy."""

    queries: int
    cells: int
    has_matrix: bool
    kron_factor_shapes: tuple[tuple[int, int], ...] | None
    dense_affordable: bool

    @property
    def is_kronecker(self) -> bool:
        """True when the workload keeps a Kronecker factor decomposition."""
        return self.kron_factor_shapes is not None


def analyze_workload(workload: Workload) -> WorkloadProfile:
    """Profile ``workload`` for planning: sizes, structure, affordability."""
    factors = workload._kron_factors
    return WorkloadProfile(
        queries=workload.query_count,
        cells=workload.column_count,
        has_matrix=workload.has_matrix,
        kron_factor_shapes=None
        if factors is None
        else tuple(factor.shape for factor in factors),
        dense_affordable=within_materialization_budget(
            workload.column_count, workload.column_count
        ),
    )


def _digest_array(h, array: np.ndarray) -> None:
    array = np.ascontiguousarray(np.asarray(array, dtype=float))
    h.update(str(array.shape).encode())
    h.update(array)


def workload_fingerprint(workload: Workload) -> str | None:
    """A content-addressed digest of the workload, or ``None`` if uncacheable.

    Keyed like the factor-``eigh`` memo: Kronecker workloads hash their factor
    Grams (tiny), explicit workloads their matrix bytes, Gram-backed workloads
    the Gram bytes — so structurally identical workloads built by different
    callers collide on purpose, and the plan cache can serve them all from
    one strategy optimization.

    The digest is memoised on the workload object (workloads are immutable —
    every transformation returns a new one), because the serving layer now
    fingerprints on two hot paths per request: the plan-cache key and the
    in-flight coalescing key.  Hashing a dense matrix's bytes is linear in
    its size; doing it once per workload object instead of once per request
    is what keeps the coalescing probe O(1) for repeated asks.
    """
    cached = getattr(workload, "_cached_fingerprint", False)
    if cached is not False:
        return cached
    fingerprint = _workload_fingerprint_uncached(workload)
    workload._cached_fingerprint = fingerprint
    return fingerprint


def _workload_fingerprint_uncached(workload: Workload) -> str | None:
    h = hashlib.sha1()
    h.update(f"m={workload.query_count};n={workload.column_count};".encode())
    factors = workload._kron_factors
    if factors is not None:
        h.update(b"kron:")
        for factor in factors:
            h.update(f"q={factor.query_count}:".encode())
            _digest_array(h, factor.gram)
        return h.hexdigest()
    if workload.has_matrix:
        h.update(b"matrix:")
        _digest_array(h, workload.matrix)
        return h.hexdigest()
    try:
        gram = workload.gram
    except MaterializationError:
        return None
    h.update(b"gram:")
    _digest_array(h, gram)
    return h.hexdigest()


def _noise_factor(params: PrivacyParams, regime: str) -> float:
    """The privacy-dependent factor every expected-error expression carries."""
    if regime == "gaussian":
        return float(np.sqrt(params.variance_factor))
    return 1.0 / params.epsilon


def _closed_form_error(core: float, queries: int, params: PrivacyParams) -> float:
    """Def. 5 RMSE from a Prop. 4 core ``sensitivity^2 * trace``.

    Gaussian noise has variance ``P(epsilon, delta)`` per unit sensitivity
    squared; Laplace noise (Sec. 3.5) ``2 / epsilon^2``.
    """
    if params.is_approximate:
        variance = params.variance_factor
    else:
        variance = 2.0 / params.epsilon**2
    return float(np.sqrt(variance * core / queries))


def _strategy_rows(mechanism: Mechanism, workload: Workload) -> float:
    """Rows of noisy measurements a mechanism releases (the tie-break key)."""
    strategy = getattr(mechanism, "strategy", None)
    if strategy is None:
        return workload.query_count  # direct noise on every workload answer
    try:
        return strategy.query_count
    except MaterializationError:
        return float("inf")  # Gram-implicit: no explicit rows


@dataclass
class PlanCandidate:
    """One mechanism the planner considered, with its reference-priced error."""

    mechanism: str
    expected_error: float
    chosen: bool = False
    note: str = ""


@dataclass
class Plan:
    """An executable decision: which mechanism answers a workload shape.

    A plan is privacy-*regime* specific (Gaussian vs. pure-epsilon ranking
    and noise differ) but privacy-*level* agnostic: expected errors scale by
    the shared noise factor, so one plan serves every ``(epsilon, delta)`` of
    its regime.
    """

    mechanism: Mechanism
    profile: WorkloadProfile
    regime: str
    fingerprint: str | None
    candidates: list[PlanCandidate] = field(default_factory=list)
    reference_privacy: PrivacyParams = REFERENCE_PRIVACY
    reference_error: float = float("nan")
    planning_seconds: float = 0.0

    def expected_error(self, params: PrivacyParams) -> float:
        """Expected workload RMSE under ``params`` (rescaled, not recomputed)."""
        self._check_regime(params)
        scale = _noise_factor(params, self.regime) / _noise_factor(
            self.reference_privacy, self.regime
        )
        return self.reference_error * scale

    def execute(
        self,
        workload: Workload,
        data: np.ndarray,
        params: PrivacyParams,
        *,
        random_state=None,
    ) -> MechanismResult:
        """Run the chosen mechanism on concrete data under ``params``."""
        self._check_regime(params)
        return self.mechanism.run(workload, data, params, random_state=random_state)

    def _check_regime(self, params: PrivacyParams) -> None:
        regime = "gaussian" if params.is_approximate else "laplace"
        if regime != self.regime:
            raise PrivacyError(
                f"plan was built for the {self.regime} regime but the request "
                f"uses {regime} parameters {params}"
            )

    @property
    def releases_estimate(self) -> bool:
        """Whether executing this plan yields a consistent ``x_hat``."""
        return bool(self.mechanism.releases_estimate)


class Planner:
    """Choose a mechanism for a workload, memoising through a plan cache.

    Parameters
    ----------
    cache:
        A :class:`~repro.engine.cache.PlanCache` (one is created by default);
        pass ``None`` explicitly to disable plan reuse.
    require_estimate:
        When True (the default, and what sessions need) only mechanisms that
        release a consistent ``x_hat`` are considered; the direct Gaussian /
        Laplace baselines are excluded.
    include_baselines:
        Also price the identity and workload-as-strategy baselines (on by
        default; the eigen design must beat them to be chosen, which doubles
        as a continuous regression check on the optimizer).
    design_options:
        Extra keyword arguments for :func:`repro.core.eigen_design.eigen_design`
        (e.g. ``tolerance=1e-8``, ``factorized=True``).

    The planner is safe to share across threads (it is the shared optimizer
    of a :class:`~repro.engine.server.Server`): counters are incremented
    under a lock, and cold builds are serialized **per fingerprint** — when
    several threads miss on the same key simultaneously, exactly one runs
    strategy optimization and the others wait on its build gate and reuse
    the finished plan.  Distinct fingerprints build fully in parallel.

    Attributes
    ----------
    plans_built:
        Number of *cold* plans, i.e. actual strategy optimizations.  A warm
        :class:`PlanCache` hit leaves this untouched — the benchmark and the
        cache tests assert on exactly that.
    requests:
        Total number of :meth:`plan` calls.
    """

    def __init__(
        self,
        *,
        cache: PlanCache | None | object = "default",
        require_estimate: bool = True,
        include_baselines: bool = True,
        design_options: dict | None = None,
    ):
        self.cache = PlanCache() if cache == "default" else cache
        self.require_estimate = require_estimate
        self.include_baselines = include_baselines
        self.design_options = dict(design_options or {})
        #: Optional :class:`~repro.engine.store.StateStore`: every cold build
        #: is persisted under its cache key (best-effort — ``save_plan``
        #: never raises) so the *next* process boots with a warm cache.  The
        #: serving layer installs its store here when the planner has none.
        self.plan_store = None
        self.plans_built = 0
        self.requests = 0
        self._lock = threading.Lock()
        #: Per-fingerprint build gates: one strategy optimization per key,
        #: however many threads miss on it at once.
        self._building: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------ keys
    def _config_digest(self) -> str:
        payload = (
            f"req-est={self.require_estimate};baselines={self.include_baselines};"
            f"design={sorted(self.design_options.items())!r}"
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:12]

    def plan_key(self, workload: Workload, params: PrivacyParams) -> str | None:
        """The cache key for ``workload`` under ``params``'s regime."""
        fingerprint = workload_fingerprint(workload)
        if fingerprint is None:
            return None
        regime = "gaussian" if params.is_approximate else "laplace"
        return f"{fingerprint}:{regime}:{self._config_digest()}"

    # ------------------------------------------------------------- candidates
    def _candidate_mechanisms(
        self, workload: Workload, params: PrivacyParams
    ) -> list[tuple[Mechanism | None, str, Callable[[], float] | None]]:
        """``(mechanism, note, core)`` for every candidate.

        ``core`` computes the Prop. 4 product ``sensitivity^2 * trace`` when
        it has a closed form (the two baselines); ``None`` means the
        mechanism prices itself.
        """
        candidates: list[tuple[Mechanism | None, str, Callable[[], float] | None]] = []
        try:
            design = eigen_design(workload, **self.design_options)
            candidates.append(
                (StrategyMechanism(design.strategy), f"Program 2 ({design.method})", None)
            )
        except (OptimizationError, MaterializationError, SingularStrategyError) as error:
            candidates.append((None, f"eigen-design failed: {error}", None))
        if self.include_baselines:
            if workload.has_matrix:
                # trace(W^T W (W^T W)^+) is the rank of W^T W, read off the
                # spectrum the eigen design already computed.
                def workload_core() -> float:
                    if params.is_approximate:
                        return workload.sensitivity_l2**2 * workload.rank
                    return workload.sensitivity_l1**2 * workload.rank

                candidates.append(
                    (
                        StrategyMechanism(
                            Strategy(workload.matrix, name=f"workload({workload.name or 'W'})")
                        ),
                        "workload as its own strategy",
                        workload_core,
                    )
                )
            if within_materialization_budget(workload.column_count, workload.column_count):
                # Sensitivity 1 and trace(W^T W): the workload Gram's diagonal.
                candidates.append(
                    (
                        StrategyMechanism(Strategy.identity(workload.column_count)),
                        "identity baseline",
                        lambda: float(np.sum(workload._gram_diagonal())),
                    )
                )
        if not self.require_estimate:
            # One direct baseline per regime, matching the regime's noise law:
            # a plan's expected error rescales by a single noise factor, so a
            # gaussian-regime plan must not hold a Laplace mechanism (whose
            # error scales as 1/epsilon independent of delta — the rescaling
            # and the cached ranking would both be wrong for it).
            if params.is_approximate:
                candidates.append(
                    (DirectMechanism("gaussian"), "independent Gaussian noise", None)
                )
            else:
                candidates.append((DirectMechanism("laplace"), "independent Laplace noise", None))
        return candidates

    # ------------------------------------------------------------------ plan
    def plan(
        self, workload: Workload, params: PrivacyParams, *, key: str | None = None
    ) -> Plan:
        """Return a (possibly cached) executable plan for ``workload``.

        Every call performs exactly one counted cache lookup (``hits +
        misses`` equals the number of ``plan`` calls with a cacheable
        workload); concurrent misses on the same fingerprint serialize on a
        per-key build gate so the same shape is never optimized twice.

        ``key`` lets a caller that already computed :meth:`plan_key` (the
        session does, for its cache-hit probe) pass it in — the
        fingerprint sha1-hashes the workload's matrix/Gram bytes, which is
        worth not doing twice per request on the serving hot path.
        """
        with self._lock:
            self.requests += 1
        if key is None:
            key = self.plan_key(workload, params)
        if self.cache is None or key is None:
            return self._build_plan(workload, params, key)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        with self._lock:
            gate = self._building.setdefault(key, threading.Lock())
        try:
            with gate:
                # Double-checked via peek (uncounted): a thread that lost
                # the race finds the winner's plan here instead of
                # rebuilding it.
                plan = self.cache.peek(key)
                if plan is None:
                    plan = self._build_plan(workload, params, key)
                    self.cache.put(key, plan)
                    if self.plan_store is not None:
                        # Persist the freshly optimized plan so a restarted
                        # server reboots warm.  Best-effort: never fails the
                        # request.
                        self.plan_store.save_plan(key, plan)
        finally:
            with self._lock:
                self._building.pop(key, None)
        return plan

    def preplan_union(
        self,
        workloads,
        params: PrivacyParams,
        *,
        name: str = "forecast-union",
    ) -> Plan:
        """Plan the **union** of several workloads ahead of any request.

        The adaptive pre-planner's entry point (:mod:`repro.engine.forecast`):
        given the forecast's predicted-hot workloads over one set of cells,
        design a single strategy for their union — the paper's premise,
        operationalized: one strategy tuned to the predicted *mix* instead of
        one optimization per shape as it arrives.  The union plan lands in
        the plan cache under the union's own content-addressed key, so a
        batch of the predicted mix (``Session.ask_batch`` unions its members
        the same way) skips strategy optimization entirely.

        Goes through :meth:`plan`, so the per-fingerprint build gates,
        counters, and plan-store persistence all apply; a racing reactive
        request for the same union never duplicates the optimization.  No
        accountant is involved anywhere on this path — pre-planning spends
        compute, never budget.
        """
        workloads = list(workloads)
        if not workloads:
            raise ReproError("preplan_union needs at least one workload")
        union = (
            workloads[0]
            if len(workloads) == 1
            else Workload.union(workloads, name=name)
        )
        return self.plan(union, params)

    def _build_plan(
        self, workload: Workload, params: PrivacyParams, key: str | None
    ) -> Plan:
        started = time.perf_counter()
        with self._lock:
            self.plans_built += 1
        regime = "gaussian" if params.is_approximate else "laplace"
        reference = REFERENCE_PRIVACY if regime == "gaussian" else REFERENCE_PRIVACY_PURE
        profile = analyze_workload(workload)
        scored: list[PlanCandidate] = []
        runnable: list[tuple[float, float, PlanCandidate, Mechanism]] = []
        for mechanism, note, core in self._candidate_mechanisms(workload, params):
            if mechanism is None:
                scored.append(PlanCandidate("(skipped)", float("inf"), note=note))
                continue
            if not mechanism.supports(workload, reference):
                scored.append(
                    PlanCandidate(mechanism.name, float("inf"), note=f"{note}; unsupported")
                )
                continue
            try:
                if core is None:
                    error = float(mechanism.expected_error(workload, reference))
                else:
                    error = _closed_form_error(core(), workload.query_count, reference)
            except (SingularStrategyError, MaterializationError, OptimizationError) as err:
                scored.append(
                    PlanCandidate(mechanism.name, float("inf"), note=f"{note}; {err}")
                )
                continue
            candidate = PlanCandidate(mechanism.name, error, note=note)
            scored.append(candidate)
            runnable.append((error, _strategy_rows(mechanism, workload), candidate, mechanism))
        if not runnable:
            raise ReproError(
                f"no mechanism can answer workload {workload.name!r} under the "
                f"{regime} regime; candidates: "
                + "; ".join(f"{c.mechanism}: {c.note}" for c in scored)
            )
        lowest = min(error for error, *_ in runnable)
        best_error, _, chosen, best = min(
            (entry for entry in runnable if entry[0] <= lowest * (1.0 + TIE_TOLERANCE)),
            key=lambda entry: entry[1],
        )
        chosen.chosen = True
        return Plan(
            mechanism=best,
            profile=profile,
            regime=regime,
            fingerprint=None if key is None else key,
            candidates=scored,
            reference_privacy=reference,
            reference_error=best_error,
            planning_seconds=time.perf_counter() - started,
        )
