"""The query-answering engine: planner, plan cache, and budgeted sessions.

This subsystem turns the repository's pieces — strategy selection
(:mod:`repro.core.eigen_design`), private mechanisms
(:mod:`repro.mechanisms`), budget accounting, and the SQL front end
(:mod:`repro.relational.sql`) — into one planned, cached, budget-accounted
path from a request to consistent private answers:

* :mod:`repro.engine.mechanism` — the :class:`Mechanism` protocol and its
  implementations (matrix mechanism, direct Gaussian/Laplace);
* :mod:`repro.engine.planner` — the :class:`Planner` that profiles a
  workload, cost-ranks candidate mechanisms by expected error, and emits an
  executable :class:`Plan`;
* :mod:`repro.engine.cache` — the content-addressed :class:`PlanCache` that
  lets repeated workload shapes skip strategy optimization;
* :mod:`repro.engine.session` — the budgeted :class:`Session` executor:
  SQL / workload / matrix requests in, consistent answers out, free reuse of
  released estimates, clean refusal when the budget would be exceeded;
* :mod:`repro.engine.server` — the multi-tenant :class:`Server`: one shared
  planner/plan cache, per-tenant budgeted sessions, thread-pooled request
  answering, shard-parallel execution of large requests, in-flight
  coalescing of identical ones, and one streaming line-protocol loop
  (unbounded admission by default, ``queue_depth`` for backpressure);
* :mod:`repro.engine.store` — the durable state tier (:class:`StateStore`):
  a crash-safe SQLite file holding the write-ahead budget ledger, persisted
  plans (warm reboots) and released estimates (free reuse across restarts);
* :mod:`repro.engine.faults` — named fault points on the
  charge→execute→persist path, armable in tests (raise or SIGKILL) to prove
  the crash-recovery invariants;
* :mod:`repro.engine.forecast` — workload forecasting and adaptive
  pre-planning (:class:`ForecastEngine`): per-tenant arrival history,
  exponentially-weighted next-epoch mix, plan-cache pre-warming and
  union strategy design for the predicted-hot shapes — changes when plans
  are built, never what is answered.

Every entry point — the ``python -m repro query`` CLI, the experiment
registry, library callers — goes through this layer; see the "Engine layer"
section of ``docs/architecture.md``.
"""

# Submodules are imported lazily (PEP 562) so that importing one engine
# module (e.g. the mechanism protocol) does not drag in the whole serving
# stack — the Session pulls the relational front end, which entry points
# like `python -m repro list` never need.
_EXPORTS = {
    "ArrivalRecorder": "repro.engine.forecast",
    "BudgetExceededError": "repro.mechanisms.accountant",
    "DirectMechanism": "repro.engine.mechanism",
    "ForecastEngine": "repro.engine.forecast",
    "Forecaster": "repro.engine.forecast",
    "Mechanism": "repro.engine.mechanism",
    "Plan": "repro.engine.planner",
    "PrePlanner": "repro.engine.forecast",
    "PlanCache": "repro.engine.cache",
    "PlanCandidate": "repro.engine.planner",
    "Planner": "repro.engine.planner",
    "PrivacyAccountant": "repro.mechanisms.accountant",
    "Server": "repro.engine.server",
    "Session": "repro.engine.session",
    "SessionAnswer": "repro.engine.session",
    "StateStore": "repro.engine.store",
    "StoreError": "repro.exceptions",
    "StoreUnavailableError": "repro.exceptions",
    "StrategyMechanism": "repro.engine.mechanism",
    "WorkloadProfile": "repro.engine.planner",
    "analyze_workload": "repro.engine.planner",
    "workload_fingerprint": "repro.engine.planner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
