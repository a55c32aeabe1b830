"""The lock-ownership manifest: one source of truth for docs and enforcement.

Each :class:`LockRule` names a piece of state that crosses session (or
thread) boundaries, the lock that owns it, and the prose for the
architecture document's lock table.  The table in
``docs/architecture.md`` §6 is *generated* from this list
(:func:`render_lock_table`), and ``tools/check_docs.py`` verifies the
rendered table appears verbatim in the document — so the doc and the
enforcement regime cannot drift apart.

Entries with ``attributes`` are mechanically enforced by the
``lock-discipline`` checker: every write to a listed attribute in the
owning module must sit lexically inside ``with <lock>:``.  Entries without
``attributes`` are doc-only — their guard is structural (per-fingerprint
build gates, a re-entrant lock spanning whole call sequences) and beyond a
lexical check, but they still belong in the table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LockRule:
    #: Row text for the architecture table.
    doc_state: str
    doc_guard: str
    doc_granularity: str
    #: Dotted module owning the state (``None`` for doc-only rows).
    module: str | None = None
    #: Class whose ``self.<attr>`` writes are checked; ``None`` = module
    #: globals (bare-name writes to the listed attributes).
    owner: str | None = None
    #: Attribute / global names whose writes require the lock.
    attributes: tuple[str, ...] = ()
    #: Lock expression that must govern the write (``ast.unparse`` form).
    lock: str | None = None

    @property
    def checkable(self) -> bool:
        return bool(self.module and self.attributes and self.lock)


LOCK_MANIFEST: tuple[LockRule, ...] = (
    LockRule(
        doc_state="`PrivacyAccountant` spent counters",
        doc_guard="the accountant's lock, via atomic `charge`/`refund`",
        doc_granularity="per tenant",
        module="repro.mechanisms.accountant",
        owner="PrivacyAccountant",
        attributes=("spent_epsilon", "spent_delta", "history", "_open_charges"),
        lock="self._lock",
    ),
    LockRule(
        doc_state="`PlanCache` entries + LRU order + counters",
        doc_guard="one mutex (`stats` reads are lock-free)",
        doc_granularity="per cache",
        module="repro.engine.cache",
        owner="PlanCache",
        attributes=("_entries", "hits", "misses", "evictions", "warmed"),
        lock="self._lock",
    ),
    LockRule(
        doc_state="cold plan builds",
        doc_guard="the `Planner`'s per-fingerprint build gates",
        doc_granularity="per workload shape",
    ),
    LockRule(
        doc_state="factor-`eigh` memo (`repro.utils.operators`)",
        doc_guard="module lock around lookup/insert/evict; the `eigh` itself runs outside it",
        doc_granularity="process",
        module="repro.utils.operators",
        owner=None,
        attributes=("_FACTOR_EIGH_CACHE",),
        lock="_FACTOR_EIGH_CACHE_LOCK",
    ),
    LockRule(
        doc_state="`Session` releases, history, seed stream",
        doc_guard=(
            "per-session re-entrant lock; planning and mechanism execution "
            "run outside it"
        ),
        doc_granularity="per tenant",
    ),
    LockRule(
        doc_state="`Server` tenant sessions, served-answer counter, closed flag",
        doc_guard="the server's re-entrant lock; requests execute outside it",
        doc_granularity="per server",
        module="repro.engine.server",
        owner="Server",
        attributes=("_sessions", "_answers_served", "_closed"),
        lock="self._lock",
    ),
    LockRule(
        doc_state="`Server` in-flight coalescing map + leader/follower counters",
        doc_guard="the coalescing lock; the leader executes outside it",
        doc_granularity="per server",
        module="repro.engine.server",
        owner="Server",
        attributes=("_inflight", "_coalesce_leaders", "_coalesce_followers"),
        lock="self._coalesce_lock",
    ),
    LockRule(
        doc_state="`ArrivalRecorder` epoch counts + pending store deltas",
        doc_guard="per-recorder lock",
        doc_granularity="per tenant",
        module="repro.engine.forecast",
        owner="ArrivalRecorder",
        attributes=("_counts", "_pending", "recorded"),
        lock="self._lock",
    ),
    LockRule(
        doc_state="`ForecastEngine` shape exemplars, recorders, accuracy counters",
        doc_guard="the engine's lock; store writes and pre-planning run outside it",
        doc_granularity="per server",
        module="repro.engine.forecast",
        owner="ForecastEngine",
        attributes=(
            "_recorders",
            "_shapes",
            "_shapes_persisted",
            "_predicted",
            "_mix",
            "_epoch",
            "hits",
            "misses",
            "epochs_rolled",
            "preplan_runs",
            "preplan_failures",
            "_closed",
        ),
        lock="self._lock",
    ),
    LockRule(
        doc_state="`PrePlanner` pre-warm counters",
        doc_guard="per-pre-planner lock (background pre-plans race `tick`)",
        doc_granularity="per server",
        module="repro.engine.forecast",
        owner="PrePlanner",
        attributes=(
            "prewarm_planned",
            "prewarm_already_warm",
            "prewarm_failures",
            "union_preplans",
        ),
        lock="self._lock",
    ),
)


def render_lock_table() -> str:
    """The §6 lock table, exactly as ``docs/architecture.md`` must carry it."""
    rows = ["| shared state | guard | granularity |", "|---|---|---|"]
    for rule in LOCK_MANIFEST:
        rows.append(f"| {rule.doc_state} | {rule.doc_guard} | {rule.doc_granularity} |")
    return "\n".join(rows)


def checkable_rules() -> list[LockRule]:
    return [rule for rule in LOCK_MANIFEST if rule.checkable]
