"""Per-layer metrics and the profile shares, computed from one traced pass.

Every ``*_ms`` metric is milliseconds spent in that layer per answered
request of the timed phase (the layer's total over all requests, divided by
the requests answered), so the layers of one workload add up against its
mean latency.  Counts are totals over the timed phase.  Nothing here reads
``Server.stats()["stages"]``: its ``plan_lookup`` stage includes cold builds.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from spans import self_times

#: The per-layer metrics, in report order.
METRICS = (
    "eigen_design.eigh_ms",
    "eigen_design.weighting_ms",
    "eigen_design.weighting_iterations",
    "error.pricing_ms",
    "error.pricing_calls",
    "planner.plan_ms",
    "planner.cache_hit_ratio",
    "planner.plans_built",
    "planner.gate_wait_ms",
    "planner.fingerprint_ms",
    "planner.fingerprint_calls",
    "gaussian.sensitivity_ms",
    "gaussian.sensitivity_calls_per_paid",
    "validation.check_matrix_ms",
    "gaussian.noise_ms",
    "matrix_mechanism.run_ms",
    "matrix_mechanism.inference_ms",
    "matrix_mechanism.support_check_ms",
    "store.release_persist_ms",
    "store.ledger_ms",
    "store.busy_retries",
    "accountant.charge_ms",
    "accountant.refunds",
    "sql.compile_ms",
    "sql.calls",
    "session.ask_self_ms",
    "server.derive_ms",
    "workload.answer_ms",
    "session.reuse_ratio",
    "session.history_len",
    "server.tenants",
    "server.queue_wait_ms",
    "server.coalesce_followers",
    "trace.uncovered_frac",
    "trace.overhead_pct",
)


def counters(server) -> dict:
    """The program's own counters the per-layer report uses (not its stages)."""
    stats = server.stats()
    store = stats["store"] or {}
    return {
        "plans_built": server.planner.plans_built,
        "busy_retries": store.get("busy_retries", 0),
        "coalesce_followers": stats["coalesce"]["followers"],
    }


def counter_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _children(spans) -> dict[int, list[int]]:
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return children


def per_layer(spans, records, server, counts: dict) -> dict:
    """Every metric of :data:`METRICS` but the overhead, which needs both passes."""
    own = self_times(spans)
    children = _children(spans)
    answered = [r for r in records if r["error"] is None]
    requests = max(len(answered), 1)
    paid = sum(r["paid"] for r in answered)
    free = sum(r["free"] for r in answered)
    total, self_total, calls = defaultdict(float), defaultdict(float), Counter()
    for index, span in enumerate(spans):
        total[span.name] += span.end - span.start
        self_total[span.name] += own[index]
        calls[span.name] += 1

    def ms(*names: str) -> float:
        return 1e3 * sum(total[name] for name in names) / requests

    gate_wait, hits, iterations = 0.0, 0, 0
    for index, span in enumerate(spans):
        if span.name == "planner.plan":
            kids = [spans[k] for k in children[index]]
            missed = any(k.name == "planner.cache_get" and k.value is False for k in kids)
            if missed and not any(k.name == "planner.build" for k in kids):
                gate_wait += own[index]
        elif span.name == "planner.cache_get":
            hits += bool(span.value)
        elif span.name == "eigen_design.weighting":
            iterations += span.value or 0

    roots = {span.request: span for span in spans if span.parent is None}
    waits, uncovered, latency = [], 0.0, 0.0
    for record in answered:
        root = roots.get(record.get("request"))
        if root is None:
            continue
        wait = record["started"] - record["sent"]
        waits.append(wait)
        took = record["done"] - record["sent"]
        latency += took
        uncovered += max(took - wait - (root.end - root.start), 0.0)
    sessions = [server.session(tenant, create=False) for tenant in server.tenants()]
    return {
        "eigen_design.eigh_ms": ms("eigen_design.eigh"),
        "eigen_design.weighting_ms": ms("eigen_design.weighting"),
        "eigen_design.weighting_iterations": iterations,
        "error.pricing_ms": ms("error.pricing"),
        "error.pricing_calls": calls["error.pricing"],
        "planner.plan_ms": ms("planner.plan"),
        "planner.cache_hit_ratio": hits / max(calls["planner.cache_get"], 1),
        "planner.plans_built": counts["plans_built"],
        "planner.gate_wait_ms": 1e3 * gate_wait / requests,
        "planner.fingerprint_ms": ms("planner.fingerprint"),
        "planner.fingerprint_calls": calls["planner.fingerprint"],
        "gaussian.sensitivity_ms": ms("gaussian.sensitivity"),
        "gaussian.sensitivity_calls_per_paid": calls["gaussian.sensitivity"] / max(paid, 1),
        "validation.check_matrix_ms": ms("validation.check_matrix"),
        "gaussian.noise_ms": 1e3 * self_total["gaussian.noise"] / requests,
        "matrix_mechanism.run_ms": ms("matrix_mechanism.run"),
        "matrix_mechanism.inference_ms": 1e3 * self_total["matrix_mechanism.run"] / requests,
        "matrix_mechanism.support_check_ms": ms("matrix_mechanism.support_check"),
        "store.release_persist_ms": ms("store.release_persist"),
        "store.ledger_ms": ms("store.ledger"),
        "store.busy_retries": counts["busy_retries"],
        "accountant.charge_ms": ms("accountant.charge", "accountant.commit", "accountant.refund"),
        "accountant.refunds": calls["accountant.refund"],
        "sql.compile_ms": ms("sql.compile"),
        "sql.calls": calls["sql.compile"],
        "session.ask_self_ms": 1e3 * self_total["session.ask"] / requests,
        "server.derive_ms": ms("server.derive"),
        "workload.answer_ms": ms("workload.answer"),
        "session.reuse_ratio": free / requests,
        "session.history_len": (
            statistics.fmean(len(session.history) for session in sessions) if sessions else 0.0
        ),
        "server.tenants": len(sessions),
        "server.queue_wait_ms": 1e3 * statistics.fmean(waits) if waits else 0.0,
        "server.coalesce_followers": counts["coalesce_followers"],
        "trace.uncovered_frac": uncovered / latency if latency else 0.0,
    }


#: Layer groups of the cross-workload table: which layer each workload targets.
TABLE_LAYERS = {
    "cold plan (planner.build)": ("planner.build",),
    "paid mechanism (matrix_mechanism.run)": ("matrix_mechanism.run",),
    "release persist (store.save_release)": ("store.release_persist",),
    "SQL compile (workload_from_sql)": ("sql.compile",),
    "derive (Server.sharded_answers)": ("server.derive",),
    "ledger + accountant": ("accountant.charge", "accountant.commit", "accountant.refund"),
}


def profile(spans, records) -> dict:
    """Where request time goes, as shares of the latency of each request class.

    A request is ``paid`` if it spent budget and ``free`` if it was served
    from a release.  A share is the time inside a span name (children
    included) summed over the class's requests, over the class's summed
    client-observed latency.
    """
    by_request = {r["request"]: r for r in records if r["error"] is None and "request" in r}
    latency = Counter()
    for record in by_request.values():
        latency[_klass(record)] += record["done"] - record["sent"]
    inside = defaultdict(Counter)
    builds = defaultdict(Counter)
    build_of = {}
    for index, span in enumerate(spans):
        record = by_request.get(span.request)
        if record is None:
            continue
        took = span.end - span.start
        inside[_klass(record)][span.name] += took
        if span.name == "planner.build":
            build_of[index] = record.get("family", "all")
            builds[build_of[index]]["planner.build"] += took
            builds[build_of[index]]["count"] += 1
    # Attribute the cold-plan sub-layers to the build they ran in.
    for index, span in enumerate(spans):
        if span.name in ("eigen_design.eigh", "eigen_design.weighting", "error.pricing"):
            parent = span.parent
            while parent is not None and parent not in build_of:
                parent = spans[parent].parent
            if parent is not None:
                builds[build_of[parent]][span.name] += span.end - span.start
    shares = {
        klass: {name: t / latency[klass] for name, t in sorted(names.items())}
        for klass, names in inside.items()
        if latency[klass] > 0
    }
    cold = {}
    for family, parts in sorted(builds.items()):
        build = parts["planner.build"]
        cold[family] = {
            "builds": parts["count"],
            "mean_ms": 1e3 * build / max(parts["count"], 1),
            "eigh_share": parts["eigen_design.eigh"] / build if build else 0.0,
            "weighting_share": parts["eigen_design.weighting"] / build if build else 0.0,
            "pricing_share": parts["error.pricing"] / build if build else 0.0,
        }
    all_builds = sum(parts["planner.build"] for parts in builds.values())
    all_pricing = sum(parts["error.pricing"] for parts in builds.values())
    table = {
        row: sum(
            sum(names.get(name, 0.0) for name in group) for names in inside.values()
        ) / max(sum(latency.values()), 1e-12)
        for row, group in TABLE_LAYERS.items()
    }
    return {
        "shares": shares,
        "cold_plan": cold,
        "table": table,
        "findings": {
            "sensitivity_share_of_paid": shares.get("paid", {}).get("gaussian.sensitivity"),
            "check_matrix_share_of_paid": shares.get("paid", {}).get("validation.check_matrix"),
            "pricing_share_of_cold_plan": all_pricing / all_builds if all_builds else None,
            "save_release_share_of_paid": shares.get("paid", {}).get("store.release_persist"),
            "sql_compile_share_of_free": shares.get("free", {}).get("sql.compile"),
        },
    }


def _klass(record: dict) -> str:
    return "paid" if record["paid"] else "free" if record["free"] else "other"
