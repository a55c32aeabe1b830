"""Seeded request generators for the three benchmark workloads.

The generator is kept apart from the runner: each function here takes the
seed and returns plain data (specs, JSON lines, arrays), and the runner only
ever sees that list.  The same seed always yields the same requests.

``build_workload`` and ``build_schema`` turn generated specs into engine
objects; they import :mod:`repro` lazily so the request lists themselves can
be generated (and compared in tests) without touching the engine.
"""

from __future__ import annotations

import json

import numpy as np

#: Closed-loop clients per workload; each gets its own request list.
CLIENTS = 2

#: The five registry families a cold-shapes round draws one shape from each.
COLD_FAMILIES = ("prefix", "all-range", "random-range", "range-2d", "marginals")

#: One size per family, so a family's cold plan costs the same in every
#: round and every seed; shapes differ by a seeded cell permutation or by
#: seeded random queries, which gives each a distinct fingerprint.  Every
#: shape is explicit and at most 1024 cells.  The sizes are chosen so each
#: family's cold plan costs about the same (80-150 ms on a 2-vCPU x86 VM),
#: and a slower planner for any one family moves the round time by about a
#: fifth of its own change.  Candidate pricing is the largest part of the
#: prefix, random-range, 2-D and marginal plans, the weighting solve of the
#: all-range plan; ``eigh`` is 15-25% of every plan and dominates none.
#: Left out on purpose: 2-D ranges on the full 32x32 grid (about 1.1 s per
#: plan, ten times the other families, so it would be the whole mix), 1-D
#: random ranges at 1024 cells (tens of seconds in the weighting solve) and
#: shapes beyond the 10**7-entry materialization budget (the engine plans
#: them Gram-implicit and the paid answer then raises MaterializationError).
PREFIX_CELLS = 384
ALL_RANGE_CELLS = 192
RANDOM_RANGE = {"n": 384, "count": 192}
RANGE_2D = {"shape": [16, 24], "count": 192}
MARGINALS = {"shape": [4, 4, 4, 6], "k": 2}
#: More rounds than the longest run completes (about 0.7 s per round).
COLD_ROUNDS = 128

#: The ROADMAP reference shape for the paid path.
REFRESH_CELLS = 2048
REFRESH_SNAPSHOTS = 64
REFRESH_EPSILON = 0.5
REFRESH_DELTA = 1e-6
#: Requests per client; more than a run answers (about 15 per second).
REFRESH_REQUESTS = 2000

SQL_TABLE = "people"
SQL_REGIONS = ("north", "south", "east", "west", "centre", "coast", "hills", "plains")
SQL_AGE_EDGES = tuple(range(0, 85, 5))  # 16 buckets
SQL_INCOME_EDGES = tuple(range(0, 90, 10))  # 8 buckets
SQL_ROWS = 200_000
SQL_PAID_EPSILON = 0.5
#: Free drill-down templates, by kind.  BETWEEN is half-open in this dialect.
FOLLOW_UP_KINDS = {
    "age-region": "WHERE age BETWEEN {low} AND {high} AND region = '{region}'",
    "income-by-region": "WHERE income >= {income} GROUP BY region",
    "regions-young": "WHERE region IN ('{region}', '{other}') AND age < {high}",
    "older-by-income": "WHERE age >= {low} GROUP BY income",
}
#: Free follow-ups each tenant sends after its paid dashboard.
SQL_FOLLOW_UPS = 40

#: The paid dashboard.  Its panels weight the cells unevenly, so the eigen
#: design's completion rows bring the released strategy to full rank and
#: every later drill-down can be derived from the release for free.
SQL_DASHBOARD = (
    f"SELECT COUNT(*) FROM {SQL_TABLE}",
    f"SELECT COUNT(*) FROM {SQL_TABLE} GROUP BY region",
    f"SELECT COUNT(*) FROM {SQL_TABLE} GROUP BY age",
    f"SELECT COUNT(*) FROM {SQL_TABLE} GROUP BY income",
    f"SELECT COUNT(*) FROM {SQL_TABLE} GROUP BY region, income",
    f"SELECT COUNT(*) FROM {SQL_TABLE} WHERE age < 30 GROUP BY region",
    f"SELECT COUNT(*) FROM {SQL_TABLE} WHERE income >= 50 GROUP BY age",
)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


# ------------------------------------------------------------- cold-shapes
def cold_shapes(seed: int) -> list[dict]:
    """:data:`COLD_ROUNDS` rounds of five distinct explicit shapes, one per family.

    Each round visits every family once in a seeded order, so a run that
    stops at a round boundary always measures the same family mix.
    """
    rng = _rng(seed, 1)
    shapes = []
    for index in range(COLD_ROUNDS):
        round_shapes = {
            "prefix": {"n": PREFIX_CELLS},
            "all-range": {"n": ALL_RANGE_CELLS},
            "random-range": dict(RANDOM_RANGE),
            "range-2d": dict(RANGE_2D),
            "marginals": dict(MARGINALS),
        }
        for family in rng.permutation(COLD_FAMILIES):
            spec = {"family": str(family), **round_shapes[str(family)]}
            spec["seed"] = int(rng.integers(2**31))
            spec["round"] = index
            spec["data_seed"] = int(rng.integers(2**31))
            shapes.append(spec)
    if len({shape_key(spec) for spec in shapes}) != len(shapes):
        raise ValueError(f"seed {seed} drew the same shape twice")
    return shapes


def shape_key(spec: dict) -> str:
    """A spec's identity without its round and data seed."""
    return json.dumps(
        {k: v for k, v in spec.items() if k not in ("round", "data_seed")}, sort_keys=True
    )


def build_workload(spec: dict):
    """The engine :class:`~repro.core.workload.Workload` a cold-shapes spec names."""
    from repro.workloads import (
        all_range_queries_1d,
        kway_marginals,
        permuted_workload,
        prefix_workload,
        random_range_queries,
    )

    family = spec["family"]
    if family == "random-range":
        return random_range_queries([spec["n"]], spec["count"], random_state=spec["seed"])
    if family == "range-2d":
        return random_range_queries(spec["shape"], spec["count"], random_state=spec["seed"])
    if family == "prefix":
        base = prefix_workload(spec["n"])
    elif family == "all-range":
        base = all_range_queries_1d(spec["n"], materialize=True)
    elif family == "marginals":
        base = kway_marginals(spec["shape"], spec["k"])
    else:
        raise ValueError(f"unknown shape family {family!r}")
    return permuted_workload(base, random_state=spec["seed"])


def shape_cells(spec: dict) -> int:
    if "n" in spec:
        return int(spec["n"])
    return int(np.prod(spec["shape"]))


def shape_data(spec: dict) -> np.ndarray:
    """The data snapshot a cold-shapes request carries (``data=``)."""
    rng = _rng(spec["data_seed"], 2)
    return rng.poisson(40.0, size=shape_cells(spec)).astype(float)


# ------------------------------------------------------------ paid-refresh
def paid_refresh(seed: int, cells: int = REFRESH_CELLS) -> dict:
    """Dashboard refreshes: every request carries its own data snapshot.

    Returns the snapshot pool and, per client, the request list — each
    request names its tenant, its snapshot and its privacy slice.  Nothing
    about a snapshot is cached by the engine, so cycling through a pool of
    distinct snapshots is as fresh as drawing a new one per request.
    """
    rng = _rng(seed, 3)
    base = rng.gamma(2.0, 30.0, size=cells)
    drift = rng.normal(0.0, 3.0, size=(REFRESH_SNAPSHOTS, cells))
    snapshots = np.maximum(np.round(base + np.cumsum(drift, axis=0)), 0.0)
    requests = [
        [
            {
                "tenant": f"refresh-{client}",
                "snapshot": int(index),
                "epsilon": REFRESH_EPSILON,
                "delta": REFRESH_DELTA,
            }
            for index in rng.integers(0, REFRESH_SNAPSHOTS, size=REFRESH_REQUESTS)
        ]
        for client in range(CLIENTS)
    ]
    return {"cells": cells, "snapshots": snapshots, "requests": requests}


# ----------------------------------------------------------- sql-dashboard
def build_schema():
    """The 1024-cell schema of the SQL workload (8 regions x 16 ages x 8 incomes)."""
    from repro.domain.schema import CategoricalAttribute, NumericAttribute, Schema

    return Schema(
        [
            CategoricalAttribute("region", SQL_REGIONS),
            NumericAttribute("age", SQL_AGE_EDGES),
            NumericAttribute("income", SQL_INCOME_EDGES),
        ]
    )


def sql_relation_columns(seed: int, rows: int = SQL_ROWS) -> dict[str, np.ndarray]:
    """Tuple-level columns of the ingested relation."""
    rng = _rng(seed, 4)
    weights = rng.dirichlet(np.full(len(SQL_REGIONS), 4.0))
    region = np.asarray(SQL_REGIONS, dtype=object)[rng.choice(len(SQL_REGIONS), size=rows, p=weights)]
    age = np.clip(rng.normal(41.0, 16.0, size=rows), 0.0, 79.999)
    income = np.clip(rng.lognormal(3.3, 0.55, size=rows), 0.0, 79.999)
    return {"region": region.tolist(), "age": age, "income": income}


def _follow_up(rng: np.random.Generator) -> tuple[list[str], list[dict]]:
    """One free drill-down: 1-3 counting statements over the dashboard's cells.

    Returns the statements and, for the checker's oracle, the parameters
    each statement was made from.
    """
    statements, specs = [], []
    for _ in range(int(rng.integers(1, 4))):
        kind = list(FOLLOW_UP_KINDS)[int(rng.integers(len(FOLLOW_UP_KINDS)))]
        low = int(rng.integers(0, 15)) * 5
        spec = {
            "kind": kind,
            "low": low,
            "high": int(rng.integers(low // 5 + 1, 17)) * 5,
            "region": SQL_REGIONS[int(rng.integers(len(SQL_REGIONS)))],
            "other": SQL_REGIONS[int(rng.integers(len(SQL_REGIONS)))],
            "income": int(rng.integers(1, 8)) * 10,
        }
        statements.append(f"SELECT COUNT(*) FROM {SQL_TABLE} " + FOLLOW_UP_KINDS[kind].format(**spec))
        specs.append(spec)
    return statements, specs


def sql_dashboard(seed: int, tenants_per_client: int = 400) -> dict:
    """JSON request lines: per new tenant one paid dashboard, then free drill-downs.

    Paid lines carry an ``epsilon``; follow-ups carry none, so a follow-up
    the engine could not derive from the tenant's release fails loudly
    instead of quietly spending budget.
    """
    rng = _rng(seed, 5)
    lines, specs = [], []
    for client in range(CLIENTS):
        stream, stream_specs = [], []
        for index in range(tenants_per_client):
            tenant = f"c{client}-t{index:04d}"
            stream.append(
                json.dumps(
                    {"tenant": tenant, "sql": list(SQL_DASHBOARD), "epsilon": SQL_PAID_EPSILON}
                )
            )
            stream_specs.append(None)
            for _ in range(SQL_FOLLOW_UPS):
                statements, statement_specs = _follow_up(rng)
                stream.append(json.dumps({"tenant": tenant, "sql": statements}))
                stream_specs.append(statement_specs)
        lines.append(stream)
        specs.append(stream_specs)
    return {"dashboard": list(SQL_DASHBOARD), "lines": lines, "specs": specs}
