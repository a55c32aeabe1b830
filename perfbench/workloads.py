"""The three benchmark workloads: set-up, closed-loop clients and checks.

Every workload drives one :class:`repro.engine.Server` with ``workers=2``
from two client threads; a client sends its next request only after the
previous reply arrived.  The request lists come from :mod:`generate`; a
workload only turns them into calls.

Each client returns one record per request: a dict with ``sent`` and
``done`` (``perf_counter`` seconds), ``paid``/``free`` flags and ``error``.
The traced pass stamps ``request`` (the trace's request id) and ``started``
(when the server began the request) onto the same dict.

The checks fail the run instead of only reporting numbers:

* a paid answer must equal ``W @ x_hat`` of its own released estimate, and
  the pooled realized RMSE of paid answers against the exact ``W @ x`` must
  sit inside a 4-sigma band around the reported ``expected_error``;
* a free answer must equal ``W @ x_hat`` of the tenant's release, with ``W``
  rebuilt by an independent numpy oracle, not by the engine's SQL compiler,
  and a run that answered no follow-up fails;
* each tenant's spent epsilon must equal the sum over its paid requests and
  stay within its budget;
* ``plans_built`` must equal the number of distinct shapes sent in
  cold-shapes, and be 0 during the timed phase of the other workloads;
* every request must succeed: no workload sends one that may fail.
"""

from __future__ import annotations

import gc
import json
import math
import os
import threading
import time
from pathlib import Path

import numpy as np

import generate
from repro import PrivacyParams
from repro.engine import PlanCache, Planner, Server, StateStore
from repro.relational import Relation, workload_from_sql
from repro.workloads import prefix_workload

CLIENTS = generate.CLIENTS
WORKERS = 2
#: Tenants of cold-shapes and paid-refresh spend on every request, so their
#: budget is effectively unbounded; the check still verifies the ledger.
OPEN_BUDGET = PrivacyParams(1e9, 0.5)
SQL_BUDGET = PrivacyParams(1.0, 1e-3)
COLD_EPSILON = 0.5
COLD_DELTA = 1e-6
#: Lazy set-up a cold-shapes server finishes before timing: one smaller
#: shape per family, none of them in the generated stream.
COLD_WARMUP = (
    {"family": "prefix", "n": 320, "seed": 0},
    {"family": "all-range", "n": 96, "seed": 0},
    {"family": "random-range", "n": 320, "count": 160, "seed": 0},
    {"family": "range-2d", "shape": [16, 16], "count": 160, "seed": 0},
    {"family": "marginals", "shape": [4, 4, 4], "k": 2, "seed": 0},
)


def _now() -> float:
    return time.perf_counter()


def _record(client: int, tenant: str) -> dict:
    return {"client": client, "tenant": tenant, "sent": 0.0, "done": 0.0,
            "paid": False, "free": False, "error": None}


def identity_ratio(plan) -> float:
    """The plan's expected error over the identity baseline's for the same shape.

    Both come from ``plan.candidates``' pricing, at the plan's reference
    privacy; the request's own privacy scales both alike, so it cancels.
    """
    identity = next(c for c in plan.candidates if c.mechanism.endswith("[identity]"))
    return plan.reference_error / identity.expected_error


class RmseBand:
    """Pools paid answers' squared errors against their reported expected error.

    Under correct calibration ``E[sum ||err||^2] = sum m * expected_error^2``.
    The band is 4 sigma of the pooled ratio assuming one effective degree of
    freedom per answer — the widest case — so a realized RMSE outside it is
    a miscalibration, not bad luck.
    """

    def __init__(self):
        self.squared = 0.0
        self.expected = 0.0
        self.expected_sq = 0.0
        self.answers = 0

    def add(self, answers, exact, expected_error: float) -> None:
        scale = len(exact) * expected_error**2
        self.squared += float(np.sum((np.asarray(answers) - exact) ** 2))
        self.expected += scale
        self.expected_sq += scale**2
        self.answers += 1

    def verdict(self) -> dict:
        if self.answers == 0:
            return {"ok": False, "why": "no paid answers"}
        ratio = self.squared / self.expected
        sigma = math.sqrt(2.0 * self.expected_sq) / self.expected
        ok = abs(ratio - 1.0) <= 4.0 * sigma
        return {
            "ok": bool(ok),
            "realized_over_expected_rmse": math.sqrt(ratio),
            "band": [math.sqrt(max(0.0, 1.0 - 4.0 * sigma)), math.sqrt(1.0 + 4.0 * sigma)],
            "answers": self.answers,
        }


def _consistent(answers, matrix: np.ndarray, estimate: np.ndarray) -> bool:
    expected = matrix @ estimate
    tolerance = 1e-9 * max(float(np.abs(estimate).sum()), 1.0)
    return bool(np.allclose(np.asarray(answers, dtype=float), expected, rtol=1e-9, atol=tolerance))


def _spend_check(server: Server, paid_epsilon: dict[str, float], budget: PrivacyParams) -> dict:
    spent = server.stats()["spent"]
    bad = []
    for tenant, epsilon in paid_epsilon.items():
        charged = spent.get(tenant, {}).get("epsilon", 0.0)
        if not math.isclose(charged, epsilon, rel_tol=1e-9, abs_tol=1e-12) or charged > budget.epsilon + 1e-12:
            bad.append((tenant, charged, epsilon))
    return {"ok": not bad, "tenants": len(paid_epsilon), "mismatched": bad[:5]}


class Bench:
    """One workload.  Subclasses fill in set-up, clients and checks."""

    name = ""

    def __init__(self, seed: int, *, smoke: bool = False, out_dir: Path | None = None):
        self.seed = int(seed)
        self.smoke = smoke
        self.out_dir = Path(out_dir) if out_dir is not None else Path(".")
        self.tracer = None
        #: Client-side seconds in the timed phase that are not serving time
        #: (building the next request, checking the last one).
        self.client_seconds = 0.0
        #: Per paid answer: reported expected error over the identity baseline's.
        self.ratios: list[float] = []
        self._stores: list[StateStore] = []

    # -- set-up ---------------------------------------------------------
    def setup(self) -> Server:
        raise NotImplementedError

    def teardown(self, server: Server) -> None:
        server.close()
        # Sessions and their server reference each other; free the plans and
        # answers now rather than letting them pile up across set-ups.
        gc.collect()
        for store in self._stores:
            store.close()
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(store.path + suffix)
                except FileNotFoundError:
                    pass
        self._stores = []

    def _store(self) -> StateStore:
        """A fresh durable store in the output directory, removed on teardown."""
        path = self.out_dir / f"state-{self.name}-{os.getpid()}-{len(self._stores)}.db"
        self._stores.append(StateStore(path))
        return self._stores[-1]

    def _dispatch(self, key, record: dict) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.dispatched[key] = record

    # -- timed phase ----------------------------------------------------
    def client(self, server: Server, client: int, deadline: float) -> list[dict]:
        raise NotImplementedError

    def run_clients(self, server: Server, seconds: float) -> list[dict]:
        self.client_seconds = 0.0
        deadline = _now() + seconds
        results: list[list[dict]] = [[] for _ in range(CLIENTS)]
        errors: list[BaseException] = []

        def body(client: int) -> None:
            try:
                results[client] = self.client(server, client, deadline)
            except BaseException as error:  # reported as a failed run
                errors.append(error)

        threads = [threading.Thread(target=body, args=(c,), name=f"client-{c}") for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [record for records in results for record in records]

    # -- checks ---------------------------------------------------------
    def check(self, server: Server, records: list[dict], plans_built: int) -> dict:
        """Verify one timed pass; also fills :attr:`ratios`."""
        raise NotImplementedError


# ------------------------------------------------------------------ cold-shapes
class ColdShapes(Bench):
    """Distinct explicit shapes, each asked by two tenants at once.

    The clients walk the shape stream in lockstep: both wait at a barrier,
    then both ask the same shape, so one builds the plan and the other waits
    on the planner's build gate.  Every request carries its own data, so no
    answer is derived from an earlier release.  The run stops at the first
    round boundary past the deadline, so every run measures whole rounds of
    the five families.

    All rounds share one fresh planner (no store), but each round is served
    by a new ``Server`` over it: a session keeps every answer, plan included,
    so one server over the whole stream would hold every plan it ever built.
    The swap happens between requests and is not counted as serving time;
    the traced pass's session and tenant counts describe the first round.
    """

    name = "cold-shapes"

    def __init__(self, seed, **options):
        super().__init__(seed, **options)
        self.shapes = generate.cold_shapes(self.seed)

    def _open_server(self, epoch: int) -> Server:
        return Server(OPEN_BUDGET, planner=self.planner, workers=WORKERS,
                      random_state=self.seed * 1000 + epoch)

    def setup(self) -> Server:
        self.planner = Planner(cache=PlanCache(max_entries=2))
        server = self._open_server(0)
        for spec in COLD_WARMUP:
            workload = generate.build_workload(spec)
            server.ask("warmup", workload, epsilon=COLD_EPSILON, delta=COLD_DELTA,
                       data=np.ones(generate.shape_cells(spec)))
        return server

    def run_clients(self, server, seconds):
        self._server = server
        self._index = 0
        self._stop = False
        self._current = None
        self._answers: list = [None] * CLIENTS
        self._sent_shapes: list[str] = []
        self._band = RmseBand()
        self._inconsistent = 0
        self.ratios: list[float] = []
        self._paid: dict[str, float] = {}
        self._spend: list[dict] = []
        self._deadline = _now() + seconds
        self._barrier = threading.Barrier(CLIENTS, action=self._prepare)
        try:
            records = super().run_clients(server, seconds)
            self._check_current()
            self._close_round()
        finally:
            if self._server is not server:
                self._server.close()
        return records

    def _check_current(self) -> None:
        """Check the answers both tenants got for the shape just served."""
        if self._current is None:
            return
        workload, data, _ = self._current
        exact = workload.matrix @ data
        for client, answer in enumerate(self._answers):
            if answer is None:
                continue
            tenant = f"cold-{client}"
            self._paid[tenant] = self._paid.get(tenant, 0.0) + answer.spent.epsilon
            if not _consistent(answer.answers, workload.matrix, answer.estimate):
                self._inconsistent += 1
            self._band.add(answer.answers, exact, answer.expected_error)
            self.ratios.append(identity_ratio(answer.plan))
        self._answers = [None] * CLIENTS
        self._current = None

    def _close_round(self) -> None:
        """Check the round's spend on its server."""
        self._spend.append(_spend_check(self._server, self._paid, OPEN_BUDGET))
        self._paid = {}

    def _prepare(self) -> None:
        """Barrier action: check the last shape, then build the next or stop."""
        started = _now()
        try:
            self._check_current()
            at_round_start = self._index % len(generate.COLD_FAMILIES) == 0
            if self._index >= len(self.shapes) or (at_round_start and _now() >= self._deadline):
                self._stop = True
                return
            if at_round_start and self._index > 0:
                self._close_round()
                previous, self._server = self._server, self._open_server(self._index)
                if self._index > len(generate.COLD_FAMILIES):
                    previous.close()  # the set-up server is closed on teardown
                # A server and its sessions reference each other, so their
                # plans and answers are freed only by the cycle collector.
                del previous
                gc.collect()
            spec = self.shapes[self._index]
            self._index += 1
            self._current = (
                generate.build_workload(spec), generate.shape_data(spec), spec["family"]
            )
            self._sent_shapes.append(generate.shape_key(spec))
        except BaseException:
            self._stop = True
            raise
        finally:
            self.client_seconds += _now() - started

    def client(self, server, client, deadline):
        tenant = f"cold-{client}"
        records = []
        while True:
            self._barrier.wait(timeout=300)
            if self._stop:
                return records
            workload, data, family = self._current
            record = _record(client, tenant)
            record["family"] = family
            self._dispatch(tenant, record)
            record["sent"] = _now()
            try:
                answer = self._server.submit(
                    tenant, workload, epsilon=COLD_EPSILON, delta=COLD_DELTA, data=data
                ).result()
                record["paid"] = answer.spent is not None
                self._answers[client] = answer
            except Exception as error:
                record["error"] = repr(error)
            record["done"] = _now()
            records.append(record)

    def check(self, server, records, plans_built):
        distinct = len(set(self._sent_shapes))
        return {
            "paid_consistent": {"ok": self._inconsistent == 0, "inconsistent": self._inconsistent},
            "paid_rmse_band": self._band.verdict(),
            "spend": {
                "ok": all(round_check["ok"] for round_check in self._spend),
                "rounds": len(self._spend),
            },
            "plans_built": {
                "ok": plans_built == distinct == len(self._sent_shapes),
                "plans_built": plans_built,
                "distinct_shapes": distinct,
            },
        }


# ----------------------------------------------------------------- paid-refresh
class PaidRefresh(Bench):
    """A warm 2048-cell prefix plan; every refresh brings a new data snapshot.

    The library caller holds its ``Workload`` object and sends the same one
    every time, so the engine's identity-keyed memos hit.  The state store is
    on, so every paid answer writes the budget ledger.
    """

    name = "paid-refresh"

    def __init__(self, seed, **options):
        super().__init__(seed, **options)
        cells = 256 if self.smoke else generate.REFRESH_CELLS
        self.requests = generate.paid_refresh(self.seed, cells=cells)

    def setup(self) -> Server:
        self.store = self._store()
        server = Server(OPEN_BUDGET, workers=WORKERS, random_state=self.seed, store=self.store)
        self.workload = prefix_workload(self.requests["cells"])
        snapshot = self.requests["snapshots"][0]
        server.ask("warmup", self.workload, epsilon=generate.REFRESH_EPSILON,
                   delta=generate.REFRESH_DELTA, data=snapshot)
        return server

    def client(self, server, client, deadline):
        snapshots = self.requests["snapshots"]
        records = []
        for request in self.requests["requests"][client]:
            if _now() >= deadline:
                break
            tenant = request["tenant"]
            record = _record(client, tenant)
            record["snapshot"] = request["snapshot"]
            self._dispatch(tenant, record)
            record["sent"] = _now()
            try:
                answer = server.submit(
                    tenant,
                    self.workload,
                    epsilon=request["epsilon"],
                    delta=request["delta"],
                    data=snapshots[request["snapshot"]],
                ).result()
                record["paid"] = answer.spent is not None
                record["epsilon"] = 0.0 if answer.spent is None else answer.spent.epsilon
                record["answer"] = answer
            except Exception as error:
                record["error"] = repr(error)
            record["done"] = _now()
            records.append(record)
        return records

    def check(self, server, records, plans_built):
        matrix = self.workload.matrix
        snapshots = self.requests["snapshots"]
        band, inconsistent, paid = RmseBand(), 0, {}
        self.ratios = []
        for record in records:
            answer = record.get("answer")
            if answer is None:
                continue
            paid[record["tenant"]] = paid.get(record["tenant"], 0.0) + record["epsilon"]
            if not _consistent(answer.answers, matrix, answer.estimate):
                inconsistent += 1
            band.add(answer.answers, matrix @ snapshots[record["snapshot"]], answer.expected_error)
            self.ratios.append(identity_ratio(answer.plan))
        spend = _spend_check(server, paid, OPEN_BUDGET)
        ledger = {t: self.store.ledger_spent(t)[0] for t in paid}
        spend["ledger_ok"] = all(math.isclose(ledger[t], paid[t], rel_tol=1e-9) for t in paid)
        spend["ok"] = spend["ok"] and spend["ledger_ok"]
        return {
            "paid_consistent": {"ok": inconsistent == 0, "inconsistent": inconsistent},
            "paid_rmse_band": band.verdict(),
            "spend": spend,
            "plans_built": {"ok": plans_built == 0, "plans_built": plans_built},
        }


# ---------------------------------------------------------------- sql-dashboard
class SqlDashboard(Bench):
    """JSON lines over a 1024-cell schema: a paid dashboard per new tenant,
    then free SQL drill-downs derived from that tenant's release."""

    name = "sql-dashboard"

    def __init__(self, seed, **options):
        super().__init__(seed, **options)
        rows = 5_000 if self.smoke else generate.SQL_ROWS
        self.columns = generate.sql_relation_columns(self.seed, rows=rows)
        self.requests = generate.sql_dashboard(
            self.seed, tenants_per_client=8 if self.smoke else 400
        )
        self.schema = generate.build_schema()

    def setup(self) -> Server:
        relation = Relation(self.columns, name=generate.SQL_TABLE)
        server = Server(
            SQL_BUDGET,
            schema=self.schema,
            data=relation,
            workers=WORKERS,
            random_state=self.seed,
            store=self._store(),
        )
        warm = self.requests["lines"][0][:2]
        for line in warm:
            payload = json.loads(line)
            payload["tenant"] = "warmup"
            server.handle_request(json.dumps(payload))
        return server

    def client(self, server, client, deadline):
        records = []
        for index, line in enumerate(self.requests["lines"][client]):
            if _now() >= deadline:
                break
            record = _record(client, json.loads(line)["tenant"])
            record["line"] = index
            self._dispatch(id(line), record)
            record["sent"] = _now()
            reply = server.serve([line])[0]
            record["done"] = _now()
            record["reply"] = reply
            if "error" in reply:
                record["error"] = reply["error"]
            else:
                record["paid"] = reply["spent"] is not None
                record["free"] = bool(reply["served_from_release"])
                record["epsilon"] = 0.0 if reply["spent"] is None else reply["spent"]["epsilon"]
            records.append(record)
        return records

    def check(self, server, records, plans_built):
        # Paid answers are scored against this independent histogram, so a
        # wrong ingestion fails the RMSE band.
        truth = oracle_data_vector(self.columns)
        dashboard, _ = workload_from_sql(self.schema, self.requests["dashboard"])
        matrix = dashboard.matrix
        band, paid, inconsistent, free_bad, free_checked = RmseBand(), {}, 0, 0, 0
        self.ratios = []
        for record in records:
            if record["error"] is not None:
                continue
            tenant = record["tenant"]
            release = server.session(tenant, create=False).history[0]
            answers = np.asarray(record["reply"]["answers"], dtype=float)
            if record["paid"]:
                paid[tenant] = paid.get(tenant, 0.0) + record["epsilon"]
                if not _consistent(answers, matrix, release.estimate):
                    inconsistent += 1
                band.add(answers, matrix @ truth, release.expected_error)
                self.ratios.append(identity_ratio(release.plan))
            else:
                free_checked += 1
                rows = oracle_rows(self.requests["specs"][record["client"]][record["line"]])
                if release.spent is None or not _consistent(answers, rows, release.estimate):
                    free_bad += 1
        return {
            "paid_consistent": {"ok": inconsistent == 0, "inconsistent": inconsistent},
            "paid_rmse_band": band.verdict(),
            # Every follow-up must be derived: none answered is a failure.
            "free_equals_release": {
                "ok": free_checked > 0 and free_bad == 0,
                "checked": free_checked,
                "bad": free_bad,
            },
            "spend": _spend_check(server, paid, SQL_BUDGET),
            "plans_built": {"ok": plans_built == 0, "plans_built": plans_built},
        }


def _grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(region, age bucket, income bucket) of every cell, in schema order."""
    shape = (len(generate.SQL_REGIONS), len(generate.SQL_AGE_EDGES) - 1,
             len(generate.SQL_INCOME_EDGES) - 1)
    return tuple(index.ravel() for index in np.indices(shape))


def oracle_data_vector(columns: dict) -> np.ndarray:
    """The cell histogram of the generated relation, bucketed with numpy."""
    lookup = {name: index for index, name in enumerate(generate.SQL_REGIONS)}
    region = np.fromiter((lookup[name] for name in columns["region"]), dtype=int)
    age = (np.asarray(columns["age"]) // 5).astype(int)
    income = (np.asarray(columns["income"]) // 10).astype(int)
    shape = (len(generate.SQL_REGIONS), len(generate.SQL_AGE_EDGES) - 1,
             len(generate.SQL_INCOME_EDGES) - 1)
    flat = np.ravel_multi_index((region, age, income), shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).astype(float)


def oracle_rows(specs: list[dict]) -> np.ndarray:
    """Query rows of one follow-up, from its generator spec, not from SQL."""
    region, age, income = _grid()
    regions = generate.SQL_REGIONS
    rows = []
    for spec in specs:
        kind = spec["kind"]
        if kind == "age-region":
            rows.append((region == regions.index(spec["region"]))
                        & (age >= spec["low"] // 5) & (age < spec["high"] // 5))
        elif kind == "income-by-region":
            rows.extend((region == group) & (income >= spec["income"] // 10)
                        for group in range(len(regions)))
        elif kind == "regions-young":
            rows.append(np.isin(region, [regions.index(spec["region"]), regions.index(spec["other"])])
                        & (age < spec["high"] // 5))
        elif kind == "older-by-income":
            rows.extend((income == group) & (age >= spec["low"] // 5)
                        for group in range(len(generate.SQL_INCOME_EDGES) - 1))
        else:
            raise ValueError(f"unknown follow-up kind {kind!r}")
    return np.asarray(rows, dtype=float)


WORKLOADS = {bench.name: bench for bench in (ColdShapes, PaidRefresh, SqlDashboard)}
