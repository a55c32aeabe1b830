"""Concurrency stress tests: the serving layer and every piece of shared state.

The invariants the serving layer (PR 5) must hold under N threads hammering
one shared engine:

* **budgets are never oversubscribed** — the accountant's atomic
  ``charge`` closes the ``can_spend``/``spend`` race, so the number of
  requests that squeeze through a budget is exactly the single-threaded
  count, however many threads race;
* **plan-cache stats stay consistent** — ``hits + misses`` equals the
  number of lookups (no lost increments), entries never exceed the bound;
* **one optimization per fingerprint** — concurrent misses on the same
  workload shape serialize on the planner's build gate and share one
  strategy optimization (asserted with a spy on ``eigen_design``);
* **answers match the single-threaded oracle** — the same seeded requests
  produce bit-identical answers whether they ran on 8 threads or 1.
"""

import io
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.engine import BudgetExceededError, PlanCache, Planner, Server, Session
from repro.mechanisms.accountant import PrivacyAccountant
from repro.relational.relation import Relation
from repro.relational.vectorize import data_vector, infer_schema, sample_relation
from repro.workloads import all_range_queries_1d

PRIVACY = PrivacyParams(epsilon=0.5, delta=1e-4)

THREADS = 8

# A wedged lock or a lost wakeup in this module means a hang, not a failure;
# the timeout marker (pytest-timeout in CI, the conftest SIGALRM fallback
# locally) turns that into a diagnosable error.
pytestmark = pytest.mark.timeout(120)


def _run_threads(count, work):
    """Run ``work(index)`` on ``count`` threads after a common barrier."""
    barrier = threading.Barrier(count)
    errors = []

    def runner(index):
        barrier.wait()
        try:
            work(index)
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ------------------------------------------------------------- accountant
class TestAccountantAtomicity:
    def test_concurrent_charges_never_oversubscribe(self):
        accountant = PrivacyAccountant(PrivacyParams(1.0, 1e-4))
        request = PrivacyParams(0.3, 1e-5)
        outcomes = []
        lock = threading.Lock()

        def work(index):
            try:
                accountant.charge(request, label=f"t{index}")
                ok = True
            except BudgetExceededError:
                ok = False
            with lock:
                outcomes.append(ok)

        _run_threads(16, work)
        # Exactly floor(1.0 / 0.3) = 3 charges fit, however the threads race.
        assert sum(outcomes) == 3
        assert accountant.spent_epsilon == pytest.approx(0.9)
        assert accountant.spent_epsilon <= accountant.budget.epsilon + 1e-12
        assert len(accountant.history) == 3

    def test_refused_charge_mutates_nothing(self):
        accountant = PrivacyAccountant(PrivacyParams(0.5, 1e-4))
        with pytest.raises(BudgetExceededError):
            accountant.charge(PrivacyParams(0.7, 0.0))
        assert accountant.spent_epsilon == 0.0
        assert accountant.spent_delta == 0.0
        assert accountant.history == []

    def test_refund_restores_the_reservation(self):
        accountant = PrivacyAccountant(PrivacyParams(1.0, 1e-4))
        request = PrivacyParams(0.6, 1e-5)
        accountant.charge(request, label="r")
        accountant.refund(request, label="r")
        assert accountant.spent_epsilon == pytest.approx(0.0)
        assert accountant.history == []
        # The freed budget is genuinely spendable again.
        accountant.charge(request, label="again")
        assert accountant.spent_epsilon == pytest.approx(0.6)

    def test_delta_exhaustion_is_also_race_free(self):
        accountant = PrivacyAccountant(PrivacyParams(100.0, 2e-5))
        request = PrivacyParams(0.1, 1e-5)
        outcomes = []
        lock = threading.Lock()

        def work(index):
            try:
                accountant.charge(request)
                ok = True
            except BudgetExceededError:
                ok = False
            with lock:
                outcomes.append(ok)

        _run_threads(12, work)
        assert sum(outcomes) == 2  # only two 1e-5 deltas fit in 2e-5
        assert accountant.spent_delta <= accountant.budget.delta + 1e-15


# -------------------------------------------------------------- plan cache
class TestPlanCacheConcurrency:
    def test_counters_lose_no_increments(self):
        cache = PlanCache(max_entries=4)
        lookups_per_thread = 200

        def work(index):
            for i in range(lookups_per_thread):
                key = f"k{(index + i) % 8}"
                if cache.get(key) is None:
                    cache.put(key, f"plan-{key}")

        _run_threads(THREADS, work)
        assert cache.hits + cache.misses == THREADS * lookups_per_thread
        assert len(cache) <= 4
        stats = cache.stats
        assert stats["hits"] == cache.hits and stats["misses"] == cache.misses

    def test_peek_counts_nothing(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", 1)
        assert cache.peek("a") == 1 and cache.peek("missing") is None
        assert cache.hits == 0 and cache.misses == 0


# ----------------------------------------------------------------- planner
class TestSingleOptimizationPerFingerprint:
    def test_concurrent_misses_share_one_build(self, monkeypatch):
        import repro.engine.planner as planner_module

        calls = []
        lock = threading.Lock()
        real = planner_module.eigen_design

        def spy(workload, **options):
            with lock:
                calls.append(workload)
            return real(workload, **options)

        monkeypatch.setattr(planner_module, "eigen_design", spy)
        planner = Planner()
        plans = [None] * THREADS

        def work(index):
            plans[index] = planner.plan(all_range_queries_1d(32), PRIVACY)

        _run_threads(THREADS, work)
        # One strategy optimization, one plan object, served to everyone.
        assert len(calls) == 1
        assert planner.plans_built == 1
        assert all(plan is plans[0] for plan in plans)
        # Exactly one counted lookup per plan() call.
        cache = planner.cache
        assert cache.hits + cache.misses == THREADS

    def test_distinct_fingerprints_build_in_parallel(self):
        planner = Planner()
        sizes = [8, 12, 16, 24]

        def work(index):
            planner.plan(all_range_queries_1d(sizes[index % len(sizes)]), PRIVACY)

        _run_threads(THREADS, work)
        assert planner.plans_built == len(sizes)
        assert planner.cache.hits + planner.cache.misses == THREADS


# ------------------------------------------------------------------ server
class TestServerStress:
    def test_tenant_budgets_never_oversubscribed(self):
        cells = 16
        data = np.arange(cells, dtype=float)
        server = Server(
            PrivacyParams(1.0, 1e-4), data=data, workers=THREADS, random_state=0
        )
        tenants = [f"tenant-{i}" for i in range(4)]
        for tenant in tenants:
            server.open_session(tenant)
        request = PrivacyParams(0.3, 1e-5)
        outcomes = {tenant: [] for tenant in tenants}
        lock = threading.Lock()

        def work(index):
            tenant = tenants[index % len(tenants)]
            try:
                # data= forces a paid run (reuse is skipped), so every
                # success is a genuine debit.
                server.ask(
                    tenant,
                    np.eye(cells),
                    epsilon=request.epsilon,
                    delta=request.delta,
                    data=data,
                    random_state=index,
                )
                ok = True
            except BudgetExceededError:
                ok = False
            with lock:
                outcomes[tenant].append(ok)

        # 6 attempts per tenant; only floor(1.0/0.3) = 3 may succeed.
        _run_threads(24, work)
        server.close()
        for tenant in tenants:
            session = server.session(tenant, create=False)
            assert sum(outcomes[tenant]) == 3
            assert session.accountant.spent_epsilon <= 1.0 + 1e-9
            assert session.accountant.spent_delta <= 1e-4 + 1e-15

    def test_cache_stats_and_single_optimization_under_load(self, monkeypatch):
        import repro.engine.planner as planner_module

        calls = []
        lock = threading.Lock()
        real = planner_module.eigen_design

        def spy(workload, **options):
            with lock:
                calls.append(workload_key(workload))
            return real(workload, **options)

        def workload_key(workload):
            return planner_module.workload_fingerprint(workload)

        monkeypatch.setattr(planner_module, "eigen_design", spy)
        cells = 16
        data = np.arange(cells, dtype=float)
        server = Server(
            PrivacyParams(50.0, 1e-2), data=data, workers=THREADS, random_state=0
        )
        tenants = [f"tenant-{i}" for i in range(4)]
        for tenant in tenants:
            server.open_session(tenant)
        shapes = [all_range_queries_1d(cells), Workload.identity(cells)]
        requests = 32

        def work(index):
            server.ask(
                tenants[index % len(tenants)],
                shapes[index % len(shapes)],
                epsilon=0.05,
                data=data,
                random_state=index,
            )

        _run_threads(requests, work)
        server.close()
        cache = server.planner.cache
        # hits + misses equals lookups: one counted lookup per paid request.
        assert cache.hits + cache.misses == requests
        # No duplicate strategy optimization for the same fingerprint.
        assert len(calls) == len(set(calls)) == len(shapes)
        assert server.planner.plans_built == len(shapes)

    def test_threaded_answers_match_single_threaded_oracle(self):
        cells = 16
        data = np.arange(cells, dtype=float) * 2.0
        shapes = [all_range_queries_1d(cells), Workload.identity(cells)]
        requests = [
            (f"tenant-{i % 3}", shapes[i % len(shapes)], 100 + i) for i in range(18)
        ]

        def run_server(workers):
            planner = Planner()
            server = Server(
                PrivacyParams(10.0, 1e-3),
                data=data,
                planner=planner,
                workers=workers,
                random_state=0,
            )
            entries = [
                (
                    tenant,
                    workload,
                    {"epsilon": 0.2, "data": data, "random_state": seed},
                )
                for tenant, workload, seed in requests
            ]
            answers = server.ask_many(entries)
            server.close()
            return [answer.answers for answer in answers]

        threaded = run_server(workers=THREADS)
        oracle = run_server(workers=1)
        for got, expected in zip(threaded, oracle):
            np.testing.assert_array_equal(got, expected)

    def test_free_reuse_is_consistent_under_concurrency(self):
        cells = 16
        data = np.arange(cells, dtype=float)
        server = Server(
            PrivacyParams(5.0, 1e-3), data=data, workers=THREADS, random_state=1
        )
        paid = server.ask("t", np.eye(cells), epsilon=1.0)
        answers = [None] * THREADS

        def work(index):
            answers[index] = server.ask("t", np.ones((1, cells)))

        _run_threads(THREADS, work)
        server.close()
        # Every free answer derives from the same released estimate.
        for answer in answers:
            assert answer.served_from_release and answer.spent is None
            np.testing.assert_allclose(
                answer.answers, np.ones((1, cells)) @ paid.estimate
            )
        session = server.session("t", create=False)
        assert session.accountant.spent_epsilon == pytest.approx(1.0)


# ---------------------------------------------------------------- sharding
class TestShardedExecution:
    def test_sharded_answers_match_unsharded(self):
        cells = 64
        estimate = np.random.default_rng(0).normal(size=cells)
        workload = Workload(np.tril(np.ones((cells, cells))), name="prefix")
        server = Server(
            PrivacyParams(1.0, 1e-4),
            data=np.zeros(cells),
            workers=3,
            shard_min_rows=8,
        )
        np.testing.assert_allclose(
            server.sharded_answers(workload, estimate), workload.answer(estimate)
        )
        # Lazy Kronecker workloads shard through the structured row operator.
        kron = Workload.kronecker(
            [Workload(np.eye(16)), Workload(np.eye(16)), Workload(np.eye(16))]
        )
        big_estimate = np.random.default_rng(1).normal(size=16**3)
        np.testing.assert_allclose(
            server.sharded_answers(kron, big_estimate), kron.answer(big_estimate)
        )
        server.close()

    def test_sharded_relation_ingestion_matches_oracle(self):
        schema = infer_schema(
            Relation({"color": ["red", "blue"] * 8, "size": np.arange(16.0)}),
            {"color": "categorical", "size": 4},
        )
        relation = sample_relation(schema, 500, random_state=3)
        oracle = data_vector(relation, schema)
        server = Server(
            PrivacyParams(1.0, 1e-4),
            schema=schema,
            data=relation,
            workers=4,
            shard_min_rows=32,
        )
        np.testing.assert_allclose(server._data, oracle)
        server.close()


# ----------------------------------------------- shared memo / registry locks
class TestSharedMemoLocks:
    def test_factor_eigh_memo_survives_concurrent_builders(self):
        from repro.utils.operators import KroneckerEigenbasis
        from repro.workloads.gram import all_range_gram

        grams = [all_range_gram(12), all_range_gram(8)]
        results = [None] * THREADS

        def work(index):
            basis = KroneckerEigenbasis.from_gram_factors(grams)
            results[index] = basis.sorted_values

        _run_threads(THREADS, work)
        for values in results[1:]:
            np.testing.assert_allclose(values, results[0])

    def test_concurrent_stochastic_traces_are_identical(self, monkeypatch):
        # A completed factorized design under a shrunk materialization budget
        # takes the CG + Hutch++ path even on 64 cells.  Concurrent first
        # evaluations on one strategy operator, each possibly computing and
        # storing the remembered trace, all return the single-threaded value.
        from repro.core import error as error_module
        from repro.core.eigen_design import eigen_design
        from repro.core.error import expected_workload_error
        from repro.core.strategy import Strategy
        from repro.utils import operators as ops
        from repro.utils.operators import EigenDiagOperator
        from repro.workloads import all_range_queries

        workload = all_range_queries([8, 8])
        design = eigen_design(workload, factorized=True)
        calls = []
        stochastic = error_module._stochastic_completed_trace

        def counted(*args):
            calls.append(1)
            return stochastic(*args)

        monkeypatch.setattr(error_module, "_stochastic_completed_trace", counted)
        monkeypatch.setattr(ops, "MATERIALIZATION_LIMIT", 1)
        expected = expected_workload_error(workload, design.strategy, PRIVACY)
        assert len(calls) == 1
        operator = design.strategy.gram_operator
        fresh = Strategy.from_gram_operator(
            EigenDiagOperator(operator.basis, operator.spectrum, operator.diag)
        )
        values = [None] * THREADS

        def work(index):
            values[index] = expected_workload_error(workload, fresh, PRIVACY)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(THREADS, work)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1 + THREADS
        assert values == [expected] * THREADS


# ------------------------------------------------------------ line protocol
class TestLineProtocolOrdering:
    def test_per_tenant_order_allows_release_reuse(self, tmp_path):
        schema = infer_schema(
            Relation({"color": ["red", "blue"] * 8}), {"color": "categorical"}
        )
        relation = sample_relation(schema, 200, random_state=0)
        server = Server(
            PrivacyParams(2.0, 1e-4),
            schema=schema,
            data=relation,
            workers=4,
            default_epsilon=0.5,
            random_state=0,
        )
        lines = [
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM t GROUP BY color"}',
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM t WHERE color = \'red\'"}',
            '{"tenant": "b", "sql": "SELECT COUNT(*) FROM t GROUP BY color"}',
            "not sql {",
        ]
        replies = server.serve(lines)
        server.close()
        assert [reply["tenant"] for reply in replies] == ["a", "a", "b", "default"]
        # Tenant a's second request ran after its first: served for free,
        # consistent with the marginal released one line earlier.
        assert replies[1]["served_from_release"] and replies[1]["spent"] is None
        red = dict(zip(replies[0]["labels"], replies[0]["answers"]))["color = 'red'"]
        assert replies[1]["answers"][0] == pytest.approx(red)
        # Tenant b shares tenant a's strategy optimization (they may race on
        # the same cold shape, in which case b waited on the build gate and
        # honestly reports no cache *hit* — but the optimization ran once),
        # while spending its own budget.
        assert server.planner.plans_built == 1
        assert replies[2]["spent"] is not None
        assert "error" in replies[3]

    @pytest.mark.parametrize("queue_depth", [None, 3])
    def test_stream_bookkeeping_survives_thread_switch_storms(self, queue_depth):
        """Many tenants, more workers than cores, a tiny switch interval:
        every line gets exactly one reply, written once, in input order."""
        tenants, per_tenant = 8, 40
        lines = [
            json.dumps({"tenant": f"t{index % tenants}", "sql": "not sql"})
            for index in range(tenants * per_tenant)
        ]
        out = io.StringIO()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Server(PRIVACY, workers=THREADS, queue_depth=queue_depth) as server:
                replies = server.serve(iter(lines), out=out)
        finally:
            sys.setswitchinterval(interval)
        expected = [json.loads(line)["tenant"] for line in lines]
        assert [reply["tenant"] for reply in replies] == expected
        assert [json.loads(line) for line in out.getvalue().splitlines()] == replies
        rejected = [reply for reply in replies if reply.get("rejected")]
        if queue_depth is None:
            assert rejected == []
        for reply in replies:
            assert "error" in reply
        assert all(reply["retry_after"] > 0 for reply in rejected)
