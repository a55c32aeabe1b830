"""Tests for the query-answering engine: mechanisms, planner, cache, session."""

import numpy as np
import pytest

from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.core.error import expected_workload_error
from repro.domain.schema import CategoricalAttribute, NumericAttribute, Schema
from repro.engine import (
    BudgetExceededError,
    DirectMechanism,
    Mechanism,
    PlanCache,
    Planner,
    Session,
    StrategyMechanism,
    analyze_workload,
    workload_fingerprint,
)
from repro.exceptions import PrivacyError, ReproError, WorkloadError
from repro.mechanisms.laplace_matrix import expected_workload_error_l1
from repro.relational.sql import workload_from_sql
from repro.relational.vectorize import sample_relation
from repro.workloads import all_range_queries_1d

PRIVACY = PrivacyParams(epsilon=0.5, delta=1e-4)
PURE = PrivacyParams(epsilon=0.5, delta=0.0)


@pytest.fixture
def schema():
    return Schema(
        [
            CategoricalAttribute("gender", ["M", "F"]),
            NumericAttribute("gpa", [1.0, 2.0, 3.0, 3.5, 4.0]),
        ]
    )


@pytest.fixture
def data():
    return np.array([10.0, 25.0, 30.0, 5.0, 8.0, 22.0, 41.0, 9.0])


# ---------------------------------------------------------------- mechanisms
class TestMechanismProtocol:
    def test_strategy_mechanism_satisfies_protocol(self):
        mechanism = StrategyMechanism(Strategy.identity(4))
        assert isinstance(mechanism, Mechanism)
        assert mechanism.releases_estimate

    def test_direct_mechanism_satisfies_protocol(self):
        mechanism = DirectMechanism("gaussian")
        assert isinstance(mechanism, Mechanism)
        assert not mechanism.releases_estimate

    def test_strategy_mechanism_expected_error_matches_core(self):
        workload = all_range_queries_1d(16)
        strategy = Strategy.identity(16)
        mechanism = StrategyMechanism(strategy)
        assert mechanism.expected_error(workload, PRIVACY) == pytest.approx(
            expected_workload_error(workload, strategy, PRIVACY)
        )
        assert mechanism.expected_error(workload, PURE) == pytest.approx(
            expected_workload_error_l1(workload, strategy, PURE)
        )

    def test_strategy_mechanism_runs_both_regimes(self):
        workload = Workload.identity(8)
        mechanism = StrategyMechanism(Strategy.identity(8))
        x = np.arange(8.0)
        gaussian = mechanism.run(workload, x, PRIVACY, random_state=0)
        laplace = mechanism.run(workload, x, PURE, random_state=0)
        assert gaussian.estimate is not None and laplace.estimate is not None
        np.testing.assert_allclose(gaussian.answers, workload.answer(gaussian.estimate))
        np.testing.assert_allclose(laplace.answers, workload.answer(laplace.estimate))
        assert gaussian.mechanism == laplace.mechanism == mechanism.name

    def test_direct_gaussian_rejects_pure_regime(self):
        workload = Workload.identity(4)
        assert not DirectMechanism("gaussian").supports(workload, PURE)
        assert DirectMechanism("laplace").supports(workload, PURE)

    def test_direct_mechanism_expected_error_is_noise_scale(self):
        workload = Workload.identity(4)
        assert DirectMechanism("gaussian").expected_error(
            workload, PRIVACY
        ) == pytest.approx(PRIVACY.gaussian_scale(1.0))

    def test_direct_mechanism_unknown_kind(self):
        with pytest.raises(PrivacyError):
            DirectMechanism("cauchy")


# ------------------------------------------------------------------- planner
class TestPlanner:
    def test_plan_picks_lowest_error_candidate(self):
        workload = all_range_queries_1d(16)
        planner = Planner(cache=None)
        plan = planner.plan(workload, PRIVACY)
        chosen = [c for c in plan.candidates if c.chosen]
        assert len(chosen) == 1
        finite = [c.expected_error for c in plan.candidates if np.isfinite(c.expected_error)]
        assert chosen[0].expected_error == min(finite)
        assert plan.expected_error(PRIVACY) <= expected_workload_error(
            workload, Strategy.identity(16), PRIVACY
        ) * (1 + 1e-9)

    def test_plan_error_rescales_across_privacy_levels(self):
        workload = all_range_queries_1d(8)
        planner = Planner(cache=None)
        plan = planner.plan(workload, PRIVACY)
        strict = PrivacyParams(epsilon=0.1, delta=1e-5)
        strategy = plan.mechanism.strategy
        assert plan.expected_error(strict) == pytest.approx(
            expected_workload_error(workload, strategy, strict)
        )

    def test_plan_regime_mismatch_raises(self):
        workload = Workload.identity(4)
        planner = Planner(cache=None)
        plan = planner.plan(workload, PRIVACY)
        with pytest.raises(PrivacyError):
            plan.expected_error(PURE)
        with pytest.raises(PrivacyError):
            plan.execute(workload, np.zeros(4), PURE)

    def test_profile_reports_structure(self):
        kron = Workload.kronecker([all_range_queries_1d(8), Workload.identity(4)])
        profile = analyze_workload(kron)
        assert profile.is_kronecker
        assert profile.cells == 32
        flat = analyze_workload(Workload.identity(8))
        assert not flat.is_kronecker

    def test_fingerprint_is_content_addressed(self):
        a = all_range_queries_1d(16)
        b = all_range_queries_1d(16)
        c = all_range_queries_1d(32)
        assert workload_fingerprint(a) == workload_fingerprint(b)
        assert workload_fingerprint(a) != workload_fingerprint(c)
        # Kronecker workloads key on factor content, not object identity.
        ka = Workload.kronecker([all_range_queries_1d(8), Workload.identity(4)])
        kb = Workload.kronecker([all_range_queries_1d(8), Workload.identity(4)])
        assert workload_fingerprint(ka) == workload_fingerprint(kb)

    @pytest.mark.parametrize("order", ["C", "F", "int"])
    def test_array_digest_equals_the_byte_copy_digest(self, order):
        # Fingerprints key the durable store: hashing the array's buffer must
        # give the digest the former ``tobytes()`` copy gave.
        import hashlib

        from repro.engine.planner import _digest_array

        matrix = np.arange(12.0).reshape(3, 4) - 5.5
        if order == "F":
            matrix = np.asfortranarray(matrix)
        elif order == "int":
            matrix = np.arange(12).reshape(3, 4) - 5
        digest = hashlib.sha1()
        _digest_array(digest, matrix)
        dense = np.ascontiguousarray(np.asarray(matrix, dtype=float))
        expected = hashlib.sha1()
        expected.update(str(dense.shape).encode())
        expected.update(dense.tobytes())
        assert digest.hexdigest() == expected.hexdigest()

    def test_fingerprint_is_pinned(self):
        # A stored plan written by an earlier build keeps its key.
        assert (
            workload_fingerprint(all_range_queries_1d(16))
            == "1cf1b4f030703a9b3cca8e8514c839bce44bda0b"
        )

    def test_direct_mechanisms_only_without_estimate_requirement(self):
        workload = Workload.identity(8)
        with_estimate = Planner(cache=None).plan(workload, PRIVACY)
        assert all("direct" not in c.mechanism for c in with_estimate.candidates)
        relaxed = Planner(cache=None, require_estimate=False).plan(workload, PRIVACY)
        assert any("direct" in c.mechanism for c in relaxed.candidates)


class TestPlanCache:
    def test_warm_hit_skips_strategy_optimization(self):
        planner = Planner()
        cold = planner.plan(all_range_queries_1d(16), PRIVACY)
        assert planner.plans_built == 1
        warm = planner.plan(all_range_queries_1d(16), PRIVACY)
        assert planner.plans_built == 1  # the spy: no second optimization
        assert warm is cold
        assert planner.cache.stats["hits"] == 1

    def test_eigen_design_not_rerun_on_warm_hit(self, monkeypatch):
        import repro.engine.planner as planner_module

        calls = {"n": 0}
        real = planner_module.eigen_design

        def counting(workload, **kwargs):
            calls["n"] += 1
            return real(workload, **kwargs)

        monkeypatch.setattr(planner_module, "eigen_design", counting)
        planner = Planner()
        planner.plan(all_range_queries_1d(16), PRIVACY)
        planner.plan(all_range_queries_1d(16), PRIVACY)
        assert calls["n"] == 1

    def test_different_regimes_get_different_plans(self):
        planner = Planner()
        gaussian = planner.plan(Workload.identity(8), PRIVACY)
        laplace = planner.plan(Workload.identity(8), PURE)
        assert planner.plans_built == 2
        assert gaussian.regime == "gaussian" and laplace.regime == "laplace"

    def test_lru_eviction_and_stats(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.stats == {
            "entries": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "warmed": 0,
        }
        assert len(cache) == 2 and "c" in cache
        cache.clear()
        assert len(cache) == 0

    def test_cache_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


# ------------------------------------------------------------------- session
class TestSession:
    def test_sql_end_to_end_with_plan_cache(self, schema, data):
        statements = [
            "SELECT COUNT(*) FROM students",
            "SELECT COUNT(*) FROM students GROUP BY gender",
            "SELECT COUNT(*) FROM students WHERE gpa BETWEEN 2.0 AND 3.5",
        ]
        planner = Planner()
        first = Session(
            PrivacyParams(1.0, 1e-4), schema=schema, data=data,
            planner=planner, random_state=0,
        )
        answer = first.ask(statements, epsilon=0.5)
        assert answer.spent == PrivacyParams(0.5, 5e-5)
        assert not answer.plan_cache_hit and planner.plans_built == 1
        assert len(answer.answers) == len(answer.labels) == 4
        # Consistency: every answer derives from the released estimate.
        workload, _ = workload_from_sql(schema, statements)
        np.testing.assert_allclose(answer.answers, workload.answer(answer.estimate))

        second = Session(
            PrivacyParams(1.0, 1e-4), schema=schema, data=data,
            planner=planner, random_state=1,
        )
        warm = second.ask(statements, epsilon=0.5)
        assert warm.plan_cache_hit
        assert planner.plans_built == 1  # structurally identical shape: no re-optimization

    def test_overlapping_query_served_free(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data, random_state=0)
        paid = session.ask(
            ["SELECT COUNT(*) FROM s GROUP BY gender", "SELECT COUNT(*) FROM s"],
            epsilon=0.4,
        )
        spent_before = session.accountant.spent_epsilon
        free = session.ask("SELECT COUNT(*) FROM s WHERE gender = 'F'")
        assert free.served_from_release and free.spent is None
        assert session.accountant.spent_epsilon == spent_before
        # Served answers are consistent with the paid release's estimate.
        workload, _ = workload_from_sql(schema, ["SELECT COUNT(*) FROM s WHERE gender = 'F'"])
        np.testing.assert_allclose(free.answers, workload.answer(paid.estimate))

    def test_over_budget_request_refused_without_spending(self, schema, data):
        session = Session(PrivacyParams(0.5, 1e-4), schema=schema, data=data, random_state=0)
        with pytest.raises(BudgetExceededError):
            session.ask("SELECT COUNT(*) FROM s GROUP BY gpa", epsilon=0.7)
        assert session.accountant.spent_epsilon == 0.0
        assert session.accountant.spent_delta == 0.0
        # The session remains usable for affordable requests.
        ok = session.ask("SELECT COUNT(*) FROM s GROUP BY gpa", epsilon=0.5)
        assert ok.spent is not None

    def test_budget_exhaustion_over_requests(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data, random_state=0)
        session.ask("SELECT COUNT(*) FROM s GROUP BY gpa", epsilon=0.6)
        with pytest.raises(BudgetExceededError):
            # Not answerable from the release (different marginal), too expensive.
            session.ask("SELECT COUNT(*) FROM s GROUP BY gender, gpa", epsilon=0.6)
        remaining = session.remaining
        assert remaining is not None and remaining.epsilon == pytest.approx(0.4)

    def test_raw_matrix_and_workload_requests(self, data):
        session = Session(PrivacyParams(1.0, 1e-4), data=data, random_state=0)
        from_matrix = session.ask(np.eye(8), epsilon=0.3)
        assert from_matrix.labels[0] == "query[0]"
        from_workload = session.ask(Workload.identity(8, name="cells"), epsilon=0.3)
        # The identity release determines every cell, so this is served free.
        assert from_workload.served_from_release

    def test_batched_requests_share_one_release(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data, random_state=0)
        answers = session.ask_batch(
            [
                "SELECT COUNT(*) FROM s GROUP BY gender",
                np.ones((1, 8)),
                Workload.total(8, name="sum"),
            ],
            epsilon=0.5,
        )
        assert len(answers) == 3
        assert all(a.batch_size == 3 for a in answers)
        assert session.accountant.spent_epsilon == pytest.approx(0.5)
        assert len(session.accountant.history) == 1
        # One x_hat serves the whole batch: the two total queries agree, and
        # the gender marginal sums to the total.
        np.testing.assert_allclose(answers[1].answers, answers[2].answers)
        np.testing.assert_allclose(answers[0].answers.sum(), answers[2].answers[0])

    def test_batch_rejects_mismatched_cells(self, data):
        session = Session(PrivacyParams(1.0, 1e-4), data=data, random_state=0)
        with pytest.raises(WorkloadError):
            session.ask_batch([np.eye(8), np.eye(4)], epsilon=0.2)

    def test_session_requires_schema_for_sql(self, data):
        session = Session(PrivacyParams(1.0, 1e-4), data=data)
        with pytest.raises(ReproError):
            session.ask("SELECT COUNT(*) FROM s", epsilon=0.1)

    def test_session_requires_epsilon_or_default(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data)
        with pytest.raises(ReproError):
            session.ask("SELECT COUNT(*) FROM s GROUP BY gpa")
        with_default = Session(
            PrivacyParams(1.0, 1e-4), schema=schema, data=data,
            default_epsilon=0.25, random_state=0,
        )
        answer = with_default.ask("SELECT COUNT(*) FROM s GROUP BY gpa")
        assert answer.spent.epsilon == 0.25

    def test_session_requires_data(self, schema):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema)
        with pytest.raises(ReproError):
            session.ask("SELECT COUNT(*) FROM s", epsilon=0.2)

    def test_relation_data_is_vectorised(self, schema):
        relation = sample_relation(schema, 500, random_state=3)
        session = Session(
            PrivacyParams(2.0, 1e-4), schema=schema, data=relation, random_state=0
        )
        answer = session.ask("SELECT COUNT(*) FROM s", epsilon=1.5, per_query=True)
        assert answer.answers.shape == (1,)
        assert abs(answer.answers[0] - 500) < 100  # noisy count near the truth
        assert answer.per_query_expected is not None

    def test_rejects_unintelligible_request(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data)
        with pytest.raises(ReproError):
            session.ask({"not": "a request"}, epsilon=0.1)

    def test_pure_epsilon_session(self, schema, data):
        session = Session(PrivacyParams(1.0, 0.0), schema=schema, data=data, random_state=0)
        answer = session.ask("SELECT COUNT(*) FROM s GROUP BY gender", epsilon=0.8)
        assert answer.spent == PrivacyParams(0.8, 0.0)
        assert answer.plan.regime == "laplace"

    def test_per_request_data_bypasses_release_reuse(self, schema, data):
        # A release computed on the session's data must not answer a request
        # that brings its own data (and vice versa): cross-data reuse would
        # silently answer about the wrong dataset.
        session = Session(PrivacyParams(2.0, 1e-4), schema=schema, data=data, random_state=0)
        session.ask(np.eye(8), epsilon=0.5)  # full-rank release on session data
        other = np.zeros(8)
        paid = session.ask(np.ones((1, 8)), epsilon=0.5, data=other)
        assert not paid.served_from_release and paid.spent is not None
        assert abs(paid.answers[0]) < 50  # answers the zero vector, not `data`
        # ... and the foreign-data release was not recorded for reuse:
        on_session_data = session.ask(np.ones((1, 8)))
        assert on_session_data.served_from_release
        np.testing.assert_allclose(
            on_session_data.answers,
            np.ones((1, 8)) @ session.history[0].estimate,
        )

    def test_one_factorization_serves_every_privacy_setting(self, monkeypatch):
        import scipy.linalg

        import repro.mechanisms.matrix_mechanism as matrix_module
        from repro.engine import Server
        from repro.mechanisms import MatrixMechanism

        workload = all_range_queries_1d(16)
        settings = [(0.1 * (i + 1), 10.0 ** -(4 + i % 3)) for i in range(8)]
        calls = {"cholesky": 0, "cho_factor": 0, "max_column_norm": 0, "supports": 0}
        released = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        def recorded(original):
            def wrapper(self, workload, data, privacy=None, **kwargs):
                result = original(self, workload, data, privacy, **kwargs)
                released.append((privacy, result.noise_scale))
                return result

            return wrapper

        with Server(PrivacyParams(100.0, 0.5), workers=1, random_state=0) as server:
            plan = server.planner.plan(workload, PrivacyParams(*settings[0]))
            for name in ("cholesky", "cho_factor"):
                monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
            monkeypatch.setattr(
                matrix_module,
                "max_column_norm",
                counted("max_column_norm", matrix_module.max_column_norm),
            )
            monkeypatch.setattr(Strategy, "supports", counted("supports", Strategy.supports))
            monkeypatch.setattr(MatrixMechanism, "run", recorded(MatrixMechanism.run))
            for epsilon, delta in settings:
                answer = server.ask(
                    "t", workload, epsilon=epsilon, delta=delta, data=np.arange(16.0)
                )
                assert answer.plan is plan and answer.spent == PrivacyParams(epsilon, delta)
        # Pricing the plan already factored the chosen strategy, and the
        # mechanism reuses that factor: the only Cholesky left is the support
        # check's own, once per workload.  One mechanism per setting would
        # make 8 of each.
        assert calls == {"cholesky": 1, "cho_factor": 0, "max_column_norm": 1, "supports": 1}
        matrix = plan.mechanism.strategy.matrix
        column_norm = max(
            np.sqrt(sum(row[j] ** 2 for row in matrix.tolist())) for j in range(16)
        )
        assert [params for params, _ in released] == [PrivacyParams(*s) for s in settings]
        for params, noise_scale in released:
            assert noise_scale == pytest.approx(params.gaussian_scale(column_norm), rel=1e-12)

    def test_history_records_every_answer(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data, random_state=0)
        session.ask("SELECT COUNT(*) FROM s GROUP BY gender", epsilon=0.3)
        session.ask("SELECT COUNT(*) FROM s WHERE gender = 'M'")
        assert len(session.history) == 2
        assert session.history[1].served_from_release
        assert session.releases == 1

    def test_failed_execution_refunds_the_reservation(self, data, monkeypatch):
        # The budget is reserved atomically *before* the mechanism runs; a
        # failure mid-execution (no noise drawn) must hand it back and leave
        # the session usable.
        from repro.engine.planner import Plan

        session = Session(PrivacyParams(1.0, 1e-4), data=data, random_state=0)

        def boom(self, *args, **kwargs):
            raise RuntimeError("mid-execution failure")

        monkeypatch.setattr(Plan, "execute", boom)
        with pytest.raises(RuntimeError):
            session.ask(np.eye(8), epsilon=0.4)
        assert session.accountant.spent_epsilon == 0.0
        assert session.accountant.history == []
        monkeypatch.undo()
        ok = session.ask(np.eye(8), epsilon=0.4)
        assert ok.spent is not None


# --------------------------------------------------- batch / union identity
class TestSingleRequestBatch:
    def test_union_of_one_preserves_identity_and_fingerprint(self):
        lazy = Workload.kronecker([Workload.identity(16)] * 3)  # 4096 cells, lazy
        assert Workload.union([lazy]) is lazy
        renamed = Workload.union([lazy], name="batch")
        assert renamed.name == "batch"
        assert renamed._kron_factors is lazy._kron_factors
        assert workload_fingerprint(renamed) == workload_fingerprint(lazy)

    def test_single_request_batch_hits_warm_plan_cache(self):
        # The same Kronecker shape, once asked plainly and once as a batch
        # of one: the batch must not wrap the request in a union (which
        # would change the fingerprint from kron-keyed to matrix-keyed) and
        # must hit the warm plan.
        def shape():
            return Workload.kronecker([Workload.identity(8), Workload.identity(4)])

        planner = Planner()
        data = np.arange(32, dtype=float)
        first = Session(
            PrivacyParams(1.0, 1e-4), data=data, planner=planner, random_state=0
        )
        first.ask(shape(), epsilon=0.3)
        assert planner.plans_built == 1
        second = Session(
            PrivacyParams(1.0, 1e-4), data=data, planner=planner, random_state=1
        )
        [answer] = second.ask_batch([shape()], epsilon=0.3)
        assert answer.plan_cache_hit
        assert planner.plans_built == 1  # no re-optimization for the warm shape
        assert answer.batch_size == 1
        assert len(second.history) == 1

    def test_single_sql_batch_keeps_labels(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data, random_state=0)
        [answer] = session.ask_batch(["SELECT COUNT(*) FROM s GROUP BY gender"], epsilon=0.4)
        assert answer.labels == ["gender = 'M'", "gender = 'F'"]
        assert answer.spent == PrivacyParams(0.4, 4e-5)
        assert session.accountant.history[0][0] == "sql-workload"

    def test_workload_labels_built_once_per_name(self, schema, data):
        session = Session(PrivacyParams(1.0, 1e-4), schema=schema, data=data, random_state=0)
        workload = all_range_queries_1d(8)
        workload.name = "ranges"
        first = session.ask(workload, epsilon=0.2, data=data)
        second = session.ask(workload, epsilon=0.2, data=data)
        assert first.labels is second.labels
        assert first.labels[:2] == ("ranges[0]", "ranges[1]")
        assert len(first.labels) == workload.query_count
        workload.name = "renamed"
        renamed = session.ask(workload, epsilon=0.2, data=data)
        assert renamed.labels[0] == "renamed[0]"
        assert first.labels[0] == "ranges[0]"
        sql = session.ask("SELECT COUNT(*) FROM s GROUP BY gender", epsilon=0.2)
        assert sql.labels == ["gender = 'M'", "gender = 'F'"]


# ------------------------------------------------- reuse probe at scale
class TestReuseProbeNeverDensifies:
    def _rank_deficient_release(self):
        from repro.engine.session import _Release
        from repro.utils.operators import EigenDiagOperator, KroneckerEigenbasis

        basis = KroneckerEigenbasis.from_gram_factors([np.eye(16)] * 3)
        spectrum = np.ones((16, 16, 16))
        spectrum[:, :, 15] = 0.0  # dead coordinates: last factor's last cell
        strategy = Strategy.from_gram_operator(
            EigenDiagOperator(basis, spectrum.ravel()), name="rank-deficient"
        )
        return _Release(
            strategy=strategy,
            estimate=np.zeros(4096),
            params=PRIVACY,
            label="release",
        )

    def test_no_densify_at_n4096(self, monkeypatch):
        # The reuse probe of a rank-deficient release must decide support
        # through the structured path: every densification entry point is
        # patched to fail, so the probe provably never builds an n x n array
        # (16.7M entries at n = 4096) just to decide reuse.
        from repro.utils import operators as ops

        def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("dense materialisation in the reuse probe")

        monkeypatch.setattr(ops.KroneckerOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.EigenDiagOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.SumOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.StructuredGramMixin, "_densify_structured_gram", forbidden)

        session = Session(PrivacyParams(1.0, 1e-4), data=np.zeros(4096))
        session._releases.append(self._rank_deficient_release())

        # Supported: no workload mass on the dead coordinates -> served free.
        last = np.eye(16)
        last[15, 15] = 0.0
        supported = Workload.kronecker(
            [Workload.identity(16), Workload.identity(16), Workload(last)]
        )
        served = session._serve_from_release(supported)
        assert served is not None and served.served_from_release

        # Unsupported: mass on the dead coordinates -> correctly refused.
        unsupported = Workload.kronecker([Workload.identity(16)] * 3)
        assert session._serve_from_release(unsupported) is None

        # No structured match (a union Gram): the probe treats the release
        # as unsupported instead of densifying to find out.
        union = Workload.union([supported, unsupported])
        assert session._serve_from_release(union) is None

    def test_structured_probe_agrees_with_dense_oracle_at_small_n(self):
        # Same construction at n = 27, where the dense answer is affordable:
        # the structured verdicts must match Strategy.supports on the dense
        # Gram matrices.
        from repro.utils.operators import EigenDiagOperator, KroneckerEigenbasis

        basis = KroneckerEigenbasis.from_gram_factors([np.eye(3)] * 3)
        spectrum = np.ones((3, 3, 3))
        spectrum[:, :, 2] = 0.0
        strategy = Strategy.from_gram_operator(EigenDiagOperator(basis, spectrum.ravel()))
        last = np.eye(3)
        last[2, 2] = 0.0
        supported = Workload.kronecker(
            [Workload.identity(3), Workload.identity(3), Workload(last)]
        )
        unsupported = Workload.kronecker([Workload.identity(3)] * 3)
        for workload in (supported, unsupported):
            assert strategy.supports_workload(workload) == strategy.supports(
                workload.gram
            )
