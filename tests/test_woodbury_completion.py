"""Woodbury-structured completion and matrix-free reductions vs dense oracles.

Property-based coverage of the structured *solve* subsystem: the exact
Woodbury trace and inverse-apply for completed designs (including
rank-deficient bases and unions), the preconditioned-CG + Hutch++ stochastic
fallback, the factorized singular-value baseline, the matrix-free Sec. 4.2
reductions, and the blocked per-query error paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.error as error_module
from repro import (
    PrivacyParams,
    Strategy,
    Workload,
    eigen_design,
    eigen_query_separation,
    expected_workload_error,
    per_query_error,
    principal_vectors,
    singular_value_strategy,
)
from repro.core.error import _completed_trace, _stochastic_completed_trace, _trace_core
from repro.exceptions import SingularStrategyError
from repro.utils.linalg import hutchpp_trace, pcg_solve, solve_psd, trace_ratio
from repro.utils.operators import (
    ColumnBlockConstraints,
    EigenDiagOperator,
    KroneckerConstraints,
    KroneckerOperator,
    StackedOperator,
    SumOperator,
    WoodburyOperator,
    kron_row_block,
)
from repro.workloads import all_range_queries

PRIVACY = PrivacyParams(0.5, 1e-4)


def dense_kron(mats):
    result = np.asarray(mats[0], dtype=float)
    for m in mats[1:]:
        result = np.kron(result, np.asarray(m, dtype=float))
    return result


def random_completed_operator(rng, sizes, *, rank_deficient=False):
    """A (workload Gram, completed strategy Gram) pair on a product domain."""
    factors = []
    for size in sizes:
        factor = rng.normal(size=(size, size))
        if rank_deficient:
            factor[:, 0] = 0.0
        factors.append(factor)
    grams = [f.T @ f for f in factors]
    workload_op = KroneckerOperator(grams, symmetric=True)
    basis = workload_op.eigenbasis()
    values = basis.values_natural
    top = values.max()
    spectrum = np.where(values > 1e-10 * top, rng.uniform(0.5, 2.0, size=basis.size), 0.0)
    r = int(rng.integers(1, min(6, basis.size)))
    cells = rng.choice(basis.size, size=r, replace=False)
    diag = np.zeros(basis.size)
    diag[cells] = rng.uniform(0.1, 1.0, size=r)
    return workload_op, EigenDiagOperator(basis, spectrum, diag)


class TestWoodburyTrace:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_full_rank_trace_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        workload_op, strategy_op = random_completed_operator(rng, [3, 4])
        woodbury = strategy_op.woodbury()
        structured = woodbury.trace_inverse_product(workload_op)
        dense = trace_ratio(workload_op.to_dense(), strategy_op.to_dense())
        assert structured == pytest.approx(dense, rel=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rank_deficient_trace_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        workload_op, strategy_op = random_completed_operator(rng, [3, 3], rank_deficient=True)
        structured = strategy_op.woodbury().trace_inverse_product(workload_op)
        dense = trace_ratio(workload_op.to_dense(), strategy_op.to_dense())
        assert structured == pytest.approx(dense, rel=1e-7, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_inverse_apply_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        _, strategy_op = random_completed_operator(rng, [3, 4])
        dense = strategy_op.to_dense()
        x = rng.normal(size=dense.shape[0])
        np.testing.assert_allclose(
            strategy_op.inverse_apply(x), np.linalg.solve(dense, x), atol=1e-8
        )
        batch = rng.normal(size=(dense.shape[0], 3))
        np.testing.assert_allclose(
            strategy_op.woodbury().inverse_apply(batch),
            np.linalg.solve(dense, batch),
            atol=1e-8,
        )

    def test_unsupported_workload_raises(self):
        rng = np.random.default_rng(3)
        grams = [f.T @ f for f in (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))]
        workload_op = KroneckerOperator(grams, symmetric=True)
        basis = workload_op.eigenbasis()
        # Strategy observes only one completion cell: the workload mass on the
        # unreachable dead space must be detected as unsupported.
        diag = np.zeros(basis.size)
        diag[0] = 1.0
        strategy_op = EigenDiagOperator(basis, np.zeros(basis.size), diag)
        with pytest.raises(SingularStrategyError):
            strategy_op.woodbury().trace_inverse_product(workload_op)

    def test_completion_serves_dead_space_mass(self):
        # A rank-1 workload whose only eigen-query got weight zero everywhere
        # except completion rows on *every* cell: the completed strategy is the
        # identity (plus the weighted eigen-query), so it supports anything.
        gram = np.ones((4, 4))
        workload_op = KroneckerOperator([gram], symmetric=True)
        basis = workload_op.eigenbasis()
        spectrum = np.where(basis.values_natural > 1e-10 * basis.values_natural.max(), 2.0, 0.0)
        diag = np.full(4, 0.5)
        strategy_op = EigenDiagOperator(basis, spectrum, diag)
        structured = strategy_op.woodbury().trace_inverse_product(workload_op)
        dense = trace_ratio(gram, strategy_op.to_dense())
        assert structured == pytest.approx(dense, rel=1e-9)

    def test_union_workload_distributes_over_completed_strategy(self):
        rng = np.random.default_rng(11)
        workload_op, strategy_op = random_completed_operator(rng, [3, 4])
        union = SumOperator([workload_op, workload_op.scaled(0.5)])
        structured = _trace_core(union, strategy_op)
        dense = trace_ratio(union.to_dense(), strategy_op.to_dense())
        assert structured == pytest.approx(dense, rel=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_inverse_apply_is_moore_penrose_off_range(self, seed):
        # The g-inverse trick regularises the unreachable dead space through
        # the identity; projecting it back out must recover the exact
        # pseudo-inverse even for inputs with off-range components.
        rng = np.random.default_rng(seed)
        _, strategy_op = random_completed_operator(rng, [3, 3], rank_deficient=True)
        pinv = np.linalg.pinv(strategy_op.to_dense(), rcond=1e-11)
        x = rng.normal(size=strategy_op.shape[0])
        np.testing.assert_allclose(strategy_op.woodbury().inverse_apply(x), pinv @ x, atol=1e-8)

    def test_woodbury_rank(self):
        rng = np.random.default_rng(5)
        workload_op, strategy_op = random_completed_operator(rng, [3, 3], rank_deficient=True)
        dense_rank = np.linalg.matrix_rank(strategy_op.to_dense(), tol=1e-8)
        assert strategy_op.woodbury().rank == dense_rank


class TestStochasticTrace:
    def test_cg_hutchpp_matches_dense_when_sketch_spans(self):
        # The 96 default samples are >= 3n for n = 12, so the Hutch++ sketch
        # spans the whole space and the estimate is exact up to the CG
        # tolerance.
        rng = np.random.default_rng(7)
        workload_op, strategy_op = random_completed_operator(rng, [3, 4])
        structured = _stochastic_completed_trace(workload_op, strategy_op)
        dense = trace_ratio(workload_op.to_dense(), strategy_op.to_dense())
        assert structured == pytest.approx(dense, rel=1e-6)

    def test_dispatch_uses_stochastic_beyond_budget(self, monkeypatch):
        rng = np.random.default_rng(9)
        workload_op, strategy_op = random_completed_operator(rng, [3, 4])
        called = {}

        def fake(workload, strategy):
            called["hit"] = True
            return 1.0

        monkeypatch.setattr(error_module, "_stochastic_completed_trace", fake)
        # Shrink the budget so the exact n x 2r block no longer fits.
        monkeypatch.setattr(error_module, "within_materialization_budget", lambda *a, **k: False)
        assert _completed_trace(workload_op, strategy_op) == 1.0
        assert called["hit"]

    def test_pcg_batched_matches_direct(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(30, 30))
        matrix = matrix @ matrix.T + np.eye(30)
        rhs = rng.normal(size=(30, 4))
        solved = pcg_solve(lambda x: matrix @ x, rhs, preconditioner=np.diag(matrix), tolerance=1e-12)
        np.testing.assert_allclose(solved, np.linalg.solve(matrix, rhs), atol=1e-8)
        single = pcg_solve(lambda x: matrix @ x, rhs[:, 0], tolerance=1e-12)
        np.testing.assert_allclose(single, np.linalg.solve(matrix, rhs[:, 0]), atol=1e-8)

    def test_hutchpp_exact_with_full_sketch(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(20, 20))
        matrix = matrix @ matrix.T
        estimate = hutchpp_trace(lambda x: matrix @ x, 20, samples=60, rng=rng)
        assert estimate == pytest.approx(np.trace(matrix), rel=1e-10)


class TestCompletedEigenDesign:
    def test_forced_factorized_matches_dense_oracle(self):
        workload = all_range_queries([4, 4, 4])
        dense = eigen_design(workload, factorized=False, complete=True)
        fact = eigen_design(workload, factorized=True, complete=True)
        assert fact.strategy.gram_operator.has_diag
        e_dense = expected_workload_error(workload, dense.strategy, PRIVACY)
        e_fact = expected_workload_error(workload, fact.strategy, PRIVACY)
        assert e_fact == pytest.approx(e_dense, rel=1e-8)

    def test_rank_deficient_completed_matches_dense(self):
        rng = np.random.default_rng(13)
        factors = []
        for _ in range(2):
            matrix = rng.normal(size=(4, 4))
            matrix[:, 0] = 0.0
            factors.append(Workload(matrix))
        workload = Workload.kronecker(factors)
        dense = eigen_design(workload, factorized=False, complete=True)
        fact = eigen_design(workload, factorized=True, complete=True)
        e_dense = expected_workload_error(workload, dense.strategy, PRIVACY)
        e_fact = expected_workload_error(workload, fact.strategy, PRIVACY)
        assert e_fact == pytest.approx(e_dense, rel=1e-5)

    def test_completed_error_at_scale_without_dense_allocation(self, monkeypatch):
        # The acceptance bar: complete=True (the paper's default) error
        # evaluation at n = 4096 with every densification entry point patched
        # to fail — nothing n x n is ever built.
        from repro.utils import operators as ops

        def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("dense materialisation during completed error evaluation")

        monkeypatch.setattr(ops.KroneckerOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.EigenDiagOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.KroneckerEigenbasis, "queries_dense", forbidden)
        workload = all_range_queries([16, 16, 16])
        result = eigen_design(workload)  # complete=True is the default
        assert result.method == "eigen-design-factorized"
        assert result.completion_rows > 0
        error = expected_workload_error(workload, result.strategy, PRIVACY)
        assert np.isfinite(error) and error > 0
        assert workload._gram is None and result.strategy._gram is None
        # The completion never hurts expected error (Program 2, steps 4-5).
        bare = eigen_design(workload, complete=False)
        assert error <= expected_workload_error(workload, bare.strategy, PRIVACY) + 1e-9

    def test_completed_strategy_rank_structured(self):
        workload = all_range_queries([8, 8, 4])
        result = eigen_design(workload, factorized=True, complete=True)
        assert result.strategy.rank == workload.column_count
        assert result.strategy.is_full_rank


class TestFactorizedSingularValueStrategy:
    @pytest.mark.parametrize("complete", [False, True])
    def test_matches_dense(self, complete):
        workload = all_range_queries([4, 4, 4])
        dense = singular_value_strategy(workload, complete=complete, factorized=False)
        fact = singular_value_strategy(workload, complete=complete, factorized=True)
        e_dense = expected_workload_error(workload, dense, PRIVACY)
        e_fact = expected_workload_error(workload, fact, PRIVACY)
        assert e_fact == pytest.approx(e_dense, rel=1e-8)

    def test_closed_form_at_scale(self):
        workload = all_range_queries([16, 16, 16])
        strategy = singular_value_strategy(workload)
        assert strategy.gram_operator is not None
        error = expected_workload_error(workload, strategy, PRIVACY)
        assert np.isfinite(error) and error > 0
        assert workload._gram is None


class TestFactorizedReductions:
    @pytest.mark.parametrize("complete", [False, True])
    def test_separation_matches_dense(self, complete):
        workload = all_range_queries([4, 4, 4])
        dense = eigen_query_separation(workload, group_size=8, factorized=False, complete=complete)
        fact = eigen_query_separation(workload, group_size=8, factorized=True, complete=complete)
        assert fact.method == "eigen-separation-factorized"
        assert fact.eigen_queries is None and fact.eigen_basis is not None
        e_dense = expected_workload_error(workload, dense.strategy, PRIVACY)
        e_fact = expected_workload_error(workload, fact.strategy, PRIVACY)
        assert e_fact == pytest.approx(e_dense, rel=1e-8)

    @pytest.mark.parametrize("complete", [False, True])
    def test_principal_vectors_match_dense(self, complete):
        workload = all_range_queries([4, 4, 4])
        dense = principal_vectors(workload, fraction=0.2, factorized=False, complete=complete)
        fact = principal_vectors(workload, fraction=0.2, factorized=True, complete=complete)
        assert fact.method == "principal-vectors-factorized"
        e_dense = expected_workload_error(workload, dense.strategy, PRIVACY)
        e_fact = expected_workload_error(workload, fact.strategy, PRIVACY)
        assert e_fact == pytest.approx(e_dense, rel=1e-8)

    def test_reductions_matrix_free_beyond_budget(self, monkeypatch):
        # Shrinking the preference budget makes a small domain "beyond scale":
        # the auto-switch must pick the factorized reductions and nothing may
        # densify (every densification entry point is patched to fail).
        from repro.utils import operators as ops

        def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("dense materialisation during factorized reduction")

        monkeypatch.setattr(ops.KroneckerEigenbasis, "queries_dense", forbidden)
        monkeypatch.setattr(ops.KroneckerOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops, "MATERIALIZATION_LIMIT", 1000)
        workload = all_range_queries([8, 8, 4])
        separated = eigen_query_separation(workload)
        principal = principal_vectors(workload, fraction=0.05)
        for result in (separated, principal):
            assert result.method.endswith("-factorized")
            error = expected_workload_error(workload, result.strategy, PRIVACY)
            assert np.isfinite(error) and error > 0

    def test_separation_stage2_matrix_free_past_hard_cap(self, monkeypatch):
        # The dense path's stage-2 group-column matrix is guarded past the
        # hard cap; the factorized path serves the same columns lazily
        # through a GroupColumnOperator, so it sails straight through.
        import repro.core.reductions as reductions_module
        from repro.exceptions import MaterializationError

        monkeypatch.setattr(reductions_module, "HARD_MATERIALIZATION_LIMIT", 100)
        workload = all_range_queries([8, 8])
        with pytest.raises(MaterializationError):
            eigen_query_separation(workload, group_size=2, factorized=False)
        result = eigen_query_separation(workload, group_size=2, factorized=True)
        assert result.method == "eigen-separation-factorized"
        error = expected_workload_error(workload, result.strategy, PRIVACY)
        assert np.isfinite(error) and error > 0

    def test_column_block_constraints_match_dense(self):
        rng = np.random.default_rng(4)
        workload = all_range_queries([4, 4])
        basis = workload.eigen_basis()
        keep = basis.sorted_values > 1e-10 * basis.sorted_values[0]
        positions = basis.order[keep]
        operator = KroneckerConstraints(basis, positions)
        tail = operator.restrict(np.arange(5, positions.shape[0])).row_sums()[:, None]
        blocked = ColumnBlockConstraints([operator.restrict(np.arange(5)), tail])
        dense_all = (basis.queries_dense()[keep] ** 2).T
        dense = np.hstack([dense_all[:, :5], dense_all[:, 5:].sum(axis=1, keepdims=True)])
        u = rng.uniform(0.1, 1.0, size=6)
        np.testing.assert_allclose(blocked.matvec(u), dense @ u, atol=1e-10)
        mu = rng.uniform(size=dense.shape[0])
        np.testing.assert_allclose(blocked.rmatvec(mu), dense.T @ mu, atol=1e-10)
        np.testing.assert_allclose(blocked.column_maxes(), dense.max(axis=0), atol=1e-12)
        np.testing.assert_allclose(blocked.column_sums(), dense.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(blocked.row_sums(), dense.sum(axis=1), atol=1e-12)


class TestBlockedPerQueryError:
    def test_dense_blocks_match_unblocked(self):
        rng = np.random.default_rng(0)
        workload = Workload(rng.normal(size=(37, 12)))
        strategy = Strategy(rng.normal(size=(15, 12)))
        full = per_query_error(workload, strategy, PRIVACY)
        blocked = per_query_error(workload, strategy, PRIVACY, block_size=5)
        np.testing.assert_allclose(blocked, full, rtol=1e-12)

    @pytest.mark.parametrize("complete", [False, True])
    def test_row_operator_workload_matches_dense_oracle(self, complete):
        # 8^3 cells: the explicit matrix (46656 x 512) blows the budget, so
        # the workload keeps a factored row operator; the strategy Gram is a
        # (completed) EigenDiagOperator served through inverse-apply.
        workload = all_range_queries([8, 8, 8])
        assert workload.row_source() is not None and not workload.has_matrix
        result = eigen_design(workload, factorized=True, complete=complete)
        structured = per_query_error(workload, result.strategy, PRIVACY, block_size=7000)
        assert structured.shape == (workload.query_count,)
        oracle_design = eigen_design(workload, factorized=False, complete=complete)
        probe = 2048
        rows = workload.row_source().row_block(0, probe)
        solved = solve_psd(oracle_design.strategy.gram, rows.T)
        variances = np.sum(rows.T * solved, axis=0)
        scale = PRIVACY.gaussian_scale(oracle_design.strategy.sensitivity_l2)
        oracle = scale * np.sqrt(np.clip(variances, 0.0, None))
        np.testing.assert_allclose(structured[:probe], oracle, rtol=1e-6, atol=1e-9)

    def test_kron_row_block_matches_dense_rows(self):
        rng = np.random.default_rng(6)
        factors = [rng.normal(size=(3, 4)), rng.normal(size=(2, 5))]
        operator = KroneckerOperator(factors)
        dense = dense_kron(factors)
        np.testing.assert_allclose(operator.row_block(1, 5), dense[1:5], atol=1e-12)
        np.testing.assert_allclose(
            kron_row_block(factors, np.array([0, 5, 3])), dense[[0, 5, 3]], atol=1e-12
        )

    def test_stacked_row_block_spans_parts(self):
        rng = np.random.default_rng(8)
        kron_part = KroneckerOperator([rng.normal(size=(2, 3)), rng.normal(size=(3, 4))])
        dense_part = rng.normal(size=(5, 12))
        stack = StackedOperator([kron_part, dense_part])
        oracle = np.vstack([kron_part.to_dense(), dense_part])
        np.testing.assert_allclose(stack.row_block(4, 9), oracle[4:9], atol=1e-12)
        np.testing.assert_allclose(stack.row_block(0, 11), oracle, atol=1e-12)

    def test_per_query_no_dense_gram_at_scale(self, monkeypatch):
        from repro.utils import operators as ops

        def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("dense materialisation during per-query error")

        monkeypatch.setattr(ops.EigenDiagOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.KroneckerEigenbasis, "queries_dense", forbidden)
        workload = all_range_queries([16, 8, 8])  # n = 1024, m = 176k queries
        result = eigen_design(workload, factorized=True, complete=False)
        errors = per_query_error(workload, result.strategy, PRIVACY, block_size=8192)
        assert errors.shape == (workload.query_count,)
        assert np.all(np.isfinite(errors)) and np.all(errors >= 0)


class TestEighMemoization:
    def test_factor_eigh_cached_across_rebuilds(self):
        from repro.utils.operators import _FACTOR_EIGH_CACHE, KroneckerEigenbasis

        rng = np.random.default_rng(10)
        gram = rng.normal(size=(6, 6))
        gram = gram @ gram.T
        first = KroneckerEigenbasis.from_gram_factors([gram])
        hits_before = len(_FACTOR_EIGH_CACHE)
        second = KroneckerEigenbasis.from_gram_factors([gram.copy()])
        assert len(_FACTOR_EIGH_CACHE) == hits_before  # content hit, no new entry
        assert second.vector_factors[0] is first.vector_factors[0]

    def test_sorted_values_cached(self):
        workload = all_range_queries([4, 4])
        basis = workload.eigen_basis()
        assert basis.sorted_values is basis.sorted_values
