"""Matrix-free stage-2 group columns, repeated traces and the singular CG path.

Property-based and acceptance coverage for the last dense gaps closed by the
operator subsystem:

* :class:`~repro.utils.operators.GroupColumnOperator` against the dense
  stage-2 group-column matrix it replaces (oracle tests at small ``n``, a
  no-densify monkeypatch guard at ``n = 4096``);
* repeated traces: re-evaluating the same completed strategy against equal
  workload factors must run no PCG solve and return the identical float;
* the rank-deficient + huge-completion corner running through the
  null-space-projected singular CG formulation instead of dense.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.error as error_module
from repro import (
    PrivacyParams,
    eigen_design,
    eigen_query_separation,
    expected_workload_error,
)
from repro.core.error import _stochastic_completed_trace, workload_strategy_trace
from repro.exceptions import SingularStrategyError
from repro.optimize import WeightingProblem, solve_weighting
from repro.utils.linalg import trace_ratio
from repro.utils.operators import (
    EigenDiagOperator,
    GroupColumnOperator,
    KroneckerConstraints,
    KroneckerOperator,
)
from repro.workloads import all_range_queries

PRIVACY = PrivacyParams(0.5, 1e-4)


def random_group_operator(rng, sizes):
    """A GroupColumnOperator plus its dense group-column oracle."""
    grams = []
    for size in sizes:
        factor = rng.normal(size=(size, size))
        grams.append(factor.T @ factor)
    workload_op = KroneckerOperator(grams, symmetric=True)
    basis = workload_op.eigenbasis()
    keep = basis.sorted_values > 1e-10 * basis.sorted_values[0]
    positions = basis.order[keep]
    count = positions.shape[0]
    group_size = int(rng.integers(1, count + 1))
    groups = [
        np.arange(start, min(start + group_size, count))
        for start in range(0, count, group_size)
    ]
    constraints = KroneckerConstraints(basis, positions)
    group_positions = [positions[indexes] for indexes in groups]
    group_weights = [rng.uniform(0.1, 2.0, size=indexes.shape[0]) for indexes in groups]
    operator = GroupColumnOperator(basis, group_positions, group_weights)
    dense_constraints = (basis.queries_dense()[keep] ** 2).T
    dense = np.column_stack(
        [
            dense_constraints[:, indexes] @ weights
            for indexes, weights in zip(groups, group_weights)
        ]
    )
    return operator, dense


class TestGroupColumnOperator:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_actions_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        operator, dense = random_group_operator(rng, [3, 4])
        assert operator.shape == dense.shape
        v = rng.uniform(0.1, 1.0, size=dense.shape[1])
        np.testing.assert_allclose(operator.matvec(v), dense @ v, atol=1e-10)
        mu = rng.uniform(size=dense.shape[0])
        np.testing.assert_allclose(operator.rmatvec(mu), dense.T @ mu, atol=1e-10)
        np.testing.assert_allclose(operator.column_maxes(), dense.max(axis=0), atol=1e-10)
        np.testing.assert_allclose(operator.column_sums(), dense.sum(axis=0), atol=1e-10)
        np.testing.assert_allclose(operator.row_sums(), dense.sum(axis=1), atol=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_stage2_solve_matches_dense_solve(self, seed):
        # The stage-2 weighting problem solved against the operator must land
        # on the same optimum as against the dense group-column matrix.
        rng = np.random.default_rng(seed)
        operator, dense = random_group_operator(rng, [3, 3])
        costs = rng.uniform(0.5, 2.0, size=dense.shape[1])
        lazy = solve_weighting(WeightingProblem(costs=costs, constraints=operator))
        oracle = solve_weighting(WeightingProblem(costs=costs, constraints=dense))
        assert lazy.objective_value == pytest.approx(oracle.objective_value, rel=1e-4)

    def test_overlapping_groups_rejected(self):
        workload_op = KroneckerOperator([np.eye(4)], symmetric=True)
        basis = workload_op.eigenbasis()
        with pytest.raises(ValueError):
            GroupColumnOperator(
                basis,
                [np.array([0, 1]), np.array([1, 2])],
                [np.ones(2), np.ones(2)],
            )

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_separation_matches_dense_across_group_sizes(self, seed, group_size):
        workload = all_range_queries([4, 4])
        dense = eigen_query_separation(
            workload, group_size=group_size, factorized=False, complete=True
        )
        fact = eigen_query_separation(
            workload, group_size=group_size, factorized=True, complete=True
        )
        e_dense = expected_workload_error(workload, dense.strategy, PRIVACY)
        e_fact = expected_workload_error(workload, fact.strategy, PRIVACY)
        assert e_fact == pytest.approx(e_dense, rel=1e-6)

    def test_factorized_stage2_densifies_within_budget(self, monkeypatch):
        # The factorized/dense crossover: when the stage-2 group-column
        # matrix fits the materialisation budget the factorized path
        # densifies it, so stage 2 runs on the dense solver fast path
        # instead of a per-matvec GroupColumnOperator.
        import repro.core.reductions as reductions_module

        stage2_constraints = []
        real_solve = solve_weighting

        def recording_solve(problem, **kwargs):
            stage2_constraints.append(problem.constraints)
            return real_solve(problem, **kwargs)

        monkeypatch.setattr(reductions_module, "solve_weighting", recording_solve)
        workload = all_range_queries([16, 16, 16])
        result = eigen_query_separation(workload, group_size=512)
        assert result.method == "eigen-separation-factorized"
        assert result.diagnostics["groups"] > 1
        # Stage 2 must have run against the densified group-column matrix.
        assert any(isinstance(c, np.ndarray) and c.ndim == 2 for c in stage2_constraints)
        error = expected_workload_error(workload, result.strategy, PRIVACY)
        assert np.isfinite(error) and error > 0

    def test_no_group_column_densification_beyond_budget(self, monkeypatch):
        # Acceptance bar: beyond the materialisation budget the factorized
        # path allocates nothing of size Θ(n · groups) — every dense
        # materialisation entry point is patched to fail, and the stage-2
        # problem must be solved against a GroupColumnOperator.
        import repro.core.reductions as reductions_module
        from repro.utils import operators as ops

        def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("dense materialisation during factorized stage 2")

        monkeypatch.setattr(ops.KroneckerOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.EigenDiagOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.KroneckerConstraints, "to_dense", forbidden)
        monkeypatch.setattr(ops.KroneckerEigenbasis, "queries_dense", forbidden)
        # Shrink the budget so n = 4096 sits beyond it, as 10**7 used to.
        monkeypatch.setattr(ops, "MATERIALIZATION_LIMIT", 1)
        stage2_constraints = []
        real_solve = solve_weighting

        def recording_solve(problem, **kwargs):
            stage2_constraints.append(problem.constraints)
            return real_solve(problem, **kwargs)

        monkeypatch.setattr(reductions_module, "solve_weighting", recording_solve)
        workload = all_range_queries([16, 16, 16])
        result = eigen_query_separation(workload, group_size=512)
        assert result.method == "eigen-separation-factorized"
        assert result.diagnostics["groups"] > 1
        # Stage 2 is the second-to-last solve (the last report uses the full
        # constraint operator); it must have run against the lazy operator.
        assert any(isinstance(c, GroupColumnOperator) for c in stage2_constraints)
        assert not any(isinstance(c, np.ndarray) and c.ndim == 2 for c in stage2_constraints)
        error = expected_workload_error(workload, result.strategy, PRIVACY)
        assert np.isfinite(error) and error > 0


def counting_pcg_solve(monkeypatch) -> dict:
    """Count the stochastic trace's ``pcg_solve`` calls from here on."""
    calls = {"count": 0}
    original = error_module.pcg_solve

    def counted(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(error_module, "pcg_solve", counted)
    return calls


class TestRepeatedTrace:
    def test_repeated_completed_trace_runs_no_solve(self, monkeypatch):
        # Re-evaluating the same completed strategy's error trace (a budget
        # scan) returns the remembered float without any CG solve.
        workload = all_range_queries([16, 16, 16])
        design = eigen_design(workload, factorized=True, complete=True)
        calls = counting_pcg_solve(monkeypatch)
        first = workload_strategy_trace(workload, design.strategy)
        assert calls["count"] > 0
        calls["count"] = 0
        second = workload_strategy_trace(workload, design.strategy)
        assert calls["count"] == 0
        assert second == first

    def test_changed_workload_is_recomputed(self, monkeypatch):
        # The remembered trace belongs to one set of workload factors: equal
        # shapes with different content must solve again, and get the value
        # a fresh strategy operator gets.
        rng = np.random.default_rng(5)
        grams = []
        for _ in range(2):
            gram = rng.normal(size=(5, 5))
            grams.append(gram.T @ gram)
        basis = KroneckerOperator([grams[0]], symmetric=True).eigenbasis()
        spectrum = rng.uniform(0.5, 2.0, size=basis.size)
        diag = rng.uniform(0.1, 1.0, size=basis.size)
        strategy_op = EigenDiagOperator(basis, spectrum, diag)
        first_op = KroneckerOperator([grams[0]], symmetric=True)
        second_op = KroneckerOperator([grams[1]], symmetric=True)
        _stochastic_completed_trace(first_op, strategy_op)
        calls = counting_pcg_solve(monkeypatch)
        changed = _stochastic_completed_trace(second_op, strategy_op)
        assert calls["count"] > 0
        fresh = _stochastic_completed_trace(second_op, EigenDiagOperator(basis, spectrum, diag))
        assert changed == fresh


class TestRankDeficientStochasticTrace:
    @staticmethod
    def rank_deficient_pair(rng, sizes):
        factors = []
        for size in sizes:
            factor = rng.normal(size=(size, size))
            factor[:, 0] = 0.0
            factors.append(factor)
        grams = [f.T @ f for f in factors]
        workload_op = KroneckerOperator(grams, symmetric=True)
        basis = workload_op.eigenbasis()
        values = basis.values_natural
        spectrum = np.where(
            values > 1e-10 * values.max(), rng.uniform(0.5, 2.0, size=basis.size), 0.0
        )
        r = int(rng.integers(1, min(6, basis.size)))
        cells = rng.choice(basis.size, size=r, replace=False)
        diag = np.zeros(basis.size)
        diag[cells] = rng.uniform(0.1, 1.0, size=r)
        return workload_op, EigenDiagOperator(basis, spectrum, diag)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_dense_pseudo_inverse_oracle(self, seed):
        # The null-space-projected singular CG formulation must agree with
        # the dense pinv oracle: the 96 default samples are >= 3n for n = 12,
        # so the Hutch++ sketch spans the whole space.
        rng = np.random.default_rng(seed)
        workload_op, strategy_op = self.rank_deficient_pair(rng, [3, 4])
        assert np.any(strategy_op.spectrum == 0.0)
        structured = _stochastic_completed_trace(workload_op, strategy_op)
        dense = trace_ratio(workload_op.to_dense(), strategy_op.to_dense())
        assert structured == pytest.approx(dense, rel=1e-6)

    def test_tiny_alive_coordinates_not_misclassified(self):
        # A supported strategy whose basis diagonal spans a huge dynamic
        # range (tiny-but-alive spectrum entries next to enormous completion
        # weights) must not have its alive coordinates reclassified as
        # unreachable dead space — that would raise a spurious
        # SingularStrategyError and degrade the Jacobi preconditioner.
        basis = KroneckerOperator([np.eye(8)], symmetric=True).eigenbasis()
        w = np.array([0.3, 0.4, 0.5, 0.1, 0.2, 0.3, 0.0, 0.0])
        workload_op = KroneckerOperator([np.diag(w)], symmetric=True)
        spectrum = np.array([1.0, 1.0, 1.0, 1e-8, 1e-8, 1e-8, 0.0, 0.0])
        diag = np.array([1e6, 1e6, 1e6, 0.0, 0.0, 0.0, 0.0, 0.0])
        strategy_op = EigenDiagOperator(basis, spectrum, diag)
        # Rank-deficient, so an unconverged CG column would raise.
        structured = _stochastic_completed_trace(workload_op, strategy_op)
        oracle = float(np.sum(w[:6] / (spectrum + diag)[:6]))
        assert structured == pytest.approx(oracle, rel=1e-6)

    def test_unsupported_workload_raises(self):
        # Workload mass on the unreachable dead space (zero spectrum, no
        # completion row anywhere near it) must raise, not return garbage.
        rng = np.random.default_rng(7)
        gram = rng.normal(size=(6, 6))
        workload_op = KroneckerOperator([gram.T @ gram], symmetric=True)
        basis = workload_op.eigenbasis()
        spectrum = np.zeros(basis.size)
        diag = np.zeros(basis.size)
        diag[0] = 1.0
        strategy_op = EigenDiagOperator(basis, spectrum, diag)
        with pytest.raises(SingularStrategyError):
            _stochastic_completed_trace(workload_op, strategy_op)

    def test_rank_deficient_huge_completion_no_densify(self, monkeypatch):
        # Acceptance bar: the rank-deficient + huge-completion corner used to
        # fall back to dense (and raise beyond the budget); it must now run
        # fully matrix-free through the singular CG path.
        from repro.utils import operators as ops

        def forbidden(self, *args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("dense materialisation in the rank-deficient corner")

        monkeypatch.setattr(ops.KroneckerOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.EigenDiagOperator, "to_dense", forbidden)
        monkeypatch.setattr(ops.KroneckerEigenbasis, "queries_dense", forbidden)
        rng = np.random.default_rng(8)
        factors = []
        for size in (16, 16, 16):
            factor = rng.normal(size=(size, size))
            factor[:, 0] = 0.0  # rank-deficient per-attribute workload
            factors.append(factor)
        grams = [f.T @ f for f in factors]
        workload_op = KroneckerOperator(grams, symmetric=True)
        basis = workload_op.eigenbasis()
        values = basis.values_natural
        spectrum = np.where(
            values > 1e-10 * values.max(), rng.uniform(0.5, 2.0, size=basis.size), 0.0
        )
        diag = rng.uniform(0.1, 1.0, size=basis.size)  # huge completion rank
        strategy_op = EigenDiagOperator(basis, spectrum, diag)
        assert np.any(spectrum == 0.0)
        from repro.core.error import _trace_core

        # Rank-deficient, so an unconverged CG column would raise.
        value = _trace_core(workload_op, strategy_op)
        assert np.isfinite(value) and value > 0
