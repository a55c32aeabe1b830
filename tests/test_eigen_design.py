"""Tests for the Eigen-Design algorithm (Program 2) and its theoretical properties."""

import numpy as np
import pytest

from repro import (
    Workload,
    approximation_ratio,
    approximation_ratio_bound,
    eigen_design,
    expected_workload_error,
    minimum_error_bound,
    singular_value_strategy,
)
from repro.core.eigen_design import eigen_queries
from repro.exceptions import OptimizationError
from repro.optimize import WeightingProblem, solve_scipy
from repro.strategies import (
    hierarchical_strategy,
    identity_strategy,
    wavelet_strategy,
)
from repro.workloads import (
    all_range_queries_1d,
    cdf_workload,
    kway_marginals,
    permuted_workload,
    random_predicate_queries,
)


class TestEigenQueries:
    def test_orthonormal_rows(self, fig1_workload):
        values, queries = eigen_queries(fig1_workload)
        np.testing.assert_allclose(queries @ queries.T, np.eye(len(values)), atol=1e-9)

    def test_only_nonzero_eigenvalues_kept(self, fig1_workload):
        values, queries = eigen_queries(fig1_workload)
        assert len(values) == fig1_workload.rank == 4
        assert np.all(values > 0)

    def test_reconstructs_gram(self, range_workload_32):
        values, queries = eigen_queries(range_workload_32)
        reconstructed = (queries.T * values) @ queries
        np.testing.assert_allclose(reconstructed, range_workload_32.gram, atol=1e-6)

    def test_zero_workload_rejected(self):
        with pytest.raises(OptimizationError):
            eigen_queries(Workload(np.zeros((2, 3)), gram=np.zeros((3, 3))))


class TestEigenDesignAlgorithm:
    def test_result_fields(self, fig1_workload):
        result = eigen_design(fig1_workload)
        assert result.strategy.column_count == 8
        assert result.weights.shape == result.eigenvalues.shape
        assert result.method == "eigen-design"
        assert result.solution.converged

    def test_strategy_supports_workload(self, range_workload_32):
        result = eigen_design(range_workload_32)
        assert result.strategy.supports(range_workload_32.gram)

    def test_near_optimal_on_example_workload(self, fig1_workload, privacy):
        result = eigen_design(fig1_workload)
        ratio = approximation_ratio(fig1_workload, result.strategy, privacy)
        # The paper reports an essentially optimal strategy for this workload.
        assert ratio <= 1.05

    def test_beats_wavelet_and_hierarchical_on_ranges(self, privacy):
        workload = all_range_queries_1d(64)
        eigen_error = expected_workload_error(workload, eigen_design(workload).strategy, privacy)
        assert eigen_error < expected_workload_error(workload, wavelet_strategy(64), privacy)
        assert eigen_error < expected_workload_error(workload, hierarchical_strategy(64), privacy)

    def test_beats_identity_on_example(self, fig1_workload, privacy):
        eigen_error = expected_workload_error(
            fig1_workload, eigen_design(fig1_workload).strategy, privacy
        )
        assert eigen_error < expected_workload_error(fig1_workload, identity_strategy(8), privacy)

    def test_matches_lower_bound_for_marginals(self, privacy):
        # The paper reports eigen-design errors matching the bound for marginals.
        workload = kway_marginals([4, 4, 4], 2)
        result = eigen_design(workload)
        ratio = approximation_ratio(workload, result.strategy, privacy)
        assert ratio <= 1.02

    def test_within_theorem3_bound(self, privacy):
        for workload in (all_range_queries_1d(32), cdf_workload(32)):
            result = eigen_design(workload)
            ratio = approximation_ratio(workload, result.strategy, privacy)
            assert ratio <= approximation_ratio_bound(workload) + 1e-6

    def test_never_worse_than_1_3_times_optimal(self, privacy, rng):
        # Matches the paper's experimental observation across workload types.
        workloads = [
            all_range_queries_1d(48),
            cdf_workload(48),
            kway_marginals([4, 4, 3], 2),
            random_predicate_queries(32, 64, random_state=rng),
        ]
        for workload in workloads:
            result = eigen_design(workload)
            assert approximation_ratio(workload, result.strategy, privacy) <= 1.3

    def test_completion_never_hurts(self, fig1_workload, privacy):
        completed = eigen_design(fig1_workload, complete=True)
        bare = eigen_design(fig1_workload, complete=False)
        error_completed = expected_workload_error(fig1_workload, completed.strategy, privacy)
        error_bare = expected_workload_error(fig1_workload, bare.strategy, privacy)
        assert error_completed <= error_bare + 1e-9

    def test_identity_workload_recovers_identity_error(self, privacy):
        workload = Workload.identity(16)
        result = eigen_design(workload)
        error = expected_workload_error(workload, result.strategy, privacy)
        assert error == pytest.approx(minimum_error_bound(workload, privacy), rel=1e-6)

    def test_solver_selection_passthrough(self, fig1_workload):
        # The design's weighting problem, handed to the SLSQP oracle directly,
        # lands on the optimum the design's own solve reports.
        result = eigen_design(fig1_workload)
        problem = WeightingProblem(
            costs=result.eigenvalues, constraints=(result.eigen_queries**2).T
        )
        reference = solve_scipy(problem)
        assert reference.solver == "scipy-slsqp"
        assert result.solution.objective_value == pytest.approx(
            reference.objective_value, rel=1e-6
        )


class TestRepresentationIndependence:
    def test_semantic_equivalence(self, privacy):
        # Prop. 5: permuting cell conditions does not change the error.
        workload = all_range_queries_1d(32)
        permuted = permuted_workload(workload, random_state=11)
        original_error = expected_workload_error(
            workload, eigen_design(workload).strategy, privacy
        )
        permuted_error = expected_workload_error(
            permuted, eigen_design(permuted).strategy, privacy
        )
        assert permuted_error == pytest.approx(original_error, rel=1e-4)

    def test_error_equivalence(self, fig1_workload, privacy, rng):
        # Prop. 6: rotating the workload by an orthogonal matrix does not
        # change the eigen-design error.
        orthogonal, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        rotated = fig1_workload.rotate(orthogonal)
        original_error = expected_workload_error(
            fig1_workload, eigen_design(fig1_workload).strategy, privacy
        )
        rotated_error = expected_workload_error(
            rotated, eigen_design(rotated).strategy, privacy
        )
        assert rotated_error == pytest.approx(original_error, rel=1e-4)

    def test_wavelet_is_not_permutation_invariant(self, privacy):
        # The motivation for Table 2: fixed bases degrade under permutation.
        workload = all_range_queries_1d(32)
        permuted = permuted_workload(workload, random_state=3)
        wavelet = wavelet_strategy(32)
        assert expected_workload_error(permuted, wavelet, privacy) > expected_workload_error(
            workload, wavelet, privacy
        )


class TestSingularValueStrategy:
    def test_contained_in_program2_search_space(self, range_workload_32, privacy):
        # Before the completion step, the optimised weighting is at least as
        # good as the closed-form sqrt-eigenvalue weighting (which lies in the
        # feasible set of Program 1).  After completion either strategy may
        # improve further, so the comparison is made on the bare strategies.
        closed_form = singular_value_strategy(range_workload_32, complete=False)
        optimised = eigen_design(range_workload_32, complete=False).strategy
        assert expected_workload_error(
            range_workload_32, optimised, privacy
        ) <= expected_workload_error(range_workload_32, closed_form, privacy) + 1e-9

    def test_supports_workload(self, fig1_workload):
        assert singular_value_strategy(fig1_workload).supports(fig1_workload.gram)
