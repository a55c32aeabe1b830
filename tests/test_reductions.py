"""Tests for the performance optimisations of Sec. 4 (eigen separation, principal vectors)."""

import warnings

import pytest

from repro import (
    eigen_design,
    eigen_query_separation,
    expected_workload_error,
    minimum_error_bound,
    principal_vectors,
)
from repro.core.reductions import recommended_group_size
from repro.exceptions import ConvergenceWarning, OptimizationError
from repro.workloads import all_range_queries_1d, kway_marginals


@pytest.fixture(scope="module")
def range_workload():
    return all_range_queries_1d(64)


@pytest.fixture(scope="module")
def marginal_workload():
    return kway_marginals([8, 8], 2)


class TestEigenQuerySeparation:
    def test_strategy_supports_workload(self, range_workload):
        result = eigen_query_separation(range_workload, group_size=8)
        assert result.strategy.supports(range_workload.gram)
        assert result.method == "eigen-separation"

    def test_default_group_size_rule(self):
        assert recommended_group_size(4096) == 16
        assert recommended_group_size(8) == 2

    def test_error_close_to_full_eigen_design(self, range_workload, privacy):
        full = expected_workload_error(
            range_workload, eigen_design(range_workload).strategy, privacy
        )
        separated = expected_workload_error(
            range_workload, eigen_query_separation(range_workload, group_size=8).strategy, privacy
        )
        # The paper reports ~5-12% degradation; allow a modest margin.
        assert separated <= full * 1.25
        assert separated >= full - 1e-9

    def test_single_group_equals_full_design(self, privacy):
        workload = all_range_queries_1d(24)
        full = expected_workload_error(workload, eigen_design(workload).strategy, privacy)
        one_group = expected_workload_error(
            workload,
            eigen_query_separation(workload, group_size=workload.column_count).strategy,
            privacy,
        )
        assert one_group == pytest.approx(full, rel=1e-3)

    def test_group_size_validation(self, range_workload):
        with pytest.raises(OptimizationError):
            eigen_query_separation(range_workload, group_size=0)

    def test_diagnostics_recorded(self, range_workload):
        result = eigen_query_separation(range_workload, group_size=16)
        assert result.diagnostics["group_size"] == 16
        assert result.diagnostics["groups"] == 4

    def test_every_stage_solve_certifies_on_all_ranges_384(self):
        # 384 cells split into 55 groups of 7: every stage-1 group and the
        # stage-2 combination must reach the duality-gap certificate.
        workload = all_range_queries_1d(384, materialize=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            result = eigen_query_separation(workload, factorized=False)
        assert result.diagnostics["groups"] == 55
        assert result.solution.converged

    def test_an_uncertified_stage_solve_is_reported(self):
        workload = all_range_queries_1d(64, materialize=True)
        with pytest.warns(ConvergenceWarning):
            result = eigen_query_separation(workload, max_iterations=1)
        assert not result.solution.converged


class TestPrincipalVectors:
    def test_strategy_supports_workload(self, range_workload):
        result = principal_vectors(range_workload, fraction=0.25)
        assert result.strategy.supports(range_workload.gram)
        assert result.method == "principal-vectors"

    def test_error_close_to_full_design(self, range_workload, privacy):
        full = expected_workload_error(
            range_workload, eigen_design(range_workload).strategy, privacy
        )
        reduced = expected_workload_error(
            range_workload, principal_vectors(range_workload, fraction=0.25).strategy, privacy
        )
        assert reduced <= full * 1.25
        assert reduced >= full - 1e-9

    def test_all_vectors_equals_full_design(self, marginal_workload, privacy):
        full = expected_workload_error(
            marginal_workload, eigen_design(marginal_workload).strategy, privacy
        )
        all_vectors = expected_workload_error(
            marginal_workload,
            principal_vectors(marginal_workload, fraction=1.0).strategy,
            privacy,
        )
        assert all_vectors == pytest.approx(full, rel=1e-4)

    def test_matches_bound_on_marginals_with_few_vectors(self, marginal_workload, privacy):
        # The paper observes the principal-vector method matching the optimum
        # on marginal workloads with ~6% of the eigenvectors.
        reduced = principal_vectors(marginal_workload, fraction=0.1)
        error = expected_workload_error(marginal_workload, reduced.strategy, privacy)
        assert error <= minimum_error_bound(marginal_workload, privacy) * 1.1

    def test_count_and_fraction_mutually_exclusive(self, range_workload):
        with pytest.raises(OptimizationError):
            principal_vectors(range_workload, count=4, fraction=0.5)

    def test_count_validation(self, range_workload):
        with pytest.raises(OptimizationError):
            principal_vectors(range_workload, count=0)
        with pytest.raises(OptimizationError):
            principal_vectors(range_workload, fraction=1.5)

    def test_variable_reduction_recorded(self, range_workload):
        result = principal_vectors(range_workload, count=6)
        assert result.diagnostics["principal_count"] == 6
        assert result.solution.weights.shape[0] == 7  # 6 principal + 1 shared
