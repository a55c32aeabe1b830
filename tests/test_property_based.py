"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    PrivacyParams,
    Strategy,
    Workload,
    eigen_design,
    expected_workload_error,
    minimum_error_bound,
    singular_value_bound,
)
from repro.optimize import WeightingProblem, solve_scipy, solve_weighting
from repro.strategies import identity_strategy
from repro.utils.linalg import haar_matrix, hierarchical_matrix

PRIVACY = PrivacyParams(0.5, 1e-4)

matrices = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)

nonzero_matrices = matrices.filter(lambda m: np.linalg.norm(m) > 1e-6)


class TestWorkloadInvariants:
    @given(nonzero_matrices)
    @settings(max_examples=60, deadline=None)
    def test_gram_is_psd_and_matches_sensitivity(self, matrix):
        workload = Workload(matrix)
        eigenvalues = np.linalg.eigvalsh(workload.gram)
        assert np.all(eigenvalues >= -1e-8)
        assert workload.sensitivity_l2 == pytest.approx(
            np.sqrt(np.max(np.sum(matrix**2, axis=0))), rel=1e-9
        )

    @given(nonzero_matrices)
    @settings(max_examples=60, deadline=None)
    def test_svdb_invariant_under_column_permutation(self, matrix):
        workload = Workload(matrix)
        rng = np.random.default_rng(0)
        permutation = rng.permutation(matrix.shape[1])
        permuted = workload.permute_columns(list(permutation))
        assert singular_value_bound(permuted) == pytest.approx(
            singular_value_bound(workload), rel=1e-6, abs=1e-8
        )

    @given(nonzero_matrices)
    @settings(max_examples=40, deadline=None)
    def test_union_gram_is_sum(self, matrix):
        workload = Workload(matrix)
        doubled = Workload.union([workload, workload])
        np.testing.assert_allclose(doubled.gram, 2 * workload.gram, atol=1e-9)
        assert doubled.query_count == 2 * workload.query_count


class TestErrorInvariants:
    @given(nonzero_matrices, st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_error_invariant_to_strategy_scaling(self, matrix, scale):
        workload = Workload(matrix)
        strategy = identity_strategy(matrix.shape[1])
        scaled = Strategy(strategy.matrix * scale)
        assert expected_workload_error(workload, scaled, PRIVACY) == pytest.approx(
            expected_workload_error(workload, strategy, PRIVACY), rel=1e-9
        )

    @given(nonzero_matrices)
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_below_identity_strategy(self, matrix):
        workload = Workload(matrix)
        error = expected_workload_error(workload, identity_strategy(matrix.shape[1]), PRIVACY)
        assert minimum_error_bound(workload, PRIVACY) <= error + 1e-9

    @given(nonzero_matrices)
    @settings(max_examples=25, deadline=None)
    def test_eigen_design_within_bounds(self, matrix):
        workload = Workload(matrix)
        result = eigen_design(workload, warn_on_no_convergence=False)
        error = expected_workload_error(workload, result.strategy, PRIVACY)
        bound = minimum_error_bound(workload, PRIVACY)
        identity_error = expected_workload_error(
            workload, identity_strategy(matrix.shape[1]), PRIVACY
        )
        assert bound * (1 - 1e-6) <= error
        # The eigen design should never lose badly to the identity strategy.
        assert error <= identity_error * 1.05 + 1e-9


class TestSolverInvariants:
    @given(
        st.integers(2, 8),
        st.integers(2, 8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_solvers_produce_feasible_and_agreeing_solutions(self, variables, constraints, seed):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.1, 5.0, size=variables)
        matrix = rng.uniform(0.0, 1.0, size=(constraints, variables))
        matrix[0] += 0.1  # ensure every variable appears in some constraint
        problem = WeightingProblem(costs=costs, constraints=matrix)
        solution = solve_weighting(problem)
        reference = solve_scipy(problem)
        for found in (solution, reference):
            assert problem.max_violation(found.weights) <= 1e-7
        assert solution.converged
        assert solution.dual_value <= solution.objective_value + 1e-6
        # The dual bound holds against the independent SLSQP optimum too.
        assert solution.dual_value <= reference.objective_value * (1 + 1e-9)
        assert solution.objective_value == pytest.approx(reference.objective_value, rel=5e-3)


class TestStructuredMatrixInvariants:
    @given(st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_haar_always_square_full_rank(self, size):
        matrix = haar_matrix(size)
        assert matrix.shape == (size, size)
        assert np.linalg.matrix_rank(matrix) == size

    @given(st.integers(1, 40), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_hierarchical_rows_cover_all_cells(self, size, branching):
        matrix = hierarchical_matrix(size, branching)
        assert np.linalg.matrix_rank(matrix) == size
        # The root row is the all-ones total query.
        assert np.array_equal(matrix[0], np.ones(size))
