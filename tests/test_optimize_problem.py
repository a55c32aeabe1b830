"""Tests for the weighting-problem formulation (Program 1 reduction)."""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optimize import WeightingProblem


@pytest.fixture
def simple_problem() -> WeightingProblem:
    """Two design queries, two constraints (a tiny orthonormal design)."""
    costs = np.array([4.0, 1.0])
    constraints = np.array([[1.0, 0.0], [0.0, 1.0]])
    return WeightingProblem(costs=costs, constraints=constraints)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(OptimizationError):
            WeightingProblem(costs=np.ones(3), constraints=np.ones((2, 2)))

    def test_negative_costs_rejected(self):
        with pytest.raises(OptimizationError):
            WeightingProblem(costs=np.array([-1.0]), constraints=np.ones((1, 1)))

    def test_negative_constraints_rejected(self):
        with pytest.raises(OptimizationError):
            WeightingProblem(costs=np.ones(1), constraints=-np.ones((1, 1)))

    def test_unconstrained_positive_cost_rejected(self):
        with pytest.raises(OptimizationError):
            WeightingProblem(costs=np.array([1.0, 1.0]), constraints=np.array([[1.0, 0.0]]))

    def test_power_below_one_rejected(self):
        with pytest.raises(OptimizationError):
            WeightingProblem(costs=np.ones(1), constraints=np.ones((1, 1)), power=0.5)

    def test_sizes(self, simple_problem):
        assert simple_problem.variable_count == 2
        assert simple_problem.constraint_count == 2


class TestPrimal:
    def test_objective_value(self, simple_problem):
        assert simple_problem.objective(np.array([2.0, 1.0])) == pytest.approx(4 / 2 + 1 / 1)

    def test_objective_infinite_at_zero_weight(self, simple_problem):
        assert simple_problem.objective(np.array([0.0, 1.0])) == float("inf")

    def test_objective_ignores_zero_cost_terms(self):
        problem = WeightingProblem(costs=np.array([0.0, 1.0]), constraints=np.eye(2))
        assert problem.objective(np.array([0.0, 2.0])) == pytest.approx(0.5)

    def test_power_two_objective(self):
        problem = WeightingProblem(costs=np.array([8.0]), constraints=np.ones((1, 1)), power=2.0)
        assert problem.objective(np.array([2.0])) == pytest.approx(2.0)

    def test_feasibility_helpers(self, simple_problem):
        weights = np.array([2.0, 0.5])
        assert simple_problem.max_violation(weights) == pytest.approx(1.0)
        scaled = simple_problem.scale_to_feasible(weights)
        assert simple_problem.max_violation(scaled) <= 1e-12

    def test_scale_to_feasible_pushes_interior_points_to_boundary(self, simple_problem):
        # Scaling an interior point up to the boundary can only reduce the
        # objective, so the helper always returns a boundary point.
        weights = np.array([0.5, 0.5])
        scaled = simple_problem.scale_to_feasible(weights)
        np.testing.assert_allclose(scaled, [1.0, 1.0])
        assert simple_problem.objective(scaled) <= simple_problem.objective(weights)

    def test_initial_weights_feasible(self, simple_problem):
        weights = simple_problem.initial_weights()
        assert simple_problem.max_violation(weights) < 0


class TestDual:
    def test_dual_value_is_lower_bound(self, simple_problem):
        # Optimal: u = (1, 1) with objective 5 (both constraints tight).
        for dual in (np.ones(2), np.array([0.5, 2.0]), np.array([3.0, 0.1])):
            assert simple_problem.dual_value(dual) <= 5.0 + 1e-9

    def test_dual_optimum_closes_gap(self, simple_problem):
        # At the optimum mu = c / u^2 per the KKT conditions: mu = (4, 1).
        assert simple_problem.dual_value(np.array([4.0, 1.0])) == pytest.approx(5.0)

    def test_gradient_zero_at_optimum(self, simple_problem):
        gradient = simple_problem.dual_gradient(np.array([4.0, 1.0]))
        np.testing.assert_allclose(gradient, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        costs = rng.uniform(0.5, 3.0, size=4)
        constraints = rng.uniform(0.0, 1.0, size=(5, 4))
        constraints[0] += 0.5  # make sure every variable is constrained
        problem = WeightingProblem(costs=costs, constraints=constraints)
        dual = rng.uniform(0.5, 1.5, size=5)
        gradient = problem.dual_gradient(dual)
        step = 1e-6
        for index in range(5):
            bumped = dual.copy()
            bumped[index] += step
            numerical = (problem.dual_value(bumped) - problem.dual_value(dual)) / step
            assert gradient[index] == pytest.approx(numerical, rel=1e-3, abs=1e-5)

    def test_certificate(self, simple_problem):
        primal, dual, gap = simple_problem.certificate(np.array([1.0, 1.0]), np.array([4.0, 1.0]))
        assert primal == pytest.approx(5.0)
        assert gap == pytest.approx(0.0, abs=1e-9)
