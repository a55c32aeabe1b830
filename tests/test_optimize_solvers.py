"""Tests for the weighting solver (L-BFGS-B on the dual) against the SLSQP oracle."""

import numpy as np
import pytest

from repro.core.eigen_design import eigen_queries
from repro.optimize import (
    WeightingProblem,
    l1_weighting_problem,
    solve_l1_weights,
    solve_scipy,
    solve_weighting,
)
from repro.workloads import all_range_queries_1d, cdf_workload, kway_marginals


def _eigen_problem(workload) -> WeightingProblem:
    values, queries = eigen_queries(workload)
    return WeightingProblem(costs=values, constraints=(queries**2).T)


@pytest.fixture(scope="module")
def range_problem() -> WeightingProblem:
    return _eigen_problem(all_range_queries_1d(32))


@pytest.fixture(scope="module")
def many_constraint_problem() -> WeightingProblem:
    rng = np.random.default_rng(0)
    return WeightingProblem(
        costs=rng.uniform(0.1, 1.0, 16), constraints=rng.uniform(0.0, 1.0, (2400, 16))
    )


ALL_SOLVERS = [solve_weighting, solve_scipy]

# Problems with at most 2200 constraints used to go to dual Newton and larger
# ones to dual ascent.  These cases keep the names of those deleted backends
# and run the single solver on a problem from the regime each one served.
REGIMES = [
    pytest.param("many_constraint_problem", id="solve_dual_ascent"),
    pytest.param("range_problem", id="solve_dual_newton"),
]


class TestSolverAgreement:
    @pytest.mark.parametrize(
        ("solver", "problem_name"),
        [
            pytest.param(solve_weighting, "many_constraint_problem", id="solve_dual_ascent"),
            pytest.param(solve_weighting, "range_problem", id="solve_dual_newton"),
            pytest.param(solve_scipy, "range_problem", id="solve_scipy"),
        ],
    )
    def test_feasible_solution(self, request, solver, problem_name):
        problem = request.getfixturevalue(problem_name)
        solution = solver(problem)
        assert problem.max_violation(solution.weights) <= 1e-8
        assert np.all(solution.weights >= 0)

    def test_all_backends_agree_on_optimum(self, range_problem):
        values = [solver(range_problem).objective_value for solver in ALL_SOLVERS]
        assert max(values) == pytest.approx(min(values), rel=1e-3)

    @pytest.mark.parametrize("problem_name", REGIMES)
    def test_duality_gap_certificate(self, request, problem_name):
        problem = request.getfixturevalue(problem_name)
        solution = solve_weighting(problem)
        assert solution.converged
        assert solution.relative_gap <= 1e-6
        assert solution.dual_value <= solution.objective_value + 1e-9
        # The reported dual value is a true lower bound at the optimum.
        assert solution.dual_value <= solve_scipy(problem).objective_value * (1 + 1e-9)

    def test_agreement_on_marginal_workload(self):
        problem = _eigen_problem(kway_marginals([4, 4, 4], 2))
        solution = solve_weighting(problem)
        reference = solve_scipy(problem)
        assert solution.objective_value == pytest.approx(reference.objective_value, rel=1e-4)

    def test_agreement_on_skewed_cdf_workload(self):
        problem = _eigen_problem(cdf_workload(48))
        solution = solve_weighting(problem)
        reference = solve_scipy(problem)
        assert solution.objective_value == pytest.approx(reference.objective_value, rel=1e-3)

    def test_known_closed_form_diagonal_case(self):
        # With an identity design, min sum c_i/u_i s.t. u_i <= 1 has solution
        # u_i = 1 and objective sum(c_i).
        costs = np.array([3.0, 5.0, 2.0])
        problem = WeightingProblem(costs=costs, constraints=np.eye(3))
        for solver in ALL_SOLVERS:
            solution = solver(problem)
            assert solution.objective_value == pytest.approx(costs.sum(), rel=1e-6)
            np.testing.assert_allclose(solution.weights, 1.0, rtol=1e-4)

    def test_shared_constraint_closed_form(self):
        # One constraint u1 + u2 <= 1 with costs (4, 1): optimal u = (2/3, 1/3),
        # objective = 4/(2/3) + 1/(1/3) = 9 (Cauchy-Schwarz: (sum sqrt(c_i))^2).
        problem = WeightingProblem(
            costs=np.array([4.0, 1.0]), constraints=np.array([[1.0, 1.0]])
        )
        for solver in ALL_SOLVERS:
            solution = solver(problem)
            assert solution.objective_value == pytest.approx(9.0, rel=1e-6)


class TestDispatcher:
    def test_auto_solver_converges(self, range_problem):
        solution = solve_weighting(range_problem)
        assert solution.converged

    def test_named_solver(self, range_problem):
        assert solve_weighting(range_problem).solver == "l-bfgs-b"

    def test_unknown_solver(self, range_problem):
        # There is one solver: no backend can be chosen by name.
        with pytest.raises(TypeError):
            solve_weighting(range_problem, solver="simplex")

    def test_convergence_warning_emitted(self, range_problem):
        from repro.exceptions import ConvergenceWarning

        with pytest.warns(ConvergenceWarning):
            solve_weighting(range_problem, max_iterations=2)

    def test_options_forwarded(self, range_problem):
        solution = solve_weighting(range_problem, max_iterations=3, warn_on_no_convergence=False)
        assert solution.iterations <= 3
        assert not solution.converged

    def test_restarts_are_bounded_when_the_certificate_is_out_of_reach(self, range_problem):
        # A gap of 1e-13 is below the dual's rounding floor on this problem:
        # L-BFGS-B stops on its own, is restarted a bounded number of times,
        # and the loose sqrt(tolerance) rule still reports convergence.
        from repro.optimize.solver import RESTARTS

        solution = solve_weighting(range_problem, tolerance=1e-13, warn_on_no_convergence=False)
        assert solution.diagnostics["restarts"] <= RESTARTS
        assert solution.converged
        assert solution.relative_gap <= np.sqrt(1e-13)


class TestL1Weighting:
    def test_problem_uses_absolute_values(self):
        design = np.array([[1.0, -1.0], [0.0, 2.0]])
        problem = l1_weighting_problem(design, np.array([1.0, 1.0]))
        np.testing.assert_allclose(problem.constraints, np.abs(design).T)
        assert problem.power == 2.0

    def test_l1_weights_feasible(self):
        workload = all_range_queries_1d(16)
        values, queries = eigen_queries(workload)
        solution = solve_l1_weights(queries, values)
        # L1 column norms of the weighted strategy stay within 1.
        weighted = solution.weights[:, None] * queries
        assert np.abs(weighted).sum(axis=0).max() <= 1 + 1e-6

    def test_l1_closed_form_single_query(self):
        # One design query (1, 1), cost 1: constraint lambda * 1 <= 1 so
        # lambda = 1 and objective = 1.
        solution = solve_l1_weights(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert solution.objective_value == pytest.approx(1.0, rel=1e-5)
        assert solution.weights[0] == pytest.approx(1.0, rel=1e-5)
