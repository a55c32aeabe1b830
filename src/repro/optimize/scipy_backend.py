"""Reference solver built on :func:`scipy.optimize.minimize` (SLSQP).

This backend solves the weighting problem directly in primal form.  It is
slower than the dual solver and intended for small problems and as an
independent cross-check in the test suite.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.exceptions import OptimizationError
from repro.optimize.result import WeightingSolution
from repro.optimize.weighting_problem import WeightingProblem

__all__ = ["solve_scipy"]

#: Lower bound applied to every variable to keep the objective differentiable.
_WEIGHT_FLOOR = 1e-12


def solve_scipy(
    problem: WeightingProblem,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
) -> WeightingSolution:
    """Solve ``problem`` with SLSQP; intended for small instances (< ~300 variables)."""
    if problem.variable_count > 2000:
        raise OptimizationError(
            "the scipy backend is a reference implementation for small problems; "
            f"got {problem.variable_count} variables"
        )
    if problem.structured:
        raise OptimizationError(
            "the scipy backend needs dense constraints; use solve_weighting for "
            "structured constraint operators"
        )
    costs = problem.costs
    constraints = problem.constraints
    power = problem.power

    def objective(u: np.ndarray) -> float:
        return float(np.sum(costs * np.maximum(u, _WEIGHT_FLOOR) ** (-power)))

    def gradient(u: np.ndarray) -> np.ndarray:
        safe = np.maximum(u, _WEIGHT_FLOOR)
        return -power * costs * safe ** (-power - 1.0)

    start = problem.initial_weights()
    result = scipy.optimize.minimize(
        objective,
        start,
        jac=gradient,
        method="SLSQP",
        bounds=[(_WEIGHT_FLOOR, None)] * problem.variable_count,
        constraints=[
            {
                "type": "ineq",
                "fun": lambda u: 1.0 - constraints @ u,
                "jac": lambda u: -constraints,
            }
        ],
        options={"maxiter": max_iterations, "ftol": tolerance},
    )
    weights = problem.scale_to_feasible(np.maximum(result.x, _WEIGHT_FLOOR))
    primal = problem.objective(weights)
    return WeightingSolution(
        weights=weights,
        objective_value=primal,
        dual_value=float("nan"),
        duality_gap=float("nan"),
        iterations=int(result.nit),
        converged=bool(result.success),
        solver="scipy-slsqp",
        diagnostics={"message": result.message},
    )
