"""The weighting solver: L-BFGS-B on the dual of Program 1.

The dual ``g(mu) = min_u L(u, mu)`` of a
:class:`~repro.optimize.weighting_problem.WeightingProblem` is smooth and
concave on ``mu >= 0`` and its gradient is ``C u(mu) - 1``, so a
bound-constrained quasi-Newton method fits it directly: this module hands
``-g`` to SciPy's L-BFGS-B with bounds ``mu >= 0``.  Every evaluation costs
one ``C^T mu`` and one ``C u`` product, for dense matrices and structured
constraint operators alike.

Every evaluated ``u(mu)``, scaled onto the sensitivity boundary, is a
feasible primal point and every ``g(mu)`` a lower bound on the optimum, so
after each accepted iterate the solver stops once the best pair certifies a
relative duality gap of ``tolerance``.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.optimize

from repro.exceptions import ConvergenceWarning
from repro.optimize.result import WeightingSolution
from repro.optimize.weighting_problem import WeightingProblem

__all__ = ["solve_weighting"]

#: How many times L-BFGS-B is restarted from its last point when it stops
#: (its line search found no decrease) before the duality-gap certificate
#: holds.
RESTARTS = 4


def solve_weighting(
    problem: WeightingProblem,
    *,
    tolerance: float = 1e-6,
    max_iterations: int = 20_000,
    warn_on_no_convergence: bool = True,
) -> WeightingSolution:
    """Solve ``problem`` by L-BFGS-B on its dual, to a certified relative gap.

    Parameters
    ----------
    tolerance:
        Target relative duality gap ``(primal - dual) / primal``.
    max_iterations:
        Cap on L-BFGS-B iterations, summed over restarts.
    warn_on_no_convergence:
        Emit a :class:`~repro.exceptions.ConvergenceWarning` when the solve
        ends without convergence.

    When the certificate cannot be reached (the dual is numerically flat
    before the gap closes), the solution still reports ``converged`` if the
    gap is within ``sqrt(tolerance)`` of the primal objective.
    """
    best_weights = problem.scale_to_feasible(problem.initial_weights())
    best_primal = problem.objective(best_weights)
    best_dual = -np.inf

    def certified() -> bool:
        return best_primal > 0 and best_primal - best_dual <= tolerance * best_primal

    def negated_dual(mu: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_weights, best_primal, best_dual
        value, weights = problem.dual_value_and_primal(mu)
        loads = problem.constraint_values(weights)
        best_dual = max(best_dual, value)
        top = float(np.max(loads))
        if top > 0:
            feasible = weights / top
            primal = problem.objective(feasible)
            if primal < best_primal:
                best_primal, best_weights = primal, feasible
        return -value, 1.0 - loads

    def stop_when_certified(intermediate_result) -> None:
        if certified():
            raise StopIteration

    # The iteration cap and the certificate are the only stopping rules;
    # L-BFGS-B's own tolerances are zeroed so it stops early only when its
    # line search can make no further progress.
    mu = problem.initial_dual()
    iterations = evaluations = restarts = 0
    message = ""
    while True:
        result = scipy.optimize.minimize(
            negated_dual,
            mu,
            jac=True,
            method="L-BFGS-B",
            bounds=scipy.optimize.Bounds(0.0, np.inf),
            callback=stop_when_certified,
            options={"maxiter": max_iterations - iterations, "gtol": 0.0, "ftol": 0.0},
        )
        iterations += int(result.nit)
        evaluations += int(result.nfev)
        message = str(result.message)
        mu = result.x
        if (
            certified()
            or iterations >= max_iterations
            or restarts >= RESTARTS
            or result.nit == 0
        ):
            break
        restarts += 1

    converged = certified() or (
        best_primal > 0 and best_primal - best_dual <= np.sqrt(tolerance) * best_primal
    )
    solution = WeightingSolution(
        weights=best_weights,
        objective_value=best_primal,
        dual_value=best_dual,
        duality_gap=best_primal - best_dual,
        iterations=iterations,
        converged=converged,
        solver="l-bfgs-b",
        diagnostics={"evaluations": evaluations, "restarts": restarts, "message": message},
    )
    if warn_on_no_convergence and not converged:
        warnings.warn(
            f"weighting solver stopped after {iterations} iterations with "
            f"relative gap {solution.relative_gap:.2e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return solution
