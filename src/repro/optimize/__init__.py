"""Convex-optimisation substrate for strategy selection.

The entry point is :func:`solve_weighting`, which dispatches a
:class:`~repro.optimize.weighting_problem.WeightingProblem` to one of three
backends:

* ``"dual-newton"`` — damped Newton on the dual (default for moderate sizes);
* ``"dual-ascent"`` — projected gradient on the dual (scales to large sizes);
* ``"scipy"`` — SLSQP reference implementation for small problems.
"""

from __future__ import annotations

import warnings

from repro.exceptions import ConvergenceWarning, OptimizationError
from repro.optimize.dual_ascent import solve_dual_ascent, solve_dual_ascent_batch
from repro.optimize.exact_gram import (
    GramDescentResult,
    optimal_gram_strategy,
    strategy_from_gram,
)
from repro.optimize.dual_newton import solve_dual_newton
from repro.optimize.l1_weighting import l1_weighting_problem, solve_l1_weights
from repro.optimize.result import WeightingSolution
from repro.optimize.scipy_backend import solve_scipy
from repro.optimize.weighting_problem import WeightingProblem

__all__ = [
    "GramDescentResult",
    "WeightingProblem",
    "WeightingSolution",
    "l1_weighting_problem",
    "optimal_gram_strategy",
    "solve_dual_ascent",
    "solve_dual_ascent_batch",
    "solve_dual_newton",
    "solve_l1_weights",
    "solve_scipy",
    "solve_weighting",
    "solve_weighting_batch",
    "strategy_from_gram",
]

#: Problems with more constraints than this are never escalated to the
#: second-order (dense Hessian) fallback solver.
NEWTON_CONSTRAINT_LIMIT = 2200

_SOLVERS = {
    "dual-newton": solve_dual_newton,
    "dual-ascent": solve_dual_ascent,
    "scipy": solve_scipy,
}


def solve_weighting(
    problem: WeightingProblem,
    *,
    solver: str = "auto",
    warn_on_no_convergence: bool = True,
    **options,
) -> WeightingSolution:
    """Solve a weighting problem with the requested (or automatic) backend.

    ``solver`` is one of ``"auto"``, ``"dual-newton"``, ``"dual-ascent"`` or
    ``"scipy"``.  Extra keyword arguments are forwarded to the backend.
    """
    name = solver
    if name == "auto":
        # The first-order method scales best and converges on virtually every
        # instance; the second-order method is the fallback for the rare cases
        # where it stalls (and only when the Hessian is affordable).
        solution = solve_dual_ascent(problem, **options)
        if (
            not solution.converged
            and not problem.structured
            and problem.constraint_count <= NEWTON_CONSTRAINT_LIMIT
        ):
            shared = {k: v for k, v in options.items() if k in ("tolerance", "max_iterations")}
            newton = solve_dual_newton(problem, **shared)
            if newton.objective_value <= solution.objective_value or newton.converged:
                solution = newton
    else:
        try:
            backend = _SOLVERS[name]
        except KeyError:
            raise OptimizationError(
                f"unknown solver {solver!r}; choose from {sorted(_SOLVERS)} or 'auto'"
            ) from None
        solution = backend(problem, **options)
    if warn_on_no_convergence and not solution.converged:
        warnings.warn(
            f"weighting solver {solution.solver!r} stopped after "
            f"{solution.iterations} iterations with relative gap "
            f"{solution.relative_gap:.2e}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return solution


def solve_weighting_batch(
    problems,
    *,
    solver: str = "auto",
    warn_on_no_convergence: bool = True,
    **options,
) -> "list[WeightingSolution]":
    """Solve a family of weighting problems, batching where the shape allows.

    When the problems are all dense with a shared constraint row count (the
    Sec. 4.2 stage-1 per-group solves), the first-order phase runs as one
    :func:`solve_dual_ascent_batch` lockstep — a single stacked batched-BLAS
    contraction per gradient/line-search step instead of one skinny
    matrix-vector product per problem per step.  Under ``solver="auto"`` any
    problem that fails to converge then escalates to the second-order
    fallback individually, exactly as :func:`solve_weighting` would.  Any
    shape mismatch (structured operators, differing row counts or powers) or
    an explicit non-first-order ``solver`` falls back to sequential
    :func:`solve_weighting` calls, so results never depend on whether
    batching was possible in kind — only in speed.
    """
    problems = list(problems)
    if solver in ("auto", "dual-ascent") and len(problems) > 1:
        batchable = (
            all(not problem.structured for problem in problems)
            and len({problem.constraint_count for problem in problems}) == 1
            and len({float(problem.power) for problem in problems}) == 1
        )
        if batchable:
            first_order = {
                k: v
                for k, v in options.items()
                if k in ("tolerance", "max_iterations", "initial_step")
            }
            solutions = solve_dual_ascent_batch(problems, **first_order)
            results = []
            for problem, solution in zip(problems, solutions):
                if (
                    solver == "auto"
                    and not solution.converged
                    and problem.constraint_count <= NEWTON_CONSTRAINT_LIMIT
                ):
                    shared = {
                        k: v for k, v in options.items() if k in ("tolerance", "max_iterations")
                    }
                    newton = solve_dual_newton(problem, **shared)
                    if newton.objective_value <= solution.objective_value or newton.converged:
                        solution = newton
                if warn_on_no_convergence and not solution.converged:
                    warnings.warn(
                        f"weighting solver {solution.solver!r} stopped after "
                        f"{solution.iterations} iterations with relative gap "
                        f"{solution.relative_gap:.2e}",
                        ConvergenceWarning,
                        stacklevel=2,
                    )
                results.append(solution)
            return results
    return [
        solve_weighting(
            problem,
            solver=solver,
            warn_on_no_convergence=warn_on_no_convergence,
            **options,
        )
        for problem in problems
    ]
