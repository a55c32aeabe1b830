"""Projected-gradient ascent on the dual of the weighting problem.

The dual function is concave, differentiable on the positive orthant and its
gradient is cheap to evaluate (one matrix-vector product with the constraint
matrix), so projected gradient ascent with a backtracking line search scales
to thousands of design queries.  Every iterate yields a feasible primal point
(by uniform scaling), so the solver always reports a valid duality gap.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import OptimizationError
from repro.optimize.result import WeightingSolution
from repro.optimize.weighting_problem import WeightingProblem, _DENOMINATOR_FLOOR

__all__ = ["solve_dual_ascent", "solve_dual_ascent_batch"]


def solve_dual_ascent(
    problem: WeightingProblem,
    *,
    tolerance: float = 1e-6,
    max_iterations: int = 20_000,
    initial_step: float = 1.0,
) -> WeightingSolution:
    """Solve ``problem`` by projected gradient ascent on its dual.

    Parameters
    ----------
    tolerance:
        Target relative duality gap.
    max_iterations:
        Hard cap on gradient steps.
    initial_step:
        Starting step size; the step adapts multiplicatively based on
        line-search success.
    """
    dual = problem.initial_dual()
    # ``primal`` tracks u(mu) for the current dual so the gradient never
    # repeats the C^T mu product the line search already paid for.
    value, primal_at_dual = problem.dual_value_and_primal(dual)
    step_scale = max(float(dual[0]), 1e-12)
    step = float(initial_step) * step_scale

    best_weights = problem.scale_to_feasible(problem.initial_weights())
    best_primal = problem.objective(best_weights)
    best_dual_value = value
    iterations = 0
    converged = False
    backtracks = 0

    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        gradient = problem.constraint_values(primal_at_dual) - 1.0

        # Line search on the (concave) dual value: first try to expand the
        # step while it keeps helping, otherwise backtrack.  The step size is
        # never allowed to collapse permanently (a single cautious iteration
        # should not cripple all later ones).
        step = max(step, 1e-12 * step_scale)
        improved = False
        trial_step = step
        candidate = np.maximum(dual + trial_step * gradient, 0.0)
        candidate_value, candidate_primal = problem.dual_value_and_primal(candidate)
        if candidate_value > value:
            improved = True
            for _ in range(30):
                wider = np.maximum(dual + 2.0 * trial_step * gradient, 0.0)
                wider_value, wider_primal = problem.dual_value_and_primal(wider)
                if wider_value <= candidate_value:
                    break
                trial_step *= 2.0
                candidate, candidate_value = wider, wider_value
                candidate_primal = wider_primal
        else:
            for _ in range(60):
                trial_step *= 0.5
                backtracks += 1
                candidate = np.maximum(dual + trial_step * gradient, 0.0)
                candidate_value, candidate_primal = problem.dual_value_and_primal(candidate)
                if candidate_value > value:
                    improved = True
                    break
        stalled = False
        if not improved:
            # The gradient step cannot improve the dual: we are (numerically)
            # at a stationary point of the projected problem.
            stalled = True
        else:
            dual = candidate
            value = candidate_value
            primal_at_dual = candidate_primal
            step = trial_step

        best_dual_value = max(best_dual_value, value)

        check_now = stalled or iteration % 10 == 0 or iteration == max_iterations
        if check_now:
            weights = problem.scale_to_feasible(primal_at_dual)
            primal = problem.objective(weights)
            if primal < best_primal:
                best_primal = primal
                best_weights = weights
            gap = best_primal - best_dual_value
            if best_primal > 0 and gap <= tolerance * best_primal:
                converged = True
            elif stalled:
                # Numerically stationary but not certified optimal: report a
                # loose convergence only when the gap is already small.
                converged = best_primal > 0 and gap <= np.sqrt(tolerance) * best_primal
            if converged or stalled:
                break

    return WeightingSolution(
        weights=best_weights,
        objective_value=best_primal,
        dual_value=best_dual_value,
        duality_gap=best_primal - best_dual_value,
        iterations=iterations,
        converged=converged,
        solver="dual-ascent",
        diagnostics={"backtracks": backtracks, "final_step": step},
    )


def solve_dual_ascent_batch(
    problems: Sequence[WeightingProblem],
    *,
    tolerance: float = 1e-6,
    max_iterations: int = 20_000,
    initial_step: float = 1.0,
) -> list[WeightingSolution]:
    """Solve several dense weighting problems in lockstep.

    The Sec. 4.2 stage-1 solves are many *small* problems over the *same*
    constraint rows (one per cell): run sequentially, each gradient step is a
    skinny matrix-vector product too small to saturate BLAS, and the Python
    line-search overhead is paid ``sum_p iterations_p`` times.  Here every
    problem advances together — each step of each phase (gradient, expand,
    backtrack, feasibility check) is one batched matmul over the stacked
    ``(P, k, r)`` constraint tensor — so the Python overhead is paid
    ``max_p iterations_p`` times and the contractions run at batched-BLAS
    granularity.

    Each problem follows exactly the :func:`solve_dual_ascent` control flow
    (per-problem step sizes, line-search masks, stall detection, best-point
    tracking).  Problems that converge or stall are *compacted out* of the
    stack (the same trick the batched PCG plays with converged columns), so
    a few slow stragglers never pay the contraction cost of the whole batch
    — total work tracks ``sum_p iterations_p``, not
    ``max_p iterations_p * P``.  Problems are zero-padded to the widest
    variable count — padded columns carry zero cost and zero constraint
    entries, so they get zero weight and change nothing.

    Parameters
    ----------
    problems:
        Dense-constraint problems sharing one constraint row count and one
        objective ``power``.  (Structured operators have no stacked tensor
        to contract; solve those sequentially.)
    tolerance, max_iterations, initial_step:
        As in :func:`solve_dual_ascent`, applied per problem.
    """
    if not problems:
        return []
    for problem in problems:
        if problem.structured:
            raise OptimizationError(
                "solve_dual_ascent_batch requires dense constraints; solve "
                "structured problems with solve_dual_ascent"
            )
    rows = {problem.constraint_count for problem in problems}
    powers = {float(problem.power) for problem in problems}
    if len(rows) != 1 or len(powers) != 1:
        raise OptimizationError(
            "batched dual ascent needs a shared constraint row count and power; "
            f"got rows={sorted(rows)}, powers={sorted(powers)}"
        )

    count = len(problems)
    k = rows.pop()
    power = powers.pop()
    widths = [problem.variable_count for problem in problems]
    rmax = max(widths)
    stacked = np.zeros((count, k, rmax))
    costs = np.zeros((count, rmax))
    upper = np.full((count, rmax), np.inf)
    for index, problem in enumerate(problems):
        stacked[index, :, : widths[index]] = problem.constraints
        costs[index, : widths[index]] = problem.costs
        upper[index, : widths[index]] = problem._upper_bounds
    # A contiguous pre-transposed copy keeps both contraction directions on
    # the batched-BLAS fast path (matmul over strided views copies per call).
    transposed = np.ascontiguousarray(stacked.transpose(0, 2, 1))
    positive = costs > 0
    exponent = 1.0 / (power + 1.0)

    # The helpers close over the live-subset arrays by *name*: compaction
    # below rebinds ``stacked``/``transposed``/``costs``/``upper``/
    # ``positive`` to the surviving rows and every later call sees the
    # smaller stack.

    def apply(u):
        return (stacked @ u[:, :, None])[:, :, 0]

    def apply_transpose(mu):
        return (transposed @ mu[:, :, None])[:, :, 0]

    def primal_from_dual(dual):
        denominator = np.maximum(apply_transpose(dual), _DENOMINATOR_FLOOR)
        weights = (power * costs / denominator) ** exponent
        return np.minimum(weights, upper)

    def masked_objective_terms(weights):
        # 0-cost (and padded) columns sit at weight 0; mask before the
        # negative power so they contribute exactly 0 instead of 0**-p.
        safe = np.where(positive, weights, 1.0)
        return np.sum(np.where(positive, costs * safe ** (-power), 0.0), axis=1)

    def dual_value_and_primal(dual):
        # One stacked contraction serves both the inner minimiser and the
        # linear term (primal_from_dual would recompute the same C^T mu).
        linear = apply_transpose(dual)
        denominator = np.maximum(linear, _DENOMINATOR_FLOOR)
        weights = np.minimum((power * costs / denominator) ** exponent, upper)
        value = (
            masked_objective_terms(weights)
            + np.sum(np.where(positive, linear * weights, 0.0), axis=1)
            - np.sum(dual, axis=1)
        )
        return value, weights

    def objective(weights):
        bad = np.any(positive & (weights <= 0), axis=1)
        return np.where(bad, np.inf, masked_objective_terms(weights))

    def scale_to_feasible(weights):
        top = np.max(apply(weights), axis=1)
        if np.any(top <= 0):
            raise OptimizationError("cannot scale a zero weight vector to feasibility")
        return weights / top[:, None]

    # Initial points, exactly as the sequential solver computes them.
    row_load = np.sum(stacked, axis=2)
    load_top = np.max(row_load, axis=1)
    if np.any(load_top <= 0):
        raise OptimizationError("constraint matrix is identically zero")
    initial_weights = np.broadcast_to((0.9 / load_top)[:, None], (count, rmax))
    reference = np.max(apply(primal_from_dual(np.ones((count, k)))), axis=1)
    usable = np.isfinite(reference) & (reference > 0)
    alpha = np.where(usable, np.maximum(reference ** (power + 1.0), 1e-12), 1.0)
    dual = np.broadcast_to(alpha[:, None], (count, k)) + np.zeros((count, k))
    value, primal_at_dual = dual_value_and_primal(dual)
    step_scale = np.maximum(dual[:, 0], 1e-12)
    step = float(initial_step) * step_scale

    best_weights = scale_to_feasible(initial_weights)
    best_primal = objective(best_weights)
    best_dual_value = value

    # Full-size result buffers; ``alive`` maps live-stack rows to problems.
    alive = np.arange(count)
    out_weights = np.zeros((count, rmax))
    out_primal = np.zeros(count)
    out_dual_value = np.zeros(count)
    out_step = np.zeros(count)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    backtracks = np.zeros(count, dtype=int)

    def flush(exiting: np.ndarray) -> None:
        indices = alive[exiting]
        out_weights[indices] = best_weights[exiting]
        out_primal[indices] = best_primal[exiting]
        out_dual_value[indices] = best_dual_value[exiting]
        out_step[indices] = step[exiting]

    for iteration in range(1, max_iterations + 1):
        if alive.size == 0:
            break
        iterations[alive] = iteration
        gradient = apply(primal_at_dual) - 1.0

        step = np.maximum(step, 1e-12 * step_scale)
        trial = step
        candidate = np.maximum(dual + trial[:, None] * gradient, 0.0)
        candidate_value, candidate_primal = dual_value_and_primal(candidate)
        improved = candidate_value > value
        expanding = improved.copy()
        for _ in range(30):
            if not expanding.any():
                break
            wider = np.maximum(dual + (2.0 * trial)[:, None] * gradient, 0.0)
            wider_value, wider_primal = dual_value_and_primal(wider)
            grow = expanding & (wider_value > candidate_value)
            trial = np.where(grow, 2.0 * trial, trial)
            candidate = np.where(grow[:, None], wider, candidate)
            candidate_value = np.where(grow, wider_value, candidate_value)
            candidate_primal = np.where(grow[:, None], wider_primal, candidate_primal)
            expanding = grow
        backing = ~improved
        for _ in range(60):
            if not backing.any():
                break
            trial = np.where(backing, 0.5 * trial, trial)
            backtracks[alive] += backing
            retry = np.maximum(dual + trial[:, None] * gradient, 0.0)
            retry_value, retry_primal = dual_value_and_primal(retry)
            success = backing & (retry_value > value)
            candidate = np.where(backing[:, None], retry, candidate)
            candidate_value = np.where(backing, retry_value, candidate_value)
            candidate_primal = np.where(backing[:, None], retry_primal, candidate_primal)
            improved = improved | success
            backing = backing & ~success

        stalled = ~improved
        dual = np.where(improved[:, None], candidate, dual)
        value = np.where(improved, candidate_value, value)
        primal_at_dual = np.where(improved[:, None], candidate_primal, primal_at_dual)
        step = np.where(improved, trial, step)
        best_dual_value = np.maximum(best_dual_value, value)

        check_now = stalled | (iteration % 10 == 0) | (iteration == max_iterations)
        if check_now.any():
            weights = scale_to_feasible(primal_at_dual)
            primal = objective(weights)
            better = check_now & (primal < best_primal)
            best_primal = np.where(better, primal, best_primal)
            best_weights = np.where(better[:, None], weights, best_weights)
            gap = best_primal - best_dual_value
            positive_primal = best_primal > 0
            tight = positive_primal & (gap <= tolerance * best_primal)
            loose = positive_primal & (gap <= np.sqrt(tolerance) * best_primal)
            converged[alive] |= check_now & (tight | (stalled & loose))
            exiting = check_now & (tight | stalled)
            if exiting.any():
                flush(exiting)
                keep = ~exiting
                alive = alive[keep]
                stacked = stacked[keep]
                transposed = transposed[keep]
                costs = costs[keep]
                upper = upper[keep]
                positive = positive[keep]
                dual = dual[keep]
                value = value[keep]
                primal_at_dual = primal_at_dual[keep]
                step = step[keep]
                step_scale = step_scale[keep]
                best_weights = best_weights[keep]
                best_primal = best_primal[keep]
                best_dual_value = best_dual_value[keep]

    if alive.size:
        # Iteration budget exhausted: record the stragglers' best points.
        flush(np.ones(alive.size, dtype=bool))

    return [
        WeightingSolution(
            weights=out_weights[index, : widths[index]].copy(),
            objective_value=float(out_primal[index]),
            dual_value=float(out_dual_value[index]),
            duality_gap=float(out_primal[index] - out_dual_value[index]),
            iterations=int(iterations[index]),
            converged=bool(converged[index]),
            solver="dual-ascent",
            diagnostics={
                "backtracks": int(backtracks[index]),
                "final_step": float(out_step[index]),
                "batched": count,
            },
        )
        for index in range(count)
    ]
