"""Performance optimisations for strategy selection (Sec. 4.2 of the paper).

Two workload-reduction approaches are implemented, both of which shrink the
number of optimisation variables while keeping every non-zero eigen-query in
the strategy (the strategy's rank may not drop below the workload's rank):

* **Eigen-query separation** — partition the eigen-queries into groups by
  descending eigenvalue, optimise the weights within each group
  independently, and then run a second (small) optimisation over one scale
  factor per group.
* **Principal-vector optimisation** — optimise individual weights only for
  the top-``k`` eigen-queries and a single shared weight for all remaining
  non-zero eigen-queries, reducing the variable count to ``k + 1``.

Both reductions run *matrix-free* on Kronecker workloads: the groups are
formed over the lazy basis spectrum and the constraint columns are
:class:`~repro.utils.operators.KroneckerConstraints` slices (plus a dense
aggregated tail column for the principal-vector method), so the dense
``(Q ∘ Q)^T`` eigen-query matrix is never materialised.  The separation
method's stage-2 problem is matrix-free too: its ``(n, groups)``
group-column matrix is served lazily by a
:class:`~repro.utils.operators.GroupColumnOperator`, so nothing of size
``Θ(n · groups)`` is ever allocated on the factorized path.  The
``factorized`` parameter follows the same auto/force semantics as
:func:`~repro.core.eigen_design.eigen_design`.
"""

from __future__ import annotations

import numpy as np

from repro.core.eigen_design import (
    EigenDesignResult,
    eigen_queries,
    factorized_eigen_queries,
    prefer_factorized,
)
from repro.core.query_weighting import (
    build_factorized_weighted_strategy,
    build_weighted_strategy,
)
from repro.core.workload import Workload
from repro.exceptions import MaterializationError, OptimizationError
from repro.optimize import WeightingProblem, solve_weighting
from repro.utils.operators import (
    HARD_MATERIALIZATION_LIMIT,
    ColumnBlockConstraints,
    GroupColumnOperator,
    KroneckerConstraints,
    within_materialization_budget,
)

__all__ = ["eigen_query_separation", "principal_vectors", "recommended_group_size"]


def recommended_group_size(cell_count: int) -> int:
    """The asymptotically optimal group size ``n**(1/3)`` (Sec. 4.2)."""
    return max(2, int(round(cell_count ** (1.0 / 3.0))))


class _DesignSpace:
    """The eigen-query design set behind both Sec. 4.2 reductions.

    Wraps the dense representation (explicit eigen-query rows and the dense
    ``(Q ∘ Q)^T`` constraint matrix) and the factorized one (lazy basis plus
    :class:`KroneckerConstraints`) behind one slicing interface, so the
    reduction algorithms are written exactly once.
    """

    def __init__(self, workload: Workload, factorized: bool):
        self.factorized = factorized
        if factorized:
            self.basis, self.values, self.positions = factorized_eigen_queries(workload)
            self.queries = None
            self.constraints = KroneckerConstraints(self.basis, self.positions)
        else:
            self.basis = None
            self.values, self.queries = eigen_queries(workload)
            self.constraints = (self.queries ** 2).T

    def slice_columns(self, indexes: np.ndarray):
        """Constraint columns for the given eigen-queries (dense or operator).

        On the factorized path a slice that fits the materialization budget
        is densified via one batched structured pass
        (:meth:`KroneckerConstraints.to_dense`): the reduction solvers then
        run at BLAS matrix-vector granularity instead of paying one
        ``kron_apply`` per solver step, which is what retires the
        small-domain regression of the factorized Sec. 4.2 reductions.
        Slices beyond the budget stay lazy operator views.
        """
        indexes = np.asarray(indexes, dtype=int)
        if self.factorized:
            sliced = self.constraints.restrict(indexes)
            if within_materialization_budget(sliced.shape[0], sliced.shape[1]):
                return sliced.to_dense()
            return sliced
        return self.constraints[:, indexes]

    def tail_column(self, start: int) -> np.ndarray:
        """The aggregated constraint column of eigen-queries ``start:`` ."""
        if self.factorized:
            return self.constraints.restrict(np.arange(start, self.values.shape[0])).row_sums()
        return self.constraints[:, start:].sum(axis=1)

    def build_strategy(self, squared_weights: np.ndarray, *, complete: bool, name: str):
        if self.factorized:
            return build_factorized_weighted_strategy(
                self.basis, self.positions, squared_weights, complete=complete, name=name
            )
        return build_weighted_strategy(
            self.queries, squared_weights, complete=complete, name=name
        )


def eigen_query_separation(
    workload: Workload,
    *,
    group_size: int | None = None,
    complete: bool = True,
    factorized: bool | None = None,
    **solver_options,
) -> EigenDesignResult:
    """Approximate Program 2 by optimising groups of eigen-queries separately.

    Parameters
    ----------
    group_size:
        Number of eigen-queries per group; defaults to the ``n**(1/3)`` rule.
    factorized:
        Run matrix-free over the lazy Kronecker eigenbasis: grouping over the
        basis spectrum, stage-1 constraint columns as operator slices, and
        the stage-2 group columns served lazily by a
        :class:`~repro.utils.operators.GroupColumnOperator` (no
        ``Θ(n · groups)`` allocation).  ``None`` auto-selects like
        :func:`~repro.core.eigen_design.eigen_design`.
    """
    if factorized is None:
        factorized = prefer_factorized(workload)
    space = _DesignSpace(workload, factorized)
    values = space.values
    count = values.shape[0]
    if group_size is None:
        group_size = recommended_group_size(workload.column_count)
    if group_size < 1:
        raise OptimizationError(f"group_size must be >= 1, got {group_size}")
    group_size = min(group_size, count)

    # Stage 1: optimise each group of eigen-queries in isolation.
    groups = [np.arange(start, min(start + group_size, count)) for start in range(0, count, group_size)]
    # On the dense path stage 2 materialises one dense column per group (the
    # group strategies' squared column norms).  Refuse it past the hard cap
    # instead of letting numpy attempt a silent multi-GiB allocation; the
    # factorized path serves the same columns lazily through a
    # GroupColumnOperator, so it has no such limit.
    if not factorized and not within_materialization_budget(
        workload.column_count, len(groups), limit=HARD_MATERIALIZATION_LIMIT
    ):
        raise MaterializationError(
            f"eigen-query separation with {len(groups)} groups over "
            f"{workload.column_count} cells needs a dense stage-2 matrix beyond "
            "the hard materialization cap; increase group_size or pass "
            "factorized=True for the matrix-free stage 2"
        )
    scaled_weights: list[np.ndarray] = []
    group_costs = np.zeros(len(groups))
    # Collect the dense stage-2 matrix whenever it fits the budget — on the
    # dense path always (guarded above), on the factorized path exactly when
    # the crossover densified the stage-1 slices anyway.  Past the budget the
    # factorized path serves the same columns lazily (GroupColumnOperator).
    group_columns = None
    if not factorized or within_materialization_budget(workload.column_count, len(groups)):
        group_columns = np.zeros((workload.column_count, len(groups)))
    iterations = 0
    # The combined outcome is certified only when every stage solve is.
    converged = True
    for position, indexes in enumerate(groups):
        problem = WeightingProblem(costs=values[indexes], constraints=space.slice_columns(indexes))
        solution = solve_weighting(problem, **solver_options)
        iterations += solution.iterations
        converged = converged and solution.converged
        scaled = problem.scale_to_feasible(solution.weights)
        scaled_weights.append(scaled)
        group_costs[position] = problem.objective(scaled)
        if group_columns is not None:
            group_columns[:, position] = problem.constraint_values(scaled)

    # Stage 2: one multiplicative factor per group; this is the same weighting
    # problem with the group strategies playing the role of design queries.
    # The factorized path keeps the (n, groups) group-column matrix lazy: the
    # groups partition the retained eigen-queries, so the stage-2 constraint
    # actions are single structured passes over the shared eigenbasis.
    if len(groups) == 1:
        combined = np.ones(1)
        combine_solution = None
    else:
        if group_columns is not None:
            stage2_constraints = group_columns
        else:
            stage2_constraints = GroupColumnOperator(
                space.basis,
                [space.constraints.columns[indexes] for indexes in groups],
                scaled_weights,
            )
        combine_problem = WeightingProblem(costs=group_costs, constraints=stage2_constraints)
        combine_solution = solve_weighting(combine_problem, **solver_options)
        iterations += combine_solution.iterations
        converged = converged and combine_solution.converged
        combined = combine_solution.weights

    squared_weights = np.zeros(count)
    for position, indexes in enumerate(groups):
        squared_weights[indexes] = scaled_weights[position] * combined[position]

    strategy, lambdas, completion_rows = space.build_strategy(
        squared_weights, complete=complete, name="eigen-separation"
    )
    final_problem = WeightingProblem(costs=values, constraints=space.constraints)
    feasible = final_problem.scale_to_feasible(squared_weights)
    solution = _reporting_solution(
        final_problem, feasible, iterations, combine_solution, converged
    )
    return EigenDesignResult(
        strategy=strategy,
        weights=lambdas,
        eigen_queries=space.queries,
        eigenvalues=values,
        solution=solution,
        completion_rows=completion_rows,
        method="eigen-separation-factorized" if factorized else "eigen-separation",
        diagnostics={"group_size": group_size, "groups": len(groups)},
        eigen_basis=space.basis,
    )


def principal_vectors(
    workload: Workload,
    *,
    count: int | None = None,
    fraction: float | None = None,
    complete: bool = True,
    factorized: bool | None = None,
    **solver_options,
) -> EigenDesignResult:
    """Approximate Program 2 with individual weights only for the top eigen-queries.

    Exactly one of ``count`` and ``fraction`` may be given; the default is the
    paper's observation that ~10% of the eigenvectors usually suffices.
    ``factorized`` follows the :func:`~repro.core.eigen_design.eigen_design`
    auto/force semantics; the reduced constraint matrix then stays an operator
    (a top-``k`` :class:`KroneckerConstraints` slice with one dense aggregated
    tail column appended).
    """
    if factorized is None:
        factorized = prefer_factorized(workload)
    space = _DesignSpace(workload, factorized)
    values = space.values
    total = values.shape[0]
    if count is not None and fraction is not None:
        raise OptimizationError("specify either count or fraction, not both")
    if count is None:
        fraction = 0.1 if fraction is None else float(fraction)
        if not 0 < fraction <= 1:
            raise OptimizationError(f"fraction must lie in (0, 1], got {fraction}")
        count = max(1, int(round(fraction * total)))
    count = int(count)
    if not 1 <= count <= total:
        raise OptimizationError(f"count must lie in [1, {total}], got {count}")

    if count == total:
        reduced_costs = values
        reduced_constraints = space.constraints
        if factorized and within_materialization_budget(*space.constraints.shape):
            reduced_constraints = space.constraints.to_dense()
    else:
        tail_cost = float(np.sum(values[count:]))
        tail_column = space.tail_column(count)[:, None]
        reduced_costs = np.concatenate([values[:count], [tail_cost]])
        top_columns = space.slice_columns(np.arange(count))
        if factorized and not isinstance(top_columns, np.ndarray):
            reduced_constraints = ColumnBlockConstraints([top_columns, tail_column])
        else:
            # The budget crossover densified the top-column slice, so the
            # whole reduced problem is a small dense matrix — stack it and
            # let the solver run at BLAS granularity.
            reduced_constraints = np.hstack([top_columns, tail_column])

    problem = WeightingProblem(costs=reduced_costs, constraints=reduced_constraints)
    solution = solve_weighting(problem, **solver_options)

    squared_weights = np.empty(total)
    squared_weights[:count] = solution.weights[:count]
    if count < total:
        squared_weights[count:] = solution.weights[count]

    strategy, lambdas, completion_rows = space.build_strategy(
        squared_weights, complete=complete, name="principal-vectors"
    )
    return EigenDesignResult(
        strategy=strategy,
        weights=lambdas,
        eigen_queries=space.queries,
        eigenvalues=values,
        solution=solution,
        completion_rows=completion_rows,
        method="principal-vectors-factorized" if factorized else "principal-vectors",
        diagnostics={"principal_count": count, "total_eigen_queries": total},
        eigen_basis=space.basis,
    )


def _reporting_solution(problem, feasible_weights, iterations, inner_solution, converged):
    """Build a WeightingSolution describing the combined two-stage outcome."""
    from repro.optimize import WeightingSolution

    objective = problem.objective(feasible_weights)
    dual_value = float("nan") if inner_solution is None else inner_solution.dual_value
    return WeightingSolution(
        weights=feasible_weights,
        objective_value=objective,
        dual_value=dual_value,
        duality_gap=float("nan"),
        iterations=iterations,
        converged=converged,
        solver="eigen-separation",
    )
