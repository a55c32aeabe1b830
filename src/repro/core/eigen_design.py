"""The Eigen-Design algorithm (Program 2 of the paper).

Given a workload ``W``:

1. compute the eigendecomposition ``W^T W = Q^T D Q`` (the rows of ``Q`` are
   the *eigen-queries*, Def. 6);
2. solve the optimal query-weighting problem (Program 1) with the
   eigen-queries as the design set and the eigenvalues as the costs;
3. assemble the strategy ``A' = Lambda Q`` and append completion rows so that
   every column reaches the strategy's L2 sensitivity (steps 4-5).

Eigen-queries with (numerically) zero eigenvalue are excluded from the
optimisation, exactly as discussed in Sec. 4.1 for low-rank workloads.

Every step has a dense and a *factorized* (matrix-free) realisation; the
``factorized`` parameter and the :func:`prefer_factorized` auto-switch pick
between them.  ``docs/architecture.md`` documents the operator protocol and
the decision flowchart for which path runs when; ``docs/performance.md``
documents the tuning knobs (materialization budgets), the stochastic
trace's constants and the measured speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.query_weighting import (
    build_factorized_weighted_strategy,
    build_weighted_strategy,
)
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import OptimizationError
from repro.optimize import WeightingProblem, WeightingSolution, solve_weighting
from repro.utils.operators import (
    KroneckerConstraints,
    KroneckerEigenbasis,
    within_materialization_budget,
)

__all__ = [
    "EigenDesignResult",
    "eigen_design",
    "eigen_queries",
    "factorized_eigen_queries",
    "prefer_factorized",
    "singular_value_strategy",
]

#: Eigenvalues below this fraction of the largest are treated as zero.
RANK_TOLERANCE = 1e-10


@dataclass
class EigenDesignResult:
    """Outcome of the Eigen-Design algorithm.

    Attributes
    ----------
    strategy:
        The final strategy matrix ``A`` (weighted eigen-queries plus
        completion rows).
    weights:
        The eigen-query weights ``lambda_i`` (aligned with ``eigenvalues``).
    eigen_queries:
        The retained (non-zero eigenvalue) eigen-queries, one per row — on
        the dense path only.  The factorized path never materialises them
        and sets this to ``None``; use ``eigen_basis`` instead.
    eigenvalues:
        The retained eigenvalues (descending), common to both paths.
    solution:
        The raw output of the weighting solver (variables are
        ``u_i = lambda_i**2``).
    completion_rows:
        Number of rows appended by the sensitivity-completion step.
    method:
        Which variant produced the result (``"eigen-design"``,
        ``"eigen-separation"`` or ``"principal-vectors"``).
    """

    strategy: Strategy
    weights: np.ndarray
    eigen_queries: np.ndarray | None
    eigenvalues: np.ndarray
    solution: WeightingSolution
    completion_rows: int = 0
    method: str = "eigen-design"
    diagnostics: dict = field(default_factory=dict)
    #: Structured eigenbasis of the factorized path (None on the dense path).
    #: When set, ``eigen_queries`` is None — the dense eigen-query matrix was
    #: never materialised; the basis serves its actions instead.
    eigen_basis: KroneckerEigenbasis | None = None


def eigen_queries(workload: Workload) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(eigenvalues, eigen_queries)`` restricted to the non-zero spectrum.

    Eigenvalues are sorted in descending order; eigen-queries are the matching
    eigenvectors of ``W^T W`` stored one per row.
    """
    values, vectors = workload.eigen_decomposition()
    if values.size == 0 or values[0] <= 0:
        raise OptimizationError("the workload Gram matrix is identically zero")
    keep = values > RANK_TOLERANCE * values[0]
    return values[keep], vectors[keep]


def prefer_factorized(workload: Workload) -> bool:
    """The shared auto-switch: factorize exactly when the workload has
    Kronecker structure and the dense eigen-query matrix would blow the
    materialization budget.  Used by ``eigen_design``, the singular-value
    baseline and the Sec. 4.2 reductions so the policy lives in one place.
    """
    cells = workload.column_count
    return (
        not within_materialization_budget(cells, cells)
        and workload.eigen_basis() is not None
    )


def factorized_eigen_queries(
    workload: Workload,
) -> tuple[KroneckerEigenbasis, np.ndarray, np.ndarray]:
    """The factorized analogue of :func:`eigen_queries`.

    Returns ``(basis, eigenvalues, positions)`` where ``eigenvalues`` is the
    retained (non-zero) spectrum in descending order and ``positions`` are
    the matching natural-order indexes into the lazy eigenbasis — the
    eigen-query *rows* are never materialised.
    """
    basis = workload.eigen_basis()
    if basis is None:
        raise OptimizationError(
            "the factorized eigen-query machinery needs a Kronecker-structured "
            f"workload; workload {workload.name!r} has no factor decomposition"
        )
    sorted_values = basis.sorted_values
    if sorted_values.size == 0 or sorted_values[0] <= 0:
        raise OptimizationError("the workload Gram matrix is identically zero")
    keep = sorted_values > RANK_TOLERANCE * sorted_values[0]
    return basis, sorted_values[keep], basis.order[keep]


def eigen_design(
    workload: Workload,
    *,
    complete: bool = True,
    factorized: bool | None = None,
    **solver_options,
) -> EigenDesignResult:
    """Run the Eigen-Design algorithm (Program 2) on ``workload``.

    Parameters
    ----------
    workload:
        The workload to optimise for; may be explicit, Gram-implicit, or a
        structured Kronecker product.
    complete:
        Whether to append the sensitivity-completion rows (steps 4-5); the
        completion never hurts expected error.
    factorized:
        Run the *factorized* fast path: eigendecompose each Kronecker factor
        Gram instead of the ``n x n`` product, solve the weighting program
        through a matrix-free constraint operator, and return a strategy whose
        Gram is a structured operator — nothing of size ``n x n`` is ever
        allocated.  ``None`` (default) auto-selects it exactly when the
        workload has Kronecker structure and the dense eigen-query matrix
        would blow the materialization budget; ``True`` forces it (useful for
        cross-checking against the dense oracle on small domains).
    solver_options:
        Forwarded to :func:`~repro.optimize.solve_weighting` (e.g.
        ``tolerance=1e-8``).

    Notes
    -----
    Error evaluation of the returned strategy stays matrix-free at every
    size and rank: completed designs route through the Woodbury identity or
    the preconditioned-CG + Hutch++ estimator.  The strategy remembers its
    last stochastic trace, so repeated evaluations of it (a budget scan) run
    no solve (see ``docs/performance.md``).
    """
    if factorized is None:
        factorized = prefer_factorized(workload)
    if factorized:
        return _factorized_eigen_design(workload, complete=complete, **solver_options)
    values, queries = eigen_queries(workload)
    # For an orthonormal design set the Thm. 1 costs are exactly the eigenvalues.
    problem = WeightingProblem(costs=values, constraints=(queries ** 2).T)
    solution = solve_weighting(problem, **solver_options)
    strategy, lambdas, completion_rows = build_weighted_strategy(
        queries, solution.weights, complete=complete, name="eigen-design"
    )
    return EigenDesignResult(
        strategy=strategy,
        weights=lambdas,
        eigen_queries=queries,
        eigenvalues=values,
        solution=solution,
        completion_rows=completion_rows,
        method="eigen-design",
    )


def _factorized_eigen_design(
    workload: Workload,
    *,
    complete: bool = True,
    **solver_options,
) -> EigenDesignResult:
    """The Kronecker fast path of Program 2.

    For ``W = W_1 ⊗ ... ⊗ W_k`` the eigen-decomposition of ``W^T W``
    factorizes into ``k`` tiny ones; the weighting program's constraint matrix
    ``(Q ∘ Q)^T`` is then itself a Kronecker product served matrix-free, and
    the resulting strategy Gram ``Q^T diag(u) Q`` is kept as a structured
    operator.  The entire design costs ``O(sum_i d_i^3 + n * iterations)``
    memory-light work instead of ``O(n^3)``.
    """
    basis, values, positions = factorized_eigen_queries(workload)
    constraints = KroneckerConstraints(basis, positions)
    problem = WeightingProblem(costs=values, constraints=constraints)
    solution = solve_weighting(problem, **solver_options)
    strategy, lambdas, completion_rows = build_factorized_weighted_strategy(
        basis, positions, solution.weights, complete=complete, name="eigen-design"
    )
    return EigenDesignResult(
        strategy=strategy,
        weights=lambdas,
        eigen_queries=None,
        eigenvalues=values,
        solution=solution,
        completion_rows=completion_rows,
        method="eigen-design-factorized",
        eigen_basis=basis,
    )


def singular_value_strategy(
    workload: Workload,
    *,
    complete: bool = True,
    factorized: bool | None = None,
) -> Strategy:
    """The closed-form strategy behind the singular value bound (Thm. 2).

    Weights each eigen-query by ``sigma_i**(1/4)`` (so the squared weights are
    ``sqrt(sigma_i)``), which attains the bound whenever the resulting column
    norms are uniform.  It is contained in the search space of Program 2 and
    serves as a cheap, solver-free baseline and as a warm start.

    The weights are closed-form — no solver is involved — so on a Kronecker
    workload the whole construction rides the lazy
    :class:`~repro.utils.operators.KroneckerEigenbasis` and works at any
    scale; ``factorized`` follows the same auto/force semantics as
    :func:`eigen_design`.
    """
    if factorized is None:
        factorized = prefer_factorized(workload)
    if factorized:
        basis, values, positions = factorized_eigen_queries(workload)
        strategy, _, _ = build_factorized_weighted_strategy(
            basis, positions, np.sqrt(values), complete=complete, name="singular-value"
        )
        return strategy
    values, queries = eigen_queries(workload)
    squared_weights = np.sqrt(values)
    strategy, _, _ = build_weighted_strategy(
        queries, squared_weights, complete=complete, name="singular-value"
    )
    return strategy
