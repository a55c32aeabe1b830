"""Optimal query weighting over an arbitrary design set (Program 1 / Thm. 1).

Given a workload ``W`` and a set of design queries ``Q`` (one per row), this
module computes the per-query costs ``c_i = ||column_i(W Q^+)||^2`` of
Thm. 1, builds the weighting problem, solves it, and assembles the weighted
strategy ``A = diag(lambda) Q`` together with the sensitivity-completion step
of Program 2 (steps 4-5).

The eigen-design algorithm of the paper is this machinery applied with the
eigen-queries of ``W`` as the design set (see
:mod:`repro.core.eigen_design`); Fig. 5 of the paper applies the same
machinery with the wavelet and Fourier matrices as alternative design sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import OptimizationError
from repro.optimize import WeightingProblem, WeightingSolution, solve_weighting
from repro.utils.linalg import gram_product
from repro.utils.operators import EigenDiagOperator, KroneckerEigenbasis
from repro.utils.validation import check_matrix

__all__ = [
    "DesignResult",
    "design_costs",
    "build_weighted_strategy",
    "build_factorized_weighted_strategy",
    "weighted_design_strategy",
]

#: Design weights (relative to the largest) below this threshold are dropped.
WEIGHT_DROP_TOLERANCE = 1e-12

#: Column-norm deficits below this fraction of the sensitivity target are
#: treated as already complete (no completion row is emitted for them).
COMPLETION_TOLERANCE = 1e-8


def _validated_lambdas(
    squared_weights: np.ndarray, expected_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared weight validation for the dense and factorized strategy builders.

    Returns ``(squared_weights, lambdas, keep)`` where ``keep`` masks the
    weights that are non-negligible relative to the largest.  Keeping this in
    one place guarantees the two builders stay numerically in sync.
    """
    squared_weights = np.clip(np.asarray(squared_weights, dtype=float), 0.0, None)
    if squared_weights.shape[0] != expected_count:
        raise OptimizationError(
            f"got {squared_weights.shape[0]} weights for {expected_count} design queries"
        )
    lambdas = np.sqrt(squared_weights)
    top = float(lambdas.max(initial=0.0))
    if top <= 0:
        raise OptimizationError("all design weights are zero; cannot build a strategy")
    keep = lambdas > WEIGHT_DROP_TOLERANCE * top
    return squared_weights, lambdas, keep


def _completion_deficit(column_norms_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Program 2 steps 4-5: per-column squared deficits up to the max norm.

    Returns ``(deficit_sq, needs)``; columns flagged by ``needs`` require a
    completion row of height ``sqrt(deficit_sq)``.
    """
    column_norms_sq = np.clip(column_norms_sq, 0.0, None)
    target = float(column_norms_sq.max())
    deficit_sq = np.clip(target - column_norms_sq, 0.0, None)
    needs = np.sqrt(deficit_sq) > np.sqrt(target) * COMPLETION_TOLERANCE
    return deficit_sq, needs


@dataclass
class DesignResult:
    """Outcome of optimally weighting a design set for a workload.

    Attributes
    ----------
    strategy:
        The final strategy (weighted design queries plus completion rows).
    weights:
        The design-query weights ``lambda_i`` (zero-weight queries included).
    design_queries:
        The design matrix that was weighted (one query per row).
    costs:
        The Thm. 1 costs ``c_i`` used in the objective.
    solution:
        The raw solver output (weights there are ``u_i = lambda_i**2``).
    completion_rows:
        Number of rows appended by the sensitivity-completion step.
    """

    strategy: Strategy
    weights: np.ndarray
    design_queries: np.ndarray
    costs: np.ndarray
    solution: WeightingSolution
    completion_rows: int = 0
    diagnostics: dict = field(default_factory=dict)


def design_costs(workload: Workload, design_queries: np.ndarray) -> np.ndarray:
    """Return the Thm. 1 costs: squared column norms of ``W Q^+``.

    Only the workload Gram matrix is needed, so implicit workloads are
    supported.  For an orthonormal design (such as the eigen-queries) the
    costs reduce to ``diag(Q W^T W Q^T)``.
    """
    design_queries = check_matrix(design_queries, "design queries")
    if design_queries.shape[1] != workload.column_count:
        raise OptimizationError(
            f"design queries have {design_queries.shape[1]} cells, workload has "
            f"{workload.column_count}"
        )
    pinv = np.linalg.pinv(design_queries)
    costs = np.einsum("ji,jk,ki->i", pinv, workload.gram, pinv)
    return np.clip(costs, 0.0, None)


def build_weighted_strategy(
    design_queries: np.ndarray,
    squared_weights: np.ndarray,
    *,
    complete: bool = True,
    name: str = "weighted-design",
) -> tuple[Strategy, np.ndarray, int]:
    """Assemble ``A = diag(lambda) Q`` plus the completion rows of Program 2.

    Returns ``(strategy, lambdas, completion_row_count)``.  Design queries
    whose weight is negligible relative to the largest weight are dropped from
    the strategy (they carry no information), mirroring the paper's remark
    that zero-weight design queries are omitted.

    The strategy carries the design's own Gram ``Q_k^T diag(u) Q_k +
    diag(c)`` (kept queries ``Q_k``, squared weights ``u``, squared
    completion heights ``c``): a product over the ``k <= n`` weighted rows
    instead of all ``p`` rows of ``A``.  The rows are written into one
    ``p x n`` buffer and the Gram into one ``n x n`` buffer.
    """
    design_queries = check_matrix(design_queries, "design queries")
    squared_weights, lambdas, keep = _validated_lambdas(
        squared_weights, design_queries.shape[0]
    )
    kept = np.flatnonzero(keep)
    columns = np.empty(0, dtype=int)
    heights = np.empty(0)
    if complete:
        deficit_sq, needs = _completion_deficit(
            np.einsum(
                "i,ij,ij->j", np.where(keep, squared_weights, 0.0), design_queries, design_queries
            )
        )
        columns = np.flatnonzero(needs)
        heights = np.sqrt(deficit_sq[needs])
    matrix = np.zeros((kept.size + columns.size, design_queries.shape[1]))
    weighted = matrix[: kept.size]
    # "clip" writes straight into the buffer; the default mode would stage a
    # k x n copy first.
    np.take(design_queries, kept, axis=0, out=weighted, mode="clip")
    weighted *= lambdas[kept, None]
    matrix[kept.size + np.arange(columns.size), columns] = heights
    gram = gram_product(weighted)
    gram[columns, columns] += heights**2
    strategy = Strategy(matrix, gram=gram, name=name)
    return strategy, lambdas, int(columns.size)


def build_factorized_weighted_strategy(
    basis: KroneckerEigenbasis,
    positions: np.ndarray,
    squared_weights: np.ndarray,
    *,
    complete: bool = True,
    name: str = "eigen-design",
) -> tuple[Strategy, np.ndarray, int]:
    """Assemble the eigen-design strategy without materialising its rows.

    The design queries are eigen-queries of a Kronecker workload: row ``i`` is
    the basis column at natural position ``positions[i]``.  The strategy
    ``A = diag(lambda) Q`` then has Gram ``B diag(z) B^T`` where ``z`` embeds
    the squared weights into natural order — represented exactly by an
    :class:`~repro.utils.operators.EigenDiagOperator`.  The Program 2
    sensitivity-completion rows (one ``e_j`` row per deficient cell) only add
    a diagonal term, which the operator also carries.

    Returns ``(strategy, lambdas, completion_row_count)`` exactly like
    :func:`build_weighted_strategy`.
    """
    positions = np.asarray(positions, dtype=int)
    squared_weights, lambdas, keep = _validated_lambdas(squared_weights, positions.shape[0])
    spectrum = basis.scatter_sorted(squared_weights[keep], positions[keep])

    completion_rows = 0
    diag = None
    if complete:
        deficit_sq, needs = _completion_deficit(EigenDiagOperator(basis, spectrum).diagonal())
        completion_rows = int(np.sum(needs))
        if completion_rows:
            diag = np.where(needs, deficit_sq, 0.0)
    operator = EigenDiagOperator(basis, spectrum, diag)
    strategy = Strategy.from_gram_operator(operator, name=name)
    return strategy, lambdas, completion_rows


def weighted_design_strategy(
    workload: Workload,
    design_queries: np.ndarray,
    *,
    complete: bool = True,
    name: str = "weighted-design",
    **solver_options,
) -> DesignResult:
    """Run Program 1 on ``design_queries`` for ``workload`` and build the strategy.

    This is the general-purpose entry point used both by the eigen-design
    algorithm (with the eigen-queries as the design set) and by the design-set
    comparison experiment of Fig. 5 (with wavelet / Fourier design sets).
    """
    costs = design_costs(workload, design_queries)
    constraints = (design_queries ** 2).T
    problem = WeightingProblem(costs=costs, constraints=constraints)
    solution = solve_weighting(problem, **solver_options)
    strategy, lambdas, completion_rows = build_weighted_strategy(
        design_queries, solution.weights, complete=complete, name=name
    )
    return DesignResult(
        strategy=strategy,
        weights=lambdas,
        design_queries=design_queries,
        costs=costs,
        solution=solution,
        completion_rows=completion_rows,
    )
