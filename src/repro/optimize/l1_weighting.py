"""Query weighting under L1 sensitivity (Sec. 3.5, epsilon-differential privacy).

Under pure epsilon-differential privacy the noise is calibrated to the L1
sensitivity ``max_j sum_i lambda_i |Q_ij|`` of the weighted strategy, which is
linear in the weights (not in their squares).  Fixing the L1 sensitivity to 1
and minimising the error trace gives

    minimise    sum_i c_i / lambda_i**2
    subject to  |Q|^T lambda <= 1,   lambda >= 0

which is the generalised weighting problem with ``power = 2`` over the raw
weights.  The paper notes that no design set is universally good here; this
module therefore exposes a function that improves *a given* basis (wavelet,
Fourier, hierarchical, or the eigen-queries) rather than claiming optimality.
"""

from __future__ import annotations

import numpy as np

from repro.optimize.result import WeightingSolution
from repro.optimize.solver import solve_weighting
from repro.optimize.weighting_problem import WeightingProblem
from repro.utils.validation import check_matrix

__all__ = ["l1_weighting_problem", "solve_l1_weights"]


def l1_weighting_problem(design_queries: np.ndarray, costs: np.ndarray) -> WeightingProblem:
    """Build the L1 weighting problem for a design matrix and per-query costs.

    ``design_queries`` has one design query per row; ``costs`` are the squared
    column norms of ``W Q^+`` exactly as in the L2 case (Thm. 1).
    """
    design_queries = check_matrix(design_queries, "design queries")
    constraints = np.abs(design_queries).T
    return WeightingProblem(costs=np.asarray(costs, dtype=float), constraints=constraints, power=2.0)


def solve_l1_weights(
    design_queries: np.ndarray,
    costs: np.ndarray,
    *,
    tolerance: float = 1e-8,
    max_iterations: int = 20_000,
) -> WeightingSolution:
    """Return optimal L1-calibrated weights ``lambda`` for the given design set.

    The returned :class:`WeightingSolution.weights` are the weights
    ``lambda_i`` themselves (not squared).
    """
    problem = l1_weighting_problem(design_queries, costs)
    return solve_weighting(problem, tolerance=tolerance, max_iterations=max_iterations)
