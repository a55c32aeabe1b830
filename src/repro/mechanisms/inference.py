"""Least-squares inference of the cell counts from noisy strategy answers.

The matrix mechanism's second step derives the estimate
``x_hat = argmin ||A x - y||_2`` from the noisy strategy answers ``y``
(ordinary least squares; the pseudo-inverse solution is used when the strategy
is rank-deficient, picking the minimum-norm estimate on the unobserved
subspace).  A non-negative variant is provided as an optional post-processing
step — it can only improve accuracy on count data and never affects privacy.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.exceptions import StrategyError
from repro.utils.validation import check_matrix, check_vector

__all__ = ["least_squares_estimate", "nonnegative_least_squares_estimate"]


def least_squares_estimate(
    strategy_matrix: np.ndarray, noisy_answers: np.ndarray, *, rcond: float | None = None
) -> np.ndarray:
    """Return the ordinary-least-squares estimate of the data vector.

    Solves the normal equations through a rank-revealing ``lstsq`` so both
    full-rank and rank-deficient strategies are handled.  Singular values
    below ``rcond`` times the largest count as zero (``None``: ``lstsq``'s
    machine-precision default).
    """
    matrix = check_matrix(strategy_matrix, "strategy matrix")
    answers = check_vector(noisy_answers, "noisy answers", matrix.shape[0])
    estimate, _, rank, _ = np.linalg.lstsq(matrix, answers, rcond=rcond)
    if rank == 0:
        raise StrategyError("the strategy matrix is identically zero")
    return estimate


def nonnegative_least_squares_estimate(
    strategy_matrix: np.ndarray, noisy_answers: np.ndarray, *, max_iterations: int | None = None
) -> np.ndarray:
    """Return the least-squares estimate constrained to non-negative counts."""
    matrix = check_matrix(strategy_matrix, "strategy matrix")
    answers = check_vector(noisy_answers, "noisy answers", matrix.shape[0])
    estimate, _ = scipy.optimize.nnls(matrix, answers, maxiter=max_iterations)
    return estimate
