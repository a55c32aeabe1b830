"""Non-negative least-squares inference of the cell counts.

The matrix mechanism's second step derives the estimate
``x_hat = argmin ||A x - y||_2`` from the noisy strategy answers ``y``.  The
mechanism computes the ordinary least-squares estimate through the strategy's
Gram root (:class:`~repro.utils.linalg.GramRoot`), whose pseudo-inverse picks
the minimum-norm estimate on the unobserved subspace of a rank-deficient
strategy.  This module provides the non-negative variant, an optional
post-processing step: it can only improve accuracy on count data and never
affects privacy.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.utils.validation import check_matrix, check_vector

__all__ = ["nonnegative_least_squares_estimate"]


def nonnegative_least_squares_estimate(
    strategy_matrix: np.ndarray, noisy_answers: np.ndarray, *, max_iterations: int | None = None
) -> np.ndarray:
    """Return the least-squares estimate constrained to non-negative counts."""
    matrix = check_matrix(strategy_matrix, "strategy matrix")
    answers = check_vector(noisy_answers, "noisy answers", matrix.shape[0])
    estimate, _ = scipy.optimize.nnls(matrix, answers, maxiter=max_iterations)
    return estimate
