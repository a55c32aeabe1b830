"""Uncertainty quantification for matrix-mechanism answers.

Because the matrix mechanism's noise is an explicit linear transformation of
independent Gaussian samples (Prop. 3), the *entire* error distribution of the
released answers is known in closed form: the answer vector is the true vector
plus a zero-mean Gaussian with covariance

    sigma^2 * W (A^T A)^{-1} W^T,       sigma = ||A||_2 * sqrt(2 ln(2/delta)) / epsilon.

This module exposes that covariance, per-query standard deviations and
confidence intervals, and the expected maximum error over the workload — the
quantities an analyst needs to attach honest error bars to a differentially
private release without spending any additional privacy budget (the noise
distribution is public).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.stats

from repro.core.error import per_query_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import WorkloadError
from repro.utils.linalg import symmetrize

__all__ = [
    "answer_covariance",
    "answer_standard_deviations",
    "confidence_intervals",
    "expected_max_error",
    "simultaneous_confidence_radius",
]


def answer_covariance(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams,
) -> np.ndarray:
    """The ``m x m`` covariance matrix of the noise in the workload answers."""
    matrix = workload.matrix
    solved = strategy.normal_factor.solve(matrix.T)
    scale = privacy.gaussian_scale(strategy.sensitivity_l2)
    return symmetrize(scale**2 * (matrix @ solved))


def answer_standard_deviations(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams,
) -> np.ndarray:
    """Per-query noise standard deviations (the square root of the covariance diagonal)."""
    return per_query_error(workload, strategy, privacy)


def confidence_intervals(
    answers: np.ndarray,
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams,
    *,
    confidence: float = 0.95,
) -> np.ndarray:
    """Per-query confidence intervals around released answers.

    Returns an ``(m, 2)`` array of lower/upper bounds such that each true
    answer lies in its interval with the requested (marginal) probability.
    The intervals only account for the mechanism's noise — they are exact,
    data-independent and free to publish.
    """
    answers = np.asarray(answers, dtype=float)
    if answers.shape != (workload.query_count,):
        raise WorkloadError(
            f"answers have shape {answers.shape}, expected ({workload.query_count},)"
        )
    if not 0 < confidence < 1:
        raise WorkloadError(f"confidence must lie in (0, 1), got {confidence}")
    deviations = answer_standard_deviations(workload, strategy, privacy)
    radius = scipy.stats.norm.ppf(0.5 + confidence / 2.0) * deviations
    return np.column_stack([answers - radius, answers + radius])


def simultaneous_confidence_radius(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams,
    *,
    confidence: float = 0.95,
) -> np.ndarray:
    """Per-query radii such that *all* true answers are covered simultaneously.

    Uses a union (Bonferroni) bound over the ``m`` queries, which is simple,
    distribution-exact and only mildly conservative for the moderate workload
    sizes of the paper.
    """
    if not 0 < confidence < 1:
        raise WorkloadError(f"confidence must lie in (0, 1), got {confidence}")
    deviations = answer_standard_deviations(workload, strategy, privacy)
    per_query_confidence = 1.0 - (1.0 - confidence) / workload.query_count
    return scipy.stats.norm.ppf(0.5 + per_query_confidence / 2.0) * deviations


def expected_max_error(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams,
) -> float:
    """An upper bound on the expected maximum absolute error over the workload.

    Uses the standard Gaussian maximal inequality
    ``E[max_i |Z_i|] <= max_i sigma_i * sqrt(2 ln(2 m))``, which is tight up
    to constants and needs no independence assumption (the answers' noise is
    correlated by design).
    """
    deviations = answer_standard_deviations(workload, strategy, privacy)
    count = workload.query_count
    return float(np.max(deviations) * math.sqrt(2.0 * math.log(2.0 * count)))
