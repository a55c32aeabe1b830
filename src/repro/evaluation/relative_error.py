"""Relative-error evaluation (Figures 3(b) and 3(d)).

Relative error depends on the data.  :func:`relative_error` estimates it by
running the matrix mechanism repeatedly on a concrete dataset and averaging

    |noisy answer - true answer| / max(true answer, sanity_bound)

over queries and trials.  The sanity bound prevents division by very small
true counts, following standard practice in this literature.

Under Gaussian noise the same average has a closed form: answer ``i``'s error
is ``N(0, s_i^2)`` with ``s_i`` its :func:`~repro.core.error.per_query_error`,
so ``E|error_i| = s_i sqrt(2/pi)``.  :func:`expected_relative_error` returns
that exact expectation, with no sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.error import per_query_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.datasets.loaders import Dataset
from repro.exceptions import WorkloadError
from repro.mechanisms.matrix_mechanism import MatrixMechanism
from repro.utils.rng import as_generator

__all__ = [
    "RelativeErrorResult",
    "default_sanity_bound",
    "expected_relative_error",
    "relative_error",
]


@dataclass
class RelativeErrorResult:
    """Average relative error of a (workload, strategy, dataset) combination."""

    strategy_name: str
    workload_name: str
    dataset_name: str
    epsilon: float
    delta: float
    trials: int
    mean_relative_error: float
    median_relative_error: float
    per_trial: np.ndarray


def default_sanity_bound(dataset: Dataset, fraction: float = 0.001) -> float:
    """The customary sanity bound: a small fraction of the total tuple count."""
    return max(fraction * dataset.total, 1.0)


def relative_error(
    workload: Workload,
    strategy: Strategy | MatrixMechanism,
    dataset: Dataset,
    privacy: PrivacyParams,
    *,
    trials: int = 5,
    sanity_bound: float | None = None,
    random_state=None,
) -> RelativeErrorResult:
    """Estimate the average relative error over ``trials`` mechanism runs.

    ``strategy`` may be given as a :class:`MatrixMechanism`.  One mechanism
    serves every privacy setting, so a sweep over epsilon that passes the
    same one validates the strategy and checks the workload's support once.
    """
    if trials < 1:
        raise WorkloadError(f"trials must be >= 1, got {trials}")
    if workload.column_count != dataset.domain.size:
        raise WorkloadError(
            f"workload has {workload.column_count} cells but the dataset has {dataset.domain.size}"
        )
    if sanity_bound is None:
        sanity_bound = default_sanity_bound(dataset)
    rng = as_generator(random_state)
    # One mechanism for every trial keeps its least-squares factorisation
    # warm; delta == 0 runs the Laplace instantiation.
    mechanism = strategy if isinstance(strategy, MatrixMechanism) else MatrixMechanism(strategy)
    true_answers = workload.answer(dataset.data)
    denominator = np.maximum(np.abs(true_answers), sanity_bound)
    per_trial = np.zeros(trials)
    for trial in range(trials):
        noisy = mechanism.run(workload, dataset.data, privacy, random_state=rng).answers
        per_trial[trial] = float(np.mean(np.abs(noisy - true_answers) / denominator))
    return RelativeErrorResult(
        strategy_name=mechanism.strategy.name or "strategy",
        workload_name=workload.name or "workload",
        dataset_name=dataset.name,
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        trials=trials,
        mean_relative_error=float(per_trial.mean()),
        median_relative_error=float(np.median(per_trial)),
        per_trial=per_trial,
    )


def expected_relative_error(
    workload: Workload,
    strategy: Strategy,
    dataset: Dataset,
    privacy: PrivacyParams,
    *,
    sanity_bound: float | None = None,
) -> float:
    """The exact expected relative error under the Gaussian mechanism.

    ``mean(s_i sqrt(2/pi) / max(|y_i|, sanity_bound))`` over the workload's
    queries, with ``s_i`` the per-query RMSE and ``y_i`` the true answer: the
    value :func:`relative_error` estimates as ``trials`` grows.
    """
    if sanity_bound is None:
        sanity_bound = default_sanity_bound(dataset)
    deviations = per_query_error(workload, strategy, privacy) * np.sqrt(2.0 / np.pi)
    denominator = np.maximum(np.abs(workload.answer(dataset.data)), sanity_bound)
    return float(np.mean(deviations / denominator))
