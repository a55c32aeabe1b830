"""Monte-Carlo relative-error evaluation (Figures 3(b) and 3(d)).

Relative error depends on the data, so it is estimated by running the matrix
mechanism repeatedly on a concrete dataset and averaging

    |noisy answer - true answer| / max(true answer, sanity_bound)

over queries and trials.  The sanity bound prevents division by very small
true counts, following standard practice in this literature.  The module also
implements the paper's heuristic of optimising the strategy for the
*row-normalised* workload when relative error is the target (Sec. 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.datasets.loaders import Dataset
from repro.exceptions import WorkloadError
from repro.mechanisms.matrix_mechanism import MatrixMechanism
from repro.utils.rng import as_generator

__all__ = ["RelativeErrorResult", "relative_error", "default_sanity_bound"]


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
    strategy: Strategy,
    dataset: Dataset,
    privacy: PrivacyParams,
    *,
    trials: int = 5,
    sanity_bound: float | None = None,
    random_state=None,
) -> RelativeErrorResult:
    """Estimate the average relative error over ``trials`` mechanism runs."""
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
    mechanism = MatrixMechanism(strategy, privacy)
    true_answers = workload.answer(dataset.data)
    denominator = np.maximum(np.abs(true_answers), sanity_bound)
    per_trial = np.zeros(trials)
    for trial in range(trials):
        noisy = mechanism.run(workload, dataset.data, random_state=rng).answers
        per_trial[trial] = float(np.mean(np.abs(noisy - true_answers) / denominator))
    return RelativeErrorResult(
        strategy_name=strategy.name or "strategy",
        workload_name=workload.name or "workload",
        dataset_name=dataset.name,
        epsilon=privacy.epsilon,
        delta=privacy.delta,
        trials=trials,
        mean_relative_error=float(per_trial.mean()),
        median_relative_error=float(np.median(per_trial)),
        per_trial=per_trial,
    )
