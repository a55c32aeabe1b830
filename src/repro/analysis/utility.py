"""Utility planning: translating accuracy targets into privacy budgets and back.

The paper fixes (epsilon, delta) and reports the error that results.  In
practice analysts often start from the other end: "I need these counts to be
accurate to within 100 people — what budget does that cost?"  Because the
matrix mechanism's expected error has the closed form of Prop. 4 and scales
exactly as ``1/epsilon`` for fixed delta, both directions can be answered
analytically for any (workload, strategy) pair.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.error import expected_workload_error, minimum_error_bound
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import PrivacyError, WorkloadError

__all__ = [
    "error_at_epsilon",
    "epsilon_for_target_error",
    "epsilon_for_target_bound",
    "error_profile",
    "smallest_accurate_epsilon_table",
]


def error_at_epsilon(
    workload: Workload,
    strategy: Strategy,
    epsilon: float,
    *,
    delta: float = 1e-4,
) -> float:
    """Expected workload RMSE at a given epsilon (fixed delta)."""
    return expected_workload_error(workload, strategy, PrivacyParams(epsilon, delta))


def epsilon_for_target_error(
    workload: Workload,
    strategy: Strategy,
    target_rmse: float,
    *,
    delta: float = 1e-4,
) -> float:
    """The smallest epsilon at which the expected workload RMSE meets ``target_rmse``.

    The expected error is exactly proportional to ``1/epsilon`` for fixed
    delta, so the answer is a single rescaling of the error at epsilon = 1.
    """
    if target_rmse <= 0:
        raise WorkloadError(f"target_rmse must be positive, got {target_rmse}")
    reference = expected_workload_error(workload, strategy, PrivacyParams(1.0, delta))
    return reference / target_rmse


def epsilon_for_target_bound(
    workload: Workload,
    target_rmse: float,
    *,
    delta: float = 1e-4,
) -> float:
    """The epsilon below which *no* strategy can meet ``target_rmse`` (via Thm. 2).

    This is the information-theoretic floor implied by the singular-value
    bound: asking for the target accuracy with a smaller epsilon is impossible
    for every instantiation of the matrix mechanism, so the value is useful
    for rejecting infeasible accuracy requirements early.
    """
    if target_rmse <= 0:
        raise WorkloadError(f"target_rmse must be positive, got {target_rmse}")
    reference = minimum_error_bound(workload, PrivacyParams(1.0, delta))
    return reference / target_rmse


def error_profile(
    workload: Workload,
    strategy: Strategy,
    epsilons: list[float] | tuple[float, ...],
    *,
    delta: float = 1e-4,
) -> list[dict]:
    """Expected error at each epsilon, alongside the Thm. 2 lower bound.

    Returns one row per epsilon — the series behind the paper's relative-error
    sweeps (Figures 3(b) and 3(d)) in absolute-error form.
    """
    if not epsilons:
        raise WorkloadError("error_profile needs at least one epsilon")
    rows = []
    for epsilon in epsilons:
        privacy = PrivacyParams(float(epsilon), delta)
        rows.append(
            {
                "epsilon": float(epsilon),
                "error": expected_workload_error(workload, strategy, privacy),
                "lower_bound": minimum_error_bound(workload, privacy),
            }
        )
    return rows


def smallest_accurate_epsilon_table(
    workload: Workload,
    strategy: Strategy,
    targets: list[float] | tuple[float, ...],
    *,
    delta: float = 1e-4,
    population: float | None = None,
) -> list[dict]:
    """For each accuracy target, the epsilon this strategy needs and the Thm. 2 floor.

    ``population`` (optional) expresses targets as a fraction of a total count
    as well, which is how accuracy requirements are usually phrased (e.g.
    "within 0.1% of the population").
    """
    if not targets:
        raise WorkloadError("smallest_accurate_epsilon_table needs at least one target")
    if population is not None and population <= 0:
        raise PrivacyError(f"population must be positive, got {population}")
    rows = []
    for target in targets:
        target = float(target)
        row = {
            "target_rmse": target,
            "epsilon_needed": epsilon_for_target_error(workload, strategy, target, delta=delta),
            "epsilon_floor": epsilon_for_target_bound(workload, target, delta=delta),
        }
        if population is not None:
            row["target_fraction"] = target / population
        rows.append(row)
    return rows


def sample_error_quantile(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams,
    *,
    quantile: float = 0.95,
    trials: int = 200,
    random_state=None,
) -> float:
    """Monte-Carlo estimate of a quantile of the per-run workload RMSE.

    The expected RMSE of Prop. 4 is an average; this utility estimates how bad
    an individual release can be at a given quantile by sampling the noise
    distribution directly (no data is needed — the noise is data-independent).
    """
    if not 0 < quantile < 1:
        raise WorkloadError(f"quantile must lie in (0, 1), got {quantile}")
    if trials < 10:
        raise WorkloadError(f"trials must be >= 10, got {trials}")
    from repro.utils.rng import as_generator

    rng = as_generator(random_state)
    scale = privacy.gaussian_scale(strategy.sensitivity_l2)
    # The estimate's noise is R^+ z for the strategy's Gram root R and
    # z ~ N(0, scale^2 I), so the answers' noise is W R^+ z.
    root = strategy.normal_factor
    transform = root.inverse_transpose(workload.matrix.T).T
    errors = np.empty(trials)
    for trial in range(trials):
        noise = rng.normal(0.0, scale, size=root.rank)
        errors[trial] = math.sqrt(float(np.mean((transform @ noise) ** 2)))
    return float(np.quantile(errors, quantile))
