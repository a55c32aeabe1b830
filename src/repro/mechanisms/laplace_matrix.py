"""The epsilon-differentially-private (Laplace) matrix mechanism (Sec. 3.5).

The paper's main results use the (epsilon, delta) Gaussian instantiation, but
the matrix mechanism itself works under pure epsilon-differential privacy:
answer the strategy queries with the Laplace mechanism calibrated to the
strategy's *L1* sensitivity and infer the workload answers by least squares.
This module provides that variant together with its closed-form expected
error,

    Error_A(W) = ||A||_1 * sqrt(2 / epsilon^2 * trace(W^T W (A^T A)^{-1}) / m),

(the Laplace distribution with scale ``b`` has variance ``2 b^2``), which is
what Sec. 3.5 compares against when it discusses the difficulty of optimising
the L1 sensitivity.  Strategy selection for this variant is provided by
:mod:`repro.optimize.l1_weighting` (re-weighting a given basis).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import PrivacyError, SingularStrategyError
from repro.mechanisms.inference import least_squares_estimate, nonnegative_least_squares_estimate
from repro.core.error import workload_strategy_trace
from repro.utils.rng import as_generator
from repro.utils.validation import check_vector

__all__ = ["LaplaceMatrixMechanism", "LaplaceMechanismResult", "expected_workload_error_l1"]


@dataclass
class LaplaceMechanismResult:
    """Output of one epsilon-DP matrix-mechanism invocation."""

    answers: np.ndarray
    estimate: np.ndarray
    strategy_answers: np.ndarray
    noise_scale: float


def expected_workload_error_l1(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams | float,
) -> float:
    """Expected RMSE of the epsilon-DP matrix mechanism (Laplace noise, L1 sensitivity).

    ``privacy`` may be a :class:`PrivacyParams` (its delta is ignored) or a
    bare epsilon.
    """
    epsilon = privacy.epsilon if isinstance(privacy, PrivacyParams) else float(privacy)
    if epsilon <= 0:
        raise PrivacyError(f"epsilon must be positive, got {epsilon}")
    scale = strategy.sensitivity_l1 / epsilon
    variance = 2.0 * scale**2
    core = workload_strategy_trace(workload, strategy)
    return float(math.sqrt(variance * core / workload.query_count))


class LaplaceMatrixMechanism:
    """Answer workloads through a strategy under pure epsilon-differential privacy."""

    def __init__(
        self,
        strategy: Strategy,
        privacy: PrivacyParams | float,
        *,
        nonnegative: bool = False,
    ):
        self.strategy = strategy
        self.epsilon = privacy.epsilon if isinstance(privacy, PrivacyParams) else float(privacy)
        if self.epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {self.epsilon}")
        self.nonnegative = nonnegative
        # Workloads whose support by the strategy has already been verified,
        # held weakly as in MatrixMechanism.
        self._supported_workloads: weakref.WeakSet[Workload] = weakref.WeakSet()

    @property
    def noise_scale(self) -> float:
        """Laplace scale parameter applied to every strategy-query answer."""
        return self.strategy.sensitivity_l1 / self.epsilon

    def run(self, workload: Workload, data: np.ndarray, *, random_state=None) -> LaplaceMechanismResult:
        """Run the mechanism once and return answers plus the synthetic estimate."""
        matrix = self.strategy.matrix
        data = check_vector(data, "data", matrix.shape[1])
        if workload.column_count != matrix.shape[1]:
            raise SingularStrategyError(
                f"workload has {workload.column_count} cells but the strategy has {matrix.shape[1]}"
            )
        if workload not in self._supported_workloads:
            if not self.strategy.supports(workload.gram):
                raise SingularStrategyError(
                    "the strategy cannot answer this workload: its row space does not "
                    "contain the workload's row space"
                )
            self._supported_workloads.add(workload)
        rng = as_generator(random_state)
        scale = self.noise_scale
        noisy = matrix @ data + rng.laplace(0.0, scale, size=matrix.shape[0])
        if self.nonnegative:
            estimate = nonnegative_least_squares_estimate(matrix, noisy)
        else:
            estimate = least_squares_estimate(matrix, noisy)
        return LaplaceMechanismResult(
            answers=workload.answer(estimate),
            estimate=estimate,
            strategy_answers=noisy,
            noise_scale=scale,
        )

    def answer(self, workload: Workload, data: np.ndarray, *, random_state=None) -> np.ndarray:
        """Convenience wrapper returning only the noisy workload answers."""
        return self.run(workload, data, random_state=random_state).answers

    def expected_error(self, workload: Workload) -> float:
        """Expected RMSE of answering ``workload`` with this mechanism."""
        return expected_workload_error_l1(workload, self.strategy, self.epsilon)
