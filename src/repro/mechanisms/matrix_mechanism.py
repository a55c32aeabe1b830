"""The (epsilon, delta)-matrix mechanism (Prop. 3).

Given a workload ``W``, a strategy ``A`` and a data vector ``x``, the
mechanism

1. answers the strategy queries with the Gaussian mechanism (noise calibrated
   to the strategy's L2 sensitivity);
2. infers an estimate ``x_hat`` of the data vector by least squares;
3. answers the workload as ``W x_hat``.

Because all workload answers are derived from the single estimate ``x_hat``,
they are mutually consistent, and ``x_hat`` itself can be released as a
synthetic contingency table tailored to the workload.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.error import expected_workload_error, per_query_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import SingularStrategyError
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.inference import least_squares_estimate, nonnegative_least_squares_estimate
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_vector

__all__ = ["MatrixMechanism", "MechanismResult"]


@dataclass
class MechanismResult:
    """Output of one matrix-mechanism invocation.

    Attributes
    ----------
    answers:
        Noisy, mutually consistent answers to the workload queries.
    estimate:
        The inferred data-vector estimate ``x_hat`` (the synthetic counts).
    strategy_answers:
        The raw noisy answers to the strategy queries.
    noise_scale:
        Standard deviation of the Gaussian noise added to each strategy query.
    """

    answers: np.ndarray
    estimate: np.ndarray
    strategy_answers: np.ndarray
    noise_scale: float


class MatrixMechanism:
    """Answer workloads through a strategy under (epsilon, delta)-differential privacy."""

    def __init__(
        self,
        strategy: Strategy,
        privacy: PrivacyParams = PrivacyParams(),
        *,
        nonnegative: bool = False,
    ):
        self.strategy = strategy
        self.privacy = privacy
        self.nonnegative = nonnegative
        self._gaussian = GaussianMechanism(privacy)
        # Cached Cholesky factor of A^T A for repeated runs (None until first
        # use; False when the strategy is rank-deficient and lstsq is needed).
        self._normal_factor = None
        # Gaussian noise scale of the validated strategy (None until first
        # use): like the factor, fixed once the strategy and budget are.
        self._noise_scale: float | None = None
        # Workloads whose support by the strategy has already been verified,
        # held weakly so a long-lived mechanism never pins its callers' workloads.
        self._supported_workloads: weakref.WeakSet[Workload] = weakref.WeakSet()

    def _solve_least_squares(self, noisy: np.ndarray) -> np.ndarray:
        """Least-squares inference with a cached normal-equation factorisation.

        Repeated mechanism runs (Monte-Carlo relative-error experiments, or
        periodic releases with the same strategy) reuse the factorisation so
        only two matrix-vector products are needed per run.
        """
        import scipy.linalg

        matrix = self.strategy.matrix
        if self._normal_factor is None:
            try:
                self._normal_factor = scipy.linalg.cho_factor(
                    self.strategy.gram, check_finite=False
                )
            except scipy.linalg.LinAlgError:
                self._normal_factor = False
        if self._normal_factor is False:
            return least_squares_estimate(matrix, noisy)
        return scipy.linalg.cho_solve(self._normal_factor, matrix.T @ noisy, check_finite=False)

    def run(
        self,
        workload: Workload,
        data: np.ndarray,
        *,
        random_state=None,
    ) -> MechanismResult:
        """Run the mechanism once and return answers plus the synthetic estimate."""
        matrix = self.strategy.matrix
        data = check_vector(data, "data", matrix.shape[1])
        if workload.column_count != matrix.shape[1]:
            raise SingularStrategyError(
                f"workload has {workload.column_count} cells but the strategy has {matrix.shape[1]}"
            )
        if self._noise_scale is None:
            # Plan constants, paid for on the first run only.  The scale is
            # GaussianMechanism.noise_scale's raw column-norm expression, not
            # the Gram-diagonal Strategy.sensitivity_l2: that one can differ
            # in the last bits and would change every released answer.
            check_matrix(matrix, "strategy matrix")
            self._noise_scale = self._gaussian.noise_scale(matrix)
        scale = self._noise_scale
        if workload not in self._supported_workloads:
            if not self.strategy.supports(workload.gram):
                raise SingularStrategyError(
                    "the strategy cannot answer this workload: its row space does not "
                    "contain the workload's row space"
                )
            self._supported_workloads.add(workload)
        rng = as_generator(random_state)
        # The arithmetic and draw order of GaussianMechanism.answer.
        noisy = matrix @ data + rng.normal(0.0, scale, size=matrix.shape[0])
        if self.nonnegative:
            estimate = nonnegative_least_squares_estimate(matrix, noisy)
        else:
            estimate = self._solve_least_squares(noisy)
        # answer() serves explicit matrices and factored row operators alike,
        # so large Kronecker workloads can be answered without materialising
        # their (possibly enormous) query matrix.
        answers = workload.answer(estimate)
        return MechanismResult(
            answers=answers,
            estimate=estimate,
            strategy_answers=noisy,
            noise_scale=scale,
        )

    def answer(self, workload: Workload, data: np.ndarray, *, random_state=None) -> np.ndarray:
        """Convenience wrapper returning only the noisy workload answers."""
        return self.run(workload, data, random_state=random_state).answers

    # ----------------------------------------------------------- analysis API
    def expected_error(self, workload: Workload) -> float:
        """Expected RMSE of answering ``workload`` (Prop. 4 / Def. 5)."""
        return expected_workload_error(workload, self.strategy, self.privacy)

    def expected_query_errors(
        self, workload: Workload, *, block_size: int | None = None
    ) -> np.ndarray:
        """Expected RMSE of each individual workload query.

        Served in query blocks through the factored row operator when the
        workload is operator-backed, so diagnostics scale to millions of
        queries; ``block_size`` caps the per-block allocation (defaults to
        the materialization budget).
        """
        return per_query_error(
            workload, self.strategy, self.privacy, block_size=block_size
        )
