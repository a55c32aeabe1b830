"""The matrix mechanism, under (epsilon, delta) or pure epsilon privacy.

Given a workload ``W``, a strategy ``A`` and a data vector ``x``, the
mechanism

1. answers the strategy queries with noise calibrated to the strategy's
   sensitivity: Gaussian noise scaled to the L2 sensitivity when
   ``delta > 0`` (Prop. 3), Laplace noise scaled to the L1 sensitivity when
   ``delta == 0`` (Sec. 3.5);
2. infers an estimate ``x_hat`` of the data vector by least squares;
3. answers the workload as ``W x_hat``.

Because all workload answers are derived from the single estimate ``x_hat``,
they are mutually consistent, and ``x_hat`` itself can be released as a
synthetic contingency table tailored to the workload.

The strategy fixes everything except the noise scale, so one mechanism
serves every privacy setting: its validation, sensitivities and
least-squares factorisation are computed once and reused whatever
``(epsilon, delta)`` a run asks for.
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
from repro.mechanisms.gaussian import max_column_norm
from repro.mechanisms.inference import least_squares_estimate, nonnegative_least_squares_estimate
from repro.mechanisms.laplace_matrix import expected_workload_error_l1
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_vector

__all__ = ["MatrixMechanism", "MechanismResult"]


@dataclass
class MechanismResult:
    """Output of one private release, whatever mechanism produced it.

    Attributes
    ----------
    answers:
        Noisy answers to the workload queries.
    estimate:
        The released synthetic data vector ``x_hat`` from which ``answers``
        derive (mutually consistent), or ``None`` for mechanisms that
        perturb each answer independently.
    strategy_answers:
        The raw noisy answers to the measured queries.
    noise_scale:
        Scale of the noise added to each measured query: the Gaussian
        standard deviation, or the Laplace scale parameter.
    mechanism:
        Label of the mechanism that produced the release.
    """

    answers: np.ndarray
    estimate: np.ndarray | None
    strategy_answers: np.ndarray
    noise_scale: float
    mechanism: str = ""


class MatrixMechanism:
    """Answer workloads through a strategy under differential privacy.

    ``privacy`` is the default for :meth:`run` and :meth:`expected_error`;
    either may be passed its own per call.
    """

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
        self._reset_caches()

    def _reset_caches(self) -> None:
        # Per-process strategy constants, filled on first use.  The Cholesky
        # factor of A^T A is None until then and False when the strategy is
        # rank-deficient and lstsq is needed.
        self._normal_factor = None
        self._column_norm: float | None = None
        # Workloads whose support by the strategy has already been verified,
        # held weakly so a long-lived mechanism never pins its callers' workloads.
        self._supported_workloads: weakref.WeakSet[Workload] = weakref.WeakSet()

    def __getstate__(self) -> dict:
        """Pickle without the caches: the receiving process rebuilds them."""
        state = self.__dict__.copy()
        for name in ("_normal_factor", "_column_norm", "_supported_workloads"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_caches()

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
        privacy: PrivacyParams | None = None,
        *,
        random_state=None,
    ) -> MechanismResult:
        """Run the mechanism once and return answers plus the synthetic estimate."""
        privacy = self.privacy if privacy is None else privacy
        matrix = self.strategy.matrix
        data = check_vector(data, "data", matrix.shape[1])
        if workload.column_count != matrix.shape[1]:
            raise SingularStrategyError(
                f"workload has {workload.column_count} cells but the strategy has {matrix.shape[1]}"
            )
        if self._column_norm is None:
            # Strategy constants, paid for on the first run only.  The L2
            # sensitivity is the raw column-norm expression, not the
            # Gram-diagonal Strategy.sensitivity_l2: that one can differ in
            # the last bits and would change every released answer.
            check_matrix(matrix, "strategy matrix")
            self._column_norm = max_column_norm(matrix)
        if workload not in self._supported_workloads:
            if not self.strategy.supports(workload.gram):
                raise SingularStrategyError(
                    "the strategy cannot answer this workload: its row space does not "
                    "contain the workload's row space"
                )
            self._supported_workloads.add(workload)
        rng = as_generator(random_state)
        # Privacy enters only here, as the noise scale.
        if privacy.is_approximate:
            scale = privacy.gaussian_scale(self._column_norm)
            noisy = matrix @ data + rng.normal(0.0, scale, size=matrix.shape[0])
        else:
            scale = privacy.laplace_scale(self.strategy.sensitivity_l1)
            noisy = matrix @ data + rng.laplace(0.0, scale, size=matrix.shape[0])
        if self.nonnegative:
            estimate = nonnegative_least_squares_estimate(matrix, noisy)
        elif privacy.is_approximate:
            estimate = self._solve_least_squares(noisy)
        else:
            estimate = least_squares_estimate(matrix, noisy)
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
    def expected_error(self, workload: Workload, privacy: PrivacyParams | None = None) -> float:
        """Expected RMSE of answering ``workload`` (Prop. 4 / Def. 5, or Sec. 3.5)."""
        privacy = self.privacy if privacy is None else privacy
        if privacy.is_approximate:
            return expected_workload_error(workload, self.strategy, privacy)
        return expected_workload_error_l1(workload, self.strategy, privacy)

    def expected_query_errors(
        self, workload: Workload, *, block_size: int | None = None
    ) -> np.ndarray:
        """Expected RMSE of each individual workload query (Gaussian regime).

        Served in query blocks through the factored row operator when the
        workload is operator-backed, so diagnostics scale to millions of
        queries; ``block_size`` caps the per-block allocation (defaults to
        the materialization budget).
        """
        return per_query_error(
            workload, self.strategy, self.privacy, block_size=block_size
        )
