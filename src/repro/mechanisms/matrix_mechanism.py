"""The matrix mechanism, under (epsilon, delta) or pure epsilon privacy.

Given a workload ``W``, a strategy ``A`` and a data vector ``x``, the
mechanism

1. measures the data with noise calibrated to the sensitivity of what it
   releases.  Under pure epsilon privacy (``delta == 0``, Sec. 3.5) it
   releases the strategy answers ``A x`` plus Laplace noise scaled to the L1
   sensitivity of ``A``.  Under (epsilon, delta) privacy (Prop. 3) it adds
   Gaussian noise scaled to an L2 sensitivity, and releases ``R x`` instead
   of ``A x``, where ``R`` is the strategy's Gram root,
   ``R^T R = A^T A`` on its row space: the upper Cholesky factor at full
   rank, ``diag(sqrt(lambda)) V_r^T`` otherwise.  Both releases give an
   estimate distributed as ``N(P x, sigma^2 (A^T A)^+)``, with ``P`` the
   projection onto the row space, and ``R``'s largest column norm is
   ``A``'s, so the calibration and the Prop. 4 error are those of ``A``
   while the work is at most n x n, not p x n;
2. infers an estimate ``x_hat`` of the data vector by least squares:
   ``R^+ y`` (one triangular solve at full rank), ``(A^T A)^+ A^T y``
   through the same root after a Laplace release, or non-negative least
   squares against ``A`` when asked for;
3. answers the workload as ``W x_hat``.

Because all workload answers are derived from the single estimate ``x_hat``,
they are mutually consistent, and ``x_hat`` itself can be released as a
synthetic contingency table tailored to the workload.

The strategy fixes everything except the noise scale, so one mechanism
serves every privacy setting: its validation, sensitivities and
Gram root are computed once and reused whatever ``(epsilon, delta)`` a run
asks for.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.error import expected_workload_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import SingularStrategyError
from repro.mechanisms.gaussian import max_column_norm
from repro.mechanisms.inference import nonnegative_least_squares_estimate
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
    noise_scale:
        Scale of the noise added to each measured query: the Gaussian
        standard deviation, or the Laplace scale parameter.
    mechanism:
        Label of the mechanism that produced the release.
    """

    answers: np.ndarray
    estimate: np.ndarray | None
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
        # Filled on first use.  The strategy is validated on the first run;
        # the column norm is the L2 sensitivity of the map Gaussian runs
        # release, computed on the first of them.
        self._validated = False
        self._column_norm: float | None = None
        # Workloads whose support by the strategy has already been verified,
        # held weakly so a long-lived mechanism never pins its callers' workloads.
        self._supported_workloads: weakref.WeakSet[Workload] = weakref.WeakSet()

    def __getstate__(self) -> dict:
        """Pickle without the caches (a ``WeakSet`` cannot be pickled): the
        reader of a stored plan rebuilds them."""
        state = self.__dict__.copy()
        for name in ("_validated", "_column_norm", "_supported_workloads"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_caches()

    def _gaussian_sensitivity(self) -> float:
        """The L2 sensitivity of what Gaussian runs release, computed once.

        They release ``R x`` for the strategy's Gram root ``R``, whose column
        norms are ``A``'s on the root's row space (``R^T R = A^T A``), so
        ``R^+ (R x + sigma z)`` is distributed as the least-squares estimate
        from ``A x + sigma z``.  ``R`` is the strategy's cached
        ``normal_factor``, the root candidate pricing used.  Nonnegative
        inference measures ``A`` itself.
        """
        if self._column_norm is None:
            strategy = self.strategy
            released = strategy.matrix if self.nonnegative else strategy.normal_factor.factor
            self._column_norm = max_column_norm(released)
        return self._column_norm

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
        if not self._validated:
            check_matrix(self.strategy.matrix, "strategy matrix")
            self._validated = True
        cells = self.strategy.column_count
        data = check_vector(data, "data", cells)
        if workload.column_count != cells:
            raise SingularStrategyError(
                f"workload has {workload.column_count} cells but the strategy has {cells}"
            )
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
            scale = privacy.gaussian_scale(self._gaussian_sensitivity())
            draw = rng.normal
        else:
            scale = privacy.laplace_scale(self.strategy.sensitivity_l1)
            draw = rng.laplace
        if privacy.is_approximate and not self.nonnegative:
            # Release R x + sigma z and invert it through the Gram root: one
            # n x n trmv and one trsv at full rank.
            root = self.strategy.normal_factor
            noisy = root.release(data) + draw(0.0, scale, size=root.rank)
            estimate = root.invert(noisy)
        else:
            matrix = self.strategy.matrix
            noisy = matrix @ data + draw(0.0, scale, size=matrix.shape[0])
            if self.nonnegative:
                estimate = nonnegative_least_squares_estimate(matrix, noisy)
            else:
                estimate = self.strategy.normal_factor.solve(matrix.T @ noisy)
        # answer() serves explicit matrices and factored row operators alike,
        # so large Kronecker workloads can be answered without materialising
        # their (possibly enormous) query matrix.
        answers = workload.answer(estimate)
        return MechanismResult(answers=answers, estimate=estimate, noise_scale=scale)

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
