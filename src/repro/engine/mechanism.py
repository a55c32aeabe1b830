"""The :class:`Mechanism` protocol: one ``run(workload, x, params)`` interface.

The repository grew three ways of answering a workload privately — the
Gaussian and Laplace mechanisms applied to the workload directly, and the
matrix mechanism (Gaussian or Laplace noise on a *strategy*, least-squares
inference, consistent derived answers).  Each lived behind its own class with
its own constructor signature, so callers had to know up front which one they
wanted.  This module extracts the common surface so the
:class:`~repro.engine.planner.Planner` can enumerate candidates, rank them by
expected error, and execute whichever wins, without special-casing.

Every mechanism answers three questions:

* ``supports(workload, params)`` — can it answer this workload under this
  privacy regime at all?
* ``expected_error(workload, params)`` — the closed-form expected workload
  RMSE (Def. 5 normalisation), the planner's ranking key;
* ``run(workload, data, params)`` — one private release, returned as a
  :class:`~repro.mechanisms.matrix_mechanism.MechanismResult`.

``MechanismResult.estimate`` is the released synthetic data vector ``x_hat``
when the mechanism produces one (the matrix mechanism), else ``None`` (the
direct mechanisms perturb each answer independently and offer no consistent
estimate).  The :class:`~repro.engine.session.Session` uses the estimate to
serve later overlapping queries at zero marginal budget, so its planner
excludes estimate-free mechanisms by default.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.error import expected_workload_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import MaterializationError, PrivacyError
from repro.mechanisms.gaussian import GaussianMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.laplace_matrix import expected_workload_error_l1
from repro.mechanisms.matrix_mechanism import MatrixMechanism, MechanismResult

__all__ = [
    "Mechanism",
    "StrategyMechanism",
    "DirectMechanism",
]


@runtime_checkable
class Mechanism(Protocol):
    """What the planner needs from a private query-answering mechanism."""

    name: str
    #: Whether :meth:`run` yields a consistent estimate ``x_hat``.
    releases_estimate: bool

    def supports(self, workload: Workload, params: PrivacyParams) -> bool:
        """Whether this mechanism can answer ``workload`` under ``params``."""
        ...

    def expected_error(self, workload: Workload, params: PrivacyParams) -> float:
        """Expected workload RMSE (Def. 5) of one run under ``params``."""
        ...

    def run(
        self,
        workload: Workload,
        data: np.ndarray,
        params: PrivacyParams,
        *,
        random_state=None,
    ) -> MechanismResult:
        """Perform one private release."""
        ...


class StrategyMechanism:
    """The matrix mechanism behind the protocol: noise on a strategy, then infer.

    The privacy regime picks the noise distribution: ``delta > 0`` runs the
    (epsilon, delta) Gaussian instantiation (Prop. 3), ``delta == 0`` the pure
    epsilon Laplace one (Sec. 3.5).  One :class:`MatrixMechanism` serves
    every privacy setting, so its factorisation caches stay warm across
    Monte-Carlo loops, session batches and changing budgets alike.
    """

    releases_estimate = True

    def __init__(self, strategy: Strategy):
        self.strategy = strategy
        self.name = f"matrix-mechanism[{strategy.name or 'strategy'}]"
        self._mechanism = MatrixMechanism(strategy)

    def supports(self, workload: Workload, params: PrivacyParams) -> bool:
        if workload.column_count != self.strategy.column_count:
            return False
        if not params.is_approximate:
            # The Laplace instantiation needs the explicit strategy matrix for
            # its L1 sensitivity.
            try:
                self.strategy.sensitivity_l1
            except MaterializationError:
                return False
        return True

    def expected_error(self, workload: Workload, params: PrivacyParams) -> float:
        # Priced through this module's names, not MatrixMechanism.expected_error:
        # perfbench times candidate pricing by patching expected_workload_error here.
        if params.is_approximate:
            return expected_workload_error(workload, self.strategy, params)
        return expected_workload_error_l1(workload, self.strategy, params)

    def run(
        self,
        workload: Workload,
        data: np.ndarray,
        params: PrivacyParams,
        *,
        random_state=None,
    ) -> MechanismResult:
        result = self._mechanism.run(workload, data, params, random_state=random_state)
        result.mechanism = self.name
        return result


class DirectMechanism:
    """Independent noise on every workload answer — the classic baselines.

    ``kind="gaussian"`` adds Gaussian noise calibrated to the workload's L2
    sensitivity (requires ``delta > 0``); ``kind="laplace"`` adds Laplace
    noise calibrated to the L1 sensitivity (any regime — pure epsilon
    differential privacy implies the approximate guarantee).  Neither yields
    a consistent estimate, so sessions exclude them unless asked not to.
    """

    releases_estimate = False

    def __init__(self, kind: str = "gaussian"):
        if kind not in ("gaussian", "laplace"):
            raise PrivacyError(f"unknown direct mechanism kind {kind!r}")
        self.kind = kind
        self.name = f"direct-{kind}"

    def supports(self, workload: Workload, params: PrivacyParams) -> bool:
        if self.kind == "gaussian" and not params.is_approximate:
            return False
        try:
            if self.kind == "laplace":
                workload.sensitivity_l1  # needs the explicit matrix
            else:
                workload.matrix
        except MaterializationError:
            return False
        return True

    def expected_error(self, workload: Workload, params: PrivacyParams) -> float:
        # Every query receives i.i.d. noise, so the Def. 5 RMSE over the m
        # queries is exactly the per-answer noise standard deviation.
        if self.kind == "gaussian":
            return params.gaussian_scale(workload.sensitivity_l2)
        scale = params.laplace_scale(workload.sensitivity_l1)
        return math.sqrt(2.0) * scale  # Laplace(b) has variance 2 b^2

    def run(
        self,
        workload: Workload,
        data: np.ndarray,
        params: PrivacyParams,
        *,
        random_state=None,
    ) -> MechanismResult:
        if self.kind == "gaussian":
            mechanism = GaussianMechanism(params)
        else:
            mechanism = LaplaceMechanism(params)
        answers = mechanism.answer(workload, data, random_state=random_state)
        return MechanismResult(
            answers=answers,
            estimate=None,
            noise_scale=mechanism.noise_scale(workload),
            mechanism=self.name,
        )
