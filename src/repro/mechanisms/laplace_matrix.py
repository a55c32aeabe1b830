"""Expected error of the epsilon-differentially-private matrix mechanism (Sec. 3.5).

The paper's main results use the (epsilon, delta) Gaussian instantiation, but
the matrix mechanism itself works under pure epsilon-differential privacy:
answer the strategy queries with the Laplace mechanism calibrated to the
strategy's *L1* sensitivity and infer the workload answers by least squares.
:class:`~repro.mechanisms.matrix_mechanism.MatrixMechanism` runs that variant
for any ``PrivacyParams`` with ``delta == 0``; this module provides its
closed-form expected error,

    Error_A(W) = ||A||_1 * sqrt(2 / epsilon^2 * trace(W^T W (A^T A)^{-1}) / m),

(the Laplace distribution with scale ``b`` has variance ``2 b^2``), which is
what Sec. 3.5 compares against when it discusses the difficulty of optimising
the L1 sensitivity.  Strategy selection for this variant is provided by
:mod:`repro.optimize.l1_weighting` (re-weighting a given basis).
"""

from __future__ import annotations

import math

from repro.core.error import workload_strategy_trace
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import PrivacyError

__all__ = ["expected_workload_error_l1"]


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
