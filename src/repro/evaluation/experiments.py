"""Experiment harness: compare strategies on a workload by expected error.

This is the machinery behind the paper's Figures 3(a), 3(c), 5 and Table 2:
for one workload, compute the expected (data-independent) workload error of
several strategies plus the singular-value lower bound, and report ratios.

Strategies are priced through the engine's :class:`Mechanism` cost model
(:mod:`repro.engine.mechanism`) — the same code path the
:class:`~repro.engine.planner.Planner` ranks candidates with — so the
experiment tables and the production planner can never disagree about what a
strategy costs.  A side effect of the shared model is that comparisons work
in both privacy regimes: ``delta > 0`` prices the Gaussian instantiation,
``delta == 0`` the pure-epsilon Laplace one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.error import minimum_error_bound
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import MaterializationError, SingularStrategyError
from repro.mechanisms.matrix_mechanism import MatrixMechanism

__all__ = ["StrategyComparison", "compare_strategies"]

DEFAULT_PRIVACY = PrivacyParams(epsilon=0.5, delta=1e-4)


@dataclass
class StrategyComparison:
    """Errors of several strategies on one workload, plus the lower bound.

    Attributes
    ----------
    workload_name:
        Label of the workload that was evaluated.
    errors:
        Mapping from strategy label to expected workload RMSE; strategies that
        cannot answer the workload are reported as ``inf``.
    lower_bound:
        The singular-value lower bound (Thm. 2), on the same RMSE scale.
    privacy:
        The privacy setting used (it only rescales every number equally).
    """

    workload_name: str
    errors: dict[str, float]
    lower_bound: float
    privacy: PrivacyParams
    metadata: dict = field(default_factory=dict)

    # --------------------------------------------------------------- queries
    def error_of(self, label: str) -> float:
        """Error of one strategy by label."""
        return self.errors[label]

    def best_competitor(self, reference: str) -> tuple[str, float]:
        """The lowest-error strategy other than ``reference``."""
        others = {k: v for k, v in self.errors.items() if k != reference}
        label = min(others, key=others.get)
        return label, others[label]

    def worst_competitor(self, reference: str) -> tuple[str, float]:
        """The highest-error (finite) strategy other than ``reference``."""
        others = {
            k: v for k, v in self.errors.items() if k != reference and v != float("inf")
        }
        if not others:
            others = {k: v for k, v in self.errors.items() if k != reference}
        label = max(others, key=others.get)
        return label, others[label]

    def improvement_over(self, competitor: str, reference: str) -> float:
        """Factor by which ``reference`` reduces error relative to ``competitor``."""
        return self.errors[competitor] / self.errors[reference]

    def ratio_to_bound(self, label: str) -> float:
        """Error of ``label`` divided by the lower bound."""
        if self.lower_bound <= 0:
            return float("inf")
        return self.errors[label] / self.lower_bound

    def summary_rows(self) -> list[dict]:
        """One row per strategy, for tabular reporting."""
        rows = []
        for label, error in sorted(self.errors.items(), key=lambda item: item[1]):
            rows.append(
                {
                    "workload": self.workload_name,
                    "strategy": label,
                    "error": error,
                    "ratio_to_bound": self.ratio_to_bound(label),
                }
            )
        rows.append(
            {
                "workload": self.workload_name,
                "strategy": "lower-bound",
                "error": self.lower_bound,
                "ratio_to_bound": 1.0,
            }
        )
        return rows


def compare_strategies(
    workload: Workload,
    strategies: Mapping[str, Strategy],
    privacy: PrivacyParams = DEFAULT_PRIVACY,
    *,
    metadata: dict | None = None,
) -> StrategyComparison:
    """Compute the expected workload error of each strategy plus the lower bound.

    Strategies that cannot support the workload (rank deficiency) get an
    ``inf`` error rather than raising, so comparisons over many workloads
    never abort half-way.
    """
    errors: dict[str, float] = {}
    for label, strategy in strategies.items():
        try:
            errors[label] = MatrixMechanism(strategy).expected_error(workload, privacy)
        except (SingularStrategyError, MaterializationError):
            errors[label] = float("inf")
    return StrategyComparison(
        workload_name=workload.name or "workload",
        errors=errors,
        lower_bound=minimum_error_bound(workload, privacy),
        privacy=privacy,
        metadata=dict(metadata or {}),
    )
