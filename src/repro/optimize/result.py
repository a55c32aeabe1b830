"""Result container for the query-weighting solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WeightingSolution"]


@dataclass
class WeightingSolution:
    """Solution of a :class:`~repro.optimize.weighting_problem.WeightingProblem`.

    Attributes
    ----------
    weights:
        The optimisation variables ``u`` (for the L2 problem these are the
        *squared* design-query weights, ``u_i = lambda_i**2``).
    objective_value:
        Primal objective at the (feasible) returned weights.
    dual_value:
        Best dual (lower) bound found by the solver; ``nan`` for solvers that
        do not produce one.
    duality_gap:
        ``objective_value - dual_value``; a certificate of sub-optimality.
    iterations:
        Number of iterations performed.
    converged:
        Whether the solver reached its tolerance before hitting the iteration
        limit.
    solver:
        Name of the backend that produced this solution.
    diagnostics:
        Optional free-form extra information (evaluation and restart counts).
    """

    weights: np.ndarray
    objective_value: float
    dual_value: float
    duality_gap: float
    iterations: int
    converged: bool
    solver: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def relative_gap(self) -> float:
        """Duality gap relative to the primal objective (0 when certified optimal)."""
        if not np.isfinite(self.dual_value) or self.objective_value <= 0:
            return float("nan")
        return max(self.duality_gap, 0.0) / self.objective_value
