"""Convex-optimisation substrate for strategy selection.

The entry point is :func:`solve_weighting`, which solves a
:class:`~repro.optimize.weighting_problem.WeightingProblem` by L-BFGS-B on
its dual until the duality gap certifies the optimum.  :func:`solve_scipy`
(SLSQP on the primal) is kept as an independent oracle for small problems.
"""

from __future__ import annotations

from repro.optimize.exact_gram import (
    GramDescentResult,
    optimal_gram_strategy,
    strategy_from_gram,
)
from repro.optimize.l1_weighting import l1_weighting_problem, solve_l1_weights
from repro.optimize.result import WeightingSolution
from repro.optimize.scipy_backend import solve_scipy
from repro.optimize.solver import solve_weighting
from repro.optimize.weighting_problem import WeightingProblem

__all__ = [
    "GramDescentResult",
    "WeightingProblem",
    "WeightingSolution",
    "l1_weighting_problem",
    "optimal_gram_strategy",
    "solve_l1_weights",
    "solve_scipy",
    "solve_weighting",
    "strategy_from_gram",
]
