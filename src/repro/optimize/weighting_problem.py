"""The optimal query-weighting problem (Program 1 of the paper).

Program 1 is stated as a semidefinite program, but the 2x2 PSD constraints
``[[u_i, 1], [1, v_i]] >= 0`` only encode ``u_i v_i >= 1`` with ``u_i, v_i >= 0``;
at the optimum ``v_i = 1 / u_i``, so the program is equivalent to the smooth
convex problem

    minimise    sum_i c_i / u_i
    subject to  (Q o Q)^T u <= 1   (one constraint per cell / column)
                u >= 0

where ``c_i`` are the squared column norms of ``W Q^+`` (Thm. 1) and
``(Q o Q)^T u <= 1`` bounds every squared column norm of the weighted
strategy ``Lambda Q`` — i.e. its squared L2 sensitivity — by 1.

This module also supports the generalised objective ``sum_i c_i * u_i**(-p)``
used by the L1 (epsilon-differential-privacy) variant of Sec. 3.5, where the
variables are the weights themselves rather than their squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import OptimizationError
from repro.utils.validation import check_matrix, check_vector

__all__ = ["WeightingProblem"]

#: Floor applied to dual-derived denominators to avoid division by zero.
_DENOMINATOR_FLOOR = 1e-300


@dataclass
class WeightingProblem:
    """minimise ``sum_i costs_i * u_i**(-power)`` s.t. ``constraints @ u <= 1``, ``u >= 0``.

    Parameters
    ----------
    costs:
        Non-negative vector ``c`` of length ``r`` (one entry per design query).
    constraints:
        Non-negative ``(k, r)`` matrix ``C``; row ``j`` expresses the bound on
        the squared norm of strategy column ``j``.  Instead of a dense array,
        a *structured constraint operator* may be passed (e.g.
        :class:`~repro.utils.operators.KroneckerConstraints`): any object
        exposing ``shape``, ``matvec``, ``rmatvec``, ``column_maxes``,
        ``column_sums`` and ``row_sums``, with implicitly non-negative
        entries.  The dual solver runs unchanged on operators.
    power:
        Exponent ``p`` of the objective (1 for the L2 problem on squared
        weights, 2 for the L1 variant on raw weights).
    """

    costs: np.ndarray
    constraints: np.ndarray
    power: float = 1.0

    def __post_init__(self) -> None:
        self.costs = check_vector(self.costs, "costs")
        self._structured = not isinstance(self.constraints, (np.ndarray, list, tuple))
        if self._structured:
            required = ("shape", "matvec", "rmatvec", "column_maxes", "column_sums", "row_sums")
            missing = [attr for attr in required if not hasattr(self.constraints, attr)]
            if missing:
                raise OptimizationError(
                    f"structured constraint operator is missing {missing}; pass a dense "
                    "matrix or an operator implementing the full protocol"
                )
            column_support = self.constraints.column_sums()
            largest_entry = self.constraints.column_maxes()
        else:
            self.constraints = check_matrix(self.constraints, "constraints")
            if np.any(self.constraints < 0):
                raise OptimizationError("the constraint matrix must be non-negative")
            column_support = self.constraints.sum(axis=0)
            largest_entry = self.constraints.max(axis=0)
        if self.constraints.shape[1] != self.costs.shape[0]:
            raise OptimizationError(
                f"constraints have {self.constraints.shape[1]} columns but there are "
                f"{self.costs.shape[0]} costs"
            )
        if np.any(self.costs < 0):
            raise OptimizationError("costs must be non-negative")
        if self.power < 1:
            raise OptimizationError(f"power must be >= 1, got {self.power}")
        if np.any((column_support <= 0) & (self.costs > 0)):
            raise OptimizationError(
                "every design query with positive cost must appear in at least one constraint"
            )
        # Per-variable upper bounds implied by the constraints: any feasible u
        # satisfies u_i <= 1 / max_j C[j, i].  Clipping dual-derived primal
        # points to this box keeps gradients bounded when some dual variables
        # hit zero, without excluding any feasible solution.
        with np.errstate(divide="ignore"):
            self._upper_bounds = np.where(largest_entry > 0, 1.0 / largest_entry, np.inf)

    @property
    def structured(self) -> bool:
        """True when the constraints are a matrix-free operator."""
        return self._structured

    def _apply(self, weights: np.ndarray) -> np.ndarray:
        """Return ``C @ u`` for dense or structured constraints."""
        if self._structured:
            return self.constraints.matvec(weights)
        return self.constraints @ weights

    def _apply_transpose(self, dual: np.ndarray) -> np.ndarray:
        """Return ``C^T @ mu`` for dense or structured constraints."""
        if self._structured:
            return self.constraints.rmatvec(dual)
        return self.constraints.T @ dual

    # ----------------------------------------------------------------- sizes
    @property
    def variable_count(self) -> int:
        """Number of design queries ``r``."""
        return int(self.costs.shape[0])

    @property
    def constraint_count(self) -> int:
        """Number of sensitivity constraints ``k`` (usually the cell count)."""
        return int(self.constraints.shape[0])

    # ------------------------------------------------------------- primal side
    def objective(self, weights: np.ndarray) -> float:
        """Primal objective ``sum_i c_i * u_i**(-p)`` (0-cost terms contribute 0)."""
        weights = np.asarray(weights, dtype=float)
        positive = self.costs > 0
        if np.any(weights[positive] <= 0):
            return float("inf")
        return float(np.sum(self.costs[positive] * weights[positive] ** (-self.power)))

    def constraint_values(self, weights: np.ndarray) -> np.ndarray:
        """Return ``C @ u`` (each entry should be <= 1 at a feasible point)."""
        return self._apply(np.asarray(weights, dtype=float))

    def max_violation(self, weights: np.ndarray) -> float:
        """Maximum amount by which a constraint is exceeded (<= 0 when feasible)."""
        return float(np.max(self.constraint_values(weights) - 1.0))

    def scale_to_feasible(self, weights: np.ndarray) -> np.ndarray:
        """Scale ``u`` uniformly so the tightest constraint holds with equality.

        Scaling down restores feasibility; scaling up (when the point is
        strictly interior) can only decrease the objective, so the boundary
        point is always at least as good as the input.
        """
        weights = np.asarray(weights, dtype=float)
        top = float(np.max(self.constraint_values(weights)))
        if top <= 0:
            raise OptimizationError("cannot scale a zero weight vector to feasibility")
        return weights / top

    def initial_weights(self) -> np.ndarray:
        """A simple feasible interior starting point (uniform weights)."""
        if self._structured:
            column_load = self.constraints.row_sums()
        else:
            column_load = self.constraints.sum(axis=1)
        top = float(column_load.max())
        if top <= 0:
            raise OptimizationError("constraint matrix is identically zero")
        return np.full(self.variable_count, 0.9 / top)

    def initial_dual(self) -> np.ndarray:
        """A well-scaled starting point for the dual solver.

        A uniform dual ``mu = alpha * 1`` is chosen so that the induced primal
        point ``u(mu)`` sits exactly on the sensitivity boundary
        (``max_j (C u)_j = 1``).  Because ``u(mu)`` scales as
        ``alpha**(-1/(p+1))``, the right ``alpha`` has the closed form
        ``max_j (C u(1))_j ** (p+1)``.  Starting here keeps the gradient of
        the dual on a sane numerical scale regardless of the magnitude of the
        costs.
        """
        ones = np.ones(self.constraint_count)
        reference = float(np.max(self._apply(self.primal_from_dual(ones))))
        if not np.isfinite(reference) or reference <= 0:
            return ones
        alpha = reference ** (self.power + 1.0)
        return np.full(self.constraint_count, max(alpha, 1e-12))

    # --------------------------------------------------------------- dual side
    def primal_from_dual(self, dual: np.ndarray) -> np.ndarray:
        """Return the inner minimiser ``u(mu)`` of the Lagrangian for dual ``mu``.

        The minimiser is restricted to the box ``0 <= u <= upper_bounds``
        implied by the constraints, which changes nothing at feasible optima
        but keeps the value finite when ``(C^T mu)_i`` vanishes for some
        positive-cost variable.
        """
        dual = np.asarray(dual, dtype=float)
        denominator = np.maximum(self._apply_transpose(dual), _DENOMINATOR_FLOOR)
        exponent = 1.0 / (self.power + 1.0)
        weights = (self.power * self.costs / denominator) ** exponent
        # Zero-cost design queries get zero weight from the formula, which is fine.
        return np.minimum(weights, self._upper_bounds)

    def dual_value(self, dual: np.ndarray) -> float:
        """Lagrangian dual function ``g(mu)`` (a lower bound on the optimum)."""
        return self.dual_value_and_primal(dual)[0]

    def dual_value_and_primal(self, dual: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(g(mu), u(mu))`` from a single constraint pass.

        The dual value and the inner minimiser share the expensive
        ``C^T mu`` product; the solver, which needs both at every
        evaluation, calls this instead of ``dual_value`` + ``primal_from_dual``.
        """
        dual = np.asarray(dual, dtype=float)
        linear = self._apply_transpose(dual)
        denominator = np.maximum(linear, _DENOMINATOR_FLOOR)
        exponent = 1.0 / (self.power + 1.0)
        weights = np.minimum(
            (self.power * self.costs / denominator) ** exponent, self._upper_bounds
        )
        positive = self.costs > 0
        value = float(
            np.sum(self.costs[positive] * weights[positive] ** (-self.power))
            + np.sum(linear[positive] * weights[positive])
            - np.sum(dual)
        )
        return value, weights

    def dual_gradient(self, dual: np.ndarray) -> np.ndarray:
        """Gradient of the dual function: ``C u(mu) - 1``."""
        weights = self.primal_from_dual(dual)
        return self._apply(weights) - 1.0

    # -------------------------------------------------------------- reporting
    def certificate(self, weights: np.ndarray, dual: np.ndarray) -> tuple[float, float, float]:
        """Return ``(primal, dual, gap)`` for a feasible primal/dual pair."""
        feasible = self.scale_to_feasible(weights)
        primal = self.objective(feasible)
        dual_value = self.dual_value(dual)
        return primal, dual_value, primal - dual_value
