"""The :class:`Strategy` abstraction.

A strategy is the set of queries actually submitted to the Gaussian mechanism
by the matrix mechanism (Prop. 3).  Like workloads, strategies may be
explicit (an ``(p, n)`` matrix), Gram-implicit (dense ``A^T A``), or backed
by a structured Gram *operator* (see :mod:`repro.utils.operators`) for
Kronecker products and eigen-design results over domains where even the dense
``n x n`` Gram is too large.  All error analysis depends on a strategy only
through ``A^T A`` and its L2 sensitivity, so operator-backed strategies run
the whole analysis pipeline; running the mechanism on real data still
requires an explicit strategy.

``rank``, ``sensitivity_l2``, ``sensitivity_l1`` and the root of the Gram
(``normal_factor``, a :class:`~repro.utils.linalg.GramRoot`) are cached:
the first access pays for a Cholesky or ``eigh``/diagonal/column-sum
computation and every later access is free.  Pickling drops the root.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import MaterializationError, StrategyError
from repro.utils.linalg import (
    SPECTRUM_CUTOFF,
    GramRoot,
    gram_product,
    kron_all,
    rank_checked_cholesky,
    symmetrize,
)
from repro.utils.operators import (
    HARD_MATERIALIZATION_LIMIT,
    EigenDiagOperator,
    KroneckerOperator,
    StructuredGramMixin,
    kron_apply,
    projected_workload_diagonal,
    within_materialization_budget,
)
from repro.utils.validation import check_matrix

__all__ = ["Strategy"]


class Strategy(StructuredGramMixin):
    """A set of strategy queries used by the matrix mechanism."""

    _kind_label = "strategy"

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        *,
        gram: np.ndarray | None = None,
        gram_operator=None,
        name: str = "",
    ):
        if matrix is None and gram is None and gram_operator is None:
            raise StrategyError("a strategy needs either an explicit matrix or a Gram matrix")
        self._matrix = None if matrix is None else check_matrix(matrix, "strategy matrix")
        if gram is None:
            self._gram = None
        else:
            gram = check_matrix(gram, "gram matrix")
            if gram.shape[0] != gram.shape[1]:
                raise StrategyError(f"gram matrix must be square, got {gram.shape}")
            self._gram = gram if np.array_equal(gram, gram.T) else symmetrize(gram)
        self._gram_op = gram_operator
        if self._gram_op is not None and self._gram_op.shape[0] != self._gram_op.shape[1]:
            raise StrategyError(f"gram operator must be square, got {self._gram_op.shape}")
        if self._gram_op is not None:
            for other in (self._gram, self._matrix.T if self._matrix is not None else None):
                if other is not None and other.shape[0] != self._gram_op.shape[0]:
                    raise StrategyError(
                        "gram operator disagrees on the number of cells: "
                        f"{other.shape[0]} vs {self._gram_op.shape[0]}"
                    )
        if self._matrix is not None and self._gram is not None:
            if self._matrix.shape[1] != self._gram.shape[0]:
                raise StrategyError(
                    "matrix and gram disagree on the number of cells: "
                    f"{self._matrix.shape[1]} vs {self._gram.shape[0]}"
                )
        self.name = name
        # Explicit Kronecker factors kept for lazy materialisation of the matrix.
        self._factors: tuple["Strategy", ...] | None = None
        # All Kronecker factors (explicit or Gram-implicit), for flattening
        # nested products and preserving the factorized fast paths.
        self._kron_factors: tuple["Strategy", ...] | None = None
        # Cached spectral work (sensitivity, rank).
        self._sensitivity_l2: float | None = None
        self._sensitivity_l1: float | None = None
        self._rank: int | None = None
        # The root of the Gram.
        self._normal_factor: GramRoot | None = None

    def __getstate__(self) -> dict:
        """Pickle without the Gram root: stored plans and stored releases
        stay their size, and the reader refactors."""
        state = self.__dict__.copy()
        state["_normal_factor"] = None
        return state

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_matrix(cls, matrix: np.ndarray, *, name: str = "") -> "Strategy":
        """Build an explicit strategy from a ``(p, n)`` matrix."""
        return cls(matrix, name=name)

    @classmethod
    def from_gram(cls, gram: np.ndarray, *, name: str = "") -> "Strategy":
        """Build a Gram-implicit strategy from ``A^T A``."""
        return cls(None, gram=gram, name=name)

    @classmethod
    def from_gram_operator(cls, operator, *, name: str = "") -> "Strategy":
        """Build a strategy backed by a structured Gram operator.

        The operator must expose ``shape``, ``matvec`` and ``diagonal`` (see
        :mod:`repro.utils.operators`); dense materialisation stays gated by
        the materialization budget.
        """
        return cls(None, gram_operator=operator, name=name)

    @classmethod
    def identity(cls, size: int, *, name: str = "identity") -> "Strategy":
        """The identity strategy (ask for every cell count)."""
        return cls(np.eye(size), name=name)

    @classmethod
    def kronecker(cls, factors: Sequence["Strategy"], *, name: str = "") -> "Strategy":
        """The Kronecker-product strategy of per-attribute factor strategies.

        The explicit matrix is materialised only when every factor is explicit
        and the product fits the materialization budget; otherwise the factors
        are kept and the Gram is served by a structured
        :class:`~repro.utils.operators.KroneckerOperator` (the Gram of a
        Kronecker product is the Kronecker product of the factor Grams, which
        preserves the L2 sensitivity exactly).
        """
        if not factors:
            raise StrategyError("kronecker requires at least one factor")
        factors = cls._flatten_kron_factors(factors)
        all_explicit = all(f.has_matrix for f in factors)
        if all_explicit:
            rows = 1
            cells = 1
            for factor in factors:
                rows *= factor.matrix.shape[0]
                cells *= factor.column_count
            if within_materialization_budget(rows, cells):
                strategy = cls(kron_all([f.matrix for f in factors]), name=name)
                strategy._factors = tuple(factors)
                strategy._kron_factors = tuple(factors)
                return strategy
        gram_op = KroneckerOperator([f.gram for f in factors], symmetric=True)
        strategy = cls(None, gram_operator=gram_op, name=name)
        strategy._kron_factors = tuple(factors)
        if all_explicit:
            # Keep the factors so the explicit matrix can still be built lazily
            # (e.g. when the strategy is handed to the matrix mechanism).
            strategy._factors = tuple(factors)
        return strategy

    # -------------------------------------------------------------- properties
    @property
    def has_matrix(self) -> bool:
        """True when the explicit matrix is available."""
        return self._matrix is not None

    @property
    def matrix(self) -> np.ndarray:
        """The explicit strategy matrix.

        Kronecker-product strategies built from explicit factors are
        materialised lazily on first access; purely Gram-implicit strategies
        raise :class:`~repro.exceptions.MaterializationError`.
        """
        if self._matrix is None and self._factors is not None:
            rows = 1
            cells = 1
            for factor in self._factors:
                rows *= factor.matrix.shape[0]
                cells *= factor.column_count
            if not within_materialization_budget(rows, cells, limit=HARD_MATERIALIZATION_LIMIT):
                raise MaterializationError(
                    f"strategy {self.name!r} would need a {rows} x {cells} explicit "
                    "matrix, beyond the hard materialization cap"
                )
            self._matrix = kron_all([f.matrix for f in self._factors])
        if self._matrix is None:
            raise MaterializationError(
                f"strategy {self.name!r} is Gram-implicit; running the mechanism "
                "requires an explicit strategy matrix"
            )
        return self._matrix

    @property
    def gram(self) -> np.ndarray:
        """The dense ``n x n`` Gram matrix ``A^T A`` (lazy, cached, capped).

        Operator-backed strategies densify up to the hard materialization
        cap; structure-preferring code should use :meth:`gram_source`.
        """
        if self._gram is None:
            if self._matrix is not None:
                self._gram = gram_product(self._matrix)
            else:
                self._gram = self._densify_structured_gram()
        return self._gram

    @property
    def query_count(self) -> int:
        """Number of strategy queries ``p``."""
        if self._matrix is None and self._factors is not None:
            rows = 1
            for factor in self._factors:
                rows *= factor.query_count
            return rows
        return self.matrix.shape[0]

    @property
    def column_count(self) -> int:
        """The number of cells ``n``."""
        if self._gram is not None:
            return self._gram.shape[0]
        if self._gram_op is not None:
            return self._gram_op.shape[0]
        return self._matrix.shape[1]

    @property
    def sensitivity_l2(self) -> float:
        """Maximum L2 column norm of ``A`` (the Gaussian-noise calibration).

        Computed from the Gram diagonal (structurally for operator-backed
        strategies) and cached.
        """
        if self._sensitivity_l2 is None:
            self._sensitivity_l2 = float(np.sqrt(np.max(self._gram_diagonal())))
        return self._sensitivity_l2

    @property
    def sensitivity_l1(self) -> float:
        """Maximum L1 column norm of ``A`` (requires the explicit matrix; cached)."""
        if self._sensitivity_l1 is None:
            self._sensitivity_l1 = float(np.max(np.sum(np.abs(self.matrix), axis=0)))
        return self._sensitivity_l1

    @property
    def rank(self) -> int:
        """Numerical rank of the strategy (cached; factorized when structured).

        A dense Gram's rank is its root's (:attr:`normal_factor`).  A
        structured spectrum is counted against the machine threshold
        ``top * n * eps``.  A *completed* factorized design has no
        closed-form sorted spectrum (the completion diagonal couples the
        eigenbasis), but its rank is still structured: alive spectrum plus
        the dead-space rank reached by the completion rows, served by the
        Woodbury machinery without any ``n x n`` work.
        """
        if self._rank is None:
            operator = self.gram_operator
            if isinstance(operator, EigenDiagOperator) and operator.has_diag:
                try:
                    self._rank = operator.woodbury().rank
                    return self._rank
                except MaterializationError:
                    pass  # completion rank too large even for the hard cap
            if isinstance(operator, EigenDiagOperator) and not operator.has_diag:
                values = operator.eigenvalues_sorted()
            elif isinstance(operator, KroneckerOperator):
                values = operator.eigenbasis().values_natural
            else:
                self._rank = self.normal_factor.rank
                return self._rank
            top = float(values.max(initial=0.0))
            if top <= 0:
                self._rank = 0
            else:
                threshold = top * self.column_count * np.finfo(float).eps
                self._rank = int(np.sum(values > threshold))
        return self._rank

    @property
    def normal_factor(self) -> GramRoot:
        """The root ``R`` of the Gram (``R^T R = A^T A`` on its row space).

        Its upper Cholesky factor when the Gram has full rank, by the test of
        :func:`~repro.utils.linalg.rank_checked_cholesky`; otherwise the
        spectral root from one ``eigh``.  Computed once and cached: pricing,
        support checks, the matrix mechanism's release and its inference
        share this one root.
        """
        if self._normal_factor is None:
            self._normal_factor = GramRoot(self.gram)
        return self._normal_factor

    @property
    def is_full_rank(self) -> bool:
        """True when the strategy determines every cell count."""
        return self.rank == self.column_count

    # ---------------------------------------------------------------- actions
    def normalize_sensitivity(self) -> "Strategy":
        """Return a copy scaled so its L2 sensitivity equals 1.

        The expected error of the matrix mechanism is invariant to this
        rescaling; normalising makes strategies directly comparable.
        """
        sensitivity = self.sensitivity_l2
        if sensitivity <= 0:
            raise StrategyError("cannot normalise a zero strategy")
        if self.has_matrix:
            return Strategy(self.matrix / sensitivity, name=self.name)
        if self._gram_op is not None:
            # Keep the structured operator (it carries the factorized fast
            # paths); a dense Gram that happens to be materialised is scaled
            # alongside so neither representation is lost.
            scaled = self._gram_op.scaled(1.0 / sensitivity**2)
            gram = None if self._gram is None else self._gram / sensitivity**2
            return Strategy(None, gram=gram, gram_operator=scaled, name=self.name)
        return Strategy(None, gram=self.gram / sensitivity**2, name=self.name)

    def supports(self, workload_gram: np.ndarray, tolerance: float = 1e-6) -> bool:
        """Return True when the workload row space lies in the strategy row space."""
        # Fast path: a full-rank strategy supports every workload.  This
        # factors the Gram itself instead of reading ``normal_factor``:
        # skipping the work here moves GIL contention onto the free answers
        # of concurrent tenants (ROADMAP item 4(d)).
        if rank_checked_cholesky(self.gram) is not None:
            return True
        return self.normal_factor.supports(workload_gram, tolerance)

    def supports_workload(self, workload, tolerance: float = 1e-6) -> bool:
        """Row-space support test that never densifies beyond the budget.

        The structured fast path covers the common serving case — an
        eigen-design strategy (:class:`~repro.utils.operators
        .EigenDiagOperator` Gram) probed by a Kronecker workload over the
        same factor shapes: the workload mass on the strategy's *unreachable*
        spectrum coordinates is computed factor by factor
        (:func:`~repro.utils.operators.projected_workload_diagonal`,
        ``O(sum_i d_i^3)``), the exact test the error trace itself applies.
        Completion rows extend the reachable set, so a completed design only
        counts coordinates its completion diagonal leaves at zero.

        Without a structured match the dense :meth:`supports` check runs
        **only** while ``n x n`` fits the materialization *preference*
        budget; past it a :class:`~repro.exceptions.MaterializationError` is
        raised *before* any dense Gram is built — callers probing for free
        reuse (``Session._serve_from_release``) treat that as "unsupported"
        and pay for the request instead of densifying a 100M-entry matrix
        just to decide reuse.
        """
        operator = self.gram_operator
        workload_op = getattr(workload, "gram_operator", None)
        if isinstance(operator, EigenDiagOperator) and isinstance(
            workload_op, KroneckerOperator
        ):
            basis = operator.basis
            if [factor.shape[0] for factor in workload_op.factors] == [
                vectors.shape[0] for vectors in basis.vector_factors
            ]:
                projected = projected_workload_diagonal(basis, workload_op)
                spectrum = operator.spectrum
                top = float(spectrum.max(initial=0.0))
                alive = spectrum > SPECTRUM_CUTOFF * top
                if operator.has_diag:
                    completion = kron_apply(
                        basis.squared_factors, operator.diag, transpose=True
                    )
                    floor = SPECTRUM_CUTOFF * float(completion.max(initial=0.0))
                    unreachable = (~alive) & (completion <= max(floor, 1e-300))
                else:
                    unreachable = ~alive
                dead_mass = float(projected[unreachable].sum())
                return dead_mass <= tolerance * max(float(projected.sum()), 1.0)
        cells = self.column_count
        if not within_materialization_budget(cells, cells):
            raise MaterializationError(
                f"strategy {self.name!r} has no structured support test for this "
                f"workload and the dense row-space check would materialise a "
                f"{cells} x {cells} Gram, beyond the materialization budget"
            )
        return self.supports(workload.gram, tolerance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Strategy({self._representation_kind()}{label}, n={self.column_count})"
