"""The :class:`Workload` abstraction (Def. 2 and 3 of the paper).

A workload is a set of linear counting queries over a length-``n`` data
vector, conceptually an ``(m, n)`` matrix ``W`` with one query per row.
Three representations are supported:

* **explicit** — the matrix ``W`` itself is stored; every operation is
  available;
* **Gram-implicit** — only the dense Gram matrix ``W^T W`` and the query
  count ``m`` are stored.  This is essential for workloads such as "all
  multi-dimensional range queries" whose explicit matrix has millions of rows
  but whose Gram matrix is only ``n x n``.  All error analysis of the matrix
  mechanism (Prop. 4, Thm. 2) depends on the workload only through ``W^T W``
  and ``m``, so implicit workloads support the entire eigen-design pipeline;
* **factored operator** — for Kronecker products (and unions of them) even
  the ``n x n`` Gram matrix is too large; the workload then keeps its factors
  and serves the Gram, L2 sensitivity, eigen-decomposition and answers
  through the structured operators of :mod:`repro.utils.operators`, never
  materialising anything larger than the
  :data:`~repro.utils.operators.MATERIALIZATION_LIMIT` budget.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.domain.domain import Domain
from repro.exceptions import MaterializationError, WorkloadError
from repro.utils.linalg import gram_product, kron_all, symmetrize
from repro.utils.operators import (
    HARD_MATERIALIZATION_LIMIT,
    KroneckerEigenbasis,
    KroneckerOperator,
    StackedOperator,
    StructuredGramMixin,
    SumOperator,
    within_materialization_budget,
)
from repro.utils.validation import check_matrix, check_vector

__all__ = ["Workload"]


class Workload(StructuredGramMixin):
    """A set of linear counting queries over a data vector of length ``n``."""

    _kind_label = "workload"

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        *,
        gram: np.ndarray | None = None,
        gram_operator=None,
        row_operator=None,
        query_count: int | None = None,
        domain: Domain | None = None,
        name: str = "",
    ):
        if matrix is None and gram is None and gram_operator is None:
            raise WorkloadError("a workload needs either an explicit matrix or a Gram matrix")
        self._matrix = None if matrix is None else check_matrix(matrix, "workload matrix")
        if gram is None:
            self._gram = None
        else:
            gram = check_matrix(gram, "gram matrix")
            if gram.shape[0] != gram.shape[1]:
                raise WorkloadError(f"gram matrix must be square, got {gram.shape}")
            self._gram = symmetrize(gram)
        self._gram_op = gram_operator
        self._row_op = row_operator
        if self._gram_op is not None and self._gram_op.shape[0] != self._gram_op.shape[1]:
            raise WorkloadError(f"gram operator must be square, got {self._gram_op.shape}")
        if self._gram is not None and self._gram_op is not None:
            if self._gram_op.shape[0] != self._gram.shape[0]:
                raise WorkloadError(
                    "gram matrix and gram operator disagree on the number of cells: "
                    f"{self._gram.shape[0]} vs {self._gram_op.shape[0]}"
                )
        cells = self.column_count
        if self._matrix is not None and self._matrix.shape[1] != cells:
            raise WorkloadError(
                "matrix and gram disagree on the number of cells: "
                f"{self._matrix.shape[1]} vs {cells}"
            )
        if self._row_op is not None and self._row_op.shape[1] != cells:
            raise WorkloadError(
                f"row operator covers {self._row_op.shape[1]} cells, expected {cells}"
            )
        if query_count is None:
            if self._matrix is not None:
                query_count = self._matrix.shape[0]
            elif self._row_op is not None:
                query_count = self._row_op.shape[0]
            else:
                raise WorkloadError("implicit workloads must specify query_count")
        self._query_count = int(query_count)
        if self._query_count < 1:
            raise WorkloadError(f"query_count must be >= 1, got {self._query_count}")
        if self._matrix is not None and self._matrix.shape[0] != self._query_count:
            raise WorkloadError(
                f"query_count {self._query_count} does not match matrix rows {self._matrix.shape[0]}"
            )
        self.domain = domain
        if domain is not None and domain.size != self.column_count:
            raise WorkloadError(
                f"domain size {domain.size} does not match workload cells {self.column_count}"
            )
        self.name = name
        self._kron_factors: tuple["Workload", ...] | None = None
        self._eigenbasis: KroneckerEigenbasis | None = None
        self._eigenvalues: np.ndarray | None = None
        self._eigenvectors: np.ndarray | None = None
        self._sensitivity_l2: float | None = None
        # (name, labels) of the last query_labels call.
        self._labels: tuple[str, tuple[str, ...]] | None = None

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_matrix(cls, matrix: np.ndarray, *, domain: Domain | None = None, name: str = "") -> "Workload":
        """Build an explicit workload from an ``(m, n)`` matrix."""
        return cls(matrix, domain=domain, name=name)

    @classmethod
    def from_gram(
        cls,
        gram: np.ndarray,
        query_count: int,
        *,
        domain: Domain | None = None,
        name: str = "",
    ) -> "Workload":
        """Build an implicit workload from its Gram matrix and query count."""
        return cls(None, gram=gram, query_count=query_count, domain=domain, name=name)

    @classmethod
    def identity(cls, size: int, *, name: str = "identity") -> "Workload":
        """The workload asking for every individual cell count."""
        return cls(np.eye(size), name=name)

    @classmethod
    def total(cls, size: int, *, name: str = "total") -> "Workload":
        """The single query summing all cells."""
        return cls(np.ones((1, size)), name=name)

    @classmethod
    def kronecker(cls, factors: Sequence["Workload"], *, domain: Domain | None = None, name: str = "") -> "Workload":
        """The Kronecker-product workload of per-attribute factor workloads.

        If every factor is explicit and the resulting matrix fits the
        materialization budget the result is explicit; otherwise the factors
        are kept *lazily* and the product is served through structured
        operators: the Gram ``W^T W`` is the Kronecker product of the factor
        Gram matrices (densified only on demand, and only when it fits the
        budget), the eigen-decomposition factorizes per attribute, and query
        answering uses the factored matvec when the factors are explicit.
        """
        if not factors:
            raise WorkloadError("kronecker requires at least one factor")
        factors = cls._flatten_kron_factors(factors)
        query_count = 1
        cells = 1
        for factor in factors:
            query_count *= factor.query_count
            cells *= factor.column_count
        all_explicit = all(f.has_matrix for f in factors)
        if all_explicit and within_materialization_budget(query_count, cells):
            workload = cls(kron_all([f.matrix for f in factors]), domain=domain, name=name)
        else:
            gram_op = KroneckerOperator([f.gram for f in factors], symmetric=True)
            row_op = (
                KroneckerOperator([f.matrix for f in factors]) if all_explicit else None
            )
            workload = cls(
                None,
                gram_operator=gram_op,
                row_operator=row_op,
                query_count=query_count,
                domain=domain,
                name=name,
            )
        workload._kron_factors = tuple(factors)
        return workload

    @classmethod
    def union(cls, workloads: Sequence["Workload"], *, name: str = "") -> "Workload":
        """Concatenate several workloads over the same cells into one.

        Explicit workloads are stacked row-wise; if any input is implicit the
        result is implicit (Gram matrices and query counts add).  When a part
        is operator-backed (e.g. a large Kronecker product) the union stays
        structured: its Gram is a :class:`~repro.utils.operators.SumOperator`
        over the part Gram sources and its rows a lazy
        :class:`~repro.utils.operators.StackedOperator`.

        A union of **one** workload preserves its identity: the input is
        returned as-is (or as a renamed shallow view sharing every cached
        representation), never re-wrapped.  Re-wrapping used to turn a lazy
        Kronecker workload into an anonymous operator-backed one, changing
        its :func:`~repro.engine.planner.workload_fingerprint` — so a batch
        of one request missed the plan cache for a shape that was already
        warm.
        """
        if not workloads:
            raise WorkloadError("union requires at least one workload")
        if len(workloads) == 1:
            only = workloads[0]
            if not name or name == only.name:
                return only
            renamed = copy.copy(only)
            renamed.name = name
            return renamed
        cells = workloads[0].column_count
        if any(w.column_count != cells for w in workloads):
            raise WorkloadError("all workloads in a union must have the same number of cells")
        domain = workloads[0].domain
        if all(w.has_matrix for w in workloads):
            matrix = np.vstack([w.matrix for w in workloads])
            return cls(matrix, domain=domain, name=name)
        sources = [w.gram_source() for w in workloads]
        query_count = sum(w.query_count for w in workloads)
        if all(isinstance(source, np.ndarray) for source in sources):
            gram = sum(sources)
            return cls(None, gram=gram, query_count=query_count, domain=domain, name=name)
        row_parts = [w._row_source() for w in workloads]
        row_op = StackedOperator(row_parts) if all(p is not None for p in row_parts) else None
        return cls(
            None,
            gram_operator=SumOperator(sources),
            row_operator=row_op,
            query_count=query_count,
            domain=domain,
            name=name,
        )

    # -------------------------------------------------------------- properties
    @property
    def has_matrix(self) -> bool:
        """True when the explicit ``(m, n)`` matrix is available."""
        return self._matrix is not None

    @property
    def matrix(self) -> np.ndarray:
        """The explicit query matrix (raises for implicit workloads)."""
        if self._matrix is None:
            raise MaterializationError(
                f"workload {self.name!r} is Gram-implicit; the explicit matrix "
                f"({self._query_count} x {self.column_count}) is not materialised"
            )
        return self._matrix

    @property
    def gram(self) -> np.ndarray:
        """The dense ``n x n`` Gram matrix ``W^T W`` (lazy, cached, capped).

        Operator-backed workloads densify only while ``n x n`` fits the hard
        materialization cap; beyond that the structured :attr:`gram_operator`
        must be used instead.  Structure-preferring code should go through
        :meth:`gram_source`, which switches to the operator already at the
        (much smaller) preference threshold.
        """
        if self._gram is None:
            if self._matrix is not None:
                self._gram = gram_product(self._matrix)
            else:
                self._gram = self._densify_structured_gram()
        return self._gram

    def _row_source(self):
        """Rows as a matrix or operator (``None`` when only the Gram exists)."""
        if self._matrix is not None:
            return self._matrix
        return self._row_op

    def row_source(self):
        """The query rows as a dense matrix or a factored row operator.

        Returns the explicit ``(m, n)`` matrix when available, otherwise the
        structured row operator (Kronecker / stacked) kept by large product
        workloads, and ``None`` for purely Gram-implicit workloads.  Row
        operators expose ``row_block(start, stop)`` so consumers (e.g.
        :func:`repro.core.error.per_query_error`) can stream the queries in
        blocks without materialising all of them.
        """
        return self._row_source()

    @property
    def query_count(self) -> int:
        """The number of queries ``m``."""
        return self._query_count

    @property
    def column_count(self) -> int:
        """The number of cells ``n`` (length of the data vector)."""
        if self._gram is not None:
            return self._gram.shape[0]
        if self._gram_op is not None:
            return self._gram_op.shape[0]
        return self._matrix.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(m, n)``."""
        return (self.query_count, self.column_count)

    @property
    def query_labels(self) -> tuple[str, ...]:
        """One ``name[i]`` label per query (``workload[i]`` when unnamed).

        Cached against the current ``name``: answering the same workload
        again shares one tuple, and renaming the workload relabels it.
        """
        if self._labels is None or self._labels[0] != self.name:
            stem = self.name or "workload"
            labels = tuple(f"{stem}[{i}]" for i in range(self.query_count))
            self._labels = (self.name, labels)
        return self._labels[1]

    @property
    def sensitivity_l2(self) -> float:
        """Maximum L2 column norm of ``W`` (Prop. 1), from the Gram diagonal."""
        if self._sensitivity_l2 is None:
            self._sensitivity_l2 = float(np.sqrt(np.max(self._gram_diagonal())))
        return self._sensitivity_l2

    @property
    def sensitivity_l1(self) -> float:
        """Maximum L1 column norm of ``W`` (requires the explicit matrix)."""
        return float(np.max(np.sum(np.abs(self.matrix), axis=0)))

    # -------------------------------------------------------- spectral analysis
    def eigen_basis(self) -> KroneckerEigenbasis | None:
        """The factorized eigen-decomposition of ``W^T W`` when available.

        Kronecker-product workloads eigendecompose each (tiny) factor Gram and
        combine eigenvalues by outer product, keeping the eigenvector matrix a
        lazy Kronecker product.  Returns ``None`` for unstructured workloads
        (dense or union Grams), which must use :meth:`eigen_decomposition`.
        """
        if self._eigenbasis is None:
            operator = self.gram_operator  # lazily built from kron factors
            if isinstance(operator, KroneckerOperator):
                self._eigenbasis = operator.eigenbasis()
        return self._eigenbasis

    def eigen_decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(eigenvalues, eigen_queries)`` of ``W^T W``.

        Eigenvalues are sorted in descending order; ``eigen_queries`` has the
        corresponding eigenvectors as *rows* (Def. 6).  Both are cached.
        Kronecker workloads use the factorized decomposition (k tiny ``eigh``
        calls instead of one ``O(n^3)`` dense one); the dense eigen-query
        matrix is still subject to the materialization budget — beyond it use
        :meth:`eigen_basis` and the factorized design pipeline.
        """
        if self._eigenvectors is None:
            basis = self.eigen_basis()
            cells = self.column_count
            if basis is not None and within_materialization_budget(
                cells, cells, limit=HARD_MATERIALIZATION_LIMIT
            ):
                self._eigenvalues = basis.sorted_values
                self._eigenvectors = basis.queries_dense()
            else:
                # Either no factor structure, or the dense eigen-query matrix
                # exceeds the hard cap: fall back to the dense path, which
                # still works whenever the Gram itself is materialisable
                # (matrix-backed Grams have no cap) and raises a clear
                # MaterializationError otherwise.
                values, vectors = np.linalg.eigh(self.gram)
                order = np.argsort(values)[::-1]
                self._eigenvalues = np.clip(values[order], 0.0, None)
                self._eigenvectors = vectors[:, order].T
        return self._eigenvalues, self._eigenvectors

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``W^T W`` in descending order (factorized when possible)."""
        if self._eigenvalues is None:
            basis = self.eigen_basis()
            if basis is not None:
                self._eigenvalues = basis.sorted_values
            else:
                self.eigen_decomposition()
        return self._eigenvalues

    @property
    def rank(self) -> int:
        """Numerical rank of the workload."""
        values = self.eigenvalues
        if values.size == 0:
            return 0
        threshold = values[0] * self.column_count * np.finfo(float).eps
        return int(np.sum(values > max(threshold, 0.0)))

    # ---------------------------------------------------------------- actions
    def answer(self, data: np.ndarray) -> np.ndarray:
        """Return the exact (noise-free) answers ``W x``.

        Served by the explicit matrix when present, otherwise by the factored
        row operator (Kronecker/stacked), so large structured workloads can be
        answered without materialising their rows.
        """
        data = check_vector(data, "data", self.column_count)
        if self._matrix is not None:
            return self._matrix @ data
        if self._row_op is not None:
            return self._row_op.matvec(data)
        return self.matrix @ data  # raises MaterializationError with context

    def scale_rows(self, weights: np.ndarray | float) -> "Workload":
        """Return a workload with each query scaled by the matching weight.

        Scaling by a scalar ``c`` multiplies the Gram matrix by ``c**2``, so a
        Gram that has already been computed is propagated instead of being
        recomputed from scratch on the scaled copy.
        """
        matrix = self.matrix
        if np.isscalar(weights):
            factor = float(weights)
            scaled = matrix * factor
            gram = None if self._gram is None else self._gram * factor**2
            return Workload(scaled, gram=gram, domain=self.domain, name=f"{self.name}-scaled")
        weights = check_vector(weights, "weights", self.query_count)
        scaled = matrix * weights[:, None]
        return Workload(scaled, domain=self.domain, name=f"{self.name}-scaled")

    def normalize_rows(self) -> "Workload":
        """Scale every query to unit L2 norm (the relative-error heuristic of Sec. 3.4).

        Rows that are identically zero are left unchanged.  Unlike scalar
        scaling, per-row reweighting changes the Gram in a way that cannot be
        derived from ``W^T W`` alone (it needs ``W^T D^2 W``), so no
        precomputed Gram is propagated here.
        """
        matrix = self.matrix
        norms = np.linalg.norm(matrix, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return Workload(matrix / safe[:, None], domain=self.domain, name=f"{self.name}-normalized")

    def permute_columns(self, permutation: Sequence[int]) -> "Workload":
        """Return a semantically-equivalent workload with reordered cell conditions."""
        permutation = np.asarray(permutation, dtype=int)
        if sorted(permutation.tolist()) != list(range(self.column_count)):
            raise WorkloadError("permutation must be a permutation of the cell indexes")
        if self.has_matrix:
            return Workload(self.matrix[:, permutation], domain=self.domain, name=f"{self.name}-permuted")
        gram = self.gram[np.ix_(permutation, permutation)]
        return Workload(
            None,
            gram=gram,
            query_count=self.query_count,
            domain=self.domain,
            name=f"{self.name}-permuted",
        )

    def rotate(self, orthogonal: np.ndarray) -> "Workload":
        """Return the error-equivalent workload ``Q W`` for orthogonal ``Q`` (Prop. 6).

        An orthogonal rotation leaves ``W^T W`` unchanged, so a Gram that has
        already been computed is carried over to the rotated copy — after
        verifying ``Q^T Q = I``, so a non-orthogonal argument falls back to
        recomputing the Gram instead of propagating a stale one.  The
        ``O(m^3)`` verification is only worthwhile while it is no more
        expensive than the ``O(m n^2)`` lazy recompute it saves, i.e. for
        ``m <= n``; with more queries than cells the Gram is simply
        recomputed on demand.
        """
        orthogonal = check_matrix(orthogonal, "orthogonal matrix")
        matrix = self.matrix
        if orthogonal.shape != (self.query_count, self.query_count):
            raise WorkloadError(
                f"orthogonal matrix must be {self.query_count} x {self.query_count}, got {orthogonal.shape}"
            )
        gram = None
        if self._gram is not None and self.query_count <= self.column_count:
            identity_residual = orthogonal.T @ orthogonal - np.eye(orthogonal.shape[0])
            if np.abs(identity_residual).max() <= 1e-9:
                gram = self._gram
        return Workload(
            orthogonal @ matrix,
            gram=gram,
            domain=self.domain,
            name=f"{self.name}-rotated",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Workload({self._representation_kind()}{label}, "
            f"m={self.query_count}, n={self.column_count})"
        )
