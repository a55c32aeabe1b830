"""Structured linear operators for the factorized Kronecker fast path.

The matrix mechanism's hot path — eigen-decomposition of ``W^T W``, the
weighting program and the error trace ``trace(W^T W (A^T A)^{-1})`` — only
needs *actions* of the Gram matrices (matrix-vector products, diagonals,
spectra), never their dense entries.  For multi-dimensional workloads these
Gram matrices are Kronecker products of tiny per-attribute factors, so every
action factorizes:

* ``(G_1 ⊗ ... ⊗ G_k) x`` costs ``O(n * sum_i d_i)`` instead of ``O(n^2)``;
* ``eigh(G_1 ⊗ ... ⊗ G_k)`` reduces to ``k`` tiny ``eigh`` calls whose
  eigenvalues combine by outer product and whose eigenvectors stay a lazy
  Kronecker product of the factor eigenvector matrices;
* the L2 sensitivity (max Gram diagonal) is the product of factor maxima.

Three representations therefore coexist across the package:

* **explicit** — the dense query matrix; everything is available;
* **Gram-implicit** — only the dense ``n x n`` Gram matrix; supports the
  whole error-analysis pipeline but still costs ``O(n^2)`` memory;
* **factored operator** — this module; Kronecker (and unions of Kronecker)
  structure is kept symbolically so domains far beyond the dense limit stay
  tractable.

Dense materialisation is gated everywhere by :data:`MATERIALIZATION_LIMIT`
via :func:`within_materialization_budget`.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Sequence

import numpy as np
import scipy.linalg

from repro.exceptions import MaterializationError, SingularStrategyError
from repro.utils.linalg import SPECTRUM_CUTOFF, kron_all, symmetrize

__all__ = [
    "HARD_MATERIALIZATION_LIMIT",
    "MATERIALIZATION_LIMIT",
    "SPECTRUM_CUTOFF",
    "within_materialization_budget",
    "kron_apply",
    "kron_reduce",
    "kron_row_block",
    "projected_workload_diagonal",
    "KroneckerOperator",
    "MatrixGramOperator",
    "StackedOperator",
    "StructuredGramMixin",
    "SumOperator",
    "KroneckerEigenbasis",
    "KroneckerConstraints",
    "ColumnBlockConstraints",
    "GroupColumnOperator",
    "EigenDiagOperator",
    "WoodburyOperator",
    "gram_to_dense",
]

#: Preference threshold (entries = rows * columns): structured code paths
#: keep factors lazy and avoid densifying beyond this.  Shared by
#: :meth:`Workload.kronecker`, :meth:`Strategy.kronecker`, ``gram_source``
#: and the ``eigen_design`` auto-switch so the policy of "when do we prefer
#: structure" lives in exactly one place.
MATERIALIZATION_LIMIT = 10**7

#: Hard cap on any *explicit* dense materialisation request (``to_dense``,
#: the ``gram`` property of operator-backed objects): ~2 GiB of float64.
#: Between the two limits the fast paths stay structured but a caller that
#: genuinely needs the dense array (e.g. running the mechanism on data)
#: still gets it, matching the pre-operator behaviour; beyond the hard cap
#: a :class:`~repro.exceptions.MaterializationError` is raised.
HARD_MATERIALIZATION_LIMIT = 2**28

def within_materialization_budget(rows: int, columns: int, *, limit: int | None = None) -> bool:
    """True when a ``rows x columns`` dense array is small enough to build.

    Parameters
    ----------
    rows, columns:
        Shape of the dense array under consideration.
    limit:
        Entry budget; defaults to :data:`MATERIALIZATION_LIMIT` (pass
        :data:`HARD_MATERIALIZATION_LIMIT` to test the hard cap instead).

    Examples
    --------
    >>> within_materialization_budget(1000, 1000, limit=10**7)
    True
    >>> within_materialization_budget(4096, 4096, limit=10**7)
    False
    """
    if limit is None:
        limit = MATERIALIZATION_LIMIT
    return int(rows) * int(columns) <= limit


def _dense_guard(rows: int, columns: int, what: str, limit: int | None) -> None:
    if limit is None:
        limit = HARD_MATERIALIZATION_LIMIT
    if not within_materialization_budget(rows, columns, limit=limit):
        raise MaterializationError(
            f"refusing to materialise {what} of shape ({rows}, {columns}): "
            f"{int(rows) * int(columns)} entries exceed the materialization "
            f"cap of {limit}"
        )


def kron_apply(
    factors: Sequence[np.ndarray],
    vectors: np.ndarray,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """Apply ``F_1 ⊗ ... ⊗ F_k`` (or its transpose) without forming it.

    ``vectors`` may be a single vector or an ``(n, b)`` batch of columns.  The
    classic vec-trick: reshape to a rank-``k`` tensor and contract one factor
    per axis, costing ``O(n * sum_i d_i)`` per vector instead of ``O(n^2)``.

    Parameters
    ----------
    factors:
        The 2-D Kronecker factors ``F_1, ..., F_k`` (left to right).
    vectors:
        A vector of length ``prod_i cols(F_i)`` or an ``(n, b)`` batch.
    transpose:
        Apply ``(⊗F_i)^T`` instead.

    Examples
    --------
    >>> factors = [np.array([[1.0, 1.0]]), np.eye(2)]
    >>> kron_apply(factors, np.array([1.0, 2.0, 3.0, 4.0]))
    array([4., 6.])
    """
    mats = [np.asarray(f, dtype=float) for f in factors]
    x = np.asarray(vectors, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    in_dims = [f.shape[0] if transpose else f.shape[1] for f in mats]
    batch = x.shape[1]
    tensor = x.reshape(in_dims + [batch])
    for axis, factor in enumerate(mats):
        applied = factor.T if transpose else factor
        tensor = np.moveaxis(np.moveaxis(tensor, axis, -1) @ applied.T, -1, axis)
    out = tensor.reshape(-1, batch)
    return out[:, 0] if single else out


def kron_reduce(factors, reducer) -> np.ndarray:
    """Kronecker-accumulate a per-factor 1-D reduction.

    ``reducer`` maps each factor to a vector; the results combine by
    ``np.kron``, which is exact for any entrywise reduction that multiplies
    across a Kronecker product (diagonals, column norms, column maxima/sums
    of non-negative factors, ...).

    Parameters
    ----------
    factors:
        The Kronecker factors (any iterable the ``reducer`` understands).
    reducer:
        Maps one factor to a 1-D array.  Cost: ``O(sum_i work(reducer)_i)``
        plus the ``O(n)`` output.

    Examples
    --------
    >>> kron_reduce([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])], np.diag)
    array([3., 4., 6., 8.])
    """
    factors = list(factors)
    if not factors:
        raise ValueError("kron_reduce requires at least one factor")
    result = np.asarray(reducer(factors[0]))
    for factor in factors[1:]:
        result = np.kron(result, np.asarray(reducer(factor)))
    return result


def kron_row_block(factors: Sequence[np.ndarray], indices: np.ndarray) -> np.ndarray:
    """Materialise the given rows of ``F_1 ⊗ ... ⊗ F_k`` without the full product.

    Row ``j`` of a Kronecker product is the Kronecker product of one row per
    factor (the mixed-radix digits of ``j``), so a block of ``b`` rows costs
    ``O(b * n)`` — the size of the output itself — instead of materialising
    all ``m`` rows.  This serves the query-block paths (per-query error, the
    eigenbasis row slices of the Woodbury completion machinery).

    Parameters
    ----------
    factors:
        The 2-D Kronecker factors.
    indices:
        Row indexes into the (virtual) product.

    Examples
    --------
    >>> kron_row_block([np.eye(2), np.array([[1.0, 2.0]])], np.array([1]))
    array([[0., 0., 1., 2.]])
    """
    indices = np.asarray(indices, dtype=int)
    mats = [np.asarray(f, dtype=float) for f in factors]
    digits = np.unravel_index(indices, [m.shape[0] for m in mats])
    block = np.ones((indices.shape[0], 1))
    for factor, rows in zip(mats, digits):
        picked = factor[rows]
        block = np.einsum("ra,rb->rab", block, picked).reshape(indices.shape[0], -1)
    return block


#: Content-addressed memo of per-factor ``eigh`` results, so distinct
#: workload/strategy objects built from identical factor Grams (benchmark
#: sweeps, repeated ``eigen_design`` + error-evaluation rounds) share the
#: spectral work.  FIFO-evicted against a *byte* budget — per-attribute
#: factors are tiny, but a sweep over large single-factor Grams must not pin
#: gigabytes of eigenvector matrices for the process lifetime.  Values are
#: treated as read-only.  The dict and its eviction accounting are guarded
#: by ``_FACTOR_EIGH_CACHE_LOCK`` (the memo is process-global shared state —
#: concurrent server sessions would otherwise corrupt the eviction walk);
#: the ``eigh`` itself runs outside the lock, so at worst a race costs one
#: duplicated decomposition, never a corrupted cache.
_FACTOR_EIGH_CACHE: dict = {}
_FACTOR_EIGH_CACHE_BYTE_BUDGET = 2**27  # 128 MiB
_FACTOR_EIGH_CACHE_LOCK = threading.Lock()


def _cached_factor_eigh(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gram = symmetrize(gram)
    digest = hashlib.sha1(np.ascontiguousarray(gram).tobytes()).hexdigest()
    key = (gram.shape[0], digest)
    with _FACTOR_EIGH_CACHE_LOCK:
        hit = _FACTOR_EIGH_CACHE.get(key)
    if hit is None:
        values, vectors = np.linalg.eigh(gram)
        hit = (values, vectors)
        entry_bytes = values.nbytes + vectors.nbytes
        if entry_bytes <= _FACTOR_EIGH_CACHE_BYTE_BUDGET:
            with _FACTOR_EIGH_CACHE_LOCK:
                racing = _FACTOR_EIGH_CACHE.get(key)
                if racing is not None:
                    return racing
                used = sum(v.nbytes + m.nbytes for v, m in _FACTOR_EIGH_CACHE.values())
                while _FACTOR_EIGH_CACHE and used + entry_bytes > _FACTOR_EIGH_CACHE_BYTE_BUDGET:
                    oldest = next(iter(_FACTOR_EIGH_CACHE))
                    old_values, old_vectors = _FACTOR_EIGH_CACHE.pop(oldest)
                    used -= old_values.nbytes + old_vectors.nbytes
                _FACTOR_EIGH_CACHE[key] = hit
    return hit


def _pseudo_spectrum_inverse(values: np.ndarray) -> np.ndarray:
    """Entrywise pseudo-inverse of a non-negative spectrum.

    The single definition of what "zero eigenvalue" means for every
    structured inverse-apply (:data:`SPECTRUM_CUTOFF`, relative to the
    largest entry): entries at or below the cutoff invert to exactly 0.
    """
    values = np.asarray(values, dtype=float)
    top = float(values.max(initial=0.0))
    inverse = np.where(values > SPECTRUM_CUTOFF * top, 1.0, 0.0)
    if top > 0:
        inverse = np.divide(inverse, values, out=inverse, where=inverse > 0)
    return inverse


def projected_workload_diagonal(basis: "KroneckerEigenbasis", workload_op) -> np.ndarray:
    """``diag(B^T G_W B)`` for a Kronecker workload Gram, factor by factor.

    With ``B = ⊗V_i`` the diagonal is the Kronecker product of the tiny
    per-factor diagonals ``diag(V_i^T G_i V_i)`` — an ``O(sum_i d_i^3)``
    computation shared by the plain eigenbasis trace and the Woodbury
    completion trace, so the two paths cannot diverge on how workload mass is
    projected into the eigenbasis.  Clipped at zero (the exact quantity is a
    PSD diagonal).

    Parameters
    ----------
    basis:
        A :class:`KroneckerEigenbasis` whose factor shapes match
        ``workload_op``.
    workload_op:
        A symmetric :class:`KroneckerOperator` (the workload Gram).

    Examples
    --------
    >>> workload = KroneckerOperator([np.diag([2.0, 3.0])], symmetric=True)
    >>> projected_workload_diagonal(workload.eigenbasis(), workload)
    array([2., 3.])
    """
    projected = kron_reduce(
        zip(basis.vector_factors, workload_op.factors),
        lambda pair: np.diag(pair[0].T @ pair[1] @ pair[0]),
    )
    return np.clip(projected, 0.0, None)


def _operator_or_dense_matvec(term, x: np.ndarray) -> np.ndarray:
    if isinstance(term, np.ndarray):
        return term @ x
    return term.matvec(x)


def _operator_or_dense_diagonal(term) -> np.ndarray:
    if isinstance(term, np.ndarray):
        return np.diag(term).copy()
    return term.diagonal()


def gram_to_dense(source, *, limit: int | None = None) -> np.ndarray:
    """Densify a Gram source (ndarray passthrough, operator via ``to_dense``).

    Parameters
    ----------
    source:
        A dense Gram array or any operator exposing ``to_dense``.
    limit:
        Entry cap forwarded to the operator (default: the hard cap).

    Examples
    --------
    >>> gram_to_dense(KroneckerOperator([np.diag([1.0, 2.0])], symmetric=True))
    array([[1., 0.],
           [0., 2.]])
    """
    if isinstance(source, np.ndarray):
        return source
    return source.to_dense(limit=limit)


class StructuredGramMixin:
    """Shared Gram plumbing for objects representable three ways.

    :class:`~repro.core.workload.Workload` and
    :class:`~repro.core.strategy.Strategy` both juggle an explicit matrix
    (``_matrix``), a dense Gram (``_gram``) and a structured Gram operator
    (``_gram_op``).  This mixin centralises the representation-selection
    policy — budget-gated densification, the cheapest faithful Gram source,
    the diagonal used for L2 sensitivity, and the ``__repr__`` kind — so the
    two classes cannot silently diverge.  Hosts must provide ``_matrix``,
    ``_gram``, ``_gram_op``, ``_kron_factors``, ``name``, ``column_count``
    and a ``gram`` property.

    Examples
    --------
    >>> from repro.core.workload import Workload
    >>> product = Workload.kronecker([Workload(np.eye(2)), Workload(np.eye(3))])
    >>> product.gram_operator.shape
    (6, 6)
    """

    _kind_label = "object"

    @property
    def gram_operator(self):
        """The structured Gram operator, or ``None`` when no structure exists.

        Explicit Kronecker products build theirs lazily from the recorded
        factors, so even a workload/strategy whose matrix was materialised
        still offers the factorized trace and spectrum paths.
        """
        if self._gram_op is None and self._kron_factors is not None:
            self._gram_op = KroneckerOperator(
                [factor.gram for factor in self._kron_factors], symmetric=True
            )
        return self._gram_op

    @staticmethod
    def _flatten_kron_factors(factors):
        """Flatten nested Kronecker products into one factor list.

        A factor that is itself a lazy Kronecker product (it records
        ``_kron_factors`` and holds no explicit matrix) contributes its own
        factors, so the structured fast paths always see the full
        factorization and no intermediate factor Gram is densified.
        """
        flattened = []
        for factor in factors:
            if factor._kron_factors is not None and factor._matrix is None:
                flattened.extend(factor._kron_factors)
            else:
                flattened.append(factor)
        return flattened

    def _densify_structured_gram(self) -> np.ndarray:
        """Materialise ``_gram_op`` densely, or raise past the hard cap.

        Explicit ``gram`` requests are honoured up to
        :data:`HARD_MATERIALIZATION_LIMIT` (so e.g. running the mechanism on
        a mid-size product domain behaves like the pre-operator code);
        structure-*preferring* paths consult :func:`gram_source` instead and
        never densify past :data:`MATERIALIZATION_LIMIT`.
        """
        cells = self.column_count
        if not within_materialization_budget(cells, cells, limit=HARD_MATERIALIZATION_LIMIT):
            raise MaterializationError(
                f"{self._kind_label} {self.name!r} has a structured Gram of size "
                f"{cells} x {cells}, beyond the hard materialization cap; "
                "use gram_operator instead"
            )
        return symmetrize(self._gram_op.to_dense())

    def gram_source(self):
        """The cheapest faithful Gram representation: dense if available or
        affordable, otherwise a structured operator.

        Beyond the preference threshold a structured operator wins even when
        a dense Gram happens to be cached — the factorized trace and eigen
        paths it enables beat re-using the dense array.  Explicit matrices
        there are wrapped in a :class:`MatrixGramOperator` instead of eagerly
        computing the quadratic ``W^T W`` (a single wide query row would
        otherwise force a multi-GiB allocation just to join a union or a
        trace).
        """
        cells = self.column_count
        if within_materialization_budget(cells, cells):
            return self.gram
        if self.gram_operator is not None:
            return self.gram_operator
        if self._gram is not None:
            return self.gram
        if self._matrix is not None:
            return MatrixGramOperator(self._matrix)
        return self.gram

    def _gram_diagonal(self) -> np.ndarray:
        """Diagonal of the Gram, served structurally when only an operator exists."""
        if self._gram is None and self._matrix is None and self._gram_op is not None:
            return self._gram_op.diagonal()
        return np.diag(self.gram)

    def _representation_kind(self) -> str:
        if self._matrix is not None:
            return "explicit"
        if self._gram_op is not None and self._gram is None:
            return "factored"
        return "implicit"


class KroneckerOperator:
    """A lazy ``F_1 ⊗ ... ⊗ F_k`` of dense 2-D factors.

    Used both for query matrices (rectangular factors) and for Gram matrices
    (square symmetric PSD factors).  Only the factors are stored, so memory
    is ``O(sum_i m_i d_i)`` and every action costs ``O(n * sum_i d_i)``
    instead of the dense ``O(n^2)``.

    Parameters
    ----------
    factors:
        The dense 2-D factors, outermost first.
    symmetric:
        Mark the operator as a symmetric Gram product (required by the
        spectral paths: ``eigenbasis``, ``inverse_apply``, ``diagonal``).

    Examples
    --------
    >>> operator = KroneckerOperator([np.diag([1.0, 2.0]), np.eye(2)], symmetric=True)
    >>> operator.matvec(np.ones(4))
    array([1., 1., 2., 2.])
    >>> operator.diagonal()
    array([1., 1., 2., 2.])
    """

    def __init__(self, factors: Sequence[np.ndarray], *, symmetric: bool = False):
        if not factors:
            raise ValueError("KroneckerOperator requires at least one factor")
        self.factors = tuple(np.asarray(f, dtype=float) for f in factors)
        for factor in self.factors:
            if factor.ndim != 2:
                raise ValueError(f"factors must be 2-D, got shape {factor.shape}")
            if symmetric and factor.shape[0] != factor.shape[1]:
                raise ValueError("symmetric KroneckerOperator requires square factors")
        self.symmetric = symmetric
        rows = 1
        columns = 1
        for factor in self.factors:
            rows *= factor.shape[0]
            columns *= factor.shape[1]
        self.shape = (rows, columns)
        self._eigenbasis: "KroneckerEigenbasis | None" = None

    # ------------------------------------------------------------------ actions
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``(⊗F_i) x`` (also accepts an ``(n, b)`` batch)."""
        return kron_apply(self.factors, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Return ``(⊗F_i)^T y`` (also accepts an ``(m, b)`` batch)."""
        return kron_apply(self.factors, y, transpose=True)

    def row_block(self, start: int, stop: int, *, limit: int | None = None) -> np.ndarray:
        """Materialise rows ``start:stop`` as a dense ``(stop - start, n)`` block."""
        start = max(0, int(start))
        stop = min(self.shape[0], int(stop))
        _dense_guard(max(stop - start, 0), self.shape[1], "a Kronecker row block", limit)
        return kron_row_block(self.factors, np.arange(start, stop))

    def inverse_apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``(⊗G_i)^+ x`` for a symmetric PSD operator (pseudo-inverse).

        Part of the shared inverse-apply protocol: the factorized
        eigen-decomposition serves the solve, so the cost is two structured
        matvecs plus a diagonal scale — no dense factorization anywhere.
        """
        if not self.symmetric:
            raise ValueError("inverse_apply requires a symmetric Kronecker operator")
        basis = self.eigenbasis()
        inverse = _pseudo_spectrum_inverse(basis.values_natural)
        coordinates = basis.apply_transpose(x)
        scaled = inverse[:, None] * coordinates if coordinates.ndim == 2 else inverse * coordinates
        return basis.apply(scaled)

    def gram(self) -> "KroneckerOperator":
        """The Gram operator ``(⊗F)^T (⊗F) = ⊗(F_i^T F_i)`` (still Kronecker)."""
        grams = [symmetrize(f.T @ f) for f in self.factors]
        return KroneckerOperator(grams, symmetric=True)

    def diagonal(self) -> np.ndarray:
        """Diagonal of a square operator: the Kronecker product of factor diagonals."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("diagonal is only defined for square operators")
        return kron_reduce(self.factors, np.diag)

    def column_norms_squared(self) -> np.ndarray:
        """Squared Euclidean column norms (Kronecker product of factor norms)."""
        return kron_reduce(self.factors, lambda f: np.sum(f**2, axis=0))

    @property
    def sensitivity_l2(self) -> float:
        """Max column norm — the product of the factor sensitivities."""
        result = 1.0
        for factor in self.factors:
            result *= float(np.sqrt(np.max(np.sum(factor**2, axis=0))))
        return result

    def scaled(self, alpha: float) -> "KroneckerOperator":
        """Return ``alpha * self`` (the scale is folded into the first factor)."""
        factors = (self.factors[0] * float(alpha),) + self.factors[1:]
        return KroneckerOperator(factors, symmetric=self.symmetric)

    def to_dense(self, *, limit: int | None = None) -> np.ndarray:
        """Materialise the dense product (guarded by the materialization budget)."""
        _dense_guard(self.shape[0], self.shape[1], "a Kronecker product", limit)
        return kron_all(self.factors)

    # ----------------------------------------------------------------- spectrum
    def eigenbasis(self) -> "KroneckerEigenbasis":
        """Factorized eigen-decomposition of a symmetric PSD Kronecker operator.

        Each (tiny) factor is eigendecomposed independently; eigenvalues
        combine by outer (Kronecker) product and the eigenvector matrix stays
        a lazy Kronecker product of the factor eigenvector matrices.  This
        replaces one ``O(n^3)`` dense ``eigh`` with ``k`` calls of cost
        ``O(d_i^3)``.
        """
        if not self.symmetric:
            raise ValueError("eigenbasis requires a symmetric Kronecker operator")
        if self._eigenbasis is None:
            self._eigenbasis = KroneckerEigenbasis.from_gram_factors(self.factors)
        return self._eigenbasis

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = " ⊗ ".join("x".join(map(str, f.shape)) for f in self.factors)
        return f"KroneckerOperator({dims})"


class KroneckerEigenbasis:
    """The factorized spectrum of ``G_1 ⊗ ... ⊗ G_k`` (each ``G_i`` PSD).

    Stores the per-factor eigenvector matrices ``V_i`` (columns are
    eigenvectors) and the full eigenvalue vector in *natural* (Kronecker)
    order.  The full eigenvector matrix ``B = ⊗V_i`` is never materialised;
    its action is served through :func:`kron_apply`.

    Parameters
    ----------
    vector_factors:
        Per-factor eigenvector matrices (columns are eigenvectors).
    values_natural:
        Eigenvalues in natural (Kronecker) order; clipped at zero.  Memory
        is ``O(sum_i d_i^2 + n)``; building one costs ``k`` tiny ``eigh``
        calls (``O(sum_i d_i^3)``) via :meth:`from_gram_factors`.

    Examples
    --------
    >>> basis = KroneckerEigenbasis.from_gram_factors([np.diag([4.0, 1.0])])
    >>> basis.sorted_values
    array([4., 1.])
    >>> basis.apply_transpose(np.array([1.0, 2.0])).shape
    (2,)
    """

    def __init__(self, vector_factors: Sequence[np.ndarray], values_natural: np.ndarray):
        self.vector_factors = tuple(np.asarray(v, dtype=float) for v in vector_factors)
        self.values_natural = np.clip(np.asarray(values_natural, dtype=float), 0.0, None)
        size = 1
        for factors in self.vector_factors:
            size *= factors.shape[0]
        self.size = size
        if self.values_natural.shape != (size,):
            raise ValueError("eigenvalue vector does not match the basis size")
        self._order: np.ndarray | None = None
        self._sorted_values: np.ndarray | None = None
        self._squared_factors: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_gram_factors(cls, grams: Sequence[np.ndarray]) -> "KroneckerEigenbasis":
        """Eigendecompose each factor Gram and combine the spectra lazily.

        The per-factor ``eigh`` results are memoized by content (see
        ``_cached_factor_eigh``), so rebuilding the same workload — or
        repeating ``eigen_design`` + error evaluation across a sweep — never
        redoes the spectral work.
        """
        vectors = []
        values = np.ones(1)
        for gram in grams:
            factor_values, factor_vectors = _cached_factor_eigh(gram)
            vectors.append(factor_vectors)
            values = np.kron(values, np.clip(factor_values, 0.0, None))
        return cls(vectors, values)

    # ------------------------------------------------------------------ ordering
    @property
    def order(self) -> np.ndarray:
        """Natural-order indexes sorted by descending eigenvalue (stable)."""
        if self._order is None:
            self._order = np.argsort(-self.values_natural, kind="stable")
        return self._order

    @property
    def sorted_values(self) -> np.ndarray:
        """Eigenvalues in descending order (cached)."""
        if self._sorted_values is None:
            self._sorted_values = self.values_natural[self.order]
        return self._sorted_values

    # ------------------------------------------------------------------- actions
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``B x`` where ``B = ⊗V_i`` has the eigenvectors as columns."""
        return kron_apply(self.vector_factors, x)

    def apply_transpose(self, x: np.ndarray) -> np.ndarray:
        """Return ``B^T x`` (coordinates of ``x`` in the eigenbasis)."""
        return kron_apply(self.vector_factors, x, transpose=True)

    @property
    def squared_factors(self) -> tuple[np.ndarray, ...]:
        """Entrywise squares ``V_i ∘ V_i`` (non-negative), used for diagonals."""
        if self._squared_factors is None:
            self._squared_factors = tuple(v * v for v in self.vector_factors)
        return self._squared_factors

    def rows(self, indices: np.ndarray, *, limit: int | None = None) -> np.ndarray:
        """Dense rows of ``B = ⊗V_i`` at the given cell indexes.

        Row ``j`` is the Kronecker product of one row per factor, so a block
        of ``r`` rows costs ``O(r * n)`` — this is the ``B^T U`` slice behind
        the Woodbury completion machinery (``U`` = identity columns).
        """
        indices = np.asarray(indices, dtype=int)
        _dense_guard(indices.shape[0], self.size, "an eigenbasis row block", limit)
        return kron_row_block(self.vector_factors, indices)

    def scatter_sorted(self, values: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Embed per-eigen-query ``values`` (at natural ``positions``) into R^n."""
        full = np.zeros(self.size)
        full[np.asarray(positions, dtype=int)] = np.asarray(values, dtype=float)
        return full

    def queries_dense(self, *, limit: int | None = None) -> np.ndarray:
        """The dense eigen-query matrix (rows = eigenvectors, descending order)."""
        _dense_guard(self.size, self.size, "the eigen-query matrix", limit)
        return kron_all(self.vector_factors).T[self.order]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = " ⊗ ".join(str(v.shape[0]) for v in self.vector_factors)
        return f"KroneckerEigenbasis(n={self.size}: {dims})"


class KroneckerConstraints:
    """The sensitivity-constraint operator ``C = ((Q ∘ Q)^T)[:, kept]``.

    For the weighting program on eigen-queries the constraint matrix is the
    entrywise square of the eigen-query matrix, transposed — which for a
    Kronecker eigenbasis is ``⊗(V_i ∘ V_i)`` with columns restricted to the
    retained (non-zero-eigenvalue) eigen-queries.  All the reductions the
    solvers need (matvec, rmatvec, column max/sum, row sums) factorize, each
    costing one ``O(n * sum_i d_i)`` structured pass.

    Parameters
    ----------
    basis:
        The shared :class:`KroneckerEigenbasis`.
    columns:
        Natural-order positions of the retained eigen-queries.

    Examples
    --------
    >>> basis = KroneckerEigenbasis.from_gram_factors([np.diag([4.0, 1.0])])
    >>> constraints = KroneckerConstraints(basis, np.array([0, 1]))
    >>> constraints.row_sums()
    array([1., 1.])
    """

    def __init__(self, basis: KroneckerEigenbasis, columns: np.ndarray):
        self.basis = basis
        self.columns = np.asarray(columns, dtype=int)
        self.shape = (basis.size, int(self.columns.shape[0]))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Return ``C u`` — the squared column norms induced by weights ``u``."""
        embedded = self.basis.scatter_sorted(u, self.columns)
        return kron_apply(self.basis.squared_factors, embedded)

    def rmatvec(self, mu: np.ndarray) -> np.ndarray:
        """Return ``C^T mu``."""
        full = kron_apply(self.basis.squared_factors, mu, transpose=True)
        return full[self.columns]

    def _column_reduction(self, reducer) -> np.ndarray:
        return kron_reduce(self.basis.squared_factors, reducer)[self.columns]

    def column_maxes(self) -> np.ndarray:
        """Per-column maxima (exact for non-negative Kronecker factors)."""
        return self._column_reduction(lambda f: f.max(axis=0))

    def column_sums(self) -> np.ndarray:
        """Per-column sums."""
        return self._column_reduction(lambda f: f.sum(axis=0))

    def row_sums(self) -> np.ndarray:
        """Per-row (per-cell) sums over the retained columns."""
        return self.matvec(np.ones(self.shape[1]))

    def to_dense(self, *, limit: int | None = None) -> np.ndarray:
        """Materialise ``C`` as one batched structured pass.

        Applying ``⊗(V_i ∘ V_i)`` to the scattered identity yields all
        retained columns at once — a single width-``r`` :func:`kron_apply`
        whose BLAS-level batching is what the per-group stage-1 solves of
        the Sec. 4.2 reductions exploit when the slice fits the
        materialization budget.

        Examples
        --------
        >>> basis = KroneckerEigenbasis.from_gram_factors([np.diag([4.0, 1.0])])
        >>> KroneckerConstraints(basis, np.array([0, 1])).to_dense()
        array([[0., 1.],
               [1., 0.]])
        """
        _dense_guard(self.shape[0], self.shape[1], "a constraint slice", limit)
        scattered = np.zeros(self.shape)
        scattered[self.columns, np.arange(self.shape[1])] = 1.0
        return kron_apply(self.basis.squared_factors, scattered)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KroneckerConstraints(shape={self.shape})"

    def restrict(self, column_indexes: np.ndarray) -> "KroneckerConstraints":
        """A view keeping only the given (local) columns — a Sec. 4.2 group slice."""
        column_indexes = np.asarray(column_indexes, dtype=int)
        return KroneckerConstraints(self.basis, self.columns[column_indexes])


class ColumnBlockConstraints:
    """Horizontal concatenation of constraint blocks over the same rows.

    Blocks are dense ``(k, r_i)`` arrays or structured operators implementing
    the constraint protocol (``matvec``/``rmatvec``/``column_maxes``/
    ``column_sums``/``row_sums``).  This is how the Sec. 4.2 reductions stay
    matrix-free: a :class:`KroneckerConstraints` slice for the individually
    weighted eigen-queries plus a single dense aggregated tail column, without
    ever materialising the full ``(Q ∘ Q)^T``.

    Parameters
    ----------
    blocks:
        Dense ``(k, r_i)`` arrays and/or constraint operators sharing the
        same row count; actions distribute over blocks at their native cost.

    Examples
    --------
    >>> blocked = ColumnBlockConstraints([np.eye(2), np.ones((2, 1))])
    >>> blocked.shape
    (2, 3)
    >>> blocked.matvec(np.array([1.0, 2.0, 3.0]))
    array([4., 5.])
    """

    def __init__(self, blocks: Sequence):
        if not blocks:
            raise ValueError("ColumnBlockConstraints requires at least one block")
        self.blocks = tuple(
            np.asarray(b, dtype=float) if isinstance(b, np.ndarray) else b for b in blocks
        )
        rows = set()
        for block in self.blocks:
            if len(block.shape) != 2:
                raise ValueError("constraint blocks must be 2-D")
            rows.add(block.shape[0])
        if len(rows) != 1:
            raise ValueError("all constraint blocks must have the same number of rows")
        self._widths = [block.shape[1] for block in self.blocks]
        self._offsets = np.cumsum([0] + self._widths)
        self.shape = (rows.pop(), int(self._offsets[-1]))

    def _split(self, u: np.ndarray) -> list[np.ndarray]:
        return [u[self._offsets[i] : self._offsets[i + 1]] for i in range(len(self.blocks))]

    def matvec(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        result = np.zeros(self.shape[0])
        for block, part in zip(self.blocks, self._split(u)):
            result = result + (block @ part if isinstance(block, np.ndarray) else block.matvec(part))
        return result

    def rmatvec(self, mu: np.ndarray) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        return np.concatenate(
            [block.T @ mu if isinstance(block, np.ndarray) else block.rmatvec(mu) for block in self.blocks]
        )

    def _concat_reduction(self, dense_reducer, operator_attr) -> np.ndarray:
        parts = []
        for block in self.blocks:
            if isinstance(block, np.ndarray):
                parts.append(dense_reducer(block))
            else:
                parts.append(getattr(block, operator_attr)())
        return np.concatenate(parts)

    def column_maxes(self) -> np.ndarray:
        return self._concat_reduction(lambda b: b.max(axis=0), "column_maxes")

    def column_sums(self) -> np.ndarray:
        return self._concat_reduction(lambda b: b.sum(axis=0), "column_sums")

    def row_sums(self) -> np.ndarray:
        result = np.zeros(self.shape[0])
        for block in self.blocks:
            result = result + (block.sum(axis=1) if isinstance(block, np.ndarray) else block.row_sums())
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnBlockConstraints(shape={self.shape}, blocks={len(self.blocks)})"


class GroupColumnOperator:
    """The stage-2 constraint operator of eigen-query separation, kept lazy.

    Stage 1 of the Sec. 4.2 separation reduction weights each *group* of
    eigen-queries independently; stage 2 then solves one more weighting
    problem whose "design queries" are the group strategies.  Column ``p`` of
    its constraint matrix is the squared-column-norm profile of group ``p``,

    ``column_p = C_p u_p``  with ``C_p`` the group's
    :class:`KroneckerConstraints` slice and ``u_p`` its stage-1 weights —

    an ``(n, groups)`` dense matrix (``~n^{5/3}`` entries at the paper's
    ``n^{1/3}`` group size) that this operator never materialises.  Because
    the groups partition the retained eigen-queries, every action reduces to
    a *single* structured pass over the shared eigenbasis:

    * ``matvec`` embeds all ``v_p * u_p`` into natural order and applies
      ``⊗(V_i ∘ V_i)`` once — ``O(n * sum_i d_i)``;
    * ``rmatvec`` applies the transpose once and gathers per group;
    * ``column_sums`` contracts the factorized all-ones reduction;
    * ``column_maxes`` streams one ``O(n)`` group column at a time (peak
      memory ``O(n)``, never ``O(n * groups)``).

    Parameters
    ----------
    basis:
        The shared :class:`KroneckerEigenbasis`.
    group_positions:
        One integer array per group: natural-order eigenbasis positions.
        Groups must not overlap (they partition the retained spectrum).
    group_weights:
        One non-negative weight vector per group (the stage-1 squared
        weights), aligned with ``group_positions``.

    Examples
    --------
    >>> basis = KroneckerOperator([np.eye(2), np.eye(2)], symmetric=True).eigenbasis()
    >>> operator = GroupColumnOperator(
    ...     basis, [np.array([0, 1]), np.array([2, 3])],
    ...     [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    >>> operator.shape
    (4, 2)
    >>> operator.matvec(np.array([1.0, 1.0]))
    array([1., 2., 3., 4.])
    """

    def __init__(self, basis: KroneckerEigenbasis, group_positions, group_weights):
        if len(group_positions) != len(group_weights):
            raise ValueError("one weight vector per group is required")
        if not group_positions:
            raise ValueError("GroupColumnOperator requires at least one group")
        self.basis = basis
        self.group_positions = [np.asarray(p, dtype=int) for p in group_positions]
        self.group_weights = [np.asarray(w, dtype=float) for w in group_weights]
        for positions, weights in zip(self.group_positions, self.group_weights):
            if positions.shape != weights.shape:
                raise ValueError("group positions and weights must align one-to-one")
        self.shape = (basis.size, len(self.group_positions))
        # One pass builds the embedded per-group weight field reused by matvec.
        self._embedded = np.zeros(basis.size)
        self._group_of = np.full(basis.size, -1, dtype=int)
        for index, (positions, weights) in enumerate(
            zip(self.group_positions, self.group_weights)
        ):
            if np.any(self._group_of[positions] >= 0):
                raise ValueError("groups must not overlap")
            self._embedded[positions] = weights
            self._group_of[positions] = index

    def _column(self, index: int) -> np.ndarray:
        """Group ``index``'s dense column (an ``O(n)`` temporary).

        Delegates to the group's :class:`KroneckerConstraints` slice so the
        embed-and-apply convention lives in exactly one place.
        """
        return KroneckerConstraints(self.basis, self.group_positions[index]).matvec(
            self.group_weights[index]
        )

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return ``C v`` — the column-norm profile of the scaled groups."""
        v = np.asarray(v, dtype=float)
        scale = np.where(self._group_of >= 0, v[self._group_of], 0.0)
        return kron_apply(self.basis.squared_factors, self._embedded * scale)

    def rmatvec(self, mu: np.ndarray) -> np.ndarray:
        """Return ``C^T mu`` with one transpose pass and per-group gathers."""
        full = kron_apply(self.basis.squared_factors, np.asarray(mu, dtype=float), transpose=True)
        return np.array(
            [
                float(weights @ full[positions])
                for positions, weights in zip(self.group_positions, self.group_weights)
            ]
        )

    def column_maxes(self) -> np.ndarray:
        """Per-group column maxima, streamed one ``O(n)`` column at a time."""
        return np.array([float(self._column(index).max()) for index in range(self.shape[1])])

    def column_sums(self) -> np.ndarray:
        """Per-group column sums via the factorized all-ones contraction."""
        totals = kron_reduce(self.basis.squared_factors, lambda f: f.sum(axis=0))
        return np.array(
            [
                float(weights @ totals[positions])
                for positions, weights in zip(self.group_positions, self.group_weights)
            ]
        )

    def row_sums(self) -> np.ndarray:
        """Per-cell sums over all group columns (one structured matvec)."""
        return self.matvec(np.ones(self.shape[1]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GroupColumnOperator(shape={self.shape})"


class EigenDiagOperator:
    """A PSD operator ``M = B diag(z) B^T + diag(d)`` with ``B = ⊗V_i``.

    This is exactly the Gram matrix of a strategy assembled from weighted
    eigen-queries of a Kronecker workload (plus the optional per-cell
    sensitivity-completion rows, which contribute the diagonal term ``d``).
    When ``d = 0`` the operator's own eigen-decomposition is free: the
    spectrum is ``z`` and the eigenvectors are the basis columns.

    Parameters
    ----------
    basis:
        The shared :class:`KroneckerEigenbasis` ``B``.
    spectrum:
        Natural-order eigen-query weights ``z`` (clipped at zero).
    diag:
        Optional per-cell completion diagonal ``d``; ``None`` (or all-zero)
        means no completion rows.  Memory ``O(n)``; every action is
        ``O(n * sum_i d_i)``.

    Examples
    --------
    >>> basis = KroneckerEigenbasis.from_gram_factors([np.eye(2)])
    >>> operator = EigenDiagOperator(basis, np.array([2.0, 4.0]))
    >>> operator.matvec(np.ones(2))
    array([2., 4.])
    >>> operator.inverse_apply(np.array([2.0, 4.0]))
    array([1., 1.])
    """

    def __init__(
        self,
        basis: KroneckerEigenbasis,
        spectrum: np.ndarray,
        diag: np.ndarray | None = None,
    ):
        self.basis = basis
        self.spectrum = np.clip(np.asarray(spectrum, dtype=float), 0.0, None)
        if self.spectrum.shape != (basis.size,):
            raise ValueError("spectrum must have one entry per basis vector (natural order)")
        if diag is not None:
            diag = np.asarray(diag, dtype=float)
            if diag.shape != (basis.size,):
                raise ValueError("diag must have one entry per cell")
            if not np.any(diag):
                diag = None
        self.diag = diag
        self.shape = (basis.size, basis.size)
        self.symmetric = True
        self._woodbury: "WoodburyOperator | None" = None
        self._last_trace: "tuple[tuple[np.ndarray, ...], float] | None" = None

    @property
    def has_diag(self) -> bool:
        """True when completion rows contribute a diagonal term."""
        return self.diag is not None

    def woodbury(self, *, limit: int | None = None) -> "WoodburyOperator":
        """The Woodbury solve machinery for a *completed* strategy Gram.

        The completion diagonal is a rank-``r`` correction
        ``U diag(c) U^T`` (one identity column per deficient cell), so
        inverse actions and the error trace evaluate through ``r`` eigenbasis
        solves instead of any dense ``n x n`` work.  Built once and cached —
        repeated error/per-query evaluations share the capacitance
        factorization, so only the *first* call's ``limit`` is enforced;
        later calls return the cached operator regardless of ``limit``.
        """
        if self.diag is None:
            raise ValueError("woodbury requires a completion diagonal; the plain "
                             "eigenbasis Gram is diagonal already")
        if self._woodbury is None:
            cells = np.flatnonzero(self.diag)
            self._woodbury = WoodburyOperator(
                self.basis, self.spectrum, cells, self.diag[cells], limit=limit
            )
        return self._woodbury

    def remembered_trace(self, workload_factors) -> float | None:
        """The trace last stored by :meth:`remember_trace` for equal factors.

        ``None`` when nothing is stored or the stored workload factors differ
        from ``workload_factors``.  One ``(factors, trace)`` pair is kept:
        the trace depends only on the workload and the strategy, so a budget
        scan re-evaluating this strategy's error skips the solve entirely.
        """
        last = self._last_trace
        if last is None or len(last[0]) != len(workload_factors):
            return None
        if all(np.array_equal(a, b) for a, b in zip(last[0], workload_factors)):
            return last[1]
        return None

    def remember_trace(self, workload_factors, value: float) -> None:
        """Store ``value`` as the trace against ``workload_factors``.

        The pair is replaced in one assignment, so concurrent readers see
        either the old pair or the new one, never a mix.
        """
        factors = tuple(np.array(f, dtype=float) for f in workload_factors)
        self._last_trace = (factors, float(value))

    def inverse_apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``M^+ x`` through the structured factorization.

        Without a completion diagonal this is a diagonal scale in the
        eigenbasis; with one it routes through :meth:`woodbury`.  Part of the
        shared inverse-apply protocol used by the per-query error blocks.
        """
        if self.diag is not None:
            return self.woodbury().inverse_apply(x)
        inverse = _pseudo_spectrum_inverse(self.spectrum)
        coordinates = self.basis.apply_transpose(x)
        scaled = inverse[:, None] * coordinates if coordinates.ndim == 2 else inverse * coordinates
        return self.basis.apply(scaled)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``M x = B (z ∘ (B^T x)) + d ∘ x``."""
        coordinates = self.basis.apply_transpose(x)
        if np.asarray(x).ndim == 2:
            result = self.basis.apply(self.spectrum[:, None] * coordinates)
        else:
            result = self.basis.apply(self.spectrum * coordinates)
        if self.diag is not None:
            result = result + (self.diag[:, None] if np.asarray(x).ndim == 2 else self.diag) * x
        return result

    rmatvec = matvec  # symmetric

    def diagonal(self) -> np.ndarray:
        """Diagonal ``(⊗(V ∘ V)) z + d`` — the squared strategy column norms."""
        diag = kron_apply(self.basis.squared_factors, self.spectrum)
        if self.diag is not None:
            diag = diag + self.diag
        return diag

    def eigenvalues_sorted(self) -> np.ndarray:
        """Descending spectrum (only available without a completion diagonal)."""
        if self.diag is not None:
            raise MaterializationError(
                "the completed strategy Gram is not diagonal in the eigenbasis, "
                "so its sorted spectrum has no closed form; use the Woodbury "
                "machinery (woodbury() / inverse_apply) for solves and traces, "
                "or densify below the hard cap"
            )
        return np.sort(self.spectrum)[::-1]

    def scaled(self, alpha: float) -> "EigenDiagOperator":
        """Return ``alpha * M`` (scales both the spectrum and the diagonal)."""
        alpha = float(alpha)
        diag = None if self.diag is None else self.diag * alpha
        return EigenDiagOperator(self.basis, self.spectrum * alpha, diag)

    def to_dense(self, *, limit: int | None = None) -> np.ndarray:
        _dense_guard(self.shape[0], self.shape[1], "an eigenbasis Gram", limit)
        dense_basis = KroneckerOperator(self.basis.vector_factors).to_dense(limit=limit)
        dense = (dense_basis * self.spectrum) @ dense_basis.T
        if self.diag is not None:
            dense = dense + np.diag(self.diag)
        return (dense + dense.T) / 2.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = "+diag" if self.diag is not None else ""
        return f"EigenDiagOperator(n={self.shape[0]}{extra})"


class WoodburyOperator:
    """Inverse actions of ``M = B diag(z) B^T + U diag(c) U^T`` (Woodbury).

    ``B = ⊗V_i`` is a :class:`KroneckerEigenbasis`, ``z`` the strategy
    spectrum in natural order, and ``U`` the identity columns at ``cells``
    weighted by ``c > 0`` — exactly the Gram of a *completed* factorized
    eigen design (the sensitivity-completion rows of Program 2).  In basis
    coordinates ``M' = B^T M B = diag(z) + R diag(c) R^T`` with
    ``R = B^T U`` an ``(n, r)`` slice of eigenbasis rows, so every inverse
    action reduces to ``r`` structured solves via the Woodbury identity —
    ``O(n r + r^3)`` once, ``O(n r)`` per apply — instead of any dense
    ``n x n`` factorization.

    Rank-deficient spectra are handled exactly: zero-``z`` coordinates are
    regularised to the identity and the (low-rank) overlap of the completion
    columns with that dead space is projected back out, which realises a
    g-inverse of ``M``.  Because ``trace(G_W G)`` is identical for *every*
    g-inverse ``G`` as long as the workload row space lies inside
    ``range(M)`` — and that support is checked explicitly — the error trace
    matches the dense pseudo-inverse oracle.

    Parameters
    ----------
    basis:
        The shared :class:`KroneckerEigenbasis` ``B``.
    spectrum:
        Natural-order strategy spectrum ``z``.
    cells:
        Indexes of the completion cells (columns of ``U``).
    weights:
        Strictly positive completion weights ``c`` (one per cell).
    spectrum_cutoff:
        Relative threshold below which a spectrum entry counts as zero.
    limit:
        Materialization budget for the ``n x 2r`` update block (the only
        super-linear allocation; prepare costs ``O(n r^2 + r^3)``, each
        apply ``O(n r)``).

    Examples
    --------
    >>> basis = KroneckerEigenbasis.from_gram_factors([np.eye(2)])
    >>> woodbury = WoodburyOperator(basis, np.array([1.0, 1.0]),
    ...                             np.array([0]), np.array([1.0]))
    >>> woodbury.inverse_apply(np.array([2.0, 1.0]))
    array([1., 1.])
    """

    def __init__(
        self,
        basis: KroneckerEigenbasis,
        spectrum: np.ndarray,
        cells: np.ndarray,
        weights: np.ndarray,
        *,
        spectrum_cutoff: float = SPECTRUM_CUTOFF,
        limit: int | None = None,
    ):
        self.basis = basis
        self.spectrum = np.clip(np.asarray(spectrum, dtype=float), 0.0, None)
        self.cells = np.asarray(cells, dtype=int)
        self.weights = np.asarray(weights, dtype=float)
        if self.spectrum.shape != (basis.size,):
            raise ValueError("spectrum must have one entry per basis vector (natural order)")
        if self.cells.shape != self.weights.shape:
            raise ValueError("cells and weights must align one-to-one")
        if self.cells.size == 0:
            raise ValueError("WoodburyOperator requires at least one completion cell")
        if np.any(self.weights <= 0):
            raise ValueError("completion weights must be strictly positive")
        self._cutoff = float(spectrum_cutoff)
        size = basis.size
        self.shape = (size, size)
        self.symmetric = True
        # The update block (R plus the dead-space null basis) is the only
        # super-linear allocation; rank-r completion costs n * (r + s) <= 2nr.
        _dense_guard(size, max(2 * self.cells.size, 1), "a Woodbury update block", limit)
        self._prepared = False
        self._scale_diag: np.ndarray | None = None
        self._dead: np.ndarray | None = None
        self._null_basis: np.ndarray | None = None
        self._update: np.ndarray | None = None
        self._scaled_update: np.ndarray | None = None
        self._cap_lu = None
        self._null_rank = 0

    # ----------------------------------------------------------- factorization
    def _prepare(self) -> None:
        """Build the capacitance factorization (once; reused by every action)."""
        if self._prepared:
            return
        size = self.basis.size
        z = self.spectrum
        top = float(z.max(initial=0.0))
        alive = z > self._cutoff * top if top > 0 else np.zeros(size, dtype=bool)
        dead = ~alive
        # Dead coordinates are regularised to 1 so the base stays diagonal PD;
        # the null basis below subtracts the part the completion cannot reach.
        scale_diag = np.where(alive, z, 1.0)
        update = self.basis.rows(self.cells).T  # R = B^T U, shape (n, r)
        null_basis = None
        if np.any(dead):
            dead_rows = update[dead, :]
            left, singular, _ = np.linalg.svd(dead_rows, full_matrices=False)
            if singular.size:
                rank_floor = max(dead_rows.shape) * np.finfo(float).eps * singular[0]
                rank = int(np.sum(singular > rank_floor))
            else:
                rank = 0
            if rank:
                null_basis = np.zeros((size, rank))
                null_basis[dead] = left[:, :rank]
        if null_basis is not None:
            update = np.concatenate([update, null_basis], axis=1)
            inverse_k = np.concatenate([1.0 / self.weights, -np.ones(null_basis.shape[1])])
            self._null_rank = null_basis.shape[1]
        else:
            inverse_k = 1.0 / self.weights
            self._null_rank = 0
        scaled = update / scale_diag[:, None]
        capacitance = np.diag(inverse_k) + update.T @ scaled
        self._cap_lu = scipy.linalg.lu_factor(capacitance, check_finite=False)
        self._scale_diag = scale_diag
        self._dead = dead
        self._null_basis = null_basis
        self._update = update
        self._scaled_update = scaled
        self._prepared = True

    @property
    def rank(self) -> int:
        """Numerical rank of ``M`` (alive spectrum plus reachable dead space)."""
        self._prepare()
        return int(self.shape[0] - np.sum(self._dead) + self._null_rank)

    # ----------------------------------------------------------------- actions
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return ``M x`` (delegates to the eigen-diagonal representation)."""
        diag = np.zeros(self.shape[0])
        diag[self.cells] = self.weights
        return EigenDiagOperator(self.basis, self.spectrum, diag).matvec(x)

    rmatvec = matvec  # symmetric

    def inverse_apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``M^+ x`` — the Moore–Penrose action (single vector or batch).

        The Woodbury solve inverts the identity-regularised operator, which
        maps the completion-unreachable dead space through the identity;
        projecting that null-space component back out afterwards recovers the
        exact pseudo-inverse, so the result agrees with the dense
        ``np.linalg.pinv`` oracle on *and* off the strategy row space.
        """
        self._prepare()
        coordinates = self.basis.apply_transpose(x)
        batched = coordinates.ndim == 2
        base = coordinates / (self._scale_diag[:, None] if batched else self._scale_diag)
        small = scipy.linalg.lu_solve(self._cap_lu, self._update.T @ base, check_finite=False)
        solved = base - self._scaled_update @ small
        if np.any(self._dead):
            null_component = np.where(
                self._dead[:, None] if batched else self._dead, coordinates, 0.0
            )
            if self._null_basis is not None:
                reachable = self._null_basis.T @ null_component
                null_component = null_component - self._null_basis @ reachable
            solved = solved - null_component
        return self.basis.apply(solved)

    def trace_inverse_product(
        self,
        workload: KroneckerOperator,
        *,
        support_tolerance: float = 1e-6,
    ) -> float:
        """``trace(G_W M^+)`` for a Kronecker workload Gram on a matching domain.

        ``G_W`` is projected into the eigenbasis factor-by-factor (its diagonal
        there is a Kronecker product of tiny per-factor diagonals); the
        Woodbury correction needs only ``(r + s)`` workload matvecs.  Workload
        mass on the part of the dead space the completion rows cannot reach is
        measured exactly: beyond ``support_tolerance`` (relative) the strategy
        cannot answer the workload and a
        :class:`~repro.exceptions.SingularStrategyError` is raised; below it
        the residue is subtracted so the result matches the dense
        pseudo-inverse oracle.
        """
        self._prepare()
        projected = projected_workload_diagonal(self.basis, workload)
        total_mass = float(projected.sum())
        dead_mass = float(projected[self._dead].sum())
        if self._null_basis is not None:
            lifted_null = self.basis.apply(self._null_basis)
            dead_mass -= float(np.sum(lifted_null * workload.matvec(lifted_null)))
        dead_mass = max(dead_mass, 0.0)
        if dead_mass > support_tolerance * max(total_mass, 1.0):
            raise SingularStrategyError(
                "strategy does not support the workload: the workload row space "
                "is not contained in the (completed) strategy row space"
            )
        base = float(np.sum(projected / self._scale_diag))
        lifted = self.basis.apply(self._scaled_update)
        inner = lifted.T @ workload.matvec(lifted)
        correction = float(np.trace(scipy.linalg.lu_solve(self._cap_lu, inner, check_finite=False)))
        return base - correction - dead_mass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WoodburyOperator(n={self.shape[0]}, r={self.cells.size})"


class MatrixGramOperator:
    """The Gram ``W^T W`` of an explicit ``(m, n)`` matrix, kept as a product.

    For a short-and-wide matrix (few queries over a huge domain) the dense
    ``n x n`` Gram can dwarf the matrix itself; this operator serves Gram
    actions at ``O(m n)`` cost and densifies only on request, under the hard
    cap.  It lets explicit workloads participate in structured unions and
    traces without an eager quadratic allocation.

    Parameters
    ----------
    matrix:
        The explicit ``(m, n)`` query matrix (stored as-is).

    Examples
    --------
    >>> operator = MatrixGramOperator(np.array([[1.0, 2.0]]))
    >>> operator.matvec(np.array([1.0, 0.0]))
    array([1., 2.])
    >>> operator.diagonal()
    array([1., 4.])
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.matrix.shape}")
        cells = self.matrix.shape[1]
        self.shape = (cells, cells)
        self.symmetric = True

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix.T @ (self.matrix @ x)

    rmatvec = matvec  # symmetric

    def diagonal(self) -> np.ndarray:
        return np.sum(self.matrix**2, axis=0)

    def scaled(self, alpha: float) -> "MatrixGramOperator":
        return MatrixGramOperator(self.matrix * float(np.sqrt(alpha)))

    def to_dense(self, *, limit: int | None = None) -> np.ndarray:
        _dense_guard(self.shape[0], self.shape[1], "an explicit-matrix Gram", limit)
        return symmetrize(self.matrix.T @ self.matrix)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatrixGramOperator(m={self.matrix.shape[0]}, n={self.shape[0]})"


class SumOperator:
    """A symmetric sum of Gram sources (dense arrays and/or operators).

    This is the Gram matrix of a *union* workload: Gram matrices add.  No
    factorized eigen-decomposition exists in general, but matvecs, diagonals
    (hence sensitivities) and error traces all distribute over the terms.

    Parameters
    ----------
    terms:
        Square Gram sources (dense arrays and/or operators) of equal size;
        every action costs the sum of the per-term costs.

    Examples
    --------
    >>> union = SumOperator([np.eye(2), np.diag([1.0, 3.0])])
    >>> union.diagonal()
    array([2., 4.])
    """

    def __init__(self, terms: Sequence[np.ndarray | KroneckerOperator | EigenDiagOperator]):
        if not terms:
            raise ValueError("SumOperator requires at least one term")
        self.terms = tuple(
            np.asarray(t, dtype=float) if isinstance(t, np.ndarray) else t for t in terms
        )
        sizes = set()
        for term in self.terms:
            if term.shape[0] != term.shape[1]:
                raise ValueError(
                    f"SumOperator terms must be square Gram sources, got shape {term.shape}"
                )
            sizes.add(term.shape[0])
        if len(sizes) != 1:
            raise ValueError("all terms of a SumOperator must have the same size")
        size = sizes.pop()
        self.shape = (size, size)
        self.symmetric = True

    def matvec(self, x: np.ndarray) -> np.ndarray:
        result = _operator_or_dense_matvec(self.terms[0], x)
        for term in self.terms[1:]:
            result = result + _operator_or_dense_matvec(term, x)
        return result

    rmatvec = matvec  # symmetric

    def diagonal(self) -> np.ndarray:
        diag = _operator_or_dense_diagonal(self.terms[0])
        for term in self.terms[1:]:
            diag = diag + _operator_or_dense_diagonal(term)
        return diag

    def scaled(self, alpha: float) -> "SumOperator":
        alpha = float(alpha)
        return SumOperator(
            [t * alpha if isinstance(t, np.ndarray) else t.scaled(alpha) for t in self.terms]
        )

    def to_dense(self, *, limit: int | None = None) -> np.ndarray:
        _dense_guard(self.shape[0], self.shape[1], "a Gram sum", limit)
        dense = None
        for term in self.terms:
            contribution = term if isinstance(term, np.ndarray) else term.to_dense(limit=limit)
            dense = contribution.copy() if dense is None else dense + contribution
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SumOperator(n={self.shape[0]}, terms={len(self.terms)})"


class StackedOperator:
    """A vertical stack of query-matrix sources over the same cells.

    Models the rows of a *union* workload without materialising them: the
    parts may be dense ``(m_i, n)`` matrices or rectangular operators (e.g.
    :class:`KroneckerOperator` row blocks).  ``matvec`` answers all queries,
    ``rmatvec`` accumulates adjoints, and the Gram is the sum of part Grams.

    Parameters
    ----------
    parts:
        Dense ``(m_i, n)`` arrays and/or rectangular operators over the same
        cells; actions distribute over parts at their native cost.

    Examples
    --------
    >>> stack = StackedOperator([np.eye(2), np.ones((1, 2))])
    >>> stack.shape
    (3, 2)
    >>> stack.matvec(np.array([1.0, 2.0]))
    array([1., 2., 3.])
    """

    def __init__(self, parts: Sequence[np.ndarray | KroneckerOperator]):
        if not parts:
            raise ValueError("StackedOperator requires at least one part")
        self.parts = tuple(
            np.asarray(p, dtype=float) if isinstance(p, np.ndarray) else p for p in parts
        )
        columns = {p.shape[1] for p in self.parts}
        if len(columns) != 1:
            raise ValueError("all stacked parts must have the same number of columns")
        rows = sum(p.shape[0] for p in self.parts)
        self.shape = (rows, columns.pop())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [p @ x if isinstance(p, np.ndarray) else p.matvec(x) for p in self.parts]
        )

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        shape = (self.shape[1],) if y.ndim == 1 else (self.shape[1], y.shape[1])
        result = np.zeros(shape)
        offset = 0
        for part in self.parts:
            block = y[offset : offset + part.shape[0]]
            if isinstance(part, np.ndarray):
                result = result + part.T @ block
            else:
                result = result + part.rmatvec(block)
            offset += part.shape[0]
        return result

    def row_block(self, start: int, stop: int, *, limit: int | None = None) -> np.ndarray:
        """Materialise rows ``start:stop`` across the stacked parts."""
        start = max(0, int(start))
        stop = min(self.shape[0], int(stop))
        _dense_guard(max(stop - start, 0), self.shape[1], "a stacked row block", limit)
        pieces = []
        offset = 0
        for part in self.parts:
            part_rows = part.shape[0]
            lo = max(start - offset, 0)
            hi = min(stop - offset, part_rows)
            if lo < hi:
                if isinstance(part, np.ndarray):
                    pieces.append(part[lo:hi])
                else:
                    pieces.append(part.row_block(lo, hi, limit=limit))
            offset += part_rows
        if not pieces:
            return np.zeros((0, self.shape[1]))
        return np.vstack(pieces)

    def gram(self) -> SumOperator:
        """The Gram of the stack: the sum of the part Grams."""
        terms = []
        for part in self.parts:
            if isinstance(part, np.ndarray):
                terms.append(symmetrize(part.T @ part))
            else:
                terms.append(part.gram())
        return SumOperator(terms)

    def column_norms_squared(self) -> np.ndarray:
        norms = np.zeros(self.shape[1])
        for part in self.parts:
            if isinstance(part, np.ndarray):
                norms = norms + np.sum(part**2, axis=0)
            else:
                norms = norms + part.column_norms_squared()
        return norms

    def to_dense(self, *, limit: int | None = None) -> np.ndarray:
        _dense_guard(self.shape[0], self.shape[1], "a stacked query matrix", limit)
        return np.vstack(
            [p if isinstance(p, np.ndarray) else p.to_dense(limit=limit) for p in self.parts]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StackedOperator(shape={self.shape}, parts={len(self.parts)})"
