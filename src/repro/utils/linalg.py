"""Dense and matrix-free linear-algebra helpers used across the package.

These are thin, well-tested wrappers around numpy/scipy primitives that
encode the conventions of the matrix mechanism:

* query matrices are ``(m, n)`` with one query per row;
* Gram matrices are ``(n, n)`` symmetric positive semidefinite;
* the L2 sensitivity of a matrix is the maximum column norm.

Besides the dense helpers, this module hosts the *iterative* solve substrate
of the structured fast path: a batched Jacobi-preconditioned conjugate
gradient (:func:`pcg_solve`) and the Hutch++ stochastic trace estimator
(:func:`hutchpp_trace`).  See ``docs/architecture.md`` for where each piece
sits in the operator subsystem and ``docs/performance.md`` for the
estimator's constants.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.exceptions import SingularStrategyError

__all__ = [
    "symmetrize",
    "gram_product",
    "max_column_norm",
    "trace_product",
    "trace_ratio",
    "SPECTRUM_CUTOFF",
    "rank_checked_cholesky",
    "GramRoot",
    "solve_psd",
    "pcg_solve",
    "hutchpp_trace",
    "psd_project",
    "kron_all",
    "haar_matrix",
    "hierarchical_matrix",
    "prefix_matrix",
]

#: Relative eigenvalue cutoff shared by every pseudo-inverse, dense and
#: structured: a Gram eigenvalue below this fraction of the largest counts as
#: zero, in pricing, inference and support tests alike.
SPECTRUM_CUTOFF = 1e-9


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(M + M^T) / 2`` of a square matrix.

    Gram matrices computed as ``W.T @ W`` can pick up tiny asymmetries from
    floating point; symmetrizing keeps ``scipy.linalg.eigh`` happy.

    Parameters
    ----------
    matrix:
        A square ``(n, n)`` array.  Cost: ``O(n^2)``.

    Examples
    --------
    >>> symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))
    array([[1., 1.],
           [1., 1.]])
    """
    matrix = np.asarray(matrix, dtype=float)
    return (matrix + matrix.T) / 2.0


def gram_product(matrix: np.ndarray) -> np.ndarray:
    """Return the Gram ``matrix^T matrix`` of an ``(m, n)`` query matrix.

    On one contiguous buffer numpy evaluates ``X^T X`` with a BLAS ``syrk``,
    which computes one triangle and mirrors it: half the flops of a general
    product, and exactly symmetric, so no :func:`symmetrize` pass follows.

    Examples
    --------
    >>> gram_product(np.array([[1.0, 2.0], [0.0, 1.0]]))
    array([[1., 2.],
           [2., 5.]])
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    return matrix.T @ matrix


def max_column_norm(matrix: np.ndarray) -> float:
    """Return the maximum Euclidean column norm (the L2 sensitivity).

    Parameters
    ----------
    matrix:
        An ``(m, n)`` query matrix, one query per row.  Cost: ``O(m n)``.

    Examples
    --------
    >>> max_column_norm(np.array([[3.0, 0.0], [4.0, 1.0]]))
    5.0
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    return float(np.sqrt(np.max(np.sum(matrix * matrix, axis=0))))


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Return ``trace(a @ b)`` without forming the product matrix.

    Parameters
    ----------
    a, b:
        Arrays with ``a.shape == b.T.shape``.  Cost: ``O(n m)`` instead of
        the ``O(n m min(n, m))`` of materialising ``a @ b``.

    Examples
    --------
    >>> trace_product(np.eye(3), 2.0 * np.eye(3))
    6.0
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(a * b.T))


def rank_checked_cholesky(gram: np.ndarray) -> np.ndarray | None:
    """The upper Cholesky factor ``U`` of a PSD ``gram`` (``U^T U = gram``), or ``None``.

    ``None`` means ``gram`` is numerically singular.  A successful Cholesky
    alone does not prove full rank: a rank-deficient Gram can factor with
    pivots at rounding level.  So the factor must also pass LAPACK
    ``dpocon``'s reciprocal condition estimate, which has to exceed
    ``n * eps`` — the relative cutoff
    :attr:`repro.core.strategy.Strategy.rank` applies to a structured
    spectrum.  This is the one place the package Cholesky-factors a Gram;
    every full-rank test and solve goes through it.

    Parameters
    ----------
    gram:
        Symmetric PSD ``(n, n)`` matrix; only its upper triangle is
        factored.  Cost: one ``O(n^3)`` factorization plus an ``O(n^2)``
        condition estimate.

    Examples
    --------
    >>> rank_checked_cholesky(4.0 * np.eye(2))
    array([[2., 0.],
           [0., 2.]])
    >>> rank_checked_cholesky(np.ones((2, 2))) is None
    True
    """
    gram = np.asarray(gram, dtype=float)
    try:
        factor = scipy.linalg.cholesky(gram, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    # numpy's norm, not LAPACK dlange: dlange holds the GIL, which stalls
    # concurrent requests for the length of the pass.
    reciprocal_condition, info = scipy.linalg.lapack.dpocon(factor, np.linalg.norm(gram, 1))
    if info != 0 or not reciprocal_condition > gram.shape[0] * np.finfo(float).eps:
        return None
    return factor


class GramRoot:
    """A root ``R`` of a PSD Gram ``G``: ``R^T R = G`` on ``G``'s numerical row space.

    A full-rank ``G`` (by :func:`rank_checked_cholesky`) keeps its ``n x n``
    upper Cholesky factor ``U``.  Otherwise one ``eigh`` keeps the ``r``
    eigenvalues ``lambda`` above :data:`SPECTRUM_CUTOFF` times the largest,
    and ``R = diag(sqrt(lambda)) V_r^T`` is ``r x n``, so ``R^+ = R^T
    diag(1/lambda)`` and ``(R^T R)^+`` is ``G``'s pseudo-inverse on that
    spectrum.  The methods below are everything the matrix mechanism needs
    from ``G``, whichever form is held; ``rank`` is ``R``'s row count.

    Examples
    --------
    >>> root = GramRoot(np.ones((2, 2)))
    >>> root.rank, root.factor.shape
    (1, (1, 2))
    >>> root.solve(np.array([2.0, 2.0]))
    array([1., 1.])
    >>> GramRoot(4.0 * np.eye(2)).invert(np.array([2.0, 4.0]))
    array([1., 2.])
    """

    __slots__ = ("factor", "values")

    def __init__(self, gram: np.ndarray):
        gram = np.asarray(gram, dtype=float)
        factor = rank_checked_cholesky(gram)
        values = None
        if factor is None:
            values, vectors = np.linalg.eigh(gram)
            keep = values > SPECTRUM_CUTOFF * max(float(values[-1]), 0.0)
            values = values[keep]
            factor = vectors[:, keep].T * np.sqrt(values)[:, None]
        #: ``R``: the upper Cholesky factor, or the ``r x n`` spectral root.
        self.factor = factor
        #: The eigenvalues the spectral root keeps; ``None`` for a Cholesky factor.
        self.values = values

    @property
    def rank(self) -> int:
        """The numerical rank of ``G``: ``n`` at full rank, else ``r``."""
        return self.factor.shape[0]

    def release(self, data: np.ndarray) -> np.ndarray:
        """``R x``: what a Gaussian release measures instead of ``A x``."""
        if self.values is None:
            return scipy.linalg.blas.dtrmv(self.factor, data)
        return self.factor @ data

    def invert(self, noisy: np.ndarray) -> np.ndarray:
        """``R^+ y``: the least-squares estimate from a release ``y = R x + noise``."""
        if self.values is None:
            return scipy.linalg.blas.dtrsv(self.factor, noisy)
        return self.factor.T @ (noisy / self.values)

    def inverse_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """``R^{+T} B`` for an ``n x k`` block ``B``; ``||R^{+T} W^T||_F^2``
        is ``trace(W G^+ W^T)``, the price of a workload ``W``."""
        if self.values is None:
            return scipy.linalg.solve_triangular(self.factor, rhs, trans="T", check_finite=False)
        return (self.factor @ rhs) / self.values[:, None]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``G^+ B``: ``G^{-1} B`` at full rank, the rank-``r`` pseudo-inverse otherwise."""
        if self.values is None:
            return scipy.linalg.cho_solve((self.factor, False), rhs, check_finite=False)
        weights = self.values**-2.0
        projected = self.factor @ rhs
        return self.factor.T @ (projected * (weights if projected.ndim == 1 else weights[:, None]))

    def supports(self, gram: np.ndarray, tolerance: float = 1e-6) -> bool:
        """True when ``gram``'s row space lies in ``G``'s (always at full rank).

        ``gram`` is supported when projecting it onto ``G``'s retained
        eigenvectors moves no entry by more than ``tolerance`` times its
        largest (at least 1).  Cost: ``O(r n^2)``.
        """
        if self.values is None:
            return True
        gram = symmetrize(np.asarray(gram, dtype=float))
        basis = self.factor / np.sqrt(self.values)[:, None]
        inside = basis.T @ ((basis @ gram @ basis.T) @ basis)
        scale = max(np.abs(gram).max(), 1.0)
        return bool(np.abs(gram - inside).max() <= tolerance * scale)


def solve_psd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ X = rhs`` for a symmetric PSD ``gram``.

    Through ``gram``'s :class:`GramRoot`: a Cholesky solve when the matrix
    has full rank, the rank-truncated pseudo-inverse when it is
    (numerically) singular.

    Parameters
    ----------
    gram:
        Symmetric PSD ``(n, n)`` matrix.
    rhs:
        Right-hand side vector or matrix.  Cost: ``O(n^3)`` for the
        factorization plus ``O(n^2)`` per right-hand-side column.

    Examples
    --------
    >>> solve_psd(2.0 * np.eye(2), np.array([2.0, 4.0]))
    array([1., 2.])
    """
    return GramRoot(symmetrize(gram)).solve(rhs)


def pcg_solve(
    matvec,
    rhs: np.ndarray,
    *,
    preconditioner: np.ndarray | None = None,
    tolerance: float = 1e-10,
    max_iterations: int | None = None,
    stats: dict | None = None,
) -> np.ndarray:
    """Preconditioned conjugate gradient for a positive-semidefinite operator.

    ``matvec`` maps a vector (or an ``(n, b)`` batch of columns) to the
    operator's action; ``preconditioner`` is the *diagonal* of a Jacobi
    preconditioner (its entrywise inverse is applied).  A batched right-hand
    side is solved as ``b`` independent CG runs sharing every operator
    application, which is what makes the stochastic trace fallback for
    completed eigen designs fast: structured matvecs amortise beautifully
    over columns.  Each column converges when its residual norm drops below
    ``tolerance`` times its right-hand-side norm; converged (or numerically
    stalled) columns are *compacted out* of the working batch, so a few
    ill-conditioned stragglers never pay the matvec cost of the whole batch.

    The operator may be singular: on a *consistent* system the residual
    still converges, so CG returns *a* solution of the system.  Note the
    returned iterate's null-space component is arbitrary once a (Jacobi)
    preconditioner is involved — callers on singular
    systems must not rely on minimum-norm semantics and need an outer
    projection that annihilates the null space, which is exactly how the
    rank-deficient completed-trace path stays matrix-free (the workload
    factor ``G_W^{1/2}`` kills ``null(M)`` under the support condition; see
    ``docs/architecture.md``).

    Parameters
    ----------
    matvec:
        Callable returning the operator applied to a vector or ``(n, b)``
        batch.  Cost: one application per iteration over the active batch.
    rhs:
        Right-hand side vector or ``(n, b)`` batch.
    preconditioner:
        Optional diagonal of a Jacobi preconditioner.
    tolerance:
        Per-column relative residual target.
    max_iterations:
        Hard iteration cap (default ``max(10 n, 100)`` for an ``n``-row
        system).
    stats:
        Optional dict, filled with ``unconverged`` (columns that froze on a
        semidefinite direction or hit the iteration cap above tolerance).

    Examples
    --------
    >>> matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
    >>> info = {}
    >>> x = pcg_solve(lambda v: matrix @ v, np.array([1.0, 2.0]),
    ...               preconditioner=np.diag(matrix), stats=info)
    >>> bool(np.allclose(matrix @ x, [1.0, 2.0]))
    True
    >>> info["unconverged"]
    0
    """
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    if max_iterations is None:
        max_iterations = max(10 * b.shape[0], 100)
    if preconditioner is not None:
        inverse_diag = (1.0 / np.clip(np.asarray(preconditioner, dtype=float), 1e-300, None))[:, None]
    else:
        inverse_diag = None
    norms = np.linalg.norm(b, axis=0)
    targets = tolerance * np.where(norms > 0, norms, 1.0)
    x = np.zeros_like(b)
    residual = b.copy()
    active = np.arange(b.shape[1])  # columns still iterating
    z = residual * inverse_diag if inverse_diag is not None else residual.copy()
    direction = z.copy()
    rho = np.sum(residual * z, axis=0)
    frozen = 0
    for _ in range(max_iterations):
        live = np.linalg.norm(residual, axis=0) > targets[active]
        if not np.any(live):
            active = active[:0]
            residual = residual[:, :0]
            break
        if not np.all(live):
            active = active[live]
            residual = residual[:, live]
            direction = direction[:, live]
            rho = rho[live]
        applied = matvec(direction)
        curvature = np.sum(direction * applied, axis=0)
        # Columns that hit a (numerically) semidefinite direction freeze too.
        sound = curvature > 0
        if not np.any(sound):
            frozen += int(active.size)
            active = active[:0]
            residual = residual[:, :0]
            break
        if not np.all(sound):
            frozen += int(np.sum(~sound))
            active = active[sound]
            residual = residual[:, sound]
            direction = direction[:, sound]
            applied = applied[:, sound]
            rho = rho[sound]
            curvature = curvature[sound]
        step = rho / curvature
        x[:, active] += step * direction
        residual = residual - step * applied
        z = residual * inverse_diag if inverse_diag is not None else residual
        rho_next = np.sum(residual * z, axis=0)
        direction = z + (rho_next / np.maximum(rho, 1e-300)) * direction
        rho = rho_next
    unconverged = frozen
    if active.size:
        unconverged += int(np.sum(np.linalg.norm(residual, axis=0) > targets[active]))
    if stats is not None:
        stats["unconverged"] = unconverged
    return x[:, 0] if single else x


def hutchpp_trace(
    apply_fn,
    size: int,
    *,
    samples: int = 48,
    rng=None,
) -> float:
    """Hutch++ estimate of ``trace(F)`` for a symmetric PSD operator ``F``.

    ``apply_fn`` maps an ``(n, b)`` batch to ``F @ batch``.  A rank-``k``
    sketch captures the dominant range exactly (``k = samples // 3``) and a
    Hutchinson estimate on the deflated remainder picks up the tail, giving
    the O(1/samples) relative-error behaviour of Meyer et al. for PSD
    matrices.  When ``samples >= 3 * size`` the sketch spans the whole space
    and the estimate is exact up to the accuracy of ``apply_fn``.

    Parameters
    ----------
    apply_fn:
        Batched action of ``F``; three batched applications are paid per
        estimate (sketch, head, tail).
    size:
        Dimension ``n`` of the operator.
    samples:
        Total probe budget (the sketch takes a third).
    rng:
        Numpy generator; a fixed default keeps estimates reproducible.

    Examples
    --------
    >>> matrix = np.diag([3.0, 2.0, 1.0])
    >>> round(hutchpp_trace(lambda x: matrix @ x, 3, samples=9), 10)
    6.0
    """
    if rng is None:
        rng = np.random.default_rng(0)
    sketch_size = max(1, min(samples // 3, size))
    probes = rng.choice([-1.0, 1.0], size=(size, sketch_size))
    basis, _ = np.linalg.qr(apply_fn(probes))
    head = float(np.sum(basis * apply_fn(basis)))
    if basis.shape[1] >= size:
        return head
    residual_probes = rng.choice([-1.0, 1.0], size=(size, sketch_size))
    residual_probes = residual_probes - basis @ (basis.T @ residual_probes)
    tail = float(np.sum(residual_probes * apply_fn(residual_probes))) / sketch_size
    return head + tail


def trace_ratio(workload_gram: np.ndarray, strategy_gram: np.ndarray) -> float:
    """Return ``trace(WtW @ (AtA)^-1)``, the core term of Prop. 4.

    ``WtW`` is the workload Gram matrix and ``AtA`` the strategy Gram matrix.
    When ``AtA`` is singular the computation is still meaningful as long as
    the row space of the workload is contained in the row space of the
    strategy; otherwise the strategy cannot answer the workload and a
    :class:`~repro.exceptions.SingularStrategyError` is raised.

    Parameters
    ----------
    workload_gram, strategy_gram:
        Dense symmetric PSD ``(n, n)`` matrices.  Cost: one ``O(n^3)``
        factorization (this is exactly what the structured paths of
        :func:`repro.core.error.workload_strategy_trace` avoid).

    Examples
    --------
    >>> round(trace_ratio(np.eye(2), 2.0 * np.eye(2)), 12)
    1.0
    """
    root = GramRoot(symmetrize(strategy_gram))
    if not root.supports(workload_gram):
        raise SingularStrategyError(
            "strategy does not support the workload: the workload row space "
            "is not contained in the strategy row space"
        )
    return float(np.trace(root.solve(workload_gram)))


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clipping eigenvalues.

    Parameters
    ----------
    matrix:
        A square matrix (symmetrized first).  Cost: one ``O(n^3)`` ``eigh``.

    Examples
    --------
    >>> psd_project(np.diag([1.0, -2.0]))
    array([[1., 0.],
           [0., 0.]])
    """
    matrix = symmetrize(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return (eigenvectors * eigenvalues) @ eigenvectors.T


def kron_all(matrices: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Return the Kronecker product of a sequence of matrices (left to right).

    Parameters
    ----------
    matrices:
        Non-empty sequence of 2-D arrays.  Cost: the size of the output,
        ``O(prod_i m_i * prod_i n_i)`` — use
        :func:`repro.utils.operators.kron_apply` to act with the product
        without paying this.

    Examples
    --------
    >>> kron_all([np.eye(2), 3.0 * np.eye(2)]).shape
    (4, 4)
    """
    if not matrices:
        raise ValueError("kron_all requires at least one matrix")
    result = np.asarray(matrices[0], dtype=float)
    for matrix in matrices[1:]:
        result = np.kron(result, np.asarray(matrix, dtype=float))
    return result


def haar_matrix(size: int, normalized: bool = False) -> np.ndarray:
    """Return the Haar wavelet strategy matrix for a domain of ``size`` cells.

    For ``size`` a power of two this is the classic Haar transform used by
    Xiao et al. (entries in {-1, 0, +1} when ``normalized`` is False).  For
    other sizes the construction generalises by recursively splitting each
    range into two nearly equal halves: every internal node contributes a
    query that is +1 on its left half and -1 on its right half, and the root
    additionally contributes the total query.  The result always has exactly
    ``size`` rows and full rank.

    Parameters
    ----------
    size:
        Number of domain cells (``>= 1``).  Cost: ``O(size^2)`` output.
    normalized:
        Scale every row to unit Euclidean norm.

    Examples
    --------
    >>> haar_matrix(2)
    array([[ 1.,  1.],
           [ 1., -1.]])
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rows: list[np.ndarray] = []
    total = np.ones(size)
    rows.append(total)

    def split(start: int, end: int) -> None:
        length = end - start
        if length <= 1:
            return
        mid = start + (length + 1) // 2
        row = np.zeros(size)
        row[start:mid] = 1.0
        row[mid:end] = -1.0
        rows.append(row)
        split(start, mid)
        split(mid, end)

    split(0, size)
    matrix = np.vstack(rows)
    if normalized:
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        matrix = matrix / norms
    return matrix


def hierarchical_matrix(size: int, branching: int = 2) -> np.ndarray:
    """Return the hierarchical strategy of Hay et al. for ``size`` cells.

    The strategy contains one query per node of a ``branching``-ary tree whose
    leaves are the individual cells: the root is the total query and every
    node's children partition its range into (nearly) equal contiguous parts.

    Parameters
    ----------
    size:
        Number of domain cells (``>= 1``).
    branching:
        Tree fan-out (``>= 2``).  Cost: ``O(size^2 / (branching - 1))``
        output entries.

    Examples
    --------
    >>> hierarchical_matrix(2)
    array([[1., 1.],
           [1., 0.],
           [0., 1.]])
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if branching < 2:
        raise ValueError(f"branching must be >= 2, got {branching}")
    rows: list[np.ndarray] = []

    def add(start: int, end: int) -> None:
        row = np.zeros(size)
        row[start:end] = 1.0
        rows.append(row)
        length = end - start
        if length <= 1:
            return
        fanout = min(branching, length)
        base, extra = divmod(length, fanout)
        cursor = start
        for child in range(fanout):
            child_length = base + (1 if child < extra else 0)
            add(cursor, cursor + child_length)
            cursor += child_length

    add(0, size)
    return np.vstack(rows)


def prefix_matrix(size: int, reverse: bool = False) -> np.ndarray:
    """Return the prefix-sum (empirical CDF) workload matrix.

    Row ``i`` sums cells ``0..i`` (or ``i..size-1`` when ``reverse`` is True,
    matching the paper's description of the CDF workload in which the first
    query covers all ``n`` cells).

    Parameters
    ----------
    size:
        Number of domain cells (``>= 1``).  Cost: ``O(size^2)`` output.
    reverse:
        Emit suffix sums instead of prefix sums.

    Examples
    --------
    >>> prefix_matrix(3)
    array([[1., 0., 0.],
           [1., 1., 0.],
           [1., 1., 1.]])
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    matrix = np.tril(np.ones((size, size)))
    if reverse:
        matrix = matrix[::-1, ::-1].copy()
    return matrix
