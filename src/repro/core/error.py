"""Error analysis of the matrix mechanism.

Implements the closed-form expected error of Prop. 4, the per-query error of
Def. 5, the singular-value lower bound of Thm. 2, and the approximation-ratio
bound of Thm. 3.  All quantities are *expected* (analytical) errors: they do
not require sampling noise and are independent of the data vector.

Normalisation note
------------------
The paper's Def. 5 defines workload error as the root *mean* square error over
the ``m`` workload queries, so every expression here carries an explicit
``1/m`` inside the square root.  The lower bound of Thm. 2 is scaled the same
way so that ratios of measured error to the bound are directly comparable.
"""

from __future__ import annotations

import numpy as np

from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.exceptions import MaterializationError, SingularStrategyError
from repro.utils.linalg import (
    SPECTRUM_CUTOFF,
    GramRoot,
    hutchpp_trace,
    pcg_solve,
    trace_ratio,
)
from repro.utils.operators import (
    MATERIALIZATION_LIMIT,
    EigenDiagOperator,
    KroneckerOperator,
    SumOperator,
    _cached_factor_eigh,
    gram_to_dense,
    kron_apply,
    projected_workload_diagonal,
    within_materialization_budget,
)

__all__ = [
    "expected_workload_error",
    "expected_total_squared_error",
    "per_query_error",
    "singular_value_bound",
    "minimum_error_bound",
    "approximation_ratio",
    "approximation_ratio_bound",
    "workload_strategy_trace",
]

#: Default privacy setting used throughout the paper's experiments.
DEFAULT_PRIVACY = PrivacyParams(epsilon=0.5, delta=1e-4)

#: Workload mass on the strategy's null space above this fraction of the total
#: means the strategy cannot answer the workload.
_SUPPORT_TOLERANCE = 1e-6

#: Constants of the preconditioned-CG + Hutch++ stochastic trace, used for
#: completed designs whose completion rank is too large for the exact
#: Woodbury path.  ``_TRACE_SAMPLES`` is the total Hutch++ matvec budget
#: (each matvec is one CG solve); ``_TRACE_SAMPLES >= 3 n`` makes the estimate
#: exact up to ``_TRACE_TOLERANCE``, the per-column relative CG residual
#: target.
_TRACE_SAMPLES = 96
_TRACE_TOLERANCE = 1e-8
_TRACE_MAX_ITERATIONS = 2000
_TRACE_SEED = 0


def _eigen_diag_trace(workload_op: KroneckerOperator, strategy_op: EigenDiagOperator) -> float:
    """``trace((⊗G_i) (B diag(z) B^T)^+)`` for a matching Kronecker eigenbasis.

    With ``B = ⊗V_i`` the trace is ``trace(B^T (⊗G_i) B diag(z)^+)`` and the
    diagonal of ``B^T (⊗G_i) B`` is the Kronecker product of the per-factor
    diagonals ``diag(V_i^T G_i V_i)`` — an ``O(sum_i d_i^3)`` computation.
    Because ``B^T (⊗G_i) B`` is PSD, a zero diagonal entry forces its whole
    row to zero, so checking workload mass on the zero-``z`` coordinates is an
    exact row-space support test.
    """
    basis = strategy_op.basis
    projected = projected_workload_diagonal(basis, workload_op)
    spectrum = strategy_op.spectrum
    top = float(spectrum.max(initial=0.0))
    alive = spectrum > SPECTRUM_CUTOFF * top
    dead_mass = float(projected[~alive].sum())
    total_mass = float(projected.sum())
    if dead_mass > _SUPPORT_TOLERANCE * max(total_mass, 1.0):
        raise SingularStrategyError(
            "strategy does not support the workload: the workload row space "
            "is not contained in the strategy row space"
        )
    return float(np.sum(projected[alive] / spectrum[alive]))


def _kron_factors_match(workload_op: KroneckerOperator, other_factors) -> bool:
    shapes = [f.shape for f in workload_op.factors]
    return shapes == [f.shape for f in other_factors]


def _completed_trace(
    workload_op: KroneckerOperator, strategy_op: EigenDiagOperator
) -> float | None:
    """``trace((⊗G_i) M^+)`` for a *completed* design ``M = B diag(z) B^T + diag(d)``.

    The ``r`` completion cells are a rank-``r`` correction, so the trace
    evaluates exactly through the Woodbury identity whenever the ``n x r``
    update block fits the materialization budget — except on small domains
    where the completion is heavy (``r`` a sizable fraction of ``n``): there
    the ``O(n r^2)`` capacitance work matches the dense ``O(n^3)`` solve, so
    the budget-feasible dense path is preferred.  Beyond the budget, a
    Jacobi-preconditioned CG + Hutch++ stochastic estimate serves every
    spectrum matrix-free —
    rank-deficient ones included, through the null-space-projected singular
    CG formulation (see :func:`_stochastic_completed_trace`) — so the only
    time this returns ``None`` is when dense is genuinely preferable.
    """
    size = strategy_op.shape[0]
    completion_rank = int(np.count_nonzero(strategy_op.diag))
    dense_preferred = (
        within_materialization_budget(size, size) and 8 * completion_rank > size
    )
    if dense_preferred:
        return None
    if within_materialization_budget(size, max(2 * completion_rank, 1)):
        woodbury = strategy_op.woodbury()
        return woodbury.trace_inverse_product(
            workload_op, support_tolerance=_SUPPORT_TOLERANCE
        )
    return _stochastic_completed_trace(workload_op, strategy_op)


def _stochastic_completed_trace(
    workload_op: KroneckerOperator, strategy_op: EigenDiagOperator
) -> float:
    """Hutch++ estimate of ``trace(G_W^{1/2} M^+ G_W^{1/2})`` via CG solves.

    Every operation is a structured matvec, so the solve allocates nothing
    larger than a few ``n x samples`` blocks regardless of the completion
    rank.  The estimate runs on fixed constants (``_TRACE_SAMPLES`` probes,
    seed ``_TRACE_SEED``), so it is a deterministic function of the workload
    and the strategy; the strategy operator remembers its last result
    (:meth:`~repro.utils.operators.EigenDiagOperator.remembered_trace`), and
    re-evaluating it against equal workload factors — a budget scan — runs
    no solve at all.

    Rank-deficient spectra are served through the *null-space-projected*
    singular formulation: in basis coordinates ``M' = diag(z) + R diag(c)
    R^T`` has null space ``N`` = the dead-``z`` coordinates the completion
    columns cannot reach.  Under the support condition (``range(G_W) ⊆
    range(M)``) every right-hand side ``B^T G_W^{1/2} v`` is consistent, CG
    converges on the singular system, and the arbitrary ``N``-component of
    its iterate is annihilated by the outer ``G_W^{1/2}`` factor — because
    ``null(M) ⊆ null(G_W)`` exactly when the support condition holds.  The
    diagonal-zero part of the unreachable dead space is detected exactly up
    front (a completion diagonal entry of zero in basis coordinates means
    the whole row is zero); residual unsupported mass shows up as CG columns
    that stall above tolerance, and both raise
    :class:`~repro.exceptions.SingularStrategyError`.
    """
    remembered = strategy_op.remembered_trace(workload_op.factors)
    if remembered is not None:
        return remembered
    sqrt_factors = []
    for w_factor in workload_op.factors:
        values, vectors = _cached_factor_eigh(w_factor)
        values = np.sqrt(np.clip(values, 0.0, None))
        sqrt_factors.append((vectors * values) @ vectors.T)
    sqrt_op = KroneckerOperator(sqrt_factors, symmetric=True)
    basis = strategy_op.basis
    spectrum = strategy_op.spectrum
    completion = strategy_op.diag
    top = float(spectrum.max(initial=0.0))
    alive = spectrum > SPECTRUM_CUTOFF * top
    rank_deficient = not bool(np.all(alive))
    # CG runs in *basis* coordinates, where the strategy spectrum is exactly
    # diagonal: the Jacobi preconditioner then absorbs the full dynamic range
    # of the weights and only the diffuse completion term needs iterating
    # (roughly 6x fewer iterations than cell-coordinate Jacobi in practice).
    completion_in_basis = kron_apply(basis.squared_factors, completion, transpose=True)
    diagonal = spectrum + completion_in_basis
    # *Dead* coordinates with a vanishing completion diagonal are the
    # diagonal-zero part of the unreachable dead space (completion weights
    # are positive, so a zero diagonal entry of R diag(c) R^T forces the
    # whole row to zero).  The test is restricted to dead coordinates —
    # alive ones are never reclassified, however tiny, so a huge dynamic
    # range cannot degrade their Jacobi preconditioner entries.
    # Preconditioning the unreachable coordinates with 1.0 keeps the solve
    # well-posed; consistent right-hand sides carry no mass there.
    completion_floor = SPECTRUM_CUTOFF * float(completion_in_basis.max(initial=0.0))
    unreachable = (~alive) & (completion_in_basis <= max(completion_floor, 1e-300))
    preconditioner = np.where(unreachable, 1.0, np.clip(diagonal, 1e-300, None))
    if rank_deficient and np.any(unreachable):
        projected = projected_workload_diagonal(basis, workload_op)
        dead_mass = float(projected[unreachable].sum())
        if dead_mass > _SUPPORT_TOLERANCE * max(float(projected.sum()), 1.0):
            raise SingularStrategyError(
                "strategy does not support the workload: the workload row "
                "space is not contained in the (completed) strategy row space"
            )
    unconverged = 0

    def gram_in_basis(coordinates: np.ndarray) -> np.ndarray:
        lifted = basis.apply(coordinates)
        weighted = completion[:, None] * lifted if lifted.ndim == 2 else completion * lifted
        back = basis.apply_transpose(weighted)
        diag_part = spectrum[:, None] * coordinates if coordinates.ndim == 2 else spectrum * coordinates
        return diag_part + back

    def apply_inverse_quadratic(batch: np.ndarray) -> np.ndarray:
        nonlocal unconverged
        lifted = sqrt_op.matvec(batch)
        solve_stats: dict = {}
        solved = pcg_solve(
            gram_in_basis,
            basis.apply_transpose(lifted),
            preconditioner=preconditioner,
            tolerance=_TRACE_TOLERANCE,
            max_iterations=_TRACE_MAX_ITERATIONS,
            stats=solve_stats,
        )
        unconverged += solve_stats["unconverged"]
        return sqrt_op.matvec(basis.apply(solved))

    estimate = hutchpp_trace(
        apply_inverse_quadratic,
        strategy_op.shape[0],
        samples=_TRACE_SAMPLES,
        rng=np.random.default_rng(_TRACE_SEED),
    )
    if rank_deficient and unconverged:
        raise SingularStrategyError(
            "CG stalled on a rank-deficient completed strategy: the workload "
            "row space is (numerically) not contained in the completed "
            "strategy row space, or the spectrum is too ill-conditioned for "
            f"{_TRACE_MAX_ITERATIONS} CG iterations"
        )
    strategy_op.remember_trace(workload_op.factors, estimate)
    return estimate


def _structured_trace_or_none(
    workload_source, strategy_source, _memo: dict | None = None
) -> float | None:
    """The factorized trace when a structured match exists, else ``None``.

    ``_memo`` (keyed by workload-source identity, per top-level call) caches
    per-term outcomes so a mixed union — where the all-or-nothing check here
    returns ``None`` and :func:`_trace_core` then revisits every term — never
    evaluates an expensive structured trace (Woodbury prepare, stochastic CG
    solves) twice.

    Matches, in order of preference:

    * union workload Grams distribute over the trace (the trace is linear in
      ``W^T W``) — structured only when every term matches;
    * a Kronecker workload against a matching-eigenbasis strategy (the
      factorized eigen design) reduces to a ratio of spectra; a *completed*
      design adds a rank-``r`` diagonal correction served by the Woodbury
      identity (or its CG + Hutch++ stochastic fallback for large ``r``);
    * Kronecker against Kronecker with matching factor shapes reduces to a
      product of per-factor dense traces (``(⊗H)^+ = ⊗H^+``).
    """
    if _memo is not None and id(workload_source) in _memo:
        return _memo[id(workload_source)]
    result = _structured_trace_uncached(workload_source, strategy_source, _memo)
    if _memo is not None:
        _memo[id(workload_source)] = result
    return result


def _structured_trace_uncached(
    workload_source, strategy_source, _memo: dict | None
) -> float | None:
    if isinstance(workload_source, SumOperator):
        parts = [
            _structured_trace_or_none(term, strategy_source, _memo)
            for term in workload_source.terms
        ]
        if all(part is not None for part in parts):
            return float(sum(parts))
        return None
    if isinstance(workload_source, KroneckerOperator):
        if isinstance(strategy_source, EigenDiagOperator):
            if _kron_factors_match(workload_source, strategy_source.basis.vector_factors):
                if strategy_source.has_diag:
                    return _completed_trace(workload_source, strategy_source)
                return _eigen_diag_trace(workload_source, strategy_source)
        if isinstance(strategy_source, KroneckerOperator):
            if _kron_factors_match(workload_source, strategy_source.factors):
                result = 1.0
                for w_factor, s_factor in zip(workload_source.factors, strategy_source.factors):
                    result *= trace_ratio(w_factor, s_factor)
                return result
    return None


def _trace_core(
    workload_source,
    strategy_source,
    _dense_cache: dict | None = None,
    _memo: dict | None = None,
) -> float:
    """``trace(W^T W (A^T A)^{-1})`` dispatched over dense / structured sources.

    Structured matches (see :func:`_structured_trace_or_none`) are used when
    available; anything else densifies within the materialization cap and
    falls back to the dense computation (the densified strategy is cached
    across the terms of a union so it is built at most once, and structured
    per-term traces already computed by an earlier all-or-nothing union probe
    are reused through ``_memo``).
    """
    if _dense_cache is None:
        _dense_cache = {}
    if isinstance(workload_source, SumOperator):
        return sum(
            _trace_core(term, strategy_source, _dense_cache, _memo)
            for term in workload_source.terms
        )
    structured = _structured_trace_or_none(workload_source, strategy_source, _memo)
    if structured is not None:
        return structured
    try:
        workload_dense = gram_to_dense(workload_source)
        if "strategy" not in _dense_cache:
            _dense_cache["strategy"] = gram_to_dense(strategy_source)
        strategy_dense = _dense_cache["strategy"]
    except MaterializationError as error:
        hint = ""
        if isinstance(strategy_source, EigenDiagOperator) and strategy_source.has_diag:
            hint = (
                "; completed designs normally stay factorized at every size "
                "(exact Woodbury for small completion ranks, preconditioned-CG "
                "+ Hutch++ beyond, rank-deficient spectra included) — reaching "
                "this dense fallback means the *workload* side has no "
                "structured match.  See docs/architecture.md for the dispatch "
                "flowchart"
            )
        raise MaterializationError(
            f"the error trace has no structured factorization for these "
            f"operands and the dense fallback exceeds the budget ({error}){hint}"
        ) from error
    return trace_ratio(workload_dense, strategy_dense)


def workload_strategy_trace(workload: Workload, strategy: Strategy) -> float:
    """``trace(W^T W (A^T A)^{-1})`` with the structured factorizations applied.

    The shared entry point for every error formula built on Prop. 4's trace
    term (Gaussian and Laplace alike): Kronecker, eigenbasis and union
    structure is exploited when present, with a budget-gated dense fallback.
    Operators are tried first even below the densification budget — a
    matching factorization beats the ``O(n^3)`` dense solve at any size.

    The dense fallback prices against the strategy's cached Gram root
    :attr:`~repro.core.strategy.Strategy.normal_factor`, the same root the
    matrix mechanism later releases through, whatever the strategy's rank.
    """
    memo: dict = {}
    workload_op = workload.gram_operator
    strategy_op = strategy.gram_operator
    if workload_op is not None and strategy_op is not None:
        structured = _structured_trace_or_none(workload_op, strategy_op, memo)
        if structured is not None:
            return structured
    cells = strategy.column_count
    if within_materialization_budget(cells, cells):
        return _factor_trace(workload, strategy.normal_factor)
    return _trace_core(workload.gram_source(), strategy.gram_source(), _memo=memo)


def _factor_trace(workload: Workload, root: GramRoot) -> float:
    """``trace(W^T W (R^T R)^+)`` from the strategy Gram's root ``R``.

    With explicit rows and ``m <= n`` this is ``||R^{+T} W^T||_F^2``, one
    ``n x m`` triangular solve at full rank; otherwise one solve against
    ``W^T W``.  Neither factors anything.  A rank-deficient root must first
    contain the workload's row space.
    """
    if root.rank < workload.column_count and not root.supports(
        workload.gram, _SUPPORT_TOLERANCE
    ):
        raise SingularStrategyError(
            "strategy does not support the workload: the workload row space "
            "is not contained in the strategy row space"
        )
    if workload.has_matrix and workload.query_count <= workload.column_count:
        # W^T is a view of the workload's own rows, so it is never overwritten.
        solved = root.inverse_transpose(workload.matrix.T)
        return float(np.einsum("ij,ij->", solved, solved))
    return float(np.trace(root.solve(workload.gram)))


def expected_total_squared_error(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams = DEFAULT_PRIVACY,
) -> float:
    """Total expected squared error over all workload queries.

    ``P(eps, delta) * ||A||_2^2 * trace(W^T W (A^T A)^{-1})`` — the inner
    expression of Prop. 4 before the per-query averaging of Def. 5.  When the
    workload and strategy carry matching structure (Kronecker products, the
    factorized eigen design, unions of either) the trace factorizes and the
    dense ``n x n`` matrices are never formed.
    """
    core = workload_strategy_trace(workload, strategy)
    return privacy.variance_factor * strategy.sensitivity_l2**2 * core


def expected_workload_error(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams = DEFAULT_PRIVACY,
) -> float:
    """Expected root-mean-square error of answering ``workload`` with ``strategy``.

    This is Def. 5 combined with Prop. 4:
    ``||A||_2 * sqrt(P(eps, delta)/m * trace(W^T W (A^T A)^{-1}))``.
    """
    total = expected_total_squared_error(workload, strategy, privacy)
    return float(np.sqrt(total / workload.query_count))


def _strategy_gram_solver(strategy: Strategy):
    """A reusable ``B -> diag(B^T (A^T A)^+ B)`` action for per-query variances.

    Structured strategies (Kronecker products, factorized eigen designs,
    completed designs via the Woodbury machinery) serve the solve through the
    shared inverse-apply protocol; everything else takes one triangular solve
    against the strategy's cached Gram root, since ``w G^+ w^T`` is
    ``||R^{+T} w^T||^2``.
    """
    operator = strategy.gram_operator
    if operator is not None and hasattr(operator, "inverse_apply"):
        solve = operator.inverse_apply
        return lambda block: np.sum(block * solve(block), axis=0)
    root = strategy.normal_factor
    return lambda block: np.sum(root.inverse_transpose(block) ** 2, axis=0)


def per_query_error(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams = DEFAULT_PRIVACY,
    *,
    block_size: int | None = None,
) -> np.ndarray:
    """Expected root-mean-square error of each individual workload query.

    The variance of query ``w`` is ``sigma^2 * w (A^T A)^{-1} w^T`` where
    ``sigma`` is the Gaussian scale for the strategy's sensitivity.  Queries
    are processed in row blocks — explicit matrices are sliced, factored row
    operators (large Kronecker workloads, stacked unions) materialise one
    block at a time — so neither an ``m x n`` solve temporary nor the
    workload's full query matrix is ever allocated.  ``block_size`` defaults
    to the largest block within the materialization budget.  For singular
    strategies every solver path applies pseudo-inverse semantics (query mass
    outside the strategy row space contributes zero variance), matching the
    dense oracle; use :func:`expected_workload_error` when an unsupported
    workload should raise instead.
    """
    rows = workload.row_source()
    if rows is None:
        rows = workload.matrix  # raises MaterializationError with context
    total, cells = rows.shape
    # Raises PrivacyError for delta == 0 before any solve is paid for.
    scale = privacy.gaussian_scale(strategy.sensitivity_l2)
    solver = _strategy_gram_solver(strategy)
    if block_size is None:
        block_size = int(max(1, min(total, MATERIALIZATION_LIMIT // max(cells, 1))))
    variances = np.empty(total)
    for start in range(0, total, block_size):
        stop = min(start + block_size, total)
        if isinstance(rows, np.ndarray):
            block = rows[start:stop]
        else:
            block = rows.row_block(start, stop)
        variances[start:stop] = solver(block.T)
    return scale * np.sqrt(np.clip(variances, 0.0, None))


def singular_value_bound(workload: Workload) -> float:
    """The singular value bound ``svdb(W) = (1/n) (sum_i sqrt(sigma_i))^2`` (Thm. 2)."""
    eigenvalues = np.clip(workload.eigenvalues, 0.0, None)
    return float(np.sum(np.sqrt(eigenvalues)) ** 2 / workload.column_count)


def minimum_error_bound(
    workload: Workload,
    privacy: PrivacyParams = DEFAULT_PRIVACY,
) -> float:
    """Lower bound on the RMSE achievable by *any* strategy (Thm. 2).

    Scaled with the same ``1/m`` normalisation as
    :func:`expected_workload_error` so ratios against it are meaningful.
    """
    bound = privacy.variance_factor * singular_value_bound(workload)
    return float(np.sqrt(bound / workload.query_count))


def approximation_ratio(
    workload: Workload,
    strategy: Strategy,
    privacy: PrivacyParams = DEFAULT_PRIVACY,
) -> float:
    """Measured error divided by the singular-value lower bound (>= 1 ideally).

    Because the lower bound of Thm. 2 is not always achievable, a ratio close
    to 1 certifies near-optimality but a larger ratio does not prove
    sub-optimality.
    """
    bound = minimum_error_bound(workload, privacy)
    if bound == 0:
        return float("inf")
    return expected_workload_error(workload, strategy, privacy) / bound


def approximation_ratio_bound(workload: Workload) -> float:
    """The worst-case approximation ratio of the eigen design (Thm. 3).

    ``(n * sigma_1 / svdb(W)) ** (1/4)`` where ``sigma_1`` is the largest
    eigenvalue of ``W^T W``.
    """
    svdb = singular_value_bound(workload)
    if svdb == 0:
        return float("inf")
    sigma_1 = float(workload.eigenvalues[0])
    return float((workload.column_count * sigma_1 / svdb) ** 0.25)
