"""Cold-plan pricing: closed-form baselines, one Gram root per strategy.

The planner prices the identity baseline as ``trace(W^T W)`` and the
workload-as-strategy baseline as ``sens(W)^2 * rank(W^T W)``, and prices a
design against the Gram root its matrix mechanism later releases through:
the Cholesky factor at full rank, the spectral root otherwise.  These tests
hold that pricing to a dense oracle of their own (a ``cho_solve``, or the
SVD pseudo-inverse of ``A``), count the factorizations a cold plan and its
paid answers make, and pin the numerically singular design that a bare
Cholesky used to pass as full rank.
"""

import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from repro.core.eigen_design import eigen_design
from repro.core.error import per_query_error
from repro.core.privacy import PrivacyParams
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.engine import Planner, Server
from repro.engine.planner import REFERENCE_PRIVACY, REFERENCE_PRIVACY_PURE, TIE_TOLERANCE
from repro.exceptions import SingularStrategyError, WorkloadError
from repro.mechanisms import MatrixMechanism
from repro.utils.linalg import SPECTRUM_CUTOFF, rank_checked_cholesky
from repro.workloads import (
    all_range_queries_1d,
    available_workloads,
    build_workload,
    kway_marginals,
    permuted_workload,
    prefix_workload,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import generate  # noqa: E402

#: The permuted 2-way marginal over [4, 4, 4, 6] that perfbench's cold-shapes
#: seed 3 draws first.  Its eigen design has rank 87 of 384 cells, yet a
#: plain Cholesky of its Gram succeeds with a smallest pivot^2 near 1e-15.
SINGULAR_DESIGN_SEED = 1814323242


def _singular_design_workload():
    return permuted_workload(kway_marginals([4, 4, 4, 6], 2), random_state=SINGULAR_DESIGN_SEED)


def _oracle_trace(workload, strategy):
    """``trace(W^T W (A^T A)^+)``: a ``cho_solve`` at full rank, else
    ``||W A^+||_F^2`` from the SVD pseudo-inverse of ``A``, with singular
    values below ``sqrt(SPECTRUM_CUTOFF)`` of the largest taken as zero (the
    eigenvalue cutoff of ``A^T A``)."""
    factor = rank_checked_cholesky(strategy.gram)
    if factor is not None:
        return float(np.trace(scipy.linalg.cho_solve((factor, False), workload.gram)))
    pinv = np.linalg.pinv(strategy.matrix, rtol=np.sqrt(SPECTRUM_CUTOFF))
    return float(np.sum((workload.matrix @ pinv) ** 2))


def _oracle_error(workload, strategy, params):
    """Prop. 4 / Sec. 3.5 priced densely: :func:`_oracle_trace` and the
    sensitivity read off the columns of ``A``."""
    matrix = strategy.matrix
    trace = _oracle_trace(workload, strategy)
    if params.is_approximate:
        sensitivity = np.sqrt(np.max(np.sum(matrix**2, axis=0)))
        variance = params.variance_factor
    else:
        sensitivity = np.max(np.sum(np.abs(matrix), axis=0))
        variance = 2.0 / params.epsilon**2
    return float(np.sqrt(variance * sensitivity**2 * trace / workload.query_count))


def _rows(strategy):
    return strategy.query_count if strategy.has_matrix else float("inf")


def _assert_priced_like_the_oracle(workload, params):
    reference = REFERENCE_PRIVACY if params.is_approximate else REFERENCE_PRIVACY_PURE
    planner = Planner(cache=None)
    plan = planner.plan(workload, params)
    mechanisms = [m for m, _, _ in planner._candidate_mechanisms(workload, params)]
    assert len(mechanisms) == len(plan.candidates)
    oracle = []
    for mechanism, candidate in zip(mechanisms, plan.candidates):
        if mechanism is None or not np.isfinite(candidate.expected_error):
            continue
        expected = _oracle_error(workload, mechanism.strategy, reference)
        assert candidate.expected_error == pytest.approx(expected, rel=1e-9, abs=0), (
            candidate.mechanism
        )
        oracle.append((expected, _rows(mechanism.strategy), candidate.mechanism))
    lowest = min(error for error, _, _ in oracle)
    tied = [entry for entry in oracle if entry[0] <= lowest * (1.0 + TIE_TOLERANCE)]
    argmin = min(tied, key=lambda entry: entry[1])[2]
    assert [c.mechanism for c in plan.candidates if c.chosen] == [argmin]


COLD_SHAPES = [
    spec for seed in (1, 2, 3) for spec in generate.cold_shapes(seed)[: len(generate.COLD_FAMILIES)]
]


@pytest.mark.parametrize(
    "spec", COLD_SHAPES, ids=[f"{s['family']}-{s['seed']}" for s in COLD_SHAPES]
)
def test_cold_shapes_pricing_matches_the_dense_oracle(spec):
    _assert_priced_like_the_oracle(generate.build_workload(spec), PrivacyParams(0.5, 1e-6))


@pytest.mark.parametrize(
    "spec", COLD_SHAPES[:5], ids=[s["family"] for s in COLD_SHAPES[:5]]
)
def test_design_gram_is_the_gram_of_its_rows(spec):
    strategy = eigen_design(generate.build_workload(spec)).strategy
    matrix = strategy.matrix
    gram = matrix.T @ matrix
    np.testing.assert_allclose(strategy.gram, gram, rtol=0, atol=1e-12 * np.abs(gram).max())
    np.testing.assert_array_equal(strategy.gram, strategy.gram.T)


def _registry_workloads():
    for name in available_workloads():
        for dims in ([32], [8, 8], [4, 4, 8]):
            try:
                workload = build_workload(name, dims, random_state=7)
            except WorkloadError:
                continue
            if workload.column_count <= 512:
                yield pytest.param(workload, id=f"{name}-{'x'.join(map(str, dims))}")


@pytest.mark.parametrize("workload", list(_registry_workloads()))
@pytest.mark.parametrize("params", [PrivacyParams(0.5, 1e-6), PrivacyParams(0.5, 0.0)])
def test_registry_pricing_matches_the_dense_oracle(workload, params):
    _assert_priced_like_the_oracle(workload, params)


# ------------------------------------------------------------- tie-break
def test_tie_goes_to_the_strategy_with_fewer_rows():
    # The one-way marginal prices its 4-row self and its eigen design within
    # a few ulps of each other; the 4-row workload must win every time.
    workload = Workload(np.kron(np.eye(4), np.ones((1, 8))), name="marginal")
    plan = Planner(cache=None).plan(workload, PrivacyParams(1.0, 1e-6))
    errors = {c.mechanism: c.expected_error for c in plan.candidates}
    design = errors["matrix-mechanism[eigen-design]"]
    itself = errors["matrix-mechanism[workload(marginal)]"]
    assert design == pytest.approx(itself, rel=TIE_TOLERANCE)
    assert plan.mechanism.strategy.query_count == 4
    assert plan.reference_error == itself


def test_a_clear_winner_is_chosen_whatever_its_rows():
    workload = prefix_workload(32)
    plan = Planner(cache=None).plan(workload, PrivacyParams(1.0, 1e-6))
    chosen = [c for c in plan.candidates if c.chosen]
    assert [c.mechanism for c in chosen] == ["matrix-mechanism[eigen-design]"]
    assert plan.mechanism.strategy.query_count > 32
    assert chosen[0].expected_error < min(
        c.expected_error for c in plan.candidates if not c.chosen
    ) * (1.0 - TIE_TOLERANCE)


# ------------------------------------------------------- singular designs
def test_numerically_singular_design_is_not_full_rank():
    workload = _singular_design_workload()
    strategy = eigen_design(workload).strategy
    assert strategy.rank == strategy.normal_factor.rank == 87 < workload.column_count
    assert strategy.normal_factor.factor.shape == (87, workload.column_count)
    assert rank_checked_cholesky(strategy.gram) is None
    assert not strategy.supports(np.eye(workload.column_count))
    assert strategy.supports(workload.gram)


def test_planner_chooses_the_singular_eigen_design():
    workload = _singular_design_workload()
    plan = Planner(cache=None).plan(workload, PrivacyParams(0.5, 1e-6))
    chosen = [c.mechanism for c in plan.candidates if c.chosen]
    assert chosen == ["matrix-mechanism[eigen-design]"]
    # Its pseudo-inverse price, not the inflated price of a near-singular solve.
    assert plan.reference_error == pytest.approx(8.9123, abs=1e-4)


def test_singular_design_releases_through_its_row_space():
    workload = _singular_design_workload()
    strategy = eigen_design(workload).strategy
    data = np.random.default_rng(0).poisson(40.0, workload.column_count).astype(float)
    mechanism = MatrixMechanism(strategy, PrivacyParams(0.5, 1e-6))
    result = mechanism.run(workload, data, random_state=0)
    assert strategy.normal_factor.rank < workload.column_count
    # A solve through a near-singular factor put ~1e9 into the estimate.
    assert np.abs(result.estimate).max() < 1e4
    with pytest.raises(SingularStrategyError):
        mechanism.run(Workload(np.eye(workload.column_count)[:1]), data, random_state=0)


def test_singular_design_per_query_error_matches_the_pseudo_inverse():
    workload = _singular_design_workload()
    strategy = eigen_design(workload).strategy
    params = PrivacyParams(0.5, 1e-6)
    matrix = workload.matrix
    pinv = np.linalg.pinv(strategy.matrix)
    variances = np.sum((matrix @ pinv) ** 2, axis=1)
    expected = params.gaussian_scale(strategy.sensitivity_l2) * np.sqrt(variances)
    np.testing.assert_allclose(per_query_error(workload, strategy, params), expected, rtol=1e-6)


# ------------------------------------------ one factorization per cold plan
def _count_linear_algebra(monkeypatch):
    calls = {"cholesky": [], "cho_factor": [], "cho_solve": [], "identity": []}

    def recorded(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return original(*args, **kwargs)

        return wrapper

    for name in ("cholesky", "cho_factor", "cho_solve"):
        monkeypatch.setattr(scipy.linalg, name, recorded(name, getattr(scipy.linalg, name)))
    identity = Strategy.identity.__func__

    def built_identity(cls, size, **kwargs):
        strategy = identity(cls, size, **kwargs)
        calls["identity"].append(strategy)
        return strategy

    monkeypatch.setattr(Strategy, "identity", classmethod(built_identity))
    return calls


@pytest.mark.parametrize(
    "workload",
    [prefix_workload(64), all_range_queries_1d(48)],
    ids=["prefix-64", "all-range-48"],
)
def test_cold_plan_and_first_answer_factor_the_chosen_strategy_once(workload, monkeypatch):
    calls = _count_linear_algebra(monkeypatch)
    cells = workload.column_count
    with Server(PrivacyParams(100.0, 0.5), workers=1, random_state=0) as server:
        answer = server.ask("t", workload, epsilon=0.5, delta=1e-6, data=np.arange(float(cells)))
    strategy = answer.plan.mechanism.strategy
    assert strategy.name == "eigen-design"
    # One factor for pricing and release, one inside the support check.
    assert len(calls["cholesky"]) == 2
    assert all(gram is strategy.gram for gram in calls["cholesky"])
    assert calls["cho_factor"] == []
    # Nothing solves against a factor of the workload's Gram.
    assert all(factor[0] is strategy.normal_factor.factor for factor in calls["cho_solve"])
    if workload.query_count <= cells:
        assert calls["cho_solve"] == []
    # The identity candidate is priced without an n x n Gram.
    assert len(calls["identity"]) == 1 and calls["identity"][0]._gram is None


def test_singular_design_sees_one_eigh_across_plan_answers_and_support(monkeypatch):
    workload = _singular_design_workload()
    cells = workload.column_count
    decompositions = []

    def recorded(original):
        def wrapper(matrix, *args, **kwargs):
            decompositions.append(matrix)
            return original(matrix, *args, **kwargs)

        return wrapper

    for module in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    rng = np.random.default_rng(0)
    with Server(PrivacyParams(100.0, 0.5), workers=1, random_state=0) as server:
        for _ in range(2):
            data = rng.poisson(40.0, cells).astype(float)
            answer = server.ask("t", workload, epsilon=0.5, delta=1e-6, data=data)
    strategy = answer.plan.mechanism.strategy
    assert strategy.name == "eigen-design"
    second = Workload(workload.matrix[:5] + workload.matrix[5:10])
    result = answer.plan.mechanism.run(second, data, PrivacyParams(0.5, 1e-6), random_state=0)
    assert np.abs(result.answers - second.answer(data)).max() < 1e4
    gram = strategy.gram
    on_gram = [m for m in decompositions if m.shape == gram.shape and np.array_equal(m, gram)]
    assert len(on_gram) == 1
    assert strategy.normal_factor.rank == 87


def test_pickling_drops_the_cached_factor():
    strategy = eigen_design(prefix_workload(32)).strategy
    before = len(pickle.dumps(strategy))
    root = strategy.normal_factor
    assert root.values is None
    payload = pickle.dumps(strategy)
    assert len(payload) == before
    restored = pickle.loads(payload)
    assert restored._normal_factor is None
    np.testing.assert_array_equal(restored.normal_factor.factor, root.factor)
