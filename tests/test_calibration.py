"""Calibration tier: the noise the engine releases is the noise it reports.

Seeded paid answers go through ``Server.ask``, on the request thread.  For
each plan the tier recomputes the strategy's calibration from its matrix
``A`` and checks three things.

* The realized noise scale equals ``params.gaussian_scale(max column L2
  norm of A)``, or ``params.laplace_scale(max column L1 norm of A)``.
* For fixed probes ``q`` in the strategy's row space, the Monte-Carlo
  variance of ``q · (x̂ − x)`` matches the exact value: ``σ² qᵀ A⁺ A⁺ᵀ q``
  for Gaussian noise (``σ² qᵀ (AᵀA)⁻¹ q`` at full rank), and
  ``2 b² qᵀ A⁺ A⁺ᵀ q`` for Laplace noise.
* The pooled workload RMSE matches the reported ``expected_error``.

These checks read only distributions, never released bits, so they hold for
any sound way of drawing the noise.  Every Monte-Carlo bound is five standard
errors, estimated from the sample's own moments; the draws are seeded, so the
tier is deterministic.
"""

import numpy as np
import pytest

from repro.core.privacy import PrivacyParams
from repro.core.workload import Workload
from repro.engine import Server
from repro.engine.session import Session
from repro.workloads import kway_marginals, permuted_workload, prefix_workload

pytestmark = pytest.mark.timeout(120)

CELLS = 32
DRAWS = 1000
BOUND = 5.0  # standard errors
DATA = np.arange(CELLS, dtype=float) * 3.0 + 5.0


# The one id keeps each case named after where its answers run.
@pytest.fixture(scope="module", params=["thread"])
def server():
    with Server(PrivacyParams(1e6, 0.5), workers=1, random_state=2024) as server:
        yield server


def _release(server, monkeypatch, workload, params, data=DATA):
    """``DRAWS`` seeded paid answers, with the noise scale each one reported."""
    scales = []
    record = Session._record

    def recorded(self, workload, labels, plan, result, *args, **kwargs):
        scales.append(result.noise_scale)
        return record(self, workload, labels, plan, result, *args, **kwargs)

    monkeypatch.setattr(Session, "_record", recorded)
    answers = [
        server.ask(
            "calibration", workload, epsilon=params.epsilon, delta=params.delta, data=data
        )
        for _ in range(DRAWS)
    ]
    plans = {id(answer.plan) for answer in answers}
    assert len(plans) == 1, "every draw must run the same plan"
    return answers, np.array(scales)


def _assert_close(samples, expected, what):
    """The sample mean of ``samples`` lies within BOUND standard errors of ``expected``."""
    error = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - expected) <= BOUND * error, (
        f"{what}: Monte-Carlo {samples.mean():.6g} vs exact {expected:.6g} "
        f"(standard error {error:.3g})"
    )


def _check(answers, scales, workload, params, probes, data=DATA):
    """Noise scale, probe variances and pooled RMSE of one plan's releases."""
    strategy = answers[0].plan.mechanism.strategy
    matrix = strategy.matrix
    if params.is_approximate:
        scale = params.gaussian_scale(np.sqrt(np.max(np.sum(matrix**2, axis=0))))
        variance = scale**2
    else:
        scale = params.laplace_scale(np.max(np.sum(np.abs(matrix), axis=0)))
        variance = 2.0 * scale**2
    np.testing.assert_allclose(scales, scale, rtol=1e-12, atol=0)

    pinv = np.linalg.pinv(matrix)
    errors = np.array([answer.estimate for answer in answers]) - data
    for index, probe in enumerate(probes):
        exact = variance * float(np.sum((pinv.T @ probe) ** 2))
        _assert_close((errors @ probe) ** 2, exact, f"variance of probe {index}")

    truth = workload.answer(data)
    squared = np.array([np.mean((answer.answers - truth) ** 2) for answer in answers])
    reported = {answer.expected_error for answer in answers}
    assert len(reported) == 1
    _assert_close(squared, reported.pop() ** 2, "workload mean squared error")


def _fixed_probes(cells):
    rng = np.random.default_rng(11)
    return [np.eye(cells)[0], np.ones(cells), np.linspace(-1.0, 1.0, cells), rng.normal(size=cells)]


def test_gaussian_full_rank_plan(server, monkeypatch):
    workload = prefix_workload(CELLS)
    params = PrivacyParams(1.0, 1e-6)
    answers, scales = _release(server, monkeypatch, workload, params)
    strategy = answers[0].plan.mechanism.strategy
    assert np.linalg.matrix_rank(strategy.matrix) == CELLS
    _check(answers, scales, workload, params, _fixed_probes(CELLS))


def test_gaussian_rank_deficient_plan(server, monkeypatch):
    # A one-way marginal is answered best by measuring itself: a rank-4
    # strategy over 32 cells, released through its spectral Gram root.
    workload = Workload(np.kron(np.eye(4), np.ones((1, CELLS // 4))), name="marginal")
    params = PrivacyParams(1.0, 1e-6)
    answers, scales = _release(server, monkeypatch, workload, params)
    matrix = answers[0].plan.mechanism.strategy.matrix
    assert np.linalg.matrix_rank(matrix) < CELLS
    probes = [matrix.T @ weights for weights in np.eye(matrix.shape[0])[:2]]
    probes.append(matrix.T @ np.random.default_rng(12).normal(size=matrix.shape[0]))
    _check(answers, scales, workload, params, probes)


def test_gaussian_singular_eigen_design_plan(server, monkeypatch):
    # The eigen design of this permuted 2-way marginal over [4, 4, 4, 6] is
    # numerically singular (rank 87 of 384 cells), although a bare Cholesky
    # of its Gram succeeds; it is released through its spectral Gram root.
    workload = permuted_workload(kway_marginals([4, 4, 4, 6], 2), random_state=1814323242)
    cells = workload.column_count
    data = np.random.default_rng(13).poisson(40.0, cells).astype(float)
    params = PrivacyParams(1.0, 1e-6)
    answers, scales = _release(server, monkeypatch, workload, params, data)
    strategy = answers[0].plan.mechanism.strategy
    assert strategy.name == "eigen-design"
    assert strategy.normal_factor.rank == 87
    # A itself has full rank: its completion rows carry singular values near
    # 1e-8 of the largest, which the root drops.  The workload's rows lie in
    # the row space the root keeps.
    rows = workload.matrix
    probes = [rows.T @ weights for weights in np.eye(rows.shape[0])[:2]]
    probes.append(rows.T @ np.random.default_rng(12).normal(size=rows.shape[0]))
    _check(answers, scales, workload, params, probes, data)


def test_laplace_plan(server, monkeypatch):
    workload = prefix_workload(CELLS)
    params = PrivacyParams(1.0, 0.0)
    answers, scales = _release(server, monkeypatch, workload, params)
    _check(answers, scales, workload, params, _fixed_probes(CELLS))
