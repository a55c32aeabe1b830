"""Tests for the matrix mechanism under pure epsilon-DP (Laplace, Sec. 3.5 variant)."""

import numpy as np
import pytest

from repro import PrivacyParams, Workload, eigen_design
from repro.exceptions import PrivacyError, SingularStrategyError
from repro.mechanisms import MatrixMechanism, expected_workload_error_l1
from repro.strategies import hierarchical_strategy, identity_strategy, wavelet_strategy
from repro.workloads import all_range_queries_1d, example_workload


class TestExpectedErrorL1:
    def test_identity_strategy_closed_form(self):
        """For the identity strategy the L1 error has a simple closed form."""
        workload = Workload.identity(16)
        error = expected_workload_error_l1(workload, identity_strategy(16), 1.0)
        # Each answer gets Laplace noise of scale 1/epsilon = 1, variance 2.
        assert error == pytest.approx(np.sqrt(2.0))

    def test_scales_inversely_with_epsilon(self):
        workload = example_workload()
        strategy = wavelet_strategy(8)
        error_1 = expected_workload_error_l1(workload, strategy, 1.0)
        error_2 = expected_workload_error_l1(workload, strategy, 2.0)
        assert error_1 == pytest.approx(2 * error_2)

    def test_accepts_privacy_params(self):
        workload = example_workload()
        strategy = wavelet_strategy(8)
        by_params = expected_workload_error_l1(workload, strategy, PrivacyParams(0.5, 1e-4))
        by_epsilon = expected_workload_error_l1(workload, strategy, 0.5)
        assert by_params == pytest.approx(by_epsilon)

    def test_low_sensitivity_strategy_beats_asking_the_workload(self):
        """The "don't ask for what you want" principle holds under L1 calibration too."""
        from repro.strategies import workload_strategy

        workload = all_range_queries_1d(64)
        direct_error = expected_workload_error_l1(workload, workload_strategy(workload), 1.0)
        identity_error = expected_workload_error_l1(workload, identity_strategy(64), 1.0)
        hierarchy_error = expected_workload_error_l1(workload, hierarchical_strategy(64), 1.0)
        assert identity_error < direct_error
        assert hierarchy_error < direct_error

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(PrivacyError):
            expected_workload_error_l1(example_workload(), identity_strategy(8), 0.0)


class TestLaplaceMatrixMechanism:
    """The matrix mechanism under pure epsilon privacy (``delta == 0``)."""

    def test_noise_scale_uses_l1_sensitivity(self):
        strategy = hierarchical_strategy(16)
        mechanism = MatrixMechanism(strategy, PrivacyParams(0.5, 0.0))
        result = mechanism.run(Workload.identity(16), np.zeros(16), random_state=0)
        assert result.noise_scale == pytest.approx(strategy.sensitivity_l1 / 0.5)

    def test_answers_are_consistent(self):
        """All answers derive from one estimate, so linear identities hold exactly."""
        workload = example_workload()
        mechanism = MatrixMechanism(wavelet_strategy(8), PrivacyParams(1.0, 0.0))
        data = np.arange(8.0) * 5
        result = mechanism.run(workload, data, random_state=0)
        # q1 (all students) = q2 (female) + q3 (male) in Fig. 1(b).
        assert result.answers[0] == pytest.approx(result.answers[1] + result.answers[2])

    def test_reproducible_with_seed(self):
        workload = example_workload()
        mechanism = MatrixMechanism(wavelet_strategy(8), PrivacyParams(1.0, 0.0))
        data = np.ones(8) * 10
        first = mechanism.answer(workload, data, random_state=3)
        second = mechanism.answer(workload, data, random_state=3)
        np.testing.assert_array_equal(first, second)

    def test_observed_error_matches_expectation(self):
        """Monte-Carlo RMSE agrees with the closed form within sampling tolerance."""
        workload = example_workload()
        strategy = wavelet_strategy(8)
        mechanism = MatrixMechanism(strategy, PrivacyParams(1.0, 0.0))
        data = np.full(8, 100.0)
        true_answers = workload.answer(data)
        rng = np.random.default_rng(0)
        squared = []
        for _ in range(300):
            noisy = mechanism.answer(workload, data, random_state=rng)
            squared.append(np.mean((noisy - true_answers) ** 2))
        observed = float(np.sqrt(np.mean(squared)))
        expected = mechanism.expected_error(workload)
        assert expected == pytest.approx(expected_workload_error_l1(workload, strategy, 1.0))
        assert observed == pytest.approx(expected, rel=0.15)

    def test_nonnegative_estimate(self):
        workload = example_workload()
        mechanism = MatrixMechanism(
            identity_strategy(8), PrivacyParams(0.5, 0.0), nonnegative=True
        )
        result = mechanism.run(workload, np.zeros(8), random_state=0)
        assert np.all(result.estimate >= 0)

    def test_rejects_mismatched_cells(self):
        mechanism = MatrixMechanism(identity_strategy(8), PrivacyParams(0.5, 0.0))
        with pytest.raises(SingularStrategyError):
            mechanism.run(Workload.identity(4), np.zeros(8))

    def test_rejects_unsupported_workload(self):
        # A strategy that only observes the first two cells cannot answer cell 3.
        strategy_matrix = np.zeros((2, 4))
        strategy_matrix[0, 0] = 1
        strategy_matrix[1, 1] = 1
        from repro import Strategy

        mechanism = MatrixMechanism(Strategy(strategy_matrix), PrivacyParams(0.5, 0.0))
        query = np.zeros((1, 4))
        query[0, 3] = 1.0
        with pytest.raises(SingularStrategyError):
            mechanism.run(Workload(query), np.zeros(4))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(PrivacyError):
            MatrixMechanism(identity_strategy(4), PrivacyParams(-1.0, 0.0))

    def test_support_checked_once_per_workload(self, monkeypatch):
        from repro import Strategy

        workload = example_workload()
        mechanism = MatrixMechanism(wavelet_strategy(8), PrivacyParams(0.5, 0.0))
        mechanism.run(workload, np.ones(8), random_state=0)
        calls = []
        original = Strategy.supports
        monkeypatch.setattr(
            Strategy, "supports", lambda self, gram: calls.append(1) or original(self, gram)
        )
        for seed in range(5):
            mechanism.run(workload, np.ones(8), random_state=seed)
        assert calls == []


class TestGaussianVsLaplaceRegimes:
    def test_gaussian_wins_for_large_workloads_at_matching_budgets(self):
        """The paper's Sec. 3.5 observation: L2 calibration scales better with workload size."""
        workload = all_range_queries_1d(64)
        strategy = eigen_design(workload).strategy
        privacy = PrivacyParams(0.5, 1e-4)
        gaussian_error = MatrixMechanism(strategy, privacy).expected_error(workload)
        laplace_error = expected_workload_error_l1(workload, strategy, privacy)
        # The eigen strategy is optimised for L2; under L1 calibration its
        # sensitivity (and hence error) is substantially larger.
        assert gaussian_error < laplace_error
