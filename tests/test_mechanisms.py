"""Tests for the Gaussian, Laplace and matrix mechanisms and the accountant."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    GaussianMechanism,
    LaplaceMechanism,
    MatrixMechanism,
    PrivacyParams,
    Strategy,
    Workload,
)
from repro.exceptions import SingularStrategyError
from repro.mechanisms import (
    BudgetExceededError,
    PrivacyAccountant,
    nonnegative_least_squares_estimate,
)
from repro.strategies import identity_strategy, wavelet_strategy
from repro.workloads import all_range_queries_1d


class TestGaussianMechanism:
    def test_noise_scale_matches_prop2(self, privacy, fig1_workload):
        mechanism = GaussianMechanism(privacy)
        expected = privacy.gaussian_scale(np.sqrt(5.0))
        assert mechanism.noise_scale(fig1_workload) == pytest.approx(expected)

    def test_requires_delta(self):
        with pytest.raises(ValueError):
            GaussianMechanism(PrivacyParams(0.5, 0.0))

    def test_answers_are_unbiased(self, privacy, rng):
        workload = Workload.identity(4)
        data = np.array([10.0, 20.0, 30.0, 40.0])
        mechanism = GaussianMechanism(privacy)
        answers = np.mean(
            [mechanism.answer(workload, data, random_state=rng) for _ in range(2000)], axis=0
        )
        np.testing.assert_allclose(answers, data, atol=1.5)

    def test_empirical_noise_scale(self, privacy, rng):
        workload = Workload.total(8)
        data = np.zeros(8)
        mechanism = GaussianMechanism(privacy)
        samples = np.array(
            [mechanism.answer(workload, data, random_state=rng)[0] for _ in range(4000)]
        )
        assert samples.std() == pytest.approx(mechanism.noise_scale(workload), rel=0.1)

    def test_raw_matrix_input(self, privacy, rng):
        answers = GaussianMechanism(privacy).answer(np.eye(3), np.ones(3), random_state=rng)
        assert answers.shape == (3,)

    def test_data_length_validated(self, privacy):
        with pytest.raises(ValueError):
            GaussianMechanism(privacy).answer(np.eye(3), np.ones(4))


class TestLaplaceMechanism:
    def test_noise_scale_is_l1_sensitivity_over_epsilon(self, fig1_workload):
        mechanism = LaplaceMechanism(0.5)
        expected = fig1_workload.sensitivity_l1 / 0.5
        assert mechanism.noise_scale(fig1_workload) == pytest.approx(expected)

    def test_accepts_privacy_params(self, privacy):
        assert LaplaceMechanism(privacy).epsilon == privacy.epsilon

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(0.0)

    def test_empirical_scale(self, rng):
        mechanism = LaplaceMechanism(1.0)
        samples = np.array(
            [mechanism.answer(np.eye(1), np.zeros(1), random_state=rng)[0] for _ in range(4000)]
        )
        # Variance of Laplace(b) is 2 b^2 with b = 1 here.
        assert samples.var() == pytest.approx(2.0, rel=0.15)


def _least_squares(matrix, answers):
    """The estimate the matrix mechanism infers from the answers ``A x + noise``
    of a Laplace release: ``(A^T A)^+ A^T y`` through the strategy's Gram root."""
    return Strategy(matrix).normal_factor.solve(matrix.T @ answers)


class TestInference:
    def test_least_squares_exact_without_noise(self, rng):
        strategy = wavelet_strategy(8).matrix
        data = rng.integers(0, 50, 8).astype(float)
        estimate = _least_squares(strategy, strategy @ data)
        np.testing.assert_allclose(estimate, data, atol=1e-8)

    def test_least_squares_rank_deficient(self):
        matrix = np.array([[1.0, 1.0]])
        estimate = _least_squares(matrix, np.array([4.0]))
        # Minimum-norm solution splits the total evenly.
        np.testing.assert_allclose(estimate, [2.0, 2.0])

    def test_least_squares_zero_strategy_rejected(self):
        from repro.exceptions import StrategyError

        mechanism = MatrixMechanism(Strategy(np.zeros((2, 2))), PrivacyParams(1.0, 0.0))
        with pytest.raises(StrategyError):
            mechanism.run(Workload.identity(2), np.zeros(2), random_state=0)

    def test_nonnegative_estimate(self):
        matrix = np.eye(3)
        estimate = nonnegative_least_squares_estimate(matrix, np.array([5.0, -3.0, 2.0]))
        assert np.all(estimate >= 0)
        np.testing.assert_allclose(estimate, [5.0, 0.0, 2.0])


class TestMatrixMechanism:
    def test_unbiased_answers(self, privacy, rng, fig1_workload):
        data = np.array([30.0, 40.0, 10.0, 5.0, 25.0, 35.0, 15.0, 10.0])
        mechanism = MatrixMechanism(wavelet_strategy(8), privacy)
        answers = np.mean(
            [mechanism.answer(fig1_workload, data, random_state=rng) for _ in range(1500)], axis=0
        )
        np.testing.assert_allclose(answers, fig1_workload.answer(data), atol=4.0)

    def test_answers_are_consistent(self, privacy, rng, fig1_workload):
        # q1 = q2 + q3 and q4 = q1 - q5 must hold exactly in every run because
        # all answers derive from a single estimate.
        mechanism = MatrixMechanism(identity_strategy(8), privacy)
        result = mechanism.run(fig1_workload, np.ones(8), random_state=rng)
        q = result.answers
        assert q[0] == pytest.approx(q[1] + q[2])
        assert q[3] == pytest.approx(q[0] - q[4])

    def test_estimate_has_domain_size(self, privacy, rng, fig1_workload):
        mechanism = MatrixMechanism(wavelet_strategy(8), privacy)
        result = mechanism.run(fig1_workload, np.ones(8), random_state=rng)
        assert result.estimate.shape == (8,)
        assert result.noise_scale > 0

    def test_rejects_unsupporting_strategy(self, privacy):
        strategy = Strategy(np.array([[1.0, 0.0]]))
        workload = Workload(np.array([[0.0, 1.0]]))
        with pytest.raises(SingularStrategyError):
            MatrixMechanism(strategy, privacy).run(workload, np.zeros(2))

    def test_rejects_cell_count_mismatch(self, privacy, fig1_workload):
        with pytest.raises(SingularStrategyError):
            MatrixMechanism(identity_strategy(4), privacy).run(fig1_workload, np.zeros(4))

    def test_expected_error_accessor(self, privacy, fig1_workload):
        from repro import expected_workload_error

        mechanism = MatrixMechanism(wavelet_strategy(8), privacy)
        assert mechanism.expected_error(fig1_workload) == pytest.approx(
            expected_workload_error(fig1_workload, wavelet_strategy(8), privacy)
        )

    def test_empirical_error_matches_prop4(self, privacy, rng):
        workload = all_range_queries_1d(16)
        strategy = wavelet_strategy(16)
        mechanism = MatrixMechanism(strategy, privacy)
        data = rng.integers(0, 100, 16).astype(float)
        true = workload.answer(data)
        squared = [
            np.mean((mechanism.answer(workload, data, random_state=rng) - true) ** 2)
            for _ in range(400)
        ]
        empirical = np.sqrt(np.mean(squared))
        assert empirical == pytest.approx(mechanism.expected_error(workload), rel=0.1)

    def test_support_memo_does_not_outlive_its_workloads(self, privacy, rng):
        mechanism = MatrixMechanism(identity_strategy(8), privacy)
        for _ in range(50):
            mechanism.run(all_range_queries_1d(8), np.ones(8), random_state=rng)
        gc.collect()
        assert len(mechanism._supported_workloads) == 0

    def test_nonnegative_option(self, privacy, rng):
        workload = Workload.identity(6)
        mechanism = MatrixMechanism(identity_strategy(6), privacy, nonnegative=True)
        result = mechanism.run(workload, np.zeros(6), random_state=rng)
        assert np.all(result.estimate >= 0)


class TestMatrixMechanismPlanConstants:
    """Strategy validation and noise calibration happen on the first run only."""

    def test_later_runs_skip_validation_and_calibration(self, privacy, rng, fig1_workload, monkeypatch):
        import repro.mechanisms.gaussian as gaussian_module
        import repro.mechanisms.matrix_mechanism as matrix_module

        mechanism = MatrixMechanism(wavelet_strategy(8), privacy)
        mechanism.run(fig1_workload, np.ones(8), random_state=rng)
        calls = {"noise_scale": 0, "check_matrix": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            GaussianMechanism, "noise_scale", counted("noise_scale", GaussianMechanism.noise_scale)
        )
        for module in (gaussian_module, matrix_module):
            monkeypatch.setattr(module, "check_matrix", counted("check_matrix", module.check_matrix))
        for _ in range(20):
            mechanism.run(fig1_workload, np.ones(8), random_state=rng)
        assert calls == {"noise_scale": 0, "check_matrix": 0}

    def test_non_finite_strategy_still_rejected_on_first_run(self, privacy, fig1_workload):
        strategy = wavelet_strategy(8)
        strategy.matrix[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            MatrixMechanism(strategy, privacy).run(fig1_workload, np.ones(8), random_state=0)

    def test_noise_scale_is_the_max_column_norm_calibration(self, privacy, rng, fig1_workload):
        strategy = wavelet_strategy(8)
        column_norms = [
            np.sqrt(sum(row[j] ** 2 for row in strategy.matrix.tolist())) for j in range(8)
        ]
        expected = privacy.gaussian_scale(max(column_norms))
        mechanism = MatrixMechanism(strategy, privacy)
        for _ in range(2):
            result = mechanism.run(fig1_workload, np.ones(8), random_state=rng)
            assert result.noise_scale == pytest.approx(expected, rel=1e-12)

    def test_reused_mechanism_matches_fresh_one_bit_for_bit(self, privacy, fig1_workload):
        data = np.array([30.0, 40.0, 10.0, 5.0, 25.0, 35.0, 15.0, 10.0])
        reused = MatrixMechanism(wavelet_strategy(8), privacy)
        reused.run(fig1_workload, data, random_state=1)
        for seed in range(3):
            fresh = MatrixMechanism(wavelet_strategy(8), privacy).run(
                fig1_workload, data, random_state=seed
            )
            again = reused.run(fig1_workload, data, random_state=seed)
            np.testing.assert_array_equal(again.answers, fresh.answers)
            np.testing.assert_array_equal(again.estimate, fresh.estimate)
            assert again.noise_scale == fresh.noise_scale

    def test_warm_full_rank_gaussian_run_never_reads_the_strategy(
        self, privacy, rng, fig1_workload, monkeypatch
    ):
        import scipy.linalg

        strategy = wavelet_strategy(8)
        mechanism = MatrixMechanism(strategy, privacy)
        mechanism.run(fig1_workload, np.ones(8), random_state=rng)
        reads = []
        matrix = Strategy.matrix

        def counted(self):
            reads.append("matrix")
            return matrix.fget(self)

        def refused(*args, **kwargs):
            raise AssertionError("the factor release must not call cho_solve")

        monkeypatch.setattr(Strategy, "matrix", property(counted))
        monkeypatch.setattr(scipy.linalg, "cho_solve", refused)
        for seed in range(5):
            result = mechanism.run(fig1_workload, np.ones(8), random_state=seed)
            assert result.estimate.shape == (8,)
        assert reads == []

    def test_rank_deficient_strategy_root_release(self, privacy, rng, monkeypatch):
        strategy = Strategy(np.kron(np.eye(2), np.ones((1, 4))))
        workload = Workload(np.array([[1.0, 1, 1, 1, 1, 1, 1, 1]]))
        mechanism = MatrixMechanism(strategy, privacy)
        mechanism.run(workload, np.arange(8.0), random_state=rng)
        reads = []
        matrix = Strategy.matrix

        def counted(self):
            reads.append("matrix")
            return matrix.fget(self)

        def refused(*args, **kwargs):
            raise AssertionError("the root release must not call lstsq")

        monkeypatch.setattr(Strategy, "matrix", property(counted))
        monkeypatch.setattr(np.linalg, "lstsq", refused)
        for _ in range(3):
            result = mechanism.run(workload, np.arange(8.0), random_state=rng)
        assert reads == []
        # A rank-2 root: two noisy block totals, spread evenly over each block.
        assert strategy.normal_factor.factor.shape == (2, 8)
        assert np.ptp(result.estimate[:4]) < 1e-9 and np.ptp(result.estimate[4:]) < 1e-9
        # The L2 sensitivity is read off the root, whose column norms are
        # A's: every one is 1.
        assert result.noise_scale == pytest.approx(privacy.gaussian_scale(1.0), rel=1e-12)

    @pytest.mark.parametrize("privacy", [PrivacyParams(0.5, 1e-4), PrivacyParams(0.5, 0.0)])
    def test_pickle_round_trip_is_bit_identical_in_both_regimes(self, privacy, fig1_workload):
        import pickle

        data = np.array([30.0, 40.0, 10.0, 5.0, 25.0, 35.0, 15.0, 10.0])
        mechanism = MatrixMechanism(wavelet_strategy(8), privacy)
        mechanism.run(fig1_workload, data, random_state=0)
        payload = pickle.dumps(mechanism)
        # The per-process caches (factor, column norm, support memo) stay behind.
        assert len(payload) == len(pickle.dumps(MatrixMechanism(mechanism.strategy, privacy)))
        restored = pickle.loads(payload)
        for seed in range(3):
            expected = mechanism.run(fig1_workload, data, random_state=seed)
            again = restored.run(fig1_workload, data, random_state=seed)
            np.testing.assert_array_equal(again.answers, expected.answers)
            np.testing.assert_array_equal(again.estimate, expected.estimate)
            assert again.noise_scale == expected.noise_scale


class TestAccountant:
    def test_spend_within_budget(self):
        accountant = PrivacyAccountant(PrivacyParams(1.0, 1e-4))
        accountant.spend(PrivacyParams(0.4, 5e-5), label="first")
        accountant.spend(PrivacyParams(0.6, 5e-5), label="second")
        assert accountant.remaining is None
        assert len(accountant.history) == 2

    def test_overspend_rejected(self):
        accountant = PrivacyAccountant(PrivacyParams(0.5, 1e-4))
        with pytest.raises(BudgetExceededError):
            accountant.spend(PrivacyParams(0.6, 1e-5))

    def test_remaining_budget(self):
        accountant = PrivacyAccountant(PrivacyParams(1.0, 1e-4))
        accountant.spend(PrivacyParams(0.25, 2e-5))
        remaining = accountant.remaining
        assert remaining.epsilon == pytest.approx(0.75)
        assert remaining.delta == pytest.approx(8e-5)

    def test_can_spend_is_side_effect_free(self):
        accountant = PrivacyAccountant(PrivacyParams(1.0, 1e-4))
        assert accountant.can_spend(PrivacyParams(0.9, 1e-5))
        assert accountant.spent_epsilon == 0.0

    def test_delta_exhaustion_counts(self):
        # Delta overspent (e.g. state restored from elsewhere) with epsilon
        # to spare: the budget is exhausted, not "usable at delta 0".
        accountant = PrivacyAccountant(
            PrivacyParams(1.0, 1e-4), spent_epsilon=0.1, spent_delta=2e-4
        )
        assert accountant.remaining is None
        assert not accountant.can_spend(PrivacyParams(0.1, 1e-5))
        assert not accountant.can_spend(PrivacyParams(0.1, 0.0))

    def test_delta_fully_spent_but_not_overspent_allows_pure_requests(self):
        accountant = PrivacyAccountant(PrivacyParams(1.0, 1e-4))
        accountant.spend(PrivacyParams(0.5, 1e-4))
        remaining = accountant.remaining
        assert remaining is not None
        assert remaining.delta == 0.0
        assert accountant.can_spend(PrivacyParams(0.5, 0.0))
        assert not accountant.can_spend(PrivacyParams(0.5, 1e-5))


class TestAccountantProperties:
    """Property test: spend / can_spend / remaining can never disagree."""

    @given(
        budget_epsilon=st.floats(0.1, 4.0),
        budget_delta=st.one_of(st.just(0.0), st.floats(1e-8, 1e-2)),
        requests=st.lists(
            st.tuples(
                st.floats(0.01, 2.0),
                st.one_of(st.just(0.0), st.floats(1e-10, 5e-3)),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_spend_can_spend_remaining_consistency(
        self, budget_epsilon, budget_delta, requests
    ):
        accountant = PrivacyAccountant(PrivacyParams(budget_epsilon, budget_delta))
        total_epsilon = 0.0
        total_delta = 0.0
        for epsilon, delta in requests:
            request = PrivacyParams(epsilon, delta)
            before = (
                accountant.spent_epsilon,
                accountant.spent_delta,
                len(accountant.history),
            )
            if accountant.can_spend(request):
                accountant.spend(request)
                total_epsilon += epsilon
                total_delta += delta
                assert len(accountant.history) == before[2] + 1
            else:
                # A refused spend raises and leaves the state untouched.
                with pytest.raises(BudgetExceededError):
                    accountant.spend(request)
                after = (
                    accountant.spent_epsilon,
                    accountant.spent_delta,
                    len(accountant.history),
                )
                assert after == before
            # Spent totals track exactly what was granted.
            assert accountant.spent_epsilon == pytest.approx(total_epsilon)
            assert accountant.spent_delta == pytest.approx(total_delta)
            # Granted spending never exceeds the budget (within slack).
            assert accountant.spent_epsilon <= accountant.budget.epsilon + 1e-12
            assert accountant.spent_delta <= accountant.budget.delta + 1e-15
            remaining = accountant.remaining
            if remaining is None:
                # Exhausted: nothing beyond the rounding slack is spendable.
                assert not accountant.can_spend(PrivacyParams(1e-6, 0.0))
            else:
                # Not exhausted: spending exactly the remainder is allowed.
                assert accountant.can_spend(remaining)
