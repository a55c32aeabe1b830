"""Tests for the error analysis module (Prop. 4, Def. 5, Thm. 2, Thm. 3)."""

import numpy as np
import pytest

from repro import (
    PrivacyParams,
    Strategy,
    Workload,
    approximation_ratio,
    approximation_ratio_bound,
    expected_workload_error,
    minimum_error_bound,
    per_query_error,
    singular_value_bound,
)
from repro.core.error import expected_total_squared_error
from repro.exceptions import PrivacyError, SingularStrategyError
from repro.strategies import identity_strategy, wavelet_strategy


class TestExpectedError:
    def test_identity_strategy_identity_workload(self, privacy):
        # Every query is a single cell with unit-sensitivity noise.
        workload = Workload.identity(16)
        error = expected_workload_error(workload, identity_strategy(16), privacy)
        assert error == pytest.approx(np.sqrt(privacy.variance_factor))

    def test_error_matches_monte_carlo(self, privacy, rng):
        # The analytical error of Prop. 4 equals the empirical RMSE.
        from repro.mechanisms import MatrixMechanism

        workload = Workload(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        strategy = Strategy.identity(3)
        mechanism = MatrixMechanism(strategy, privacy)
        data = np.array([5.0, 7.0, 2.0])
        true = workload.answer(data)
        squared = []
        for _ in range(3000):
            noisy = mechanism.answer(workload, data, random_state=rng)
            squared.append(np.mean((noisy - true) ** 2))
        empirical = np.sqrt(np.mean(squared))
        analytical = expected_workload_error(workload, strategy, privacy)
        assert empirical == pytest.approx(analytical, rel=0.05)

    def test_error_is_scale_invariant_in_strategy(self, fig1_workload, privacy):
        strategy = wavelet_strategy(8)
        scaled = Strategy(strategy.matrix * 7.3)
        assert expected_workload_error(fig1_workload, strategy, privacy) == pytest.approx(
            expected_workload_error(fig1_workload, scaled, privacy)
        )

    def test_error_scales_linearly_with_inverse_epsilon(self, fig1_workload):
        strategy = identity_strategy(8)
        low = expected_workload_error(fig1_workload, strategy, PrivacyParams(0.25, 1e-4))
        high = expected_workload_error(fig1_workload, strategy, PrivacyParams(1.0, 1e-4))
        assert low == pytest.approx(4 * high)

    def test_total_squared_error_relation(self, fig1_workload, privacy):
        strategy = identity_strategy(8)
        total = expected_total_squared_error(fig1_workload, strategy, privacy)
        rmse = expected_workload_error(fig1_workload, strategy, privacy)
        assert rmse == pytest.approx(np.sqrt(total / fig1_workload.query_count))

    def test_unsupporting_strategy_raises(self, privacy):
        workload = Workload(np.array([[0.0, 1.0]]))
        strategy = Strategy(np.array([[1.0, 0.0]]))
        with pytest.raises(SingularStrategyError):
            expected_workload_error(workload, strategy, privacy)

    def test_rank_deficient_strategy_supporting_workload(self, privacy):
        # Strategy observes the sum only; the workload asks for the sum only.
        # The strategy has unit sensitivity (each column norm is 1) and the
        # answer is passed through unchanged, so the error is sqrt(P).
        workload = Workload(np.array([[1.0, 1.0]]))
        strategy = Strategy(np.array([[1.0, 1.0]]))
        error = expected_workload_error(workload, strategy, privacy)
        assert error == pytest.approx(np.sqrt(privacy.variance_factor))


class TestPerQueryError:
    def test_identity_per_query_uniform(self, privacy):
        workload = Workload.identity(5)
        errors = per_query_error(workload, identity_strategy(5), privacy)
        np.testing.assert_allclose(errors, np.sqrt(privacy.variance_factor))

    def test_rms_of_per_query_matches_workload_error(self, fig1_workload, privacy):
        strategy = wavelet_strategy(8)
        per_query = per_query_error(fig1_workload, strategy, privacy)
        combined = np.sqrt(np.mean(per_query**2))
        assert combined == pytest.approx(
            expected_workload_error(fig1_workload, strategy, privacy)
        )

    def test_larger_queries_have_larger_error_under_identity(self, privacy):
        workload = Workload(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        errors = per_query_error(workload, identity_strategy(3), privacy)
        assert errors[1] > errors[0]

    def test_refuses_pure_epsilon_before_solving(self, fig1_workload, monkeypatch):
        import repro.core.error as error_module

        def refused(strategy):
            raise AssertionError("no block solve may run for delta == 0")

        monkeypatch.setattr(error_module, "_strategy_gram_solver", refused)
        with pytest.raises(PrivacyError):
            per_query_error(fig1_workload, wavelet_strategy(8), PrivacyParams(0.5, 0.0))


class TestBounds:
    def test_svdb_of_identity(self):
        assert singular_value_bound(Workload.identity(10)) == pytest.approx(10.0)

    def test_svdb_invariant_to_column_permutation(self, fig1_workload, rng):
        permutation = rng.permutation(8)
        permuted = fig1_workload.permute_columns(list(permutation))
        assert singular_value_bound(permuted) == pytest.approx(
            singular_value_bound(fig1_workload)
        )

    def test_minimum_error_bound_below_any_strategy(self, fig1_workload, privacy):
        bound = minimum_error_bound(fig1_workload, privacy)
        for strategy in (identity_strategy(8), wavelet_strategy(8)):
            assert bound <= expected_workload_error(fig1_workload, strategy, privacy) + 1e-9

    def test_identity_workload_bound_is_achieved_by_identity(self, privacy):
        workload = Workload.identity(12)
        bound = minimum_error_bound(workload, privacy)
        error = expected_workload_error(workload, identity_strategy(12), privacy)
        assert error == pytest.approx(bound)

    def test_approximation_ratio_at_least_one_for_bound_achievers(self, privacy):
        workload = Workload.identity(6)
        assert approximation_ratio(workload, identity_strategy(6), privacy) == pytest.approx(1.0)

    def test_theorem3_bound_at_least_one(self, fig1_workload, range_workload_32):
        assert approximation_ratio_bound(fig1_workload) >= 1.0
        assert approximation_ratio_bound(range_workload_32) >= 1.0
