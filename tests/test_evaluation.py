"""Tests for the evaluation harness: comparisons, relative error, tables."""

import numpy as np
import pytest

from repro import PrivacyParams, Strategy, Workload, eigen_design
from repro.datasets import uniform_dataset, zipf_dataset
from repro.evaluation import (
    StrategyComparison,
    compare_strategies,
    default_sanity_bound,
    expected_relative_error,
    format_comparison,
    format_table,
    relative_error,
)
from repro.exceptions import WorkloadError
from repro.mechanisms import MatrixMechanism
from repro.strategies import hierarchical_strategy, identity_strategy, wavelet_strategy
from repro.workloads import all_range_queries_1d, random_range_queries


@pytest.fixture(scope="module")
def comparison() -> StrategyComparison:
    workload = all_range_queries_1d(32)
    strategies = {
        "identity": identity_strategy(32),
        "wavelet": wavelet_strategy(32),
        "hierarchical": hierarchical_strategy(32),
        "eigen": eigen_design(workload).strategy,
    }
    return compare_strategies(workload, strategies)


class TestCompareStrategies:
    def test_contains_all_strategies(self, comparison):
        assert set(comparison.errors) == {"identity", "wavelet", "hierarchical", "eigen"}

    def test_lower_bound_below_all(self, comparison):
        assert all(error >= comparison.lower_bound - 1e-9 for error in comparison.errors.values())

    def test_eigen_wins(self, comparison):
        best, _ = comparison.best_competitor("eigen")
        assert comparison.errors["eigen"] <= comparison.errors[best]

    def test_improvement_factor(self, comparison):
        factor = comparison.improvement_over("identity", "eigen")
        assert factor > 1.0

    def test_ratio_to_bound(self, comparison):
        assert comparison.ratio_to_bound("eigen") >= 1.0 - 1e-9
        assert comparison.ratio_to_bound("eigen") < comparison.ratio_to_bound("identity")

    def test_worst_competitor(self, comparison):
        label, error = comparison.worst_competitor("eigen")
        assert error == max(v for k, v in comparison.errors.items() if k != "eigen")

    def test_summary_rows_sorted(self, comparison):
        rows = comparison.summary_rows()
        errors = [row["error"] for row in rows if row["strategy"] != "lower-bound"]
        assert errors == sorted(errors)

    def test_unsupporting_strategy_reported_as_inf(self):
        workload = Workload.identity(4)
        partial = Strategy(np.eye(4)[:2])
        result = compare_strategies(workload, {"partial": partial, "full": identity_strategy(4)})
        assert result.errors["partial"] == float("inf")
        assert np.isfinite(result.errors["full"])


class TestRelativeError:
    def test_basic_run(self, privacy, rng):
        dataset = zipf_dataset(shape=(64,), total=50_000, random_state=1)
        workload = all_range_queries_1d(64)
        result = relative_error(
            workload, wavelet_strategy(64), dataset, privacy, trials=3, random_state=rng
        )
        assert result.trials == 3
        assert result.per_trial.shape == (3,)
        assert result.mean_relative_error > 0

    def test_relative_error_decreases_with_epsilon(self, rng):
        dataset = zipf_dataset(shape=(32,), total=100_000, random_state=2)
        workload = all_range_queries_1d(32)
        strategy = wavelet_strategy(32)
        loose = relative_error(workload, strategy, dataset, PrivacyParams(0.1, 1e-4), trials=5, random_state=1)
        tight = relative_error(workload, strategy, dataset, PrivacyParams(2.5, 1e-4), trials=5, random_state=1)
        assert tight.mean_relative_error < loose.mean_relative_error

    def test_closed_form_matches_monte_carlo(self):
        # The exact expectation under Gaussian noise sits within a few
        # standard errors of a long Monte-Carlo run, for a fixed basis and
        # for the eigen design the relative-error figures use.
        dataset = uniform_dataset(shape=(32,), total=20_000, random_state=0)
        workload = random_range_queries([32], 64, random_state=3)
        privacy = PrivacyParams(0.5, 1e-4)
        trials = 200
        for strategy in (wavelet_strategy(32), eigen_design(workload.normalize_rows()).strategy):
            exact = expected_relative_error(workload, strategy, dataset, privacy)
            sampled = relative_error(
                workload, strategy, dataset, privacy, trials=trials, random_state=4
            )
            standard_error = sampled.per_trial.std(ddof=1) / np.sqrt(trials)
            assert abs(sampled.mean_relative_error - exact) <= 4 * standard_error

    def test_one_mechanism_serves_every_epsilon(self):
        dataset = zipf_dataset(shape=(32,), total=100_000, random_state=2)
        workload = all_range_queries_1d(32)
        strategy = wavelet_strategy(32)
        mechanism = MatrixMechanism(strategy)
        for epsilon in (0.1, 2.5):
            privacy = PrivacyParams(epsilon, 1e-4)
            direct = relative_error(workload, strategy, dataset, privacy, trials=2, random_state=1)
            shared = relative_error(workload, mechanism, dataset, privacy, trials=2, random_state=1)
            np.testing.assert_array_equal(shared.per_trial, direct.per_trial)

    def test_sanity_bound_default(self):
        dataset = uniform_dataset(shape=(16,), total=1_000_000, random_state=0)
        assert default_sanity_bound(dataset) == pytest.approx(1000.0)
        tiny = uniform_dataset(shape=(16,), total=10, random_state=0)
        assert default_sanity_bound(tiny) == 1.0

    def test_validates_inputs(self, privacy):
        dataset = uniform_dataset(shape=(16,), total=100, random_state=0)
        workload = all_range_queries_1d(32)
        with pytest.raises(WorkloadError):
            relative_error(workload, wavelet_strategy(32), dataset, privacy)
        with pytest.raises(WorkloadError):
            relative_error(all_range_queries_1d(16), wavelet_strategy(16), dataset, privacy, trials=0)


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 10.0, "b": "longer"}]
        text = format_table(rows, precision=2)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.23" in text and "longer" in text

    def test_format_table_handles_inf_and_nan(self):
        text = format_table([{"v": float("inf")}, {"v": float("nan")}])
        assert "inf" in text and "nan" in text

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_format_comparison(self, comparison):
        text = format_comparison(comparison)
        assert "lower-bound" in text
        assert "eigen" in text
