"""Tests for the core Strategy abstraction."""

import numpy as np
import pytest

from repro import Strategy, Workload
from repro.exceptions import MaterializationError, StrategyError


class TestConstruction:
    def test_identity(self):
        strategy = Strategy.identity(4)
        assert strategy.query_count == 4
        assert strategy.sensitivity_l2 == pytest.approx(1.0)

    def test_needs_matrix_or_gram(self):
        with pytest.raises(StrategyError):
            Strategy(None)

    def test_from_gram(self):
        strategy = Strategy.from_gram(np.eye(3) * 4.0)
        assert strategy.sensitivity_l2 == pytest.approx(2.0)
        assert not strategy.has_matrix

    def test_implicit_matrix_access_raises(self):
        with pytest.raises(MaterializationError):
            _ = Strategy.from_gram(np.eye(3)).matrix

    def test_rejects_nonsquare_gram(self):
        with pytest.raises(StrategyError):
            Strategy.from_gram(np.ones((2, 3)))


class TestProperties:
    def test_gram_matches_matrix(self):
        matrix = np.array([[1.0, 1.0], [0.0, 2.0]])
        np.testing.assert_allclose(Strategy(matrix).gram, matrix.T @ matrix)

    def test_sensitivities(self):
        matrix = np.array([[1.0, -2.0], [2.0, 1.0]])
        strategy = Strategy(matrix)
        assert strategy.sensitivity_l2 == pytest.approx(np.sqrt(5.0))
        assert strategy.sensitivity_l1 == pytest.approx(3.0)

    def test_rank_and_full_rank(self):
        assert Strategy.identity(3).is_full_rank
        rank_deficient = Strategy(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert rank_deficient.rank == 1
        assert not rank_deficient.is_full_rank

    def test_kronecker_sensitivity_is_product(self):
        a = Strategy(np.array([[1.0, 1.0], [1.0, -1.0]]))
        b = Strategy.identity(3)
        product = Strategy.kronecker([a, b])
        assert product.sensitivity_l2 == pytest.approx(a.sensitivity_l2 * b.sensitivity_l2)

    def test_kronecker_gram(self):
        a = Strategy(np.array([[1.0, 2.0]]))
        b = Strategy.identity(2)
        product = Strategy.kronecker([a, b])
        np.testing.assert_allclose(product.gram, np.kron(a.gram, b.gram))

    def test_kronecker_implicit_when_factor_implicit(self):
        a = Strategy.from_gram(np.eye(2))
        b = Strategy.identity(2)
        assert not Strategy.kronecker([a, b]).has_matrix


class TestActions:
    def test_normalize_sensitivity(self):
        strategy = Strategy(np.array([[3.0, 0.0], [0.0, 4.0]]))
        normalized = strategy.normalize_sensitivity()
        assert normalized.sensitivity_l2 == pytest.approx(1.0)

    def test_normalize_zero_strategy_rejected(self):
        with pytest.raises(StrategyError):
            Strategy(np.zeros((2, 2))).normalize_sensitivity()

    def test_supports_full_rank(self):
        workload = Workload.identity(4)
        assert Strategy.identity(4).supports(workload.gram)

    def test_supports_detects_missing_subspace(self):
        # A strategy observing only the first cell cannot answer the second.
        strategy = Strategy(np.array([[1.0, 0.0]]))
        workload = Workload(np.array([[0.0, 1.0]]))
        assert not strategy.supports(workload.gram)

    def test_supports_rank_deficient_but_sufficient(self):
        # Strategy spans the same 1-D subspace the workload needs.
        strategy = Strategy(np.array([[1.0, 1.0]]))
        workload = Workload(np.array([[2.0, 2.0]]))
        assert strategy.supports(workload.gram)
