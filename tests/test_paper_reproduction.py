"""Integration tests tying the library to the paper's headline claims.

Each test runs an experiment of :mod:`repro.evaluation.registry`, the same
definition the CI-gated benches under ``benchmarks/`` print, at tiny shapes so
the suite stays fast.  It checks the *shape* of the paper's result: who wins,
by roughly what factor, and the ratio to the lower bound.
"""

import pytest

from repro.evaluation import run_experiment


def _by(record, key: str) -> dict:
    return {row[key]: row for row in record.rows}


@pytest.fixture(scope="module")
def example_errors():
    return {row["strategy"]: row["error"] for row in run_experiment("example").rows}


class TestExample4:
    """Fig. 2 / Example 4: identity vs wavelet vs adaptive strategy on the Fig. 1 workload.

    The paper reports errors 45.36 (identity), 34.62 (wavelet), 29.79
    (adaptive) and a lower bound of 29.18.  Our noise constant differs by a
    fixed factor (see DESIGN.md), so we check the ratios, which are
    constant-free.
    """

    def test_ordering_matches_paper(self, example_errors):
        errors = example_errors
        assert errors["eigen-design"] < errors["wavelet"] < errors["identity"]

    def test_identity_to_wavelet_ratio(self, example_errors):
        # Paper: 45.36 / 34.62 = 1.31
        ratio = example_errors["identity"] / example_errors["wavelet"]
        assert ratio == pytest.approx(1.31, abs=0.03)

    def test_wavelet_to_eigen_ratio(self, example_errors):
        # Paper: 34.62 / 29.79 = 1.16
        ratio = example_errors["wavelet"] / example_errors["eigen-design"]
        assert ratio == pytest.approx(1.16, abs=0.03)

    def test_eigen_close_to_bound(self, example_errors):
        # Paper: 29.79 / 29.18 = 1.02
        ratio = example_errors["eigen-design"] / example_errors["lower-bound"]
        assert ratio == pytest.approx(1.02, abs=0.02)


class TestFig3aRangeWorkloads:
    """Fig. 3(a): eigen design beats wavelet and hierarchical on range workloads."""

    @pytest.fixture(scope="class")
    def all_range(self):
        record = run_experiment("range-absolute", kind="all-range", shapes=[[64], [8, 8], [4, 4, 4]])
        return _by(record, "shape")

    @pytest.mark.parametrize("dims", [[64], [8, 8], [4, 4, 4]])
    def test_all_range_ordering(self, all_range, dims):
        row = all_range["x".join(map(str, dims))]
        assert row["eigen"] < min(row["wavelet"], row["hierarchical"])
        # Paper: improvement factor 1.2 - 2.1 over the best competitor and
        # within 1.3x of the lower bound.
        assert row["best/eigen"] > 1.1
        assert row["eigen/bound"] < 1.3

    def test_random_range_ordering(self):
        (row,) = run_experiment("range-absolute", kind="random-range", shapes=[[8, 8]]).rows
        assert row["eigen"] < min(row["wavelet"], row["hierarchical"])


class TestFig3cMarginalWorkloads:
    """Fig. 3(c): eigen design beats Fourier and DataCube on marginal workloads."""

    @pytest.fixture(scope="class")
    def two_way(self):
        return _by(run_experiment("marginal-absolute", shapes=[[4, 4, 4], [8, 8, 4]]), "shape")

    @pytest.mark.parametrize("dims", [[4, 4, 4], [8, 8, 4]])
    def test_two_way_marginals(self, two_way, dims):
        row = two_way["x".join(map(str, dims))]
        assert row["eigen"] <= min(row["fourier"], row["datacube"]) + 1e-9
        # Paper: the eigen design essentially achieves the lower bound here.
        assert row["eigen/bound"] < 1.05


class TestTable2AlternativeWorkloads:
    """Table 2: the eigen design adapts where fixed-basis competitors degrade."""

    @pytest.fixture(scope="class")
    def table(self):
        return _by(run_experiment("alternative-workloads", cells=64, marginal_shape=[8, 8, 4]), "workload")

    def test_permuted_range_workload(self, table):
        row = table["1D range (permuted)"]
        # Paper: large improvement (9.6x - 13.2x at n=2048) and ratio ~1 to bound.
        assert row["best/eigen"] > 2.0
        assert row["bound/eigen"] > 1 / 1.1

    def test_one_way_range_marginals(self, table):
        # The best of Fourier, DataCube, wavelet and hierarchical loses.
        assert table["1-way range marginal"]["best/eigen"] > 1.0

    def test_cdf_workload_close_to_competitors(self, table):
        # Table 2 reports only a marginal win on the CDF workload.
        assert table["1D CDF"]["best/eigen"] >= 1 / 1.05

    def test_predicate_workload(self, table):
        row = table["predicate"]
        assert row["best/eigen"] > 1.0
        assert row["bound/eigen"] > 1 / 1.1


class TestWorkloadAsStrategyIsSuboptimal:
    """The motivating observation: asking exactly what you want is not optimal."""

    def test_eigen_design_beats_workload_strategy(self, example_errors):
        assert example_errors["eigen-design"] < example_errors["workload-as-strategy"]
