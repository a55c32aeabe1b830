"""E5 — Fig. 3(d): relative error on marginal workloads over the two datasets.

Average relative error of Fourier, DataCube and the Eigen design on 2-way
marginal and random marginal workloads, on the census-like and adult-like
datasets, for epsilon in {0.1, 0.5, 1, 2.5}: the registry's
``relative-marginal`` experiment.  Each row carries a Monte-Carlo mean over a
few seeded runs and the exact expectation under Gaussian noise; the gate
reads the exact one, so it does not move with the draws.
"""

from __future__ import annotations

import pytest

from repro.evaluation import format_table

from _util import emit, run


@pytest.mark.parametrize("dataset_name", ["census", "adult"])
@pytest.mark.parametrize("kind", ["2-way", "random"])
def test_fig3d_relative_error_marginals(benchmark, dataset_name, kind):
    record = run(benchmark, "relative-marginal", dataset=dataset_name, kind=kind)
    emit(
        f"fig3d_{dataset_name}_{kind}",
        format_table(
            record.rows,
            precision=4,
            title=f"E5 (Fig. 3d): relative error on {kind} marginals, {record.rows[0]['dataset']}",
        ),
    )
    # Paper shape: the eigen design is at least as accurate as the best of
    # Fourier / DataCube (improvements of 1.1x-2.7x are reported).
    for epsilon in record.parameters["epsilons"]:
        expected = {
            row["strategy"]: row["expected relative error"]
            for row in record.rows
            if row["epsilon"] == epsilon
        }
        assert expected["eigen-design"] <= min(expected["fourier"], expected["datacube"])
