"""E1 — Example 4 / Fig. 2: strategies for the paper's running example workload.

The paper reports RMSE 47.78 (workload as strategy), 45.36 (identity), 34.62
(wavelet), 29.79 (eigen design) and a lower bound of 29.18 for the 8-query
gender x gpa workload.  Our noise constant differs by a fixed factor, so the
reproduced quantities are the ratios between strategies, which the registry's
``example`` experiment prints alongside the paper's.
"""

from __future__ import annotations

from repro.evaluation import format_table

from _util import emit, run


def test_example_workload_strategies(benchmark):
    record = run(benchmark, "example")
    emit(
        "example_workload",
        format_table(
            record.rows,
            precision=3,
            title="E1 (Fig. 2 / Example 4): strategies for the Fig. 1 workload",
        ),
    )
    errors = {row["strategy"]: row["error"] for row in record.rows}
    assert errors["eigen-design"] < errors["wavelet"] < errors["identity"]
    assert errors["eigen-design"] / errors["lower-bound"] < 1.05
