"""E6 — Table 2: alternative workloads (permuted ranges, range marginals, CDF, predicates).

For each alternative workload the paper reports the factor by which the Eigen
design reduces error relative to the best and worst competitor, plus the
ratio of the lower bound to the eigen error.  The registry's
``alternative-workloads`` experiment uses 256-cell domains by default
(``REPRO_PAPER_SCALE=1`` switches to 2048 cells as in the paper).
"""

from __future__ import annotations

from repro.evaluation import format_table

from _util import PAPER_SCALE, emit, run


def test_table2_alternative_workloads(benchmark):
    record = run(benchmark, "alternative-workloads")
    emit(
        "table2_alternative_workloads",
        format_table(
            record.rows,
            precision=2,
            title=(
                "E6 (Table 2): error-reduction factors of the eigen design on alternative workloads "
                f"({record.parameters['cells']} cells{' - paper scale' if PAPER_SCALE else ''})"
            ),
        ),
    )
    by_label = {row["workload"]: row for row in record.rows}
    # Paper shape: large wins on permuted ranges, clear wins on range marginals
    # and predicates, and roughly break-even on the highly skewed CDF workload.
    assert by_label["1D range (permuted)"]["best/eigen"] > 2.0
    assert by_label["1-way range marginal"]["best/eigen"] >= 1.0
    assert by_label["2-way range marginal"]["best/eigen"] >= 1.0
    assert by_label["predicate"]["best/eigen"] > 1.0
    assert by_label["1D CDF"]["best/eigen"] > 0.9
    for row in record.rows:
        assert row["bound/eigen"] <= 1.0 + 1e-9
