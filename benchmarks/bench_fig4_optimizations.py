"""E7 — Fig. 4: quality / time trade-off of the Sec. 4 performance optimisations.

The paper sweeps the group size of eigen-query separation and the fraction of
principal vectors on 8192-cell workloads (all 1-D ranges and all 2-D
marginals), plotting workload error against execution time.  The registry's
``optimizations`` experiment uses 512 cells by default (``REPRO_PAPER_SCALE=1``
raises it) and prints the lower bound and the best competing fixed strategy
after the sweep, exactly as in the figure.

Note on expectations: the paper's full eigen design solves an O(n^4) SDP, so
its reductions buy two orders of magnitude.  Our from-scratch first-order
solver is already fast at these sizes, so the time column mainly demonstrates
that the reductions do not *cost* time while staying within a few percent of
the full design's error (the error column reproduces the figure's shape).
"""

from __future__ import annotations

import pytest

from repro.evaluation import format_table

from _util import emit, run


@pytest.mark.parametrize("case", ["1d-ranges", "2d-marginals"])
def test_fig4_performance_optimizations(benchmark, case):
    record = run(benchmark, "optimizations", kind=case)
    emit(
        f"fig4_{case}",
        format_table(
            record.rows,
            precision=3,
            title=f"E7 (Fig. 4, {case}): approximation quality vs execution time",
        ),
    )

    # The record ends with the lower bound and the competitor.
    *sweep, bound, competitor = record.rows
    full_error = sweep[0]["error"]
    reduced_errors = [row["error"] for row in sweep[1:]]
    # Paper: the reduced methods remain significantly better than the
    # competing fixed strategy; at reduced scale the best reduced variant
    # still beats the competitor outright and every variant stays close.
    assert min(reduced_errors) < competitor["error"]
    for row in sweep:
        # Every variant stays above the lower bound (up to the ~0.5% numerical
        # slack of the rank-truncated error evaluation on low-rank marginal
        # workloads) and within a modest factor of the competitor.
        assert row["error"] >= bound["error"] * 0.99
        assert row["error"] < competitor["error"] * 1.15
        # The paper's ~12% quality envelope is only claimed down to ~6% of the
        # eigenvectors (its smallest reported fraction with that property); the
        # tiniest fraction keeps too few vectors at reduced scale, so it is
        # exempt from the envelope check.
        if row["method"] == "principal vectors" and row["parameter"] in ("3%", "2%"):
            continue
        assert row["error"] <= full_error * 1.15
