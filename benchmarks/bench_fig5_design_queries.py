"""E8 — Fig. 5: the choice of design queries (eigen vs wavelet vs Fourier).

The paper runs Program 1 with three different design sets — the eigen-queries,
the wavelet matrix and the Fourier matrix — on 1-D range queries and 2-D
marginals, plus the same workloads with permuted cell conditions: the
registry's ``design-queries`` experiment.  Fixed design sets roughly match the
eigen-queries on the structured workloads but degrade by several times under
permutation; the eigen-queries are unaffected.
"""

from __future__ import annotations

import pytest

from repro.evaluation import format_table

from _util import emit, run


def test_fig5_design_query_choice(benchmark):
    record = run(benchmark, "design-queries")
    emit(
        "fig5_design_queries",
        format_table(record.rows, precision=3, title="E8 (Fig. 5): comparison of design-query sets"),
    )

    structured, permuted = record.rows[:2]  # 1-D ranges, then the permuted copy
    # Paper: on the structured workload the fixed designs are within ~20% of
    # the eigen design; under permutation they are several times worse while
    # the eigen design's error is unchanged.
    assert structured["wavelet design"] <= structured["eigen design"] * 1.35
    assert permuted["wavelet design"] > permuted["eigen design"] * 2.0
    assert permuted["eigen design"] == pytest.approx(structured["eigen design"], rel=1e-3)
