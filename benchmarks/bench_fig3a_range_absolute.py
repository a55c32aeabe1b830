"""E2 — Fig. 3(a): absolute workload error on range workloads.

The paper fixes 2048 cells and varies the domain shape ([2048], [64x32],
[16x16x8], [8x8x8x4], [2^11]), comparing Hierarchical, Wavelet, the Eigen
design and the singular-value lower bound, for (i) all range queries and
(ii) random range queries.  The registry's ``range-absolute`` experiment uses
256-cell shapes by default and the 2048-cell shapes with
``REPRO_PAPER_SCALE=1``.
"""

from __future__ import annotations

import pytest

from repro.evaluation import format_table

from _util import SCALE_LABEL, emit, run


@pytest.mark.parametrize("kind", ["all-range", "random-range"])
def test_fig3a_range_workloads(benchmark, kind):
    record = run(benchmark, "range-absolute", kind=kind)
    emit(
        f"fig3a_{kind}",
        format_table(
            record.rows,
            precision=3,
            title=f"E2 (Fig. 3a, {kind}): workload error by domain shape ({SCALE_LABEL})",
        ),
    )
    for row in record.rows:
        # Paper: eigen design improves on the best competitor by 1.2x-2.1x and
        # stays within 1.3x of the lower bound.
        assert row["best/eigen"] > 1.0
        assert row["eigen/bound"] < 1.35
