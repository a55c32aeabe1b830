"""E4 — Fig. 3(c): absolute workload error on marginal workloads.

The paper fixes 2048 cells and compares Fourier, DataCube and the Eigen
design (plus the lower bound) on (i) all 2-way marginals and (ii) random
marginal workloads, over the shapes [16x16x8], [8x8x8x4] and [2^11].  The
registry's ``marginal-absolute`` experiment uses 256-cell shapes by default;
``REPRO_PAPER_SCALE=1`` restores the paper's shapes.
"""

from __future__ import annotations

import pytest

from repro.evaluation import format_table

from _util import SCALE_LABEL, emit, run


@pytest.mark.parametrize("kind", ["2-way", "random"])
def test_fig3c_marginal_workloads(benchmark, kind):
    record = run(benchmark, "marginal-absolute", kind=kind)
    emit(
        f"fig3c_{kind}_marginals",
        format_table(
            record.rows,
            precision=3,
            title=f"E4 (Fig. 3c, {kind} marginals): workload error by domain shape ({SCALE_LABEL})",
        ),
    )
    for row in record.rows:
        # Paper: eigen design improves by 1.3x-2.2x and matches the bound.  At
        # the reduced default scale the Fourier/DataCube strategies can tie or
        # edge ahead by a couple of percent on the smallest shapes, so the
        # check allows a 5% margin while still requiring near-optimality.
        assert row["best/eigen"] >= 0.95
        assert row["eigen/bound"] < 1.1
