"""A4 — ablation: eigen-design cost and quality versus domain size.

The paper's complexity claim is that strategy selection costs O(n^4) via the
eigen decomposition plus the weighting program (Sec. 3.2/4.1), and that the
reductions of Sec. 4.2 tame the constant.  The registry's ``scalability``
experiment sweeps the domain size for the all-range workload, recording the
wall-clock time of the eigen design and its ratio-to-bound, so regressions in
either the solver or the numerical quality show up as a change in the series'
shape.

The ``dense`` sweep covers 1-D domains.  The ``factorized`` sweep runs the
*Kronecker fast path* on multi-dimensional range workloads: the eigen design
runs entirely through structured operators (k tiny factor ``eigh`` calls, a
matrix-free weighting program, an operator-backed strategy Gram), reaching
product domains far beyond what the dense path can touch at comparable
wall-clock.  Each sweep designs its first size once untimed, so the first
row does not carry the process's one-time warm-up.
"""

from __future__ import annotations

import pytest

from repro.evaluation import format_table, line_chart

from _util import emit, run

CASES = {
    "dense": (
        "scalability",
        "A4: eigen-design cost and quality vs domain size (all 1-D ranges)",
        "Eigen-design wall-clock time vs domain size (log scale)",
    ),
    "factorized": (
        "kron_scalability",
        "A4b: factorized eigen design on multi-dimensional range workloads",
        "Factorized eigen-design wall-clock time vs product-domain size",
    ),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_scalability_sweep(benchmark, kind):
    record = run(benchmark, "scalability", kind=kind)
    name, title, chart_title = CASES[kind]
    chart = line_chart(
        [row["cells"] for row in record.rows],
        {"seconds": [row["seconds"] for row in record.rows]},
        log_y=True,
        title=chart_title,
    )
    emit(name, format_table(record.rows, precision=4, title=title) + "\n\n" + chart)
    for row in record.rows:
        # Quality does not degrade with size: the ratio to the bound stays
        # within the paper's 1.3 envelope across the sweep (skipping the
        # completion rows on the factorized path can only make the reported
        # error slightly pessimistic, never better than optimal).
        assert row["ratio_to_bound"] <= 1.3
        if kind == "factorized":
            assert row["method"] == "eigen-design-factorized"
