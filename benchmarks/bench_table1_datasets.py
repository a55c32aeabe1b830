"""E9 — Table 1: the evaluation datasets (synthetic stand-ins).

Reports the dimensions and tuple counts of the two datasets used in the
relative-error experiments, matching the paper's Table 1 (US Census:
8 x 16 x 16, 15M tuples; Adult: 8 x 8 x 16 x 2, 33K tuples).  The registry's
``datasets`` experiment generates them; the generation is the only
data-dependent setup cost, and the bench times it.
"""

from __future__ import annotations

from repro.evaluation import format_table

from _util import emit, run


def test_table1_dataset_summaries(benchmark):
    record = run(benchmark, "datasets")
    emit(
        "table1_datasets",
        format_table(
            record.rows,
            columns=[
                "name",
                "dimension",
                "cells",
                "tuples",
                "nonzero_cells",
                "paper dimension",
                "paper tuples",
            ],
            precision=0,
            title="E9 (Table 1): evaluation datasets (synthetic stand-ins, see DESIGN.md)",
        ),
    )
    for row in record.rows:
        assert row["dimension"] == row["paper dimension"]
