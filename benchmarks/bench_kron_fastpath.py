"""Micro-benchmark: dense vs factorized Kronecker fast paths.

Tracks the perf trajectory of the structured-operator layer across PRs.
Five sections:

* **eigh** — dense ``O(n^3)`` eigendecomposition of the ``np.kron`` Gram vs
  the per-factor factorized decomposition;
* **completed_trace** — the error trace ``trace(W^T W (A^T A)^{-1})`` of a
  *completed* (``complete=True``) factorized eigen design: dense
  densify-plus-Cholesky vs the Woodbury identity (exact, small completion
  rank relative to the budget) or the preconditioned-CG + Hutch++ stochastic
  estimate (large rank);
* **reductions** — the Sec. 4.2 reductions (principal vectors and
  eigen-query separation with its lazy ``GroupColumnOperator`` stage 2),
  dense eigen-query matrix vs the matrix-free ``KroneckerConstraints`` path;
* **repeated_trace** — the stochastic completed-design trace evaluated
  twice on the same strategy: the repeat returns the remembered float
  without a single PCG solve;
* **engine_plan_cache** — the engine layer: a cold planner run (strategy
  optimization included) vs. a warm content-addressed
  :class:`~repro.engine.cache.PlanCache` hit on a structurally identical
  workload, asserting the warm path skips strategy optimization.

Merges its sections into ``BENCH_kron_fastpath.json`` at the repository
root (sections written by other suites are kept) with one row per domain
size (dense and factorized wall-clock, speedup, deviation), so regressions
in either speed or numerical agreement are visible in version control.

Run with:  python benchmarks/bench_kron_fastpath.py
(or via pytest; no plugin fixtures are required).  Set ``REPRO_BENCH_QUICK=1``
for a CI smoke run: only the smallest shape per section, and the JSON is not
rewritten.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.eigen_design import eigen_design
from repro.core.error import workload_strategy_trace
from repro.core.reductions import eigen_query_separation, principal_vectors
from repro.utils.linalg import trace_ratio
from repro.utils.operators import (
    HARD_MATERIALIZATION_LIMIT,
    KroneckerEigenbasis,
    gram_to_dense,
    within_materialization_budget,
)
from repro.workloads import all_range_queries
from repro.workloads.gram import all_range_gram

#: Shapes benchmarked on both paths (the dense oracle stays feasible here).
DENSE_SHAPES = ((8, 8, 8), (16, 16, 4), (16, 16, 8), (16, 16, 16))

#: Shapes only the factorized path can reach (dense would need >= 2 GiB).
FACTORIZED_ONLY_SHAPES = ((32, 32, 16), (32, 32, 32), (64, 64, 32))

#: Completed-design trace cases: ``(shape, synthetic_rank)``.  With
#: ``synthetic_rank = None`` the design's own completion diagonal is used
#: (heavy: nearly every cell is deficient, exercising the CG + Hutch++
#: stochastic path at the largest dense-feasible size); with an integer, only
#: the ``k`` largest deficits are kept — the low-rank completion regime the
#: exact Woodbury identity is built for.
COMPLETED_CASES = (((16, 16, 4), 64), ((16, 16, 16), None))
COMPLETED_CASES_QUICK = (((8, 8, 8), 16),)

#: Reduction comparison shape (also the acceptance shape for the speedup
#: assertion below).  The factorized path's headline win is
#: memory/feasibility (no dense eigen-query matrix, no O(n^3) eigh; beyond
#: the budget it is the *only* path, tested in
#: tests/test_woodbury_completion.py) — but with the under-budget slice
#: densification (each stage solve runs on a small dense matrix instead of
#: one ``kron_apply`` per step) it also wins wall-clock at dense-feasible
#: sizes, and the rows assert it stays that way.
REDUCTION_DENSE_SHAPE = (16, 16, 8)

#: Repeated-trace shapes: the stochastic completed-design trace evaluated
#: twice on the same freshly designed strategy.
REPEATED_SHAPES = ((16, 16, 16),)
REPEATED_SHAPES_QUICK = ((8, 8, 8),)

#: The acceptance bar tracked across PRs (eigh and completed trace alike).
TARGET_SPEEDUP = 10.0

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kron_fastpath.json"


def _lint_metadata() -> dict:
    """Which enforcement regime produced this row: repro-lint version and
    rule count (``tools/repro_lint``), stamped into the report metadata."""
    tools_dir = str(Path(__file__).resolve().parent.parent / "tools")
    if tools_dir not in sys.path:
        sys.path.insert(0, tools_dir)
    try:
        import repro_lint
    except ImportError:  # running outside a repository checkout
        return {"version": None, "rules": 0}
    return {
        "version": repro_lint.__version__,
        "rules": len(repro_lint.ALL_CHECKERS),
    }


def _factor_grams(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Per-attribute all-range Gram factors (closed form, public helper)."""
    return [all_range_gram(size) for size in shape]


def _clear_eigh_cache() -> None:
    """Drop the content-addressed eigh memo so timings stay cold and honest."""
    from repro.utils.operators import _FACTOR_EIGH_CACHE

    _FACTOR_EIGH_CACHE.clear()


def _time(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _eigh_rows(dense_shapes, factorized_shapes) -> list[dict]:
    rows = []
    for shape in dense_shapes:
        grams = _factor_grams(shape)
        cells = int(np.prod(shape))

        def dense_path():
            product = grams[0]
            for gram in grams[1:]:
                product = np.kron(product, gram)
            return np.clip(np.linalg.eigvalsh(product)[::-1], 0.0, None)

        dense_seconds, dense_values = _time(dense_path)
        _clear_eigh_cache()  # keep the factorized timing cold (no memo hits)
        factorized_seconds, factorized_values = _time(
            lambda: KroneckerEigenbasis.from_gram_factors(grams).sorted_values
        )
        deviation = float(np.max(np.abs(dense_values - factorized_values)) / dense_values[0])
        rows.append(
            {
                "shape": list(shape),
                "cells": cells,
                "dense_seconds": dense_seconds,
                "factorized_seconds": factorized_seconds,
                "speedup": dense_seconds / max(factorized_seconds, 1e-12),
                "max_relative_eigenvalue_deviation": deviation,
            }
        )
    for shape in factorized_shapes:
        grams = _factor_grams(shape)
        factorized_seconds, values = _time(
            lambda: KroneckerEigenbasis.from_gram_factors(grams).sorted_values
        )
        rows.append(
            {
                "shape": list(shape),
                "cells": int(np.prod(shape)),
                "dense_seconds": None,
                "factorized_seconds": factorized_seconds,
                "speedup": None,
                "max_relative_eigenvalue_deviation": None,
            }
        )
        del values
    return rows


def _completed_trace_rows(cases) -> list[dict]:
    from repro.core.strategy import Strategy
    from repro.utils.operators import EigenDiagOperator

    rows = []
    for shape, synthetic_rank in cases:
        workload = all_range_queries(list(shape))
        design = eigen_design(workload, factorized=True, complete=True)
        operator = design.strategy.gram_operator
        strategy = design.strategy
        if synthetic_rank is not None:
            # Keep only the k largest completion deficits: the low-rank
            # completion regime (near-uniform column norms) where the exact
            # Woodbury path shines.
            diag = operator.diag.copy()
            keep = np.argsort(-diag)[:synthetic_rank]
            trimmed = np.zeros_like(diag)
            trimmed[keep] = diag[keep]
            operator = EigenDiagOperator(operator.basis, operator.spectrum, trimmed)
            strategy = Strategy.from_gram_operator(operator, name="completed-lowrank")
        cells = workload.column_count
        completion_rank = int(np.count_nonzero(operator.diag))
        exact = within_materialization_budget(cells, max(2 * completion_rank, 1))

        _clear_eigh_cache()
        structured_seconds, structured_value = _time(
            lambda: workload_strategy_trace(workload, strategy)
        )
        dense_seconds, dense_value = _time(
            lambda: trace_ratio(
                gram_to_dense(workload.gram_operator, limit=HARD_MATERIALIZATION_LIMIT),
                gram_to_dense(operator, limit=HARD_MATERIALIZATION_LIMIT),
            )
        )
        rows.append(
            {
                "shape": list(shape),
                "cells": cells,
                "completion_rank": completion_rank,
                "path": "woodbury-exact" if exact else "cg-hutchpp",
                "dense_seconds": dense_seconds,
                "factorized_seconds": structured_seconds,
                "speedup": dense_seconds / max(structured_seconds, 1e-12),
                "relative_trace_deviation": float(
                    abs(structured_value - dense_value) / max(abs(dense_value), 1e-12)
                ),
            }
        )
    return rows


def _reduction_rows(shape=REDUCTION_DENSE_SHAPE, repeats=3) -> list[dict]:
    """Sec. 4.2 reductions, dense vs factorized, min-of-``repeats`` timing.

    Every timed run gets a *fresh* workload object and a cold factor-eigh
    memo: both the per-instance eigen-decomposition cache and the
    content-addressed ``_FACTOR_EIGH_CACHE`` would otherwise hand later runs
    warm spectra and distort the ratio.  Taking the minimum over repeats
    suppresses scheduler noise, which matters because the factorized win at
    dense-feasible sizes is structural but modest.
    """
    cells = int(np.prod(shape))
    group_size = max(2, cells // 16)
    cases = (
        (
            "principal-vectors (5%)",
            lambda workload, factorized: principal_vectors(
                workload, fraction=0.05, factorized=factorized
            ),
        ),
        (
            "eigen-separation (stage-2 operator)",
            lambda workload, factorized: eigen_query_separation(
                workload, group_size=group_size, factorized=factorized
            ),
        ),
    )
    rows = []
    for method, run_reduction in cases:
        dense_seconds = factorized_seconds = float("inf")
        for _ in range(max(1, repeats)):
            workload = all_range_queries(list(shape))
            _clear_eigh_cache()
            seconds, dense_result = _time(lambda: run_reduction(workload, False))
            dense_seconds = min(dense_seconds, seconds)
            workload = all_range_queries(list(shape))
            _clear_eigh_cache()
            seconds, factorized_result = _time(lambda: run_reduction(workload, True))
            factorized_seconds = min(factorized_seconds, seconds)
        dense_error = workload_strategy_trace(workload, dense_result.strategy)
        factorized_error = workload_strategy_trace(workload, factorized_result.strategy)
        rows.append(
            {
                "shape": list(shape),
                "cells": cells,
                "method": method,
                "dense_seconds": dense_seconds,
                "factorized_seconds": factorized_seconds,
                "speedup": dense_seconds / max(factorized_seconds, 1e-12),
                "relative_trace_deviation": float(
                    abs(factorized_error - dense_error) / max(abs(dense_error), 1e-12)
                ),
            }
        )
    return rows


def _repeated_trace_rows(shapes) -> list[dict]:
    """First vs repeated stochastic completed-trace evaluation, with solves counted."""
    import repro.core.error as error_module

    solves = [0]
    pcg_solve = error_module.pcg_solve

    def counted(*args, **kwargs):
        solves[0] += 1
        return pcg_solve(*args, **kwargs)

    rows = []
    error_module.pcg_solve = counted
    try:
        for shape in shapes:
            workload = all_range_queries(list(shape))
            design = eigen_design(workload, factorized=True, complete=True)
            operator = design.strategy.gram_operator
            _clear_eigh_cache()
            solves[0] = 0
            first_seconds, first_value = _time(
                lambda: error_module._stochastic_completed_trace(
                    workload.gram_operator, operator
                )
            )
            first_solves, solves[0] = solves[0], 0
            repeat_seconds, repeat_value = _time(
                lambda: error_module._stochastic_completed_trace(
                    workload.gram_operator, operator
                )
            )
            rows.append(
                {
                    "shape": list(shape),
                    "cells": workload.column_count,
                    "first_seconds": first_seconds,
                    "repeat_seconds": repeat_seconds,
                    "first_pcg_solves": first_solves,
                    "repeat_pcg_solves": solves[0],
                    "identical": repeat_value == first_value,
                }
            )
    finally:
        error_module.pcg_solve = pcg_solve
    return rows


#: Engine plan-cache smoke shapes (cold plan vs. warm content-addressed hit).
ENGINE_SHAPES = ((16, 16, 4), (32, 32, 16))
ENGINE_SHAPES_QUICK = ((8, 8, 4),)


def _engine_rows(shapes) -> list[dict]:
    """Cold planner run vs. warm PlanCache hit on the same workload shape.

    The warm request builds a *new* workload object with identical content;
    the content-addressed plan cache must serve it without re-running
    strategy optimization (``plans_built`` stays at 1), which is the whole
    point of the engine layer for repeated workload shapes.
    """
    from repro.core.privacy import PrivacyParams
    from repro.engine import Planner

    privacy = PrivacyParams(epsilon=0.5, delta=1e-4)
    rows = []
    for shape in shapes:
        _clear_eigh_cache()
        planner = Planner()
        cold_seconds, cold_plan = _time(
            lambda: planner.plan(all_range_queries(list(shape)), privacy)
        )
        warm_seconds, warm_plan = _time(
            lambda: planner.plan(all_range_queries(list(shape)), privacy)
        )
        warm_hit = warm_plan is cold_plan
        # The warm path must have skipped strategy optimization entirely.
        assert warm_hit and planner.plans_built == 1, (
            f"plan cache failed to serve shape {shape}: "
            f"plans_built={planner.plans_built}"
        )
        rows.append(
            {
                "shape": list(shape),
                "cells": int(np.prod(shape)),
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "speedup": cold_seconds / max(warm_seconds, 1e-12),
                "plans_built": planner.plans_built,
                "warm_hit": warm_hit,
                "mechanism": cold_plan.mechanism.name,
            }
        )
    return rows


def _largest_dense(rows: list[dict]) -> dict:
    return max(
        (row for row in rows if row["dense_seconds"] is not None),
        key=lambda row: row["cells"],
    )


def run() -> dict:
    if QUICK:
        eigh_rows = _eigh_rows(DENSE_SHAPES[:1], FACTORIZED_ONLY_SHAPES[:1])
        completed_rows = _completed_trace_rows(COMPLETED_CASES_QUICK)
        # The reductions smoke runs at the full acceptance shape (not a
        # scaled-down one): the factorized-vs-dense ratio is what the row
        # asserts, and at toy sizes it is pure timing noise.
        reduction_rows = _reduction_rows()
        repeated_rows = _repeated_trace_rows(REPEATED_SHAPES_QUICK)
        engine_rows = _engine_rows(ENGINE_SHAPES_QUICK)
    else:
        eigh_rows = _eigh_rows(DENSE_SHAPES, FACTORIZED_ONLY_SHAPES)
        completed_rows = _completed_trace_rows(COMPLETED_CASES)
        reduction_rows = _reduction_rows()
        repeated_rows = _repeated_trace_rows(REPEATED_SHAPES)
        engine_rows = _engine_rows(ENGINE_SHAPES)

    slow = [row for row in reduction_rows if row["speedup"] < 1.0]
    assert not slow, (
        "factorized Sec. 4.2 reductions regressed below dense at the "
        "acceptance shape: "
        + "; ".join(f"{row['method']}: {row['speedup']:.3f}x" for row in slow)
    )

    # The repeat on the same strategy returns the remembered float without
    # a single PCG solve.
    for row in repeated_rows:
        assert row["first_pcg_solves"] > 0, row
        assert row["repeat_pcg_solves"] == 0 and row["identical"], row

    largest_eigh = _largest_dense(eigh_rows)
    largest_completed = _largest_dense(completed_rows)
    report = {
        "benchmark": "kron_fastpath",
        "workload": "all multi-dimensional range queries",
        "lint": _lint_metadata(),
        "target_speedup": TARGET_SPEEDUP,
        "largest_dense_cells": largest_eigh["cells"],
        "speedup_at_largest_dense": largest_eigh["speedup"],
        "rows": eigh_rows,
        "completed_trace": {
            "target_speedup": TARGET_SPEEDUP,
            "largest_dense_cells": largest_completed["cells"],
            "speedup_at_largest_dense": largest_completed["speedup"],
            "rows": completed_rows,
        },
        "reductions": {"rows": reduction_rows},
        "repeated_trace": {"rows": repeated_rows},
        "engine_plan_cache": {"rows": engine_rows},
    }
    if not QUICK:
        # Merge, never overwrite: other suites (bench_engine_throughput.py)
        # keep their own sections in the same file.
        merged = json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
        merged.update(report)
        RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    return report


def test_kron_fastpath_speedup():
    """Factorized eigh AND the completed-design trace are >= 10x faster dense."""
    report = run()
    assert report["speedup_at_largest_dense"] >= TARGET_SPEEDUP
    for row in report["rows"]:
        if row["max_relative_eigenvalue_deviation"] is not None:
            assert row["max_relative_eigenvalue_deviation"] <= 1e-8
    completed = report["completed_trace"]
    assert completed["speedup_at_largest_dense"] >= TARGET_SPEEDUP
    for row in completed["rows"]:
        # The exact Woodbury path matches the dense oracle tightly; the
        # stochastic fallback is an estimator on fixed constants.
        bound = 1e-8 if row["path"] == "woodbury-exact" else 1e-2
        assert row["relative_trace_deviation"] <= bound
    for row in report["reductions"]["rows"]:
        if row["relative_trace_deviation"] is not None:
            assert row["relative_trace_deviation"] <= 1e-6
        # The factorized path must beat (or at worst match) the dense path
        # even at dense-feasible sizes — the small-domain regression the
        # slice densification retired must stay retired.
        assert row["speedup"] >= 1.0, f"{row['method']}: {row['speedup']:.3f}x"
    for row in report["engine_plan_cache"]["rows"]:
        # A structurally identical workload must hit the plan cache and skip
        # strategy optimization entirely.
        assert row["warm_hit"] and row["plans_built"] == 1
        assert row["warm_seconds"] < row["cold_seconds"]


if __name__ == "__main__":
    report = run()
    print(json.dumps(report, indent=2))
    if not QUICK:
        print(f"\n[written to {RESULT_PATH}]")
