"""Performance tuning: the Sec. 4 optimisations on a larger domain.

Shows the trade-off between strategy quality and computation time for the two
workload-reduction approaches (eigen-query separation and principal-vector
optimisation), mirroring the paper's Fig. 4 at a laptop-friendly size — and
then the *factorized Kronecker fast path*, which runs the eigen design on a
multi-dimensional product domain through structured operators: k tiny
per-attribute eigendecompositions instead of one O(n^3) dense one, and no
n x n allocation anywhere (the separation method's stage-2 group columns
included, via the lazy GroupColumnOperator).

The knobs this example exercises — the materialization budgets — and the
stochastic trace's fixed constants are documented with the measured
speedups in docs/performance.md; the dispatch flowchart behind the
auto-switch lives in docs/architecture.md.

Run with:  python examples/performance_tuning.py
"""

from __future__ import annotations

import time

from repro import (
    PrivacyParams,
    eigen_design,
    eigen_query_separation,
    expected_workload_error,
    minimum_error_bound,
    principal_vectors,
)
from repro.evaluation import format_table
from repro.strategies import wavelet_strategy
from repro.workloads import all_range_queries, all_range_queries_1d

CELLS = 512

#: Product domain for the factorized fast path: n = 16 * 16 * 16 = 4096 cells,
#: where the dense n x n Gram already blows the materialization budget.
KRON_SHAPE = (16, 16, 16)


def main() -> None:
    privacy = PrivacyParams(epsilon=0.5, delta=1e-4)
    workload = all_range_queries_1d(CELLS)
    bound = minimum_error_bound(workload, privacy)
    wavelet_error = expected_workload_error(workload, wavelet_strategy(CELLS), privacy)
    print(f"All range queries over {CELLS} cells; lower bound {bound:.2f}, wavelet {wavelet_error:.2f}\n")

    rows = []

    start = time.perf_counter()
    full = eigen_design(workload)
    rows.append(
        {
            "method": "full eigen design",
            "parameter": "-",
            "error": expected_workload_error(workload, full.strategy, privacy),
            "seconds": time.perf_counter() - start,
        }
    )

    for group_size in (8, 32, 128):
        start = time.perf_counter()
        result = eigen_query_separation(workload, group_size=group_size)
        rows.append(
            {
                "method": "eigen separation",
                "parameter": f"group={group_size}",
                "error": expected_workload_error(workload, result.strategy, privacy),
                "seconds": time.perf_counter() - start,
            }
        )

    for fraction in (0.25, 0.1, 0.05):
        start = time.perf_counter()
        result = principal_vectors(workload, fraction=fraction)
        rows.append(
            {
                "method": "principal vectors",
                "parameter": f"{int(fraction * 100)}%",
                "error": expected_workload_error(workload, result.strategy, privacy),
                "seconds": time.perf_counter() - start,
            }
        )

    print(format_table(rows, precision=2, title="Quality / speed trade-off (Fig. 4 analogue)"))
    print("\nAll variants stay well below the wavelet baseline.  At this domain size the")
    print("full first-order solve is already fast; the reduction methods pay off on")
    print("larger domains (see benchmarks/bench_fig4_optimizations.py), where the")
    print("principal-vector method trades a few percent of error for a smaller")
    print("optimisation problem, exactly as in the paper's Fig. 4.")

    # ------------------------------------------------------- factorized fast path
    workload = all_range_queries(KRON_SHAPE)
    n = workload.column_count
    print(f"\nFactorized fast path: all range queries over {'x'.join(map(str, KRON_SHAPE))}")
    print(f"(n = {n} cells, {workload.query_count} queries; the dense n x n Gram")
    print("is never materialised — the workload keeps its Kronecker factors).")
    start = time.perf_counter()
    design = eigen_design(workload)  # complete=True: the paper's default
    seconds = time.perf_counter() - start
    error = expected_workload_error(workload, design.strategy, privacy)
    bound = minimum_error_bound(workload, privacy)
    print(f"eigen design ({design.method}, {design.completion_rows} completion rows)")
    print(f"in {seconds:.2f}s; expected error {error:.2f} vs lower bound {bound:.2f}")
    print(f"(ratio {error / bound:.3f}).")

    # The sensitivity completion (Program 2, steps 4-5) never hurts expected
    # error, and since the Woodbury/CG machinery it runs beyond the budget
    # too: the completion diagonal is a rank-r correction served by exact
    # eigenbasis solves, or a preconditioned-CG + Hutch++ stochastic trace
    # when r is large.
    bare = eigen_design(workload, complete=False)
    bare_error = expected_workload_error(workload, bare.strategy, privacy)
    print(f"\nWithout completion the same design measures {bare_error:.2f} — the")
    print(f"completed strategy is {100 * (bare_error / error - 1):.1f}% better, at identical privacy cost.")
    print("Compare benchmarks/bench_kron_fastpath.py: the factorized")
    print("eigendecomposition beats the dense eigh at n=4096 by three to four")
    print("orders of magnitude, and the completed-design error trace beats the")
    print("dense solve by >=10x (see BENCH_kron_fastpath.json).")

    # Re-evaluating the same strategy (e.g. scanning privacy budgets) is
    # nearly free: the trace depends only on the workload and the strategy,
    # and the strategy remembers the last one it computed.
    start = time.perf_counter()
    expected_workload_error(workload, design.strategy, privacy)
    repeat_seconds = time.perf_counter() - start
    print(f"\nA second error evaluation of the same design takes {repeat_seconds * 1000:.1f} ms")
    print("(the strategy remembers its trace: the re-evaluation runs no PCG solve).")


if __name__ == "__main__":
    main()
