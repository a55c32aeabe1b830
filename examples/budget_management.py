"""Managing a privacy budget across repeated matrix-mechanism releases.

The paper answers one batch workload with the whole budget.  Deployments
usually release statistics repeatedly (one release per month, or one per
analyst team), and the cumulative guarantee must be accounted for.  This
example shows:

1. splitting an overall (epsilon, delta) budget across releases with the
   simple sequential accountant;
2. how much tighter zero-concentrated (zCDP) accounting is for a sequence of
   Gaussian-mechanism releases;
3. how the extra noise of smaller per-release budgets shows up in the
   expected workload error.

Run with:  python examples/budget_management.py
"""

from __future__ import annotations

import time

from repro import PrivacyParams, eigen_design, expected_workload_error
from repro.evaluation import format_table
from repro.mechanisms import CompositionAccountant, PrivacyAccountant
from repro.workloads import all_range_queries, all_range_queries_1d, kway_marginals


def main() -> None:
    overall_budget = PrivacyParams(epsilon=1.0, delta=1e-4)
    releases = 4
    per_release = overall_budget.split(releases)
    print(
        f"Overall budget: epsilon={overall_budget.epsilon}, delta={overall_budget.delta}; "
        f"{releases} planned releases -> per release epsilon={per_release.epsilon}, "
        f"delta={per_release.delta:g}"
    )

    # 1. The sequential accountant refuses to overspend.
    accountant = PrivacyAccountant(budget=overall_budget)
    for index in range(releases):
        accountant.spend(per_release, label=f"release-{index + 1}")
    print(
        f"Sequential accountant after {releases} releases: spent epsilon="
        f"{accountant.spent_epsilon:.3f}, remaining={accountant.remaining}"
    )

    # 2. zCDP accounting of the same four Gaussian releases is tighter.
    composition = CompositionAccountant(target_delta=overall_budget.delta)
    for _ in range(releases):
        composition.record(per_release)
    rows = [
        {
            "accounting": "basic (epsilons add)",
            "epsilon": composition.basic().epsilon,
            "delta": composition.basic().delta,
        },
        {
            "accounting": "advanced composition",
            "epsilon": composition.advanced().epsilon,
            "delta": composition.advanced().delta,
        },
        {
            "accounting": "zCDP conversion",
            "epsilon": composition.as_approx_dp().epsilon,
            "delta": overall_budget.delta,
        },
    ]
    print()
    print(format_table(rows, precision=4, title="Cumulative guarantee of the 4 releases"))

    # 3. The error cost of splitting the budget.  The budget only scales the
    # error (Prop. 4): the trace term depends on the workload and the
    # strategy alone, so on large factorized domains the strategy remembers
    # it and only the first evaluation pays for it (see docs/performance.md).
    workloads = {
        "all 1-D ranges (256 cells)": all_range_queries_1d(256),
        "2-way marginals (8x8x8)": kway_marginals([8, 8, 8], 2),
    }
    rows = []
    for label, workload in workloads.items():
        strategy = eigen_design(workload).strategy
        rows.append(
            {
                "workload": label,
                "error with full budget": expected_workload_error(workload, strategy, overall_budget),
                "error with 1/4 budget": expected_workload_error(workload, strategy, per_release),
            }
        )
    print()
    print(format_table(rows, precision=2, title="Expected RMSE: whole budget vs one of four releases"))
    print(
        "\nSplitting the budget four ways multiplies the per-release noise scale by 4 "
        "(the error is proportional to 1/epsilon), which is why the paper advocates "
        "batching every query of interest into a single workload."
    )

    # 4. The same scan at production scale (n = 4096, beyond the dense
    # budget): the first evaluation runs the stochastic trace, every further
    # budget candidate reuses the trace the strategy remembers.
    workload = all_range_queries([16, 16, 16])
    strategy = eigen_design(workload).strategy
    timings = []
    for splits in (1, 2, 4, 8):
        budget = overall_budget.split(splits)
        start = time.perf_counter()
        error = expected_workload_error(workload, strategy, budget)
        timings.append(
            {
                "releases": splits,
                "per-release error": error,
                "evaluation seconds": time.perf_counter() - start,
            }
        )
    print()
    print(
        format_table(
            timings,
            precision=3,
            title="Budget scan at n=4096: the first trace is computed, the rest remembered",
        )
    )


if __name__ == "__main__":
    main()
