"""Evaluation harness: strategy comparisons, relative error, tables, plots, registry."""

from repro.evaluation.ascii_plots import bar_chart, line_chart
from repro.evaluation.experiments import StrategyComparison, compare_strategies
from repro.evaluation.io import (
    ExperimentRecord,
    load_records,
    rows_from_csv,
    rows_to_csv,
    save_records,
)
from repro.evaluation.registry import (
    ExperimentSpec,
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.evaluation.relative_error import (
    RelativeErrorResult,
    default_sanity_bound,
    expected_relative_error,
    relative_error,
)
from repro.evaluation.tables import format_comparison, format_table

__all__ = [
    "ExperimentRecord",
    "ExperimentSpec",
    "RelativeErrorResult",
    "StrategyComparison",
    "available_experiments",
    "bar_chart",
    "compare_strategies",
    "default_sanity_bound",
    "expected_relative_error",
    "format_comparison",
    "format_table",
    "get_experiment",
    "line_chart",
    "load_records",
    "relative_error",
    "rows_from_csv",
    "rows_to_csv",
    "run_experiment",
    "save_records",
]
