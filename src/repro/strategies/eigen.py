"""Convenience wrappers exposing the eigen-design strategies alongside the baselines."""

from __future__ import annotations

from repro.core.eigen_design import eigen_design, singular_value_strategy
from repro.core.reductions import eigen_query_separation, principal_vectors
from repro.core.strategy import Strategy
from repro.core.workload import Workload

__all__ = ["eigen_strategy", "eigen_separation_strategy", "principal_vectors_strategy", "singular_value_strategy"]


def eigen_strategy(workload: Workload, **options) -> Strategy:
    """The strategy produced by the full Eigen-Design algorithm (Program 2)."""
    return eigen_design(workload, **options).strategy


def eigen_separation_strategy(
    workload: Workload, *, group_size: int | None = None, **options
) -> Strategy:
    """The strategy produced by the eigen-query separation optimisation."""
    return eigen_query_separation(workload, group_size=group_size, **options).strategy


def principal_vectors_strategy(
    workload: Workload,
    *,
    count: int | None = None,
    fraction: float | None = None,
    **options,
) -> Strategy:
    """The strategy produced by the principal-vector optimisation."""
    return principal_vectors(workload, count=count, fraction=fraction, **options).strategy
