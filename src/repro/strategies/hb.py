"""Branching-factor-tuned and workload-weighted hierarchical strategies.

The binary hierarchy of Hay et al. is a fixed strategy; two well-known
refinements are implemented here as additional baselines and as inputs to the
design-set comparison of Fig. 5:

* **HB-style branching selection** — search over the tree fan-out ``b`` and
  keep the hierarchy whose expected error on a reference workload (by default
  all 1-D range queries) is smallest.  This mirrors the observation, made
  after the paper, that the best fan-out depends on the domain size.
* **Weighted hierarchy** — run the paper's own Program 1 with the hierarchy
  as the design set, so each tree level receives an optimal weight for the
  target workload.  This is exactly the "existing strategies can be improved
  by re-weighting" use of the machinery discussed in Sec. 3.5/5.3.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.error import expected_workload_error
from repro.core.privacy import PrivacyParams
from repro.core.query_weighting import weighted_design_strategy
from repro.core.strategy import Strategy
from repro.core.workload import Workload
from repro.domain.domain import Domain
from repro.exceptions import StrategyError
from repro.strategies.hierarchical import hierarchical_tree_matrix
from repro.workloads.gram import all_range_gram, all_range_query_count

__all__ = [
    "hb_strategy",
    "optimal_branching_factor",
    "weighted_hierarchical_strategy",
]

#: Fan-outs searched by default; larger values quickly degenerate to identity.
DEFAULT_BRANCHING_CANDIDATES = (2, 3, 4, 8, 16)


def _as_shape(domain: Domain | Sequence[int] | int) -> tuple[int, ...]:
    if isinstance(domain, int):
        return (domain,)
    if isinstance(domain, Domain):
        return domain.shape
    return tuple(int(d) for d in domain)


def _reference_workload(shape: tuple[int, ...]) -> Workload:
    """All multi-dimensional range queries, kept factored (cheap at any size).

    A multi-dimensional range is the product of per-attribute ranges, so the
    Gram matrix of the full range workload is the Kronecker product of the
    per-attribute closed-form Gram matrices.  The factors are handed to
    :meth:`Workload.kronecker`, which keeps them lazy — the product Gram is
    materialised only when it fits the budget, and the error evaluation
    against (equally factored) hierarchical strategies runs per-factor.
    """
    factors = [
        Workload.from_gram(all_range_gram(size), all_range_query_count(size), name=f"all-range[{size}]")
        for size in shape
    ]
    return Workload.kronecker(factors, name=f"all-range{list(shape)}")


def optimal_branching_factor(
    domain: Domain | Sequence[int] | int,
    workload: Workload | None = None,
    *,
    candidates: Sequence[int] = DEFAULT_BRANCHING_CANDIDATES,
    privacy: PrivacyParams = PrivacyParams(),
) -> int:
    """Return the tree fan-out whose hierarchy minimises expected workload error.

    The search evaluates the closed-form error of Prop. 4, so no noise
    sampling is involved; the privacy parameters only rescale every candidate
    equally and do not affect the winner.
    """
    shape = _as_shape(domain)
    if workload is None:
        workload = _reference_workload(shape)
    candidates = [int(c) for c in candidates if 2 <= int(c)]
    if not candidates:
        raise StrategyError("optimal_branching_factor needs at least one candidate fan-out >= 2")
    best_branching = candidates[0]
    best_error = np.inf
    for branching in candidates:
        strategy = _hierarchy(shape, branching)
        error = expected_workload_error(workload, strategy, privacy)
        if error < best_error:
            best_error = error
            best_branching = branching
    return best_branching


def _hierarchy(shape: tuple[int, ...], branching: int) -> Strategy:
    factors = [
        Strategy(hierarchical_tree_matrix(size, branching=min(branching, max(size, 2))))
        for size in shape
    ]
    return Strategy.kronecker(factors, name=f"hierarchical-b{branching}{list(shape)}")


def hb_strategy(
    domain: Domain | Sequence[int] | int,
    workload: Workload | None = None,
    *,
    candidates: Sequence[int] = DEFAULT_BRANCHING_CANDIDATES,
    privacy: PrivacyParams = PrivacyParams(),
) -> Strategy:
    """The hierarchy with the error-minimising fan-out for ``workload``.

    With the default reference workload (all range queries) this reproduces
    the HB baseline; passing the actual target workload tunes the fan-out for
    that task instead.
    """
    shape = _as_shape(domain)
    branching = optimal_branching_factor(
        shape, workload, candidates=candidates, privacy=privacy
    )
    return _hierarchy(shape, branching)


def weighted_hierarchical_strategy(
    workload: Workload,
    *,
    branching: int = 2,
    **solver_options,
) -> Strategy:
    """Optimally re-weight the hierarchical design set for ``workload`` (Program 1).

    The hierarchy (over the workload's cell count, 1-D) is used as the design
    set; the paper's optimal query weighting then assigns one weight per tree
    node.  The result is never worse than the singular choice of uniform
    weights and is the natural "improve an existing strategy" application of
    the framework.
    """
    size = workload.column_count
    design = hierarchical_tree_matrix(size, branching=branching)
    result = weighted_design_strategy(
        workload,
        design,
        name=f"weighted-hierarchical-b{branching}",
        **solver_options,
    )
    return result.strategy
