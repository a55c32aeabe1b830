"""The paper's experiments, each defined once.

Every entry builds one of the paper's tables or figures, or one of this
reproduction's ablations: its workloads, strategies, seeds and shapes.
:func:`run_experiment` returns an :class:`~repro.evaluation.io.ExperimentRecord`
whose rows are the table.  Three callers read the same records:

* the command-line harness (``python -m repro run <name>``);
* the CI-gated benches under ``benchmarks/``, which print the rows to
  ``benchmarks/results/`` and assert the paper's qualitative claims on them;
* the tier-1 tests, which run the same definitions at tiny shapes.

Each spec names its paper artifact (``python -m repro list`` prints them);
README.md maps every experiment to its figure and bench.

The defaults are a reduced scale that runs in seconds.  Set the environment
variable ``REPRO_PAPER_SCALE=1`` for the paper's domain sizes (slow); this
module is the only place that reads it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.eigen_design import eigen_design
from repro.core.error import DEFAULT_PRIVACY, expected_workload_error, minimum_error_bound
from repro.core.privacy import PrivacyParams
from repro.core.query_weighting import weighted_design_strategy
from repro.core.reductions import eigen_query_separation, principal_vectors
from repro.core.workload import Workload
from repro.datasets.loaders import load_dataset
from repro.domain import Domain
from repro.evaluation.io import ExperimentRecord
from repro.evaluation.relative_error import expected_relative_error, relative_error
from repro.exceptions import ReproError
from repro.mechanisms.matrix_mechanism import MatrixMechanism
from repro.strategies import (
    datacube_strategy,
    fourier_strategy,
    hierarchical_strategy,
    identity_strategy,
    wavelet_strategy,
    workload_strategy,
)
from repro.strategies.fourier import full_fourier_matrix
from repro.workloads import (
    all_range_queries,
    all_range_queries_1d,
    cdf_workload,
    example_workload,
    kway_marginals,
    kway_range_marginals,
    marginal_attribute_sets,
    marginal_workload,
    permuted_workload,
    random_predicate_queries,
    random_range_queries,
)

__all__ = [
    "PAPER_SCALE",
    "ExperimentSpec",
    "available_experiments",
    "get_experiment",
    "run_experiment",
]

#: True when the experiments should use the paper's full domain sizes.
PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE", "0") not in ("", "0", "false", "False")


def _scale(default, paper):
    return paper if PAPER_SCALE else default


#: Privacy budgets of the relative-error figures, and their Monte-Carlo trials.
EPSILONS = (0.1, 0.5, 1.0, 2.5)
TRIALS = _scale(2, 5)
CENSUS_TOTAL = _scale(1_000_000, 15_000_000)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, runnable experiment with a description and default parameters.

    ``runner`` takes the parameters as keywords and returns the table rows.
    """

    name: str
    description: str
    paper_artifact: str
    runner: Callable[..., list]
    defaults: Mapping[str, object]

    def run(self, **overrides) -> ExperimentRecord:
        """Run the experiment with ``overrides`` applied on top of the defaults."""
        parameters = dict(self.defaults)
        unknown = set(overrides) - set(parameters)
        if unknown:
            raise ReproError(
                f"unknown parameter(s) {sorted(unknown)} for experiment {self.name!r}; "
                f"accepted: {sorted(parameters)}"
            )
        parameters.update({k: v for k, v in overrides.items() if v is not None})
        return ExperimentRecord(
            experiment=self.name,
            parameters=parameters,
            rows=self.runner(**parameters),
            notes=f"{self.paper_artifact}: {self.description}",
        )


# ------------------------------------------------------------------ helpers ---
def _privacy(epsilon: float, delta: float) -> PrivacyParams:
    return PrivacyParams(float(epsilon), float(delta))


def _choose(kind: str, options: Mapping):
    """The option an experiment's ``kind`` parameter names."""
    if kind not in options:
        raise ReproError(f"unknown kind {kind!r}; choose from {sorted(options)}")
    return options[kind]


def _label(dims) -> str:
    return "x".join(str(d) for d in dims)


def _errors(workload: Workload, strategies: Mapping, privacy: PrivacyParams) -> dict[str, float]:
    return {
        label: expected_workload_error(workload, strategy, privacy)
        for label, strategy in strategies.items()
    }


def _absolute_row(dims, workload: Workload, competitors: Mapping, privacy: PrivacyParams) -> dict:
    """One Fig. 3(a)/(c) row: competitors, the eigen design and the lower bound."""
    errors = _errors(workload, {**competitors, "eigen": eigen_design(workload).strategy}, privacy)
    bound = minimum_error_bound(workload, privacy)
    best = min(errors[label] for label in competitors)
    return {
        "shape": _label(dims),
        **errors,
        "lower bound": bound,
        "best/eigen": best / errors["eigen"],
        "eigen/bound": errors["eigen"] / bound,
    }


def _marginals(domain: Domain, kind: str, count: int, seed: int):
    """A marginal workload and its attribute sets: all 2-way, or ``count`` random ones."""
    if kind == "2-way":
        return kway_marginals(domain, 2), marginal_attribute_sets(domain, 2)
    if kind != "random":
        raise ReproError(f"unknown kind {kind!r}; choose from ['2-way', 'random']")
    # The paper's random-marginal workloads: a random order, then that many
    # distinct attributes.
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        order = int(rng.integers(1, domain.dimensions + 1))
        sets.append(tuple(sorted(rng.choice(domain.dimensions, size=order, replace=False).tolist())))
    workload = Workload.union(
        [marginal_workload(domain, list(attrs)) for attrs in sets], name="random-marginals"
    )
    return workload, sets


def _dataset(name: str, shape):
    options = {} if shape is None else {"shape": tuple(int(s) for s in shape)}
    if name == "census":
        options["total"] = CENSUS_TOTAL
    return load_dataset(name, random_state=0, **options)


def _relative_rows(dataset, workload, competitors, labels, epsilons, delta, trials, seed):
    """Fig. 3(b)/(d) rows: Monte-Carlo and exact relative error per (epsilon, strategy).

    The eigen design is optimised for the row-normalised workload, the
    relative-error heuristic of Sec. 3.4.  The exact expectation scales as
    ``1/epsilon`` at fixed ``delta`` (the Gaussian scale does), so it is
    computed once per strategy at ``epsilon = 1``.  One mechanism per
    strategy serves every epsilon of the Monte-Carlo sweep.
    """
    strategies = {**competitors, "eigen-design": eigen_design(workload.normalize_rows()).strategy}
    at_unit_epsilon = {
        label: expected_relative_error(workload, strategy, dataset, _privacy(1.0, delta))
        for label, strategy in strategies.items()
    }
    mechanisms = {label: MatrixMechanism(strategy) for label, strategy in strategies.items()}
    rows = []
    for epsilon in epsilons:
        privacy = _privacy(epsilon, delta)
        for label, mechanism in mechanisms.items():
            sampled = relative_error(
                workload, mechanism, dataset, privacy, trials=trials, random_state=seed
            )
            rows.append(
                {
                    **labels,
                    "epsilon": epsilon,
                    "strategy": label,
                    "mean relative error": sampled.mean_relative_error,
                    "expected relative error": at_unit_epsilon[label] / epsilon,
                }
            )
    return rows


# --------------------------------------------------------------------- E1 ---
#: Example 4's reported RMSEs; our noise constant differs by a fixed factor,
#: so the reproduced quantities are the ratios between rows.
EXAMPLE_PAPER_ERRORS = {
    "workload-as-strategy": 47.78,
    "identity": 45.36,
    "wavelet": 34.62,
    "eigen-design": 29.79,
    "lower-bound": 29.18,
}


def _run_example(epsilon: float, delta: float) -> list:
    privacy = _privacy(epsilon, delta)
    workload = example_workload()
    cells = workload.column_count
    errors = _errors(
        workload,
        {
            "workload-as-strategy": workload_strategy(workload),
            "identity": identity_strategy(cells),
            "wavelet": wavelet_strategy(cells),
            "eigen-design": eigen_design(workload).strategy,
        },
        privacy,
    )
    errors["lower-bound"] = minimum_error_bound(workload, privacy)
    paper_bound = EXAMPLE_PAPER_ERRORS["lower-bound"]
    return [
        {
            "workload": workload.name,
            "strategy": label,
            "error": error,
            "ratio_to_bound": error / errors["lower-bound"],
            "paper error": EXAMPLE_PAPER_ERRORS[label],
            "paper ratio_to_bound": EXAMPLE_PAPER_ERRORS[label] / paper_bound,
        }
        for label, error in errors.items()
    ]


# ---------------------------------------------------------- Fig. 3(a)/(c) ---
ABSOLUTE_RANGE_SHAPES = _scale(
    ((256,), (16, 16), (8, 8, 4), (4, 4, 4, 4), (2,) * 8),
    ((2048,), (64, 32), (16, 16, 8), (8, 8, 8, 4), (2,) * 11),
)
ABSOLUTE_MARGINAL_SHAPES = _scale(
    ((16, 16), (8, 8, 4), (4, 4, 4, 4)),
    ((16, 16, 8), (8, 8, 8, 4), (2,) * 11),
)


def _run_range_absolute(kind: str, shapes, epsilon: float, delta: float) -> list:
    privacy = _privacy(epsilon, delta)
    factory = _choose(
        kind,
        {
            "all-range": all_range_queries,
            "random-range": lambda dims: random_range_queries(dims, 1000, random_state=0),
        },
    )
    rows = []
    for dims in shapes:
        dims = list(dims)
        competitors = {
            "hierarchical": hierarchical_strategy(dims),
            "wavelet": wavelet_strategy(dims),
        }
        rows.append(_absolute_row(dims, factory(dims), competitors, privacy))
    return rows


def _run_marginal_absolute(kind: str, shapes, epsilon: float, delta: float) -> list:
    privacy = _privacy(epsilon, delta)
    rows = []
    for dims in shapes:
        domain = Domain(list(dims))
        workload, sets = _marginals(domain, kind, count=16, seed=0)
        competitors = {
            "fourier": fourier_strategy(domain, sets),
            "datacube": datacube_strategy(domain, sets),
        }
        rows.append(_absolute_row(dims, workload, competitors, privacy))
    return rows


# ---------------------------------------------------------- Fig. 3(b)/(d) ---
def _run_relative_range(dataset: str, epsilons, delta: float, trials: int, shape) -> list:
    data = _dataset(dataset, shape)
    workload = random_range_queries(data.domain, _scale(120, 300), random_state=7)
    competitors = {
        "hierarchical": hierarchical_strategy(data.domain),
        "wavelet": wavelet_strategy(data.domain),
    }
    labels = {"dataset": data.name}
    return _relative_rows(data, workload, competitors, labels, epsilons, delta, trials, seed=11)


def _run_relative_marginal(dataset: str, kind: str, epsilons, delta: float, trials: int, shape) -> list:
    data = _dataset(dataset, shape)
    workload, sets = _marginals(data.domain, kind, count=12, seed=1)
    competitors = {
        "fourier": fourier_strategy(data.domain, sets),
        "datacube": datacube_strategy(data.domain, sets),
    }
    labels = {"dataset": data.name, "workload": kind}
    return _relative_rows(data, workload, competitors, labels, epsilons, delta, trials, seed=5)


# ------------------------------------------------------------------ Table 1 ---
def _run_datasets() -> list:
    rows = []
    for name, paper_dimension, paper_tuples in (
        ("census", "8x16x16", "15M"),
        ("adult", "8x8x16x2", "33K"),
    ):
        summary = _dataset(name, None).describe()
        rows.append({**summary, "paper dimension": paper_dimension, "paper tuples": paper_tuples})
    return rows


# ------------------------------------------------------------------ Table 2 ---
#: The paper's Table 2 factors (2048 cells).
TABLE2_PAPER_ROWS = {
    "1D range (permuted)": {"best": 9.62, "worst": 13.16, "bound": 0.99},
    "1-way range marginal": {"best": 1.30, "worst": 7.69, "bound": 0.98},
    "2-way range marginal": {"best": 1.63, "worst": 3.23, "bound": 0.95},
    "1D CDF": {"best": 1.01, "worst": 1.01, "bound": 0.80},
    "predicate": {"best": 1.39, "worst": 1.94, "bound": 1.00},
}


def _run_alternative_workloads(cells: int, marginal_shape, epsilon: float, delta: float) -> list:
    privacy = _privacy(epsilon, delta)
    domain = Domain(list(marginal_shape))

    def ranges():
        return {"wavelet": wavelet_strategy(cells), "hierarchical": hierarchical_strategy(cells)}

    def marginals(order):
        return {
            "fourier": fourier_strategy(domain, order),
            "datacube": datacube_strategy(domain, marginal_attribute_sets(domain, order)),
            "wavelet": wavelet_strategy(domain),
            "hierarchical": hierarchical_strategy(domain),
        }

    suite = {
        "1D range (permuted)": (
            permuted_workload(all_range_queries_1d(cells), random_state=3),
            ranges(),
        ),
        "1-way range marginal": (kway_range_marginals(domain, 1), marginals(1)),
        "2-way range marginal": (kway_range_marginals(domain, 2), marginals(2)),
        "1D CDF": (cdf_workload(cells), ranges()),
        "predicate": (
            random_predicate_queries(cells, 2 * cells, random_state=0),
            {**ranges(), "fourier": fourier_strategy(Domain([cells]), None)},
        ),
    }
    rows = []
    for label, (workload, competitors) in suite.items():
        eigen_error = expected_workload_error(workload, eigen_design(workload).strategy, privacy)
        finite = {
            name: error
            for name, error in _errors(workload, competitors, privacy).items()
            if error != float("inf")
        }
        best = min(finite, key=finite.get)
        worst = max(finite, key=finite.get)
        paper = TABLE2_PAPER_ROWS[label]
        rows.append(
            {
                "workload": label,
                "best/eigen": finite[best] / eigen_error,
                "worst/eigen": finite[worst] / eigen_error,
                "bound/eigen": minimum_error_bound(workload, privacy) / eigen_error,
                "paper best/worst": f"{paper['best']}/{paper['worst']}",
                "paper bound": paper["bound"],
                "best competitor": best,
                "worst competitor": worst,
            }
        )
    return rows


# -------------------------------------------------------------------- Fig. 4 ---
OPTIMIZATION_SHAPES = {
    "1d-ranges": _scale((512,), (4096,)),
    "2d-marginals": _scale((8, 8, 8), (32, 16, 16)),
}
GROUP_SIZES = _scale((8, 32, 128), (4, 16, 64, 256))
FRACTIONS = (0.25, 0.13, 0.06, 0.03)


def _run_optimizations(kind: str, shape, epsilon: float, delta: float) -> list:
    """The sweep rows, then the lower bound and the competing fixed strategy."""
    privacy = _privacy(epsilon, delta)
    default = _choose(kind, OPTIMIZATION_SHAPES)
    shape = list(default if shape is None else shape)
    if kind == "1d-ranges":
        (cells,) = shape
        workload = all_range_queries_1d(cells)
        competitor = "wavelet", wavelet_strategy(cells)
    else:
        workload = kway_marginals(shape, 2)
        competitor = "datacube", datacube_strategy(shape, marginal_attribute_sets(shape, 2))

    def timed_row(method: str, parameter: str, build) -> dict:
        start = time.perf_counter()
        strategy = build().strategy
        seconds = time.perf_counter() - start
        error = expected_workload_error(workload, strategy, privacy)
        return {"method": method, "parameter": parameter, "error": error, "seconds": seconds}

    rows = [timed_row("full eigen design", "-", lambda: eigen_design(workload))]
    for group_size in GROUP_SIZES:
        rows.append(
            timed_row(
                "eigen separation",
                f"group={group_size}",
                lambda: eigen_query_separation(workload, group_size=group_size),
            )
        )
    for fraction in FRACTIONS:
        rows.append(
            timed_row(
                "principal vectors",
                f"{int(round(fraction * 100))}%",
                lambda: principal_vectors(workload, fraction=fraction),
            )
        )
    for method, error in (
        ("lower bound", minimum_error_bound(workload, privacy)),
        (competitor[0], expected_workload_error(workload, competitor[1], privacy)),
    ):
        rows.append({"method": method, "parameter": "-", "error": error, "seconds": 0.0})
    return rows


# -------------------------------------------------------------------- Fig. 5 ---
def _run_design_queries(cells: int, marginal_shape, epsilon: float, delta: float) -> list:
    privacy = _privacy(epsilon, delta)
    marginal_shape = list(marginal_shape)
    ranges = all_range_queries_1d(cells)
    marginals = kway_marginals(marginal_shape, 2)
    range_designs = {
        "wavelet design": wavelet_strategy(cells).matrix,
        "fourier design": full_fourier_matrix([cells]),
    }
    marginal_designs = {
        "wavelet design": wavelet_strategy(marginal_shape).matrix,
        "fourier design": full_fourier_matrix(Domain(marginal_shape)),
    }
    cases = {
        f"1D range [{cells}]": (ranges, range_designs),
        f"1D range [{cells}] permuted": (permuted_workload(ranges, random_state=4), range_designs),
        f"2D marginal {marginal_shape}": (marginals, marginal_designs),
        f"2D marginal {marginal_shape} permuted": (
            permuted_workload(marginals, random_state=4),
            marginal_designs,
        ),
    }
    rows = []
    for label, (workload, designs) in cases.items():
        strategies = {
            name: weighted_design_strategy(workload, design).strategy
            for name, design in designs.items()
        }
        strategies["eigen design"] = eigen_design(workload).strategy
        errors = _errors(workload, strategies, privacy)
        rows.append({"workload": label, **errors, "lower bound": minimum_error_bound(workload, privacy)})
    return rows


# ------------------------------------------------------------------ ablation ---
SCALABILITY_SHAPES = {
    "dense": _scale(
        ((32,), (64,), (128,), (256,)),
        ((64,), (128,), (256,), (512,), (1024,), (2048,)),
    ),
    # Every shape beyond the first has n x n above the structure-preference
    # budget, so the factorized path is the default there.
    "factorized": _scale(
        ((16, 16, 4), (16, 16, 16), (32, 32, 8)),
        ((16, 16, 8), (16, 16, 16), (32, 32, 8), (32, 32, 16), (32, 32, 32)),
    ),
}


def _run_scalability(kind: str, shapes, epsilon: float, delta: float) -> list:
    """Eigen-design time and quality on all-range workloads, by domain size.

    ``dense`` sweeps 1-D domains.  ``factorized`` sweeps product domains on
    the Kronecker fast path; it skips completion (``complete=False``), which
    keeps the strategy Gram diagonal in the eigenbasis so the error trace
    stays factorized at any size.
    """
    privacy = _privacy(epsilon, delta)
    default = _choose(kind, SCALABILITY_SHAPES)
    shapes = default if shapes is None else shapes
    factorized = kind == "factorized"
    options = {"complete": False, "factorized": True} if factorized else {}

    def workload_of(shape) -> Workload:
        if factorized:
            return all_range_queries(list(shape))
        (cells,) = shape
        return all_range_queries_1d(cells)

    # One untimed design of the first size pays the process's one-time costs
    # (imports, first BLAS and solver calls) that would otherwise land on it.
    eigen_design(workload_of(shapes[0]), **options)
    rows = []
    for shape in shapes:
        workload = workload_of(shape)
        start = time.perf_counter()
        design = eigen_design(workload, **options)
        seconds = time.perf_counter() - start
        error = expected_workload_error(workload, design.strategy, privacy)
        rows.append(
            {
                "shape": _label(shape),
                "cells": workload.column_count,
                "seconds": seconds,
                "error": error,
                "ratio_to_bound": error / minimum_error_bound(workload, privacy),
                "method": design.method,
                "solver_iterations": design.solution.iterations,
            }
        )
    return rows


# ------------------------------------------------------------ engine demo ---
def _run_query_engine(buckets: int, tuples: int, epsilon: float, delta: float, seed: int) -> list:
    """The engine path end to end: SQL -> plan -> session, cold vs. warm.

    Two sessions share one planner: the first pays a cold plan (strategy
    optimization), the second answers the *same workload shape* through the
    plan cache, an overlapping follow-up is served free from the released
    estimate, and an over-budget request is refused without spending.
    """
    from repro.domain.schema import CategoricalAttribute, NumericAttribute, Schema
    from repro.engine import BudgetExceededError, Planner, Session
    from repro.relational.vectorize import sample_relation

    schema = Schema(
        [
            CategoricalAttribute("status", ["bronze", "silver", "gold"]),
            NumericAttribute("score", [float(s) for s in range(buckets + 1)]),
        ]
    )
    statements = [
        "SELECT COUNT(*) FROM users",
        "SELECT COUNT(*) FROM users GROUP BY status",
        f"SELECT COUNT(*) FROM users WHERE score BETWEEN 0 AND {max(buckets // 2, 1)}",
    ]
    relation = sample_relation(schema, tuples, random_state=seed)
    planner = Planner()
    rows = []

    def session(offset: int) -> Session:
        return Session(
            _privacy(epsilon, delta),
            schema=schema,
            data=relation,
            planner=planner,
            random_state=seed + offset,
        )

    def row(phase: str, session: Session, answer) -> dict:
        return {
            "phase": phase,
            "mechanism": answer.mechanism,
            "plan_cache_hit": answer.plan_cache_hit,
            "plans_built": planner.plans_built,
            "expected_rmse": answer.expected_error,
            "spent_epsilon": session.accountant.spent_epsilon,
        }

    first = session(0)
    rows.append(row("cold plan", first, first.ask(statements, epsilon=epsilon)))
    second = session(1)
    rows.append(row("warm plan-cache hit", second, second.ask(statements, epsilon=epsilon)))
    # per_query=True keeps the reuse row's expected_rmse populated: the
    # serving path skips free-request error analysis unless asked for it.
    reuse = second.ask("SELECT COUNT(*) FROM users WHERE status = 'gold'", per_query=True)
    rows.append(row("released-estimate reuse", second, reuse))
    third = session(2)
    try:
        third.ask(statements, epsilon=2 * epsilon)
        refused = False
    except BudgetExceededError:
        refused = True
    rows.append(
        {
            "phase": "over-budget request",
            "mechanism": "(refused, nothing spent)" if refused else "(unexpectedly allowed)",
            "plan_cache_hit": False,
            "plans_built": planner.plans_built,
            "expected_rmse": float("nan"),
            "spent_epsilon": third.accountant.spent_epsilon,
        }
    )
    return rows


_PRIVACY = {"epsilon": DEFAULT_PRIVACY.epsilon, "delta": DEFAULT_PRIVACY.delta}
_RELATIVE = {"epsilons": EPSILONS, "delta": DEFAULT_PRIVACY.delta, "trials": TRIALS, "shape": None}

_REGISTRY: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "example",
            "The Fig. 1(b) workload under workload / identity / wavelet / eigen strategies",
            "Example 4, Fig. 2",
            _run_example,
            _PRIVACY,
        ),
        ExperimentSpec(
            "range-absolute",
            "Absolute error of range workloads vs hierarchical/wavelet (kind: all-range, random-range)",
            "Fig. 3(a)",
            _run_range_absolute,
            {"kind": "all-range", "shapes": ABSOLUTE_RANGE_SHAPES, **_PRIVACY},
        ),
        ExperimentSpec(
            "relative-range",
            "Relative error of random range queries on a dataset, per epsilon",
            "Fig. 3(b)",
            _run_relative_range,
            {"dataset": "adult", **_RELATIVE},
        ),
        ExperimentSpec(
            "marginal-absolute",
            "Absolute error of marginal workloads vs Fourier/DataCube (kind: 2-way, random)",
            "Fig. 3(c)",
            _run_marginal_absolute,
            {"kind": "2-way", "shapes": ABSOLUTE_MARGINAL_SHAPES, **_PRIVACY},
        ),
        ExperimentSpec(
            "relative-marginal",
            "Relative error of marginals on a dataset, per epsilon (kind: 2-way, random)",
            "Fig. 3(d)",
            _run_relative_marginal,
            {"dataset": "adult", "kind": "2-way", **_RELATIVE},
        ),
        ExperimentSpec(
            "optimizations",
            "Quality/time trade-off of eigen separation and principal vectors "
            "(kind: 1d-ranges, 2d-marginals; shape None is the kind's default)",
            "Fig. 4",
            _run_optimizations,
            {"kind": "1d-ranges", "shape": None, **_PRIVACY},
        ),
        ExperimentSpec(
            "design-queries",
            "Eigen-queries versus wavelet and Fourier matrices as the design set",
            "Fig. 5",
            _run_design_queries,
            {"cells": _scale(256, 2048), "marginal_shape": _scale((16, 16), (64, 32)), **_PRIVACY},
        ),
        ExperimentSpec(
            "datasets",
            "Dimensions and tuple counts of the synthetic evaluation datasets",
            "Table 1",
            _run_datasets,
            {},
        ),
        ExperimentSpec(
            "alternative-workloads",
            "Error-reduction factors on permuted range, range-marginal, CDF and predicate workloads",
            "Table 2",
            _run_alternative_workloads,
            {"cells": _scale(256, 2048), "marginal_shape": _scale((8, 8, 4), (16, 16, 8)), **_PRIVACY},
        ),
        ExperimentSpec(
            "scalability",
            "Eigen-design runtime and error versus domain size "
            "(kind: dense, factorized; shapes None are the kind's default)",
            "ablation (not in paper)",
            _run_scalability,
            {"kind": "dense", "shapes": None, **_PRIVACY},
        ),
        ExperimentSpec(
            "query-engine",
            "SQL through the engine: planner, plan cache, budgeted session",
            "system demo (not in paper)",
            _run_query_engine,
            {"buckets": 8, "tuples": 5000, **_PRIVACY, "seed": 0},
        ),
    )
}


def available_experiments() -> list[ExperimentSpec]:
    """All registered experiments, sorted by name."""
    return [spec for _, spec in sorted(_REGISTRY.items())]


def get_experiment(name: str) -> ExperimentSpec:
    """Look up one experiment by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def run_experiment(name: str, **overrides) -> ExperimentRecord:
    """Run a registered experiment with parameter overrides."""
    return get_experiment(name).run(**overrides)
