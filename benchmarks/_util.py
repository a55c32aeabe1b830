"""Shared helpers for the benchmark suite.

A paper-figure bench runs one experiment of :mod:`repro.evaluation.registry`,
which owns every workload, strategy, seed and shape.  The bench prints the
record's rows, writes them to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture, and asserts the paper's claims on them.  Set the
environment variable ``REPRO_PAPER_SCALE=1`` for the paper-scale
configurations (slower).
"""

from __future__ import annotations

from pathlib import Path

from repro.evaluation import ExperimentRecord, run_experiment
from repro.evaluation.registry import PAPER_SCALE

RESULTS_DIR = Path(__file__).parent / "results"

#: How the printed titles name the configuration.
SCALE_LABEL = "paper scale" if PAPER_SCALE else "reduced scale"


def run(benchmark, name: str, **overrides) -> ExperimentRecord:
    """Run one registry experiment once, timed by pytest-benchmark."""
    return benchmark.pedantic(
        run_experiment, args=(name,), kwargs=overrides, rounds=1, iterations=1
    )


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
