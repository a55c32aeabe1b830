#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one timed run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paid-refresh --seed 1 --seconds 20 --trace 0

Workloads (all closed-loop, 2 client threads against ``Server(workers=2)``):

* ``cold-shapes``   — distinct workload shapes, each asked by two tenants at
  once: one cold plan build and one build-gate wait per shape;
* ``paid-refresh``  — a warm 2048-cell prefix plan, every request a paid
  answer on a fresh data snapshot, budget ledger on;
* ``sql-dashboard`` — JSON lines over a 1024-cell schema: a paid dashboard
  per new tenant, then free SQL drill-downs from its release.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
and a traced pass and prints the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(machine fingerprint, checks, profile shares) is written to
``.perfbench_out/`` in the checkout, and the spans of a traced pass next to
it as JSON lines.  BLAS is pinned to one thread per process, and numpy's
transparent-huge-page requests are turned off (see below).
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere: with 2 request workers on a
# 2-core machine, multi-threaded BLAS would oversubscribe the cores.
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"
# Numpy asks the kernel for transparent huge pages on large arrays, and
# whether it gets them depends on the host's memory fragmentation: on a
# 2-vCPU VM that alone moved the paid-refresh median by 10-25% from one
# process to the next.  Without them every run pays the same page faults.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Reported with ``--trace 0``, in this order, with their units.
END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_tail_ms": "ms",
    "paid_p50_ms": "ms",
    "error_vs_identity": "ratio",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None if result.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _source_digest() -> str:
    """sha1 over the engine's source files: identifies the code without git."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "kernel_thp": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha1": _source_digest(),
    }


def _import_engine() -> None:
    """Put this checkout's ``src/`` first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _human(report: dict, fingerprint: dict) -> list[str]:
    untraced = report["untraced"]
    metrics = untraced["metrics"]
    lines = [
        f"perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']}",
        "machine: " + json.dumps(fingerprint, sort_keys=True),
        f"setup_s median of {len(report['setup_samples'])}: "
        + ", ".join(f"{value:.3f}" for value in report["setup_samples"]),
        f"samples: {metrics['samples']}  tail percentile: p{metrics['answer_tail_percentile']:g}"
        f"  free_p50_ms: {metrics['free_p50_ms']}  failed_frac: {metrics['failed_frac']:.4f}",
    ]
    for name, check in untraced["checks"].items():
        lines.append(f"check {name}: {json.dumps(check)}")
    if "per_layer" in report:
        lines.append(f"spans recorded: {report['spans']}")
        order = "first" if report["traced_first"] else "second"
        lines.append(
            f"trace.overhead_pct {report['per_layer']['trace.overhead_pct']:.2f} from one pair of"
            f" passes, traced pass {order}: read it against the run-to-run spread of"
            " answers_per_s (perfbench/report.py prints both)"
        )
        for name, value in report["per_layer"].items():
            lines.append(f"  {name:40s} {value:.6g}")
        lines.append("profile findings: " + json.dumps(report["profile"]["findings"]))
        lines.append("layer table: " + json.dumps(report["profile"]["table"]))
        for family, parts in report["profile"]["cold_plan"].items():
            lines.append(f"cold plan {family}: {json.dumps(parts)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_engine()

    import runner
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    fingerprint = machine_fingerprint()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = runner.run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        out_dir=OUT_DIR,
        spans_path=OUT_DIR / f"{stem}-spans.jsonl",
    )
    report["machine"] = fingerprint
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2, default=str)
    for line in _human(report, fingerprint):
        print(line)

    if args.trace:
        metrics = {
            name: {"value": report["per_layer"][name], "unit": _layer_unit(name)}
            for name in layers.METRICS
        }
    else:
        values = dict(report["untraced"]["metrics"])
        values["setup_s"] = report["setup_s"]
        values["peak_rss_mb"] = report["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    missing = [name for name, metric in metrics.items() if metric["value"] is None]
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]) and not missing,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()
                },
            }
        )
    )
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
