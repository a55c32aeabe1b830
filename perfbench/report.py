#!/usr/bin/env python3
"""Summarize traced runs across workloads as one markdown report.

Reads the ``*-trace1.json`` reports that ``run.py --trace 1`` leaves in
``.perfbench_out/`` and prints, per workload: the share of request time each
target layer takes, the per-layer metrics and the profile findings of the
latest traced run, and the tracing overhead of every traced run next to the
run-to-run spread of ``answers_per_s`` over the ``*-trace0.json`` reports.
Run from the root of a checkout after the traced runs (one per workload at
least; an odd and an even seed each show both pass orders)::

    python3 perfbench/report.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"
ORDER = ("cold-shapes", "paid-refresh", "sql-dashboard")


def _load(pattern: str) -> dict[str, list[dict]]:
    """Every report matching ``pattern``, by workload, oldest first."""
    reports: dict[str, list[dict]] = {}
    for path in sorted(OUT_DIR.glob(pattern), key=lambda p: p.stat().st_mtime):
        report = json.loads(path.read_text())
        reports.setdefault(report["workload"], []).append(report)
    return reports


def _spread(values: list[float]) -> float | None:
    """Quartile spread over the median, as the acceptance check computes it."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _fmt(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def main() -> int:
    traced = _load("*-trace1.json")
    untraced = _load("*-trace0.json")
    reports = {name: runs[-1] for name, runs in traced.items()}
    names = [name for name in ORDER if name in reports]
    if not names:
        print(f"no traced reports in {OUT_DIR}", file=sys.stderr)
        return 1
    first = reports[names[0]]
    print("# perfbench: traced baseline\n")
    print("Generated by `python3 perfbench/report.py`; the tables come from the latest")
    print("`--trace 1` run of each workload.\n")
    print("Machine: `" + json.dumps(first["machine"], sort_keys=True) + "`\n")
    print("Runs: " + ", ".join(f"{n} seed {reports[n]['seed']}, {reports[n]['seconds']:g} s" for n in names))
    print("\n## Share of request time by layer (traced pass)\n")
    print("| layer | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for row in first["profile"]["table"]:
        print(f"| {row} | " + " | ".join(f"{reports[n]['profile']['table'][row]:.1%}" for n in names) + " |")
    print("\n## Per-layer metrics (`*_ms`: ms per answered request)\n")
    print("| metric | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    for metric in first["per_layer"]:
        print(f"| {metric} | " + " | ".join(_fmt(reports[n]["per_layer"][metric]) for n in names) + " |")
    print("\n## Profile findings\n")
    for name in names:
        findings = {k: v for k, v in reports[name]["profile"]["findings"].items() if v is not None}
        print(f"- {name}: " + ", ".join(f"{k} = {v:.1%}" for k, v in findings.items()))
        for family, parts in reports[name]["profile"]["cold_plan"].items():
            if family == "all":
                continue
            print(
                f"  - cold plan {family}: {parts['builds']} builds, {parts['mean_ms']:.0f} ms mean;"
                f" eigh {parts['eigh_share']:.0%}, weighting {parts['weighting_share']:.0%},"
                f" pricing {parts['pricing_share']:.0%}"
            )
    print("\n## End to end, untraced pass of the same runs\n")
    print("| metric | " + " | ".join(names) + " |")
    print("|---|" + "---|" * len(names))
    keys = ("answers_per_s", "answer_p50_ms", "answer_tail_ms", "answer_tail_percentile",
            "paid_p50_ms", "free_p50_ms", "error_vs_identity", "failed_frac")
    for key in keys:
        print(f"| {key} | " + " | ".join(_fmt(reports[n]["untraced"]["metrics"][key]) for n in names) + " |")
    print("\n## Tracing overhead\n")
    print("`trace.overhead_pct` compares one traced and one untraced pass of a run, each on")
    print("its own set-up; odd seeds run the traced pass first.  It is an overhead only where")
    print("it stands out of the run-to-run spread of `answers_per_s` over untraced runs.\n")
    print("| workload | overhead per traced run | mean | answers_per_s spread (untraced runs) | mean vs spread |")
    print("|---|---|---|---|---|")
    for name in names:
        runs = traced[name]
        overheads = [run["per_layer"]["trace.overhead_pct"] for run in runs]
        each = ", ".join(
            f"{value:+.1f}% (seed {run['seed']}, traced {'first' if run.get('traced_first') else 'second'})"
            for value, run in zip(overheads, runs)
        )
        rates = [run["untraced"]["metrics"]["answers_per_s"] for run in untraced.get(name, [])]
        spread = _spread(rates)
        mean = statistics.fmean(overheads)
        if spread is None:
            spread_text, verdict = "—", "unknown"
        else:
            spread_text = f"{spread:.1%} over {len(rates)} runs"
            verdict = "inside" if abs(mean) <= 100.0 * spread else "outside"
        print(f"| {name} | {each} | {mean:+.1f}% | {spread_text} | {verdict} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
