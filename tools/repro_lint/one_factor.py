"""OneFactor: every Gram Cholesky goes through the one rank-checked helper.

A bare ``scipy.linalg.cholesky`` or ``cho_factor`` also succeeds on
numerically singular Grams: a rank-87 eigen design over 384 cells factors
with pivots near 1e-15, and a solve through that factor amplifies noise by
about 1e8.  So the package factors a Gram in exactly one place,
``repro.utils.linalg.rank_checked_cholesky``, which adds LAPACK's condition
estimate, and a strategy shares its one Gram root, this factor at full
rank, through ``Strategy.normal_factor`` (architecture §5).

Flagged: any call named ``cholesky`` or ``cho_factor`` outside that
helper's body, in every module.
"""

from __future__ import annotations

import ast

from .base import Checker, Finding, Project, call_name, unparse

#: (module, function) of the one place a Gram may be Cholesky-factored.
HELPER = ("repro.utils.linalg", "rank_checked_cholesky")

FACTOR_CALLS = {"cholesky", "cho_factor"}


class OneFactorChecker(Checker):
    rule_id = "one-factor"
    description = "Gram Cholesky factorizations go through the one rank-checked helper"
    doc_section = "docs/architecture.md#5-the-engine-layer"

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for source in project.files.values():
            for node in ast.walk(source.tree):
                if not (isinstance(node, ast.Call) and call_name(node) in FACTOR_CALLS):
                    continue
                function = source.enclosing_function(node)
                if (source.module, getattr(function, "name", None)) == HELPER:
                    continue
                findings.append(
                    self.finding(
                        source,
                        node,
                        f"`{unparse(node.func)}(...)` outside `{HELPER[1]}` — a bare "
                        "Cholesky passes numerically singular Grams as full rank; "
                        f"use the helper or `Strategy.normal_factor` (see {self.doc_section})",
                    )
                )
        return findings
