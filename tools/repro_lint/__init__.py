"""repro-lint: AST enforcement of the engine's documented invariants.

Four checkers, each the mechanical form of one architecture-doc rule:

========================  ====================================================
``lock-discipline``       manifest-registered shared state is written under
                          its owning lock (§6/§9)
``budget-flow``           every charge pairs with a refund/settle path; the
                          write-ahead ledger record precedes the draw (§8)
``no-densify``            operators densify only at budget-consulting
                          dispatch sites (§3)
``one-factor``            a Gram is Cholesky-factored only by the one
                          rank-checked helper (§5)
========================  ====================================================

See ``docs/linting.md`` for the rule catalog and pragma syntax.
"""

from __future__ import annotations

from .base import (
    Checker,
    Finding,
    Project,
    FORMATTERS,
    format_github,
    format_text,
    load_project,
    run_checkers,
)
from .budget_flow import BudgetFlowChecker
from .lock_discipline import LockDisciplineChecker
from .manifest import LOCK_MANIFEST, LockRule, checkable_rules, render_lock_table
from .no_densify import NoDensifyChecker
from .one_factor import OneFactorChecker

__version__ = "1.3.0"

#: The default checker battery, in rule-id order.
ALL_CHECKERS: tuple[Checker, ...] = (
    BudgetFlowChecker(),
    LockDisciplineChecker(),
    NoDensifyChecker(),
    OneFactorChecker(),
)

RULE_IDS = tuple(checker.rule_id for checker in ALL_CHECKERS)


def lint(paths: list[str], rules: list[str] | None = None) -> list[Finding]:
    """Run the (optionally filtered) checker battery over ``paths``."""
    checkers = [
        checker
        for checker in ALL_CHECKERS
        if rules is None or checker.rule_id in rules
    ]
    return run_checkers(paths, checkers)


__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "FORMATTERS",
    "LOCK_MANIFEST",
    "LockRule",
    "Project",
    "RULE_IDS",
    "__version__",
    "checkable_rules",
    "format_github",
    "format_text",
    "lint",
    "load_project",
    "render_lock_table",
    "run_checkers",
]
