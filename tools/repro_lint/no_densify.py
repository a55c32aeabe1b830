"""NoDensify: nothing densifies a structured operator outside the budget.

The materialization policy (architecture §3, performance doc): structured
operators stay structured; the only code allowed to materialize them is
the dispatch layer in ``repro.utils.operators`` / ``repro.core.error`` /
``repro.core.reductions``, and only from functions that consult the
materialization budget (``within_materialization_budget`` /
``MATERIALIZATION_LIMIT`` / ``HARD_MATERIALIZATION_LIMIT`` or a ``limit``
parameter) — or the operator protocol's own ``to_dense`` delegations.

Three forbidden shapes everywhere else:

* ``something.to_dense()``;
* ``np.asarray(op)`` / ``np.array(op)`` where ``op`` is an operator value
  (tracked by local dataflow from operator constructor calls and
  operator-annotated parameters);
* ``op @ x`` / ``x @ op`` — dense matmul against an operator instance
  (use ``matvec`` / ``apply`` / ``row_block``).
"""

from __future__ import annotations

import ast

from .base import Checker, Finding, Project, SourceFile, call_name

ALLOW_MODULES = {
    "repro.utils.operators",
    "repro.core.error",
    "repro.core.reductions",
}

BUDGET_NAMES = {
    "within_materialization_budget",
    "MATERIALIZATION_LIMIT",
    "HARD_MATERIALIZATION_LIMIT",
}

#: Fallback operator type names (fixtures / trees without operators.py).
DEFAULT_OPERATOR_TYPES = {
    "KroneckerOperator",
    "WoodburyOperator",
    "EigenDiagOperator",
    "SumOperator",
    "StackedOperator",
    "GroupColumnOperator",
    "KroneckerEigenbasis",
    "KroneckerConstraints",
}


def _mentions_budget(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id in BUDGET_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in BUDGET_NAMES:
            return True
    return False


def _has_limit_parameter(function) -> bool:
    args = function.args
    names = [a.arg for a in args.args + args.kwonlyargs + args.posonlyargs]
    return any(name == "limit" or name.endswith("_limit") for name in names)


class NoDensifyChecker(Checker):
    rule_id = "no-densify"
    description = "operators densify only at budget-consulting dispatch sites"
    doc_section = "docs/architecture.md#3-materialization-budgets"

    def __init__(self, operator_types: set[str] | None = None):
        self.operator_types = operator_types

    def run(self, project: Project) -> list[Finding]:
        types = self._operator_types(project)
        findings: list[Finding] = []
        for source in project.files.values():
            findings.extend(self._check_file(source, types))
        return findings

    def _operator_types(self, project: Project) -> set[str]:
        if self.operator_types is not None:
            return set(self.operator_types)
        operators = project.by_module.get("repro.utils.operators")
        if operators is None:
            return set(DEFAULT_OPERATOR_TYPES)
        types = set(DEFAULT_OPERATOR_TYPES)
        for node in operators.tree.body:
            if isinstance(node, ast.ClassDef):
                methods = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if {"to_dense", "matvec"} & methods:
                    types.add(node.name)
        return types

    def _allowed(self, source: SourceFile, node: ast.AST) -> bool:
        """Dispatch-site allowance: allowlisted module + budget-consulting
        (or protocol-delegating) enclosing function."""
        if source.module not in ALLOW_MODULES:
            return False
        function = source.enclosing_function(node)
        if function is None:
            return False
        if function.name in {"to_dense", "gram", "dense_gram"}:
            return True  # the operator protocol's own materialization points
        return _mentions_budget(function) or _has_limit_parameter(function)

    def _check_file(self, source: SourceFile, types: set[str]) -> list[Finding]:
        findings: list[Finding] = []
        tracked = self._tracked_operator_names(source, types)

        def is_operator_value(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name):
                return id(expr) in tracked
            if isinstance(expr, ast.Call):
                return call_name(expr) in types
            return False

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "to_dense"
                    and not self._allowed(source, node)
                ):
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"`{ast.unparse(node.func)}()` outside the "
                            f"budget-consulting dispatch allowlist — keep "
                            f"operators structured (see {self.doc_section})",
                        )
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"asarray", "array"}
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in {"np", "numpy"}
                    and node.args
                    and is_operator_value(node.args[0])
                    and not self._allowed(source, node)
                ):
                    findings.append(
                        self.finding(
                            source,
                            node,
                            f"`{ast.unparse(node.func)}` on an operator "
                            f"value densifies it — use the operator "
                            f"protocol (see {self.doc_section})",
                        )
                    )
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and (is_operator_value(node.left) or is_operator_value(node.right))
                and not self._allowed(source, node)
            ):
                findings.append(
                    self.finding(
                        source,
                        node,
                        "dense `@` against an operator instance — use "
                        f"matvec/apply/row_block (see {self.doc_section})",
                    )
                )
        return findings

    @staticmethod
    def _tracked_operator_names(source: SourceFile, types: set[str]) -> set[int]:
        """``id()`` of Name nodes whose value is operator-typed, by local
        per-function dataflow from constructor calls and annotations."""
        tracked: set[int] = set()
        for scope in ast.walk(source.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            operator_locals: set[str] = set()
            args = scope.args
            for arg in args.args + args.kwonlyargs + args.posonlyargs:
                annotation = arg.annotation
                if annotation is not None:
                    text = ast.unparse(annotation)
                    if any(t in text for t in types):
                        operator_locals.add(arg.arg)
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if call_name(node.value) in types:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                operator_locals.add(target.id)
            for node in ast.walk(scope):
                if isinstance(node, ast.Name) and node.id in operator_locals:
                    tracked.add(id(node))
        return tracked
