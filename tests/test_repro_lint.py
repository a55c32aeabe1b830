"""repro-lint catches every seeded invariant violation; ``src/`` is clean.

Fixture snippets per checker (``docs/linting.md``): known-bad source is
flagged with the right rule id at the right line, known-good source stays
clean, a pragma without a reason is rejected (and does not suppress), and
the integration tier asserts the real tree lints green — so the CI
``lint`` job can only ever fail on a genuine regression, never on day-one
noise.
"""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import repro_lint  # noqa: E402
from repro_lint import ALL_CHECKERS, RULE_IDS, lint, render_lock_table  # noqa: E402
from repro_lint.base import PRAGMA, load_project, module_name  # noqa: E402
from repro_lint.manifest import checkable_rules  # noqa: E402


def lint_tree(tmp_path, files, rules=None):
    """Write ``{relative_path: source}`` under ``tmp_path`` and lint it."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint([str(tmp_path / "src")], rules=rules)


def hits(findings, rule):
    return [finding for finding in findings if finding.rule == rule]


# ------------------------------------------------------------------ framework
class TestFramework:
    def test_rule_catalog(self):
        assert RULE_IDS == (
            "budget-flow",
            "lock-discipline",
            "no-densify",
            "one-factor",
        )
        for checker in ALL_CHECKERS:
            assert checker.description
            assert checker.doc_section.startswith("docs/")

    def test_module_name_roots_at_src(self):
        assert module_name("src/repro/engine/cache.py") == "repro.engine.cache"
        assert module_name("/tmp/x/src/repro/utils/__init__.py") == "repro.utils"
        assert module_name("tools/lint.py") == "tools.lint"

    def test_syntax_errors_become_findings(self, tmp_path):
        findings = lint_tree(tmp_path, {"src/bad.py": "def broken(:\n"})
        assert [finding.rule for finding in findings] == ["syntax"]

    def test_github_format(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/repro/x.py": "def f(op):\n    return op.to_dense()\n"},
        )
        text = repro_lint.format_github(findings)
        assert "::error file=" in text and "line=2" in text and "no-densify" in text


# -------------------------------------------------------------------- pragmas
class TestPragmas:
    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/x.py": """\
                def f(op):
                    # repro-lint: allow[no-densify] reason=diagnostic, bounded by caller
                    return op.to_dense()
                """
            },
        )
        assert findings == []

    def test_pragma_without_reason_is_rejected_and_does_not_suppress(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/x.py": """\
                def f(op):
                    return op.to_dense()  # repro-lint: allow[no-densify]
                """
            },
        )
        assert {finding.rule for finding in findings} == {"no-densify", "pragma"}

    def test_pragma_for_another_rule_does_not_suppress(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/x.py": """\
                def f(op):
                    # repro-lint: allow[lock-discipline] reason=wrong rule on purpose
                    return op.to_dense()
                """
            },
        )
        assert [finding.rule for finding in findings] == ["no-densify"]


# ------------------------------------------------------------ LockDiscipline
CACHE_BAD = """\
import threading

class PlanCache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}
        self.hits = 0

    def put(self, key, value):
        self._entries[key] = value

    def touch(self, key):
        self._entries.move_to_end(key)

    def count(self):
        self.hits += 1
"""

CACHE_GOOD = """\
import threading

class PlanCache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}
        self.hits = 0

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self.hits += 1

    def stats(self):
        return {"hits": self.hits}  # lock-free read: legal
"""


class TestLockDiscipline:
    def test_unlocked_writes_are_flagged_with_lines(self, tmp_path):
        findings = lint_tree(tmp_path, {"src/repro/engine/cache.py": CACHE_BAD})
        flagged = hits(findings, "lock-discipline")
        assert [finding.line for finding in flagged] == [10, 13, 16]

    def test_locked_writes_and_lockfree_reads_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {"src/repro/engine/cache.py": CACHE_GOOD})
        assert findings == []

    def test_module_global_state_requires_the_module_lock(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/utils/operators.py": """\
                import threading
                _FACTOR_EIGH_CACHE = {}
                _FACTOR_EIGH_CACHE_LOCK = threading.Lock()

                def remember(key, value):
                    _FACTOR_EIGH_CACHE[key] = value

                def remember_locked(key, value):
                    with _FACTOR_EIGH_CACHE_LOCK:
                        _FACTOR_EIGH_CACHE[key] = value
                """
            },
        )
        flagged = hits(findings, "lock-discipline")
        assert [finding.line for finding in flagged] == [6]

    def test_unlocked_server_counter_write_is_flagged(self, tmp_path):
        """Mutate the real server: drop one `with self._lock:` guard."""
        source = (ROOT / "src" / "repro" / "engine" / "server.py").read_text()
        mutated, count = re.subn(
            r"(?P<indent>[ ]*)with self\._lock:\n[ ]*(?P<write>self\._answers_served \+= 1)",
            r"\g<indent>\g<write>",
            source,
            count=1,
        )
        assert count == 1
        findings = lint_tree(
            tmp_path, {"src/repro/engine/server.py": mutated}, rules=["lock-discipline"]
        )
        flagged = hits(findings, "lock-discipline")
        assert len(flagged) == 1
        assert "self._answers_served" in flagged[0].message
        line = mutated.splitlines()[flagged[0].line - 1]
        assert line.strip() == "self._answers_served += 1"


# ---------------------------------------------------------------- BudgetFlow
class TestBudgetFlow:
    def test_unpaired_charge_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/engine/session.py": """\
                def ask(accountant, params):
                    accountant.charge(params)
                    return params
                """
            },
        )
        flagged = hits(findings, "budget-flow")
        assert [finding.line for finding in flagged] == [2]

    def test_charge_then_guard_shape_is_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/engine/session.py": """\
                def ask(accountant, params, run):
                    accountant.charge(params)
                    try:
                        answer = run(params)
                    except BaseException:
                        accountant.refund(params)
                        raise
                    accountant.commit(params)
                    return answer

                def ask_finally(accountant, params, run):
                    accountant.charge(params)
                    try:
                        return run(params)
                    finally:
                        accountant.ledger_settle(params)
                """
            },
        )
        assert hits(findings, "budget-flow") == []

    def test_noise_draw_before_ledger_begin_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/engine/session.py": """\
                def release(store, rng, entry):
                    noise = rng.standard_normal(8)
                    store.ledger_begin(entry)
                    return noise

                def release_ok(store, rng, entry):
                    store.ledger_begin(entry)
                    try:
                        return rng.standard_normal(8)
                    finally:
                        store.ledger_settle(entry)
                """
            },
        )
        flagged = hits(findings, "budget-flow")
        assert [finding.line for finding in flagged] == [2]

    def test_the_defining_modules_are_exempt(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/mechanisms/accountant.py": """\
                class PrivacyAccountant:
                    def spend(self, request):
                        return self.charge(request)
                """
            },
        )
        assert hits(findings, "budget-flow") == []


# ----------------------------------------------------------------- NoDensify
class TestNoDensify:
    def test_to_dense_outside_the_allowlist_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/engine/session.py": """\
                def answer(op, x):
                    return op.to_dense() @ x
                """
            },
        )
        flagged = hits(findings, "no-densify")
        assert [finding.line for finding in flagged] == [2]

    def test_budget_consulting_dispatch_site_is_allowed(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/error.py": """\
                from repro.utils.operators import within_materialization_budget

                def dispatch(op):
                    if within_materialization_budget(op.shape):
                        return op.to_dense()
                    return op
                """
            },
        )
        assert hits(findings, "no-densify") == []

    def test_allowlisted_module_still_needs_the_budget(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/error.py": """\
                def dispatch(op):
                    return op.to_dense()
                """
            },
        )
        assert [finding.line for finding in hits(findings, "no-densify")] == [2]

    def test_operator_dataflow_catches_asarray_and_matmul(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/engine/session.py": """\
                import numpy as np
                from repro.utils.operators import KroneckerOperator

                def answer(factors, x):
                    op = KroneckerOperator(factors)
                    dense = np.asarray(op)
                    return op @ x, dense

                def fine(factors, x):
                    op = KroneckerOperator(factors)
                    return op.matvec(x), np.asarray(x)
                """
            },
        )
        flagged = hits(findings, "no-densify")
        assert [finding.line for finding in flagged] == [6, 7]


# ---------------------------------------------------------------- OneFactor
class TestOneFactor:
    def test_bare_cholesky_outside_the_helper_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/core/error.py": """\
                import numpy as np
                import scipy.linalg
                from scipy.linalg import cho_factor

                def price(gram, rhs):
                    factor = scipy.linalg.cholesky(gram)
                    lower = np.linalg.cholesky(gram)
                    return cho_factor(gram), factor, lower
                """
            },
        )
        flagged = hits(findings, "one-factor")
        assert [finding.line for finding in flagged] == [6, 7, 8]

    def test_the_helper_is_allowed_and_no_optimize_module_is(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/utils/linalg.py": """\
                import scipy.linalg

                def rank_checked_cholesky(gram):
                    return scipy.linalg.cholesky(gram)
                """,
                "src/repro/optimize/solver.py": """\
                import scipy.linalg

                def newton_step(hessian, gradient):
                    return scipy.linalg.cho_factor(hessian)
                """,
            },
        )
        flagged = hits(findings, "one-factor")
        assert [finding.line for finding in flagged] == [4]
        assert flagged[0].path.endswith("src/repro/optimize/solver.py")

    def test_another_function_in_the_helper_module_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/repro/utils/linalg.py": """\
                import scipy.linalg

                def solve(gram, rhs):
                    return scipy.linalg.cho_factor(gram)
                """
            },
        )
        assert [finding.line for finding in hits(findings, "one-factor")] == [4]

    def test_mutated_support_check_is_flagged(self, tmp_path):
        """Mutate the real strategy: factor the Gram directly in the support check."""
        source = (ROOT / "src" / "repro" / "core" / "strategy.py").read_text()
        mutated, count = re.subn(
            r"rank_checked_cholesky\(self\.gram\) is not None:",
            "scipy.linalg.cho_factor(self.gram) is not None:",
            source,
            count=1,
        )
        assert count == 1
        findings = lint_tree(
            tmp_path, {"src/repro/core/strategy.py": mutated}, rules=["one-factor"]
        )
        flagged = hits(findings, "one-factor")
        assert len(flagged) == 1
        line = mutated.splitlines()[flagged[0].line - 1]
        assert "scipy.linalg.cho_factor(self.gram)" in line


# ------------------------------------------------------- manifest <-> source
class TestManifest:
    def test_every_checkable_rule_points_at_real_code(self):
        """The manifest cannot rot: each enforced module/owner/lock exists."""
        project, errors = load_project([str(ROOT / "src")])
        assert errors == []
        by_module = project.by_module
        for rule in checkable_rules():
            source = by_module.get(rule.module)
            assert source is not None, f"manifest module {rule.module} not in src/"
            if rule.owner is not None:
                assert f"class {rule.owner}" in source.text
            for attribute in rule.attributes:
                assert attribute in source.text, (
                    f"{rule.module}: manifest attribute {attribute} gone"
                )

    def test_rendered_table_is_in_the_architecture_doc(self):
        assert render_lock_table() in (ROOT / "docs" / "architecture.md").read_text()


# ---------------------------------------------------------------- integration
class TestIntegration:
    def test_src_lints_clean(self):
        """The acceptance gate: zero unsuppressed findings over src/."""
        assert lint([str(ROOT / "src")]) == []

    def test_every_suppression_in_src_carries_a_reason(self):
        for path in sorted((ROOT / "src").rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                match = PRAGMA.search(line)
                if match:
                    assert (match.group("reason") or "").strip(), (
                        f"{path}:{number}: pragma without a reason"
                    )

    def test_cli_exit_codes_and_github_format(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "x.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(op):\n    return op.to_dense()\n")
        result = subprocess.run(
            [
                sys.executable,
                str(ROOT / "tools" / "lint.py"),
                "--format",
                "github",
                str(tmp_path / "src"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "::error file=" in result.stdout
        clean = subprocess.run(
            [
                sys.executable,
                str(ROOT / "tools" / "lint.py"),
                str(ROOT / "src" / "repro" / "engine" / "cache.py"),
            ],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_python_m_repro_lint(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(ROOT)
        assert main(["lint", str(ROOT / "src" / "repro" / "engine" / "cache.py")]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("def f(op):\n    return op.to_dense()\n")
        assert main(["lint", str(bad)]) == 1

    def test_unknown_rule_is_a_usage_error(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "lint.py"), "--rules", "nope", "src"],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 2
