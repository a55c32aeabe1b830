"""Command-line harness: run experiments, or answer SQL queries privately.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro info range-absolute
    python -m repro run example
    python -m repro run range-absolute --set "shapes=[(64,), (8, 8)]" --format csv
    python -m repro run alternative-workloads --output results.json
    python -m repro query --schema schema.json --data people.csv \
        --sql "SELECT COUNT(*) FROM people GROUP BY gender" --epsilon 0.5
    python -m repro serve --schema schema.json --data people.csv \
        --budget-epsilon 1.0 --workers 4 < requests.jsonl
    python -m repro lint

``run`` prints the experiment's rows as an aligned table (or CSV/JSON) and can
persist them with ``--output``; ``--set key=value`` overrides any default
parameter of the experiment (values are parsed as Python literals when
possible, so ``--set "shapes=[(4,4,4)]"`` and ``--set epsilon=1.0`` both work).

``query`` is the end-to-end private query path: a schema spec (JSON mapping
each attribute to ``"categorical"``, a bucket count, or explicit edges), a
CSV of raw tuples, and one or more SQL counting queries go through the
engine — SQL compilation, planning, plan cache, budgeted session — and come
back as mutually consistent private answers.

``serve`` keeps the engine resident and answers **line-delimited requests**
from stdin (or ``--requests FILE``) through a multi-tenant
:class:`~repro.engine.server.Server`: each line is a bare SQL counting query
(tenant ``default``) or a JSON object ``{"tenant": ..., "sql": ...,
"epsilon": ...}``; each reply is one JSON line.  Every tenant gets its own
budget (``--budget-epsilon`` / ``--budget-delta``), requests are answered
from a thread pool, and repeated workload shapes across tenants share one
plan cache.  Requests stream: each reply is written as soon as it and every
earlier one are done, so a live pipe gets answers before EOF.
Admission is unbounded unless ``--queue-depth N`` is given; then requests beyond N in
flight are rejected at once with a ``retry_after`` hint.  ``--forecast``
turns on workload forecasting and adaptive pre-planning (epoch length via
``--forecast-epoch``, forecast width via ``--forecast-top-k``): predicted-hot
shapes are pre-warmed in the plan cache before they arrive, without changing
any answer.  SIGINT drains in-flight requests before exiting; EOF is the
normal shutdown.

``lint`` runs the repro-lint invariant checkers (``tools/repro_lint``,
documented in ``docs/linting.md``) over ``src/`` (or the given paths) —
the same battery the CI ``lint`` job enforces.  It requires a repository
checkout; the tool package is located by walking up from the current
directory.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Sequence

from repro.evaluation.io import ExperimentRecord, rows_to_csv, save_records
from repro.evaluation.registry import available_experiments, get_experiment
from repro.evaluation.tables import format_table
from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line harness."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction harness for the adaptive (eigen-design) matrix mechanism.",
    )
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("list", help="list the available experiments")

    info = commands.add_parser("info", help="show one experiment's description and defaults")
    info.add_argument("experiment", help="experiment name (see 'list')")

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see 'list')")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a default parameter (repeatable)",
    )
    run.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format for the result rows",
    )
    run.add_argument(
        "--output",
        default=None,
        help="also save the result as a JSON results file at this path",
    )
    run.add_argument(
        "--precision",
        type=int,
        default=3,
        help="decimal places in table output",
    )

    query = commands.add_parser(
        "query",
        help="answer SQL counting queries privately (schema + CSV + SQL -> answers)",
    )
    query.add_argument(
        "--schema",
        required=True,
        help="JSON file mapping attribute names to 'categorical', a bucket count, "
        "or explicit bucket edges/values",
    )
    query.add_argument("--data", required=True, help="CSV file of raw tuples")
    query.add_argument(
        "--sql",
        action="append",
        default=[],
        metavar="STATEMENT",
        help="a SQL counting query (repeatable)",
    )
    query.add_argument(
        "--sql-file",
        default=None,
        help="file with one SQL counting query per line ('#' comments allowed)",
    )
    query.add_argument("--epsilon", type=float, default=0.5, help="privacy budget epsilon")
    query.add_argument("--delta", type=float, default=1e-4, help="privacy budget delta")
    query.add_argument("--seed", type=int, default=None, help="noise seed (reproducible runs)")
    query.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format for the answers",
    )
    query.add_argument(
        "--precision",
        type=int,
        default=1,
        help="decimal places in table output",
    )

    serve = commands.add_parser(
        "serve",
        help="serve line-delimited SQL requests from a multi-tenant engine server",
    )
    serve.add_argument(
        "--schema",
        required=True,
        help="JSON file mapping attribute names to 'categorical', a bucket count, "
        "or explicit bucket edges/values",
    )
    serve.add_argument("--data", required=True, help="CSV file of raw tuples")
    serve.add_argument(
        "--requests",
        default=None,
        help="file of line-delimited requests (default: read stdin until EOF)",
    )
    serve.add_argument(
        "--budget-epsilon",
        type=float,
        default=1.0,
        help="per-tenant privacy budget epsilon",
    )
    serve.add_argument(
        "--budget-delta",
        type=float,
        default=1e-4,
        help="per-tenant privacy budget delta",
    )
    serve.add_argument(
        "--default-epsilon",
        type=float,
        default=0.1,
        help="per-request epsilon when a request does not name its own",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="request-pool worker threads",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard-pool parallelism for one large request (default: workers)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="admission bound: requests beyond this many in flight are rejected "
        "with a retry_after hint (default: unbounded)",
    )
    serve.add_argument(
        "--state",
        default=None,
        help="SQLite file for the durable state tier: crash-safe per-tenant "
        "budget ledger, persisted plans (warm reboots) and releases "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--forecast",
        action="store_true",
        help="forecast the workload and pre-plan for the predicted mix: record "
        "per-tenant arrivals per epoch, pre-warm the plan cache for the "
        "predicted-hot shapes on a background thread, and design one "
        "strategy for their union (answers are unchanged, only plan-build "
        "timing moves)",
    )
    serve.add_argument(
        "--forecast-epoch",
        type=float,
        default=60.0,
        help="forecast epoch length in seconds (default: 60)",
    )
    serve.add_argument(
        "--forecast-top-k",
        type=int,
        default=8,
        help="how many predicted-hot shapes each forecast pre-plans (default: 8)",
    )
    serve.add_argument("--seed", type=int, default=None, help="noise seed (reproducible runs)")

    lint = commands.add_parser(
        "lint",
        help="run the repro-lint invariant checkers (see docs/linting.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint (default: the repository's src/)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="finding output format ('github' emits ::error annotations)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    return parser


def _parse_overrides(pairs: Sequence[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"override {pair!r} is not of the form KEY=VALUE")
        key, _, raw = pair.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise ReproError(f"override {pair!r} has an empty key")
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def _command_list(out) -> int:
    rows = [
        {
            "experiment": spec.name,
            "paper": spec.paper_artifact,
            "description": spec.description,
        }
        for spec in available_experiments()
    ]
    print(format_table(rows, columns=["experiment", "paper", "description"]), file=out)
    return 0


def _command_info(name: str, out) -> int:
    spec = get_experiment(name)
    print(f"{spec.name}: {spec.description}", file=out)
    print(f"paper artifact: {spec.paper_artifact}", file=out)
    print("defaults:", file=out)
    for key, value in sorted(spec.defaults.items()):
        print(f"  {key} = {value!r}", file=out)
    return 0


def _render(record: ExperimentRecord, fmt: str, precision: int) -> str:
    if fmt == "csv":
        return rows_to_csv(record.rows)
    if fmt == "json":
        return json.dumps(
            {
                "experiment": record.experiment,
                "parameters": record.parameters,
                "rows": record.rows,
                "notes": record.notes,
            },
            indent=2,
            default=str,
        )
    title = f"{record.experiment}  ({record.notes})" if record.notes else record.experiment
    return format_table(record.rows, precision=precision, title=title)


def _command_run(arguments, out) -> int:
    spec = get_experiment(arguments.experiment)
    overrides = _parse_overrides(arguments.overrides)
    if overrides:
        # A --set literal of the wrong type (e.g. shapes=abc) surfaces as a
        # TypeError/ValueError inside the runner; report it as a usage error
        # instead of a traceback, naming the exception type so a genuine
        # runner defect that slips through stays identifiable.  Runs without
        # overrides propagate such exceptions untouched — there they can only
        # indicate a real defect.
        try:
            record = spec.run(**overrides)
        except (TypeError, ValueError) as error:
            raise ReproError(
                f"experiment {spec.name!r} rejected the provided parameters "
                f"({', '.join(arguments.overrides)}): "
                f"{type(error).__name__}: {error}"
            ) from error
    else:
        record = spec.run()
    print(_render(record, arguments.format, arguments.precision), file=out)
    if arguments.output:
        path = save_records([record], arguments.output)
        print(f"[saved to {path}]", file=out)
    return 0


def _load_schema_spec(path: str) -> dict:
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except OSError as error:
        raise ReproError(f"cannot read schema file {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ReproError(f"schema file {path!r} is not valid JSON: {error}") from error
    if not isinstance(spec, dict) or not spec:
        raise ReproError(
            f"schema file {path!r} must hold a non-empty JSON object mapping "
            "attribute names to bucket specifications"
        )
    return spec


def _load_statements(arguments) -> list[str]:
    statements = list(arguments.sql)
    if arguments.sql_file:
        try:
            with open(arguments.sql_file) as handle:
                for line in handle:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        statements.append(line)
        except OSError as error:
            raise ReproError(
                f"cannot read SQL file {arguments.sql_file!r}: {error}"
            ) from error
    if not statements:
        raise ReproError("query needs at least one statement (--sql or --sql-file)")
    return statements


def _command_query(arguments, out) -> int:
    # Imported lazily so `list`/`run` keep their fast startup.
    from repro.core.privacy import PrivacyParams
    from repro.engine import Session
    from repro.relational.csvio import read_csv
    from repro.relational.vectorize import infer_schema

    statements = _load_statements(arguments)
    spec = _load_schema_spec(arguments.schema)
    try:
        relation = read_csv(arguments.data)
    except OSError as error:
        raise ReproError(f"cannot read data file {arguments.data!r}: {error}") from error
    schema = infer_schema(relation, spec)
    budget = PrivacyParams(arguments.epsilon, arguments.delta)
    session = Session(budget, schema=schema, data=relation, random_state=arguments.seed)
    answer = session.ask(
        statements, epsilon=arguments.epsilon, delta=arguments.delta, per_query=True
    )
    rows = answer.rows()
    if arguments.format == "csv":
        print(rows_to_csv(rows), file=out)
    elif arguments.format == "json":
        payload = {
            "statements": statements,
            "epsilon": arguments.epsilon,
            "delta": arguments.delta,
            "mechanism": answer.mechanism,
            "expected_rmse": answer.expected_error,
            "rows": rows,
        }
        print(json.dumps(payload, indent=2, default=str), file=out)
    else:
        title = (
            f"private answers  (epsilon={arguments.epsilon}, delta={arguments.delta}, "
            f"{answer.mechanism})"
        )
        print(format_table(rows, precision=arguments.precision, title=title), file=out)
        if answer.expected_error is not None:
            print(f"[expected workload RMSE {answer.expected_error:.2f}]", file=out)
        print(
            "[all answers derive from one released estimate and are mutually consistent]",
            file=out,
        )
    return 0


def _find_lint_tools() -> "Path | None":
    """Locate ``tools/repro_lint`` by walking up from cwd (repo checkouts).

    The linter is repository tooling, not part of the installed package —
    a pip-installed ``repro`` without the repo checkout reports a clean
    error instead of crashing.
    """
    from pathlib import Path

    for base in [Path.cwd(), *Path.cwd().parents]:
        candidate = base / "tools" / "repro_lint" / "__init__.py"
        if candidate.is_file():
            return candidate.parent.parent
    return None


def _command_lint(arguments, out) -> int:
    tools_dir = _find_lint_tools()
    if tools_dir is None:
        raise ReproError(
            "cannot find tools/repro_lint above the current directory — "
            "`python -m repro lint` runs from a repository checkout "
            "(see docs/linting.md)"
        )
    if str(tools_dir) not in sys.path:
        sys.path.insert(0, str(tools_dir))
    import repro_lint

    rules = None
    if arguments.rules:
        rules = [rule.strip() for rule in arguments.rules.split(",") if rule.strip()]
        unknown = set(rules) - set(repro_lint.RULE_IDS)
        if unknown:
            raise ReproError(f"unknown lint rules: {', '.join(sorted(unknown))}")
    paths = list(arguments.paths)
    if not paths:
        default_src = tools_dir.parent / "src"
        if not default_src.is_dir():
            raise ReproError(
                "no paths given and no src/ directory next to tools/ — "
                "pass the files or directories to lint"
            )
        paths = [str(default_src)]
    try:
        findings = repro_lint.lint(paths, rules=rules)
    except FileNotFoundError as error:
        raise ReproError(str(error)) from error
    if findings:
        print(repro_lint.FORMATTERS[arguments.format](findings), file=out)
        print(f"repro-lint: {len(findings)} finding(s)", file=out)
        return 1
    print(
        f"repro-lint {repro_lint.__version__}: clean "
        f"({len(repro_lint.ALL_CHECKERS)} rules)",
        file=out,
    )
    return 0


def _command_serve(arguments, out) -> int:
    # Imported lazily so `list`/`run` keep their fast startup.
    from repro.relational.csvio import read_csv
    from repro.relational.vectorize import infer_schema

    spec = _load_schema_spec(arguments.schema)
    try:
        relation = read_csv(arguments.data)
    except OSError as error:
        raise ReproError(f"cannot read data file {arguments.data!r}: {error}") from error
    schema = infer_schema(relation, spec)
    if arguments.requests is None:
        # EOF (ctrl-D) is the normal shutdown path.
        return _serve_lines(arguments, schema, relation, sys.stdin, out)
    try:
        handle = open(arguments.requests)
    except OSError as error:
        raise ReproError(
            f"cannot read requests file {arguments.requests!r}: {error}"
        ) from error
    with handle:
        return _serve_lines(arguments, schema, relation, handle, out)


def _serve_lines(arguments, schema, relation, lines, out) -> int:
    import signal
    import threading

    from repro.core.privacy import PrivacyParams
    from repro.engine import Server

    server = Server(
        PrivacyParams(arguments.budget_epsilon, arguments.budget_delta),
        schema=schema,
        data=relation,
        workers=arguments.workers,
        shards=arguments.shards,
        queue_depth=arguments.queue_depth,
        default_epsilon=arguments.default_epsilon,
        random_state=arguments.seed,
        store=arguments.state,
        forecast=arguments.forecast,
        forecast_epoch_seconds=arguments.forecast_epoch,
        forecast_top_k=arguments.forecast_top_k,
    )
    # SIGINT requests a graceful drain: stop admitting, finish what is in
    # flight, reject the rest with an explanation. A second ctrl-C falls
    # through to the default handler (hard exit).
    stop = threading.Event()
    previous_handler = None

    def _request_drain(signum, frame):
        stop.set()
        signal.signal(signal.SIGINT, previous_handler or signal.default_int_handler)
        print("[draining in-flight requests; ctrl-C again to force quit]", file=sys.stderr)

    try:
        previous_handler = signal.signal(signal.SIGINT, _request_drain)
    except ValueError:  # not the main thread (e.g. embedded callers)
        previous_handler = None
    try:
        server.serve(lines, out=out, stop=stop)
    finally:
        if previous_handler is not None:
            try:
                signal.signal(signal.SIGINT, previous_handler)
            except ValueError:
                pass
        server.close()
    stats = server.stats()
    print(
        f"[served {stats['answers_served']} answers for {stats['tenants']} tenant(s); "
        f"plan cache: {stats['plan_cache']}]",
        file=sys.stderr,
    )
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point used by ``python -m repro`` (returns a process exit code)."""
    out = sys.stdout if out is None else out
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command is None:
        parser.print_help(out)
        return 2
    try:
        if arguments.command == "list":
            return _command_list(out)
        if arguments.command == "info":
            return _command_info(arguments.experiment, out)
        if arguments.command == "query":
            return _command_query(arguments, out)
        if arguments.command == "serve":
            return _command_serve(arguments, out)
        if arguments.command == "lint":
            return _command_lint(arguments, out)
        return _command_run(arguments, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
