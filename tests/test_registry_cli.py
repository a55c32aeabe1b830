"""Tests for the experiment registry and the command-line harness."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.evaluation import available_experiments, get_experiment, load_records, run_experiment
from repro.exceptions import ReproError


class TestRegistry:
    def test_all_experiments_have_metadata(self):
        specs = available_experiments()
        assert len(specs) >= 8
        for spec in specs:
            assert spec.name
            assert spec.description
            assert spec.paper_artifact
            assert isinstance(spec.defaults, dict) or hasattr(spec.defaults, "keys")

    def test_get_experiment_unknown_name(self):
        with pytest.raises(ReproError):
            get_experiment("does-not-exist")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ReproError):
            run_experiment("example", bananas=3)

    def test_example_experiment(self):
        record = run_experiment("example")
        strategies = {row["strategy"] for row in record.rows}
        assert {"eigen-design", "wavelet", "identity", "lower-bound"} <= strategies
        errors = {row["strategy"]: row["error"] for row in record.rows}
        assert errors["eigen-design"] < errors["identity"]
        assert errors["eigen-design"] < errors["wavelet"]

    def test_range_absolute_small(self):
        for kind in ("all-range", "random-range"):
            (row,) = run_experiment("range-absolute", kind=kind, shapes=[[32]]).rows
            assert row["shape"] == "32"
            assert row["eigen/bound"] < 1.35

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown kind"):
            run_experiment("range-absolute", kind="bananas", shapes=[[8]])

    def test_marginal_absolute_small(self):
        (row,) = run_experiment("marginal-absolute", shapes=[(4, 4, 4)]).rows
        assert row["eigen"] <= min(row["fourier"], row["datacube"]) * 1.0001

    def test_relative_range_on_synthetic_uniform(self):
        record = run_experiment(
            "relative-range", dataset="uniform", shape=(32,), trials=2, epsilons=(1.0,)
        )
        assert len(record.rows) == 3
        for row in record.rows:
            assert row["mean relative error"] >= 0
            assert row["expected relative error"] > 0

    def test_alternative_workloads_small(self):
        record = run_experiment("alternative-workloads", cells=36, marginal_shape=(6, 6))
        workloads = {row["workload"]: row for row in record.rows}
        assert "1D CDF" in workloads
        # Representation independence: the eigen design beats the
        # locality-dependent competitors on permuted inputs.
        assert workloads["1D range (permuted)"]["best/eigen"] >= 1.0

    def test_optimizations_small(self):
        record = run_experiment("optimizations", shape=(64,))
        methods = {row["method"] for row in record.rows}
        assert "full eigen design" in methods
        assert "eigen separation" in methods
        assert "principal vectors" in methods
        full = next(r["error"] for r in record.rows if r["method"] == "full eigen design")
        bound = next(r["error"] for r in record.rows if r["method"] == "lower bound")
        assert bound <= full

    def test_design_queries_small(self):
        record = run_experiment("design-queries", cells=32, marginal_shape=(4, 4))
        structured, permuted = record.rows[:2]
        # The eigen design set is unaffected by permutation; the wavelet design set degrades.
        assert permuted["eigen design"] == pytest.approx(structured["eigen design"], rel=1e-6)
        assert permuted["wavelet design"] > structured["wavelet design"]

    def test_scalability_small(self):
        record = run_experiment("scalability", shapes=[(16,), (32,)])
        cells = [row["cells"] for row in record.rows]
        assert cells == [16, 32]
        for row in record.rows:
            assert row["ratio_to_bound"] >= 0.99


class TestCli:
    def test_list(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        assert "range-absolute" in out.getvalue()

    def test_info(self):
        out = io.StringIO()
        assert main(["info", "example"], out=out) == 0
        assert "Fig. 2" in out.getvalue()

    def test_info_unknown_experiment(self):
        out = io.StringIO()
        assert main(["info", "nope"], out=out) == 1

    def test_no_command_prints_help(self):
        out = io.StringIO()
        assert main([], out=out) == 2
        assert "usage" in out.getvalue().lower()

    def test_run_table_output(self):
        out = io.StringIO()
        assert main(["run", "example"], out=out) == 0
        assert "eigen-design" in out.getvalue()

    def test_run_with_overrides_and_json(self):
        out = io.StringIO()
        arguments = ["--set", "cells=16", "--set", "marginal_shape=(4,4)", "--format", "json"]
        assert main(["run", "design-queries", *arguments], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["experiment"] == "design-queries"
        assert payload["parameters"]["cells"] == 16

    def test_run_csv_output(self):
        out = io.StringIO()
        assert main(["run", "example", "--format", "csv"], out=out) == 0
        assert out.getvalue().splitlines()[0].startswith("workload,strategy")

    def test_run_saves_results_file(self, tmp_path):
        out = io.StringIO()
        target = tmp_path / "example.json"
        assert main(["run", "example", "--output", str(target)], out=out) == 0
        records = load_records(target)
        assert records[0].experiment == "example"

    def test_bad_override_reports_error(self):
        out = io.StringIO()
        assert main(["run", "example", "--set", "nonsense"], out=out) == 1

    def test_unknown_override_key_reports_error(self):
        out = io.StringIO()
        assert main(["run", "example", "--set", "bananas=1"], out=out) == 1

    def test_bad_override_literal_type_reports_error(self, capsys):
        # A value that parses to the wrong type (epsilon=abc stays a string)
        # must come back as a usage error, not an uncaught traceback.
        out = io.StringIO()
        assert main(["run", "example", "--set", "epsilon=abc"], out=out) == 1
        assert "epsilon=abc" in capsys.readouterr().err

    def test_run_unknown_experiment_reports_error(self, capsys):
        out = io.StringIO()
        assert main(["run", "does-not-exist"], out=out) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestQueryEngineExperiment:
    def test_cold_warm_and_refusal_rows(self):
        record = run_experiment("query-engine", tuples=800, buckets=4)
        phases = {row["phase"]: row for row in record.rows}
        assert phases["cold plan"]["plan_cache_hit"] is False
        assert phases["warm plan-cache hit"]["plan_cache_hit"] is True
        # The warm session re-used the cold session's plan: one optimization.
        assert phases["warm plan-cache hit"]["plans_built"] == 1
        assert phases["released-estimate reuse"]["mechanism"].startswith("release-reuse")
        refused = phases["over-budget request"]
        assert "refused" in refused["mechanism"]
        assert refused["spent_epsilon"] == 0.0


SCHEMA_JSON = '{"gender": "categorical", "gpa": [1.0, 2.0, 3.0, 3.5, 4.0]}'
DATA_CSV = "gender,gpa\n" + "\n".join(
    f"{'M' if i % 2 else 'F'},{1.0 + (i % 30) / 10:.1f}" for i in range(200)
)


class TestCliQuery:
    @pytest.fixture
    def files(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(SCHEMA_JSON)
        data = tmp_path / "people.csv"
        data.write_text(DATA_CSV + "\n")
        return schema, data

    def test_query_end_to_end_table(self, files):
        schema, data = files
        out = io.StringIO()
        code = main(
            [
                "query", "--schema", str(schema), "--data", str(data),
                "--sql", "SELECT COUNT(*) FROM people GROUP BY gender",
                "--sql", "SELECT COUNT(*) FROM people WHERE gpa BETWEEN 2.0 AND 3.5",
                "--epsilon", "0.5", "--seed", "0",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "gender = 'M'" in text and "gender = 'F'" in text
        assert "mutually consistent" in text

    def test_query_json_output_is_consistent(self, files):
        schema, data = files
        out = io.StringIO()
        code = main(
            [
                "query", "--schema", str(schema), "--data", str(data),
                "--sql", "SELECT COUNT(*) FROM people",
                "--sql", "SELECT COUNT(*) FROM people GROUP BY gender",
                "--epsilon", "1.0", "--seed", "3", "--format", "json",
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["mechanism"].startswith("matrix-mechanism")
        answers = [row["answer"] for row in payload["rows"]]
        # Total equals the sum of the gender marginal: one x_hat serves all.
        assert answers[0] == pytest.approx(answers[1] + answers[2], abs=1e-6)

    def test_query_sql_file(self, files, tmp_path):
        schema, data = files
        sql_file = tmp_path / "queries.sql"
        sql_file.write_text(
            "# analyst task\nSELECT COUNT(*) FROM people\n\n"
            "SELECT COUNT(*) FROM people WHERE gender = 'M'\n"
        )
        out = io.StringIO()
        code = main(
            [
                "query", "--schema", str(schema), "--data", str(data),
                "--sql-file", str(sql_file), "--epsilon", "0.5", "--seed", "1",
                "--format", "csv",
            ],
            out=out,
        )
        assert code == 0
        assert out.getvalue().splitlines()[0].startswith("query,")

    def test_query_without_statements_errors(self, files):
        schema, data = files
        out = io.StringIO()
        assert main(["query", "--schema", str(schema), "--data", str(data)], out=out) == 1

    def test_query_missing_schema_file_errors(self, files, capsys):
        _, data = files
        out = io.StringIO()
        code = main(
            ["query", "--schema", "/nonexistent.json", "--data", str(data),
             "--sql", "SELECT COUNT(*) FROM people"],
            out=out,
        )
        assert code == 1
        assert "cannot read schema file" in capsys.readouterr().err

    def test_query_invalid_schema_json_errors(self, files, tmp_path):
        _, data = files
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        out = io.StringIO()
        code = main(
            ["query", "--schema", str(bad), "--data", str(data),
             "--sql", "SELECT COUNT(*) FROM people"],
            out=out,
        )
        assert code == 1

    def test_query_unparsable_sql_errors(self, files):
        schema, data = files
        out = io.StringIO()
        code = main(
            ["query", "--schema", str(schema), "--data", str(data),
             "--sql", "DELETE FROM people", "--epsilon", "0.5"],
            out=out,
        )
        assert code == 1


class TestCliServe:
    @pytest.fixture
    def files(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(SCHEMA_JSON)
        data = tmp_path / "people.csv"
        data.write_text(DATA_CSV + "\n")
        return schema, data

    def test_serve_line_protocol_end_to_end(self, files, tmp_path):
        schema, data = files
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "SELECT COUNT(*) FROM people\n"
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM people GROUP BY gender", "epsilon": 0.4}\n'
            "{\"tenant\": \"a\", \"sql\": \"SELECT COUNT(*) FROM people WHERE gender = 'F'\"}\n"
            '{"tenant": "b", "sql": "SELECT COUNT(*) FROM people", "epsilon": 9.0}\n'
            "garbage {\n"
        )
        out = io.StringIO()
        code = main(
            [
                "serve", "--schema", str(schema), "--data", str(data),
                "--requests", str(requests), "--budget-epsilon", "1.0",
                "--workers", "2", "--seed", "0",
            ],
            out=out,
        )
        assert code == 0
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(replies) == 5
        assert replies[0]["tenant"] == "default" and replies[0]["spent"] is not None
        # Tenant a's follow-up runs after its marginal: free and consistent.
        assert replies[2]["served_from_release"] and replies[2]["spent"] is None
        marginal = dict(zip(replies[1]["labels"], replies[1]["answers"]))
        assert replies[2]["answers"][0] == pytest.approx(marginal["gender = 'F'"])
        # Tenant b's oversized request is refused without taking serving down.
        assert replies[3].get("refused") and "error" in replies[3]
        assert "error" in replies[4]

    def test_serve_state_roundtrip(self, files, tmp_path):
        """--state makes budgets and releases survive a server restart.

        Run 1 spends against the durable store; run 2 — a fresh process-like
        server over the same file — answers the same query free from the
        persisted release, and refuses a request the recovered spend no
        longer affords.
        """
        schema, data = files
        state = tmp_path / "state.db"
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM people GROUP BY gender", "epsilon": 0.8}\n'
        )
        out = io.StringIO()
        base = [
            "serve", "--schema", str(schema), "--data", str(data),
            "--budget-epsilon", "1.0", "--workers", "2", "--seed", "0",
            "--state", str(state),
        ]
        assert main(base + ["--requests", str(requests)], out=out) == 0
        [first] = [json.loads(line) for line in out.getvalue().splitlines()]
        assert first["spent"] is not None
        assert state.exists()

        rerun = tmp_path / "requests2.jsonl"
        rerun.write_text(
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM people GROUP BY gender"}\n'
            '{"tenant": "a", "sql": "SELECT COUNT(*) FROM people WHERE gpa >= 3.5", "epsilon": 0.5}\n'
        )
        out = io.StringIO()
        assert main(base + ["--requests", str(rerun)], out=out) == 0
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        # The release survived the restart: same query, zero marginal cost,
        # and the answers are bit-identical to run 1's release.
        assert replies[0]["served_from_release"] and replies[0]["spent"] is None
        assert replies[0]["answers"] == pytest.approx(first["answers"])
        # The 0.8 spend survived too: 0.5 more does not fit in 1.0.
        assert replies[1].get("refused") and "error" in replies[1]

    def test_serve_missing_requests_file_errors(self, files, capsys):
        schema, data = files
        out = io.StringIO()
        code = main(
            ["serve", "--schema", str(schema), "--data", str(data),
             "--requests", "/nonexistent.jsonl"],
            out=out,
        )
        assert code == 1
        assert "cannot read requests file" in capsys.readouterr().err

    def test_serve_negative_queue_depth_errors(self, files, tmp_path, capsys):
        schema, data = files
        requests = tmp_path / "requests.jsonl"
        requests.write_text("SELECT COUNT(*) FROM people\n")
        code = main(
            ["serve", "--schema", str(schema), "--data", str(data),
             "--requests", str(requests), "--queue-depth", "-1"],
            out=io.StringIO(),
        )
        assert code == 1
        assert "queue_depth must be >= 0" in capsys.readouterr().err

    @pytest.mark.timeout(120)
    def test_serve_replies_on_a_live_pipe_before_eof(self, files):
        """One line in, one reply out, while stdin is still open."""
        schema, data = files
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [path for path in env.get("PYTHONPATH", "").split(os.pathsep) if path]
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--schema", str(schema),
             "--data", str(data), "--seed", "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            process.stdin.write("SELECT COUNT(*) FROM people\n")
            process.stdin.flush()
            first = []
            reader = threading.Thread(
                target=lambda: first.append(process.stdout.readline()), daemon=True
            )
            reader.start()
            reader.join(timeout=60)
            assert first and first[0], "no reply while stdin was open"
            reply = json.loads(first[0])
            assert reply["tenant"] == "default" and reply["spent"] is not None
            # Only now close stdin: EOF is the normal shutdown.
            _, err = process.communicate(timeout=60)
            assert process.returncode == 0, err
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
