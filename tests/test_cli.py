"""End-to-end command line runs, in process via cli.main."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import struct
import warnings
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chat_reply, seeded_faults
from durcast import cli, index as index_mod
from durcast.aggregate import STRATEGIES
from durcast.llm import MockReferenceMean
from durcast.pipeline import ExperimentConfig, Pipeline, load_artifacts
from durcast.schema import ingest_csv
from durcast.synthetic import default_schema

QUERY_FLAGS = [
    "--set", "department=thyroid_breast",
    "--set", "surgery_name=thyroidectomy",
    "--set", "surgery_level=II",
    "--set", "asa_grade=II",
    "--set", "age=49",
    "--set", "gender=female",
    "--set", "emergency=false",
    "--set", "preop_note=neck ultrasound reviewed",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus and one built artifact set, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    artifacts = root / "artifacts"
    rc = cli.main(["generate", "--n", "120", "--seed", "3", "--out", str(data)])
    assert rc == 0
    rc = cli.main([
        "build",
        "--train", str(data / "train.csv"),
        "--schema", str(data / "schema.yaml"),
        "--out", str(artifacts),
        "--embedder-dim", "64",
    ])
    assert rc == 0
    return root


class TestGenerate:
    def test_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = cli.main(["generate", "--n", "50", "--seed", "1", "--out", str(out)])
        assert rc == 0
        for name in ("schema.yaml", "train.csv", "val.csv", "test.csv"):
            assert (out / name).exists()
        message = capsys.readouterr().out.strip()
        assert message == f"wrote 40/5/5 cases under {out}"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["generate", "--n", "40", "--seed", "9", "--out", str(a)])
        cli.main(["generate", "--n", "40", "--seed", "9", "--out", str(b)])
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()

    def test_bad_ratios(self, tmp_path, capsys):
        rc = cli.main(["generate", "--n", "10", "--out", str(tmp_path / "x"),
                       "--ratios", "0.5,0.5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_ratios_must_sum_to_one(self, tmp_path, capsys):
        rc = cli.main(["generate", "--n", "10", "--out", str(tmp_path / "x"),
                       "--ratios", "0.6,0.3,0.3"])
        assert rc == 1

    def test_negative_seed_is_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = cli.main(["generate", "--n", "50", "--seed", "-1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: seed must be an integer >= 0, got -1" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("out", ["a_file", "a_file/x"])
    def test_unwritable_out_is_error(self, tmp_path, capsys, out):
        (tmp_path / "a_file").write_text("", encoding="utf-8")
        rc = cli.main(["generate", "--n", "10", "--out", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: cannot write the corpus under" in captured.err
        assert "Traceback" not in captured.err + captured.out


class TestBuild:
    def test_artifacts_and_report(self, workspace, capsys):
        out = capsys.readouterr()  # drain the fixture's output
        artifacts = workspace / "artifacts"
        assert (artifacts / "manifest.json").exists()
        assert (artifacts / "importance.csv").exists()

    def test_missing_train_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build", "--schema", "s.yaml", "--out", "o"])
        assert exc.value.code == 2

    def build_args(self, workspace, out, *extra):
        data = workspace / "data"
        return ["build", "--train", str(data / "train.csv"),
                "--schema", str(data / "schema.yaml"), "--out", str(out), *extra]

    @pytest.mark.parametrize("flag", [["--min-cohort", "0"], ["--pca-top-m", "0"],
                                      ["--variance-fraction", "1.5"]])
    def test_bad_fit_flag_writes_nothing(self, workspace, tmp_path, capsys, flag):
        out = tmp_path / "art"
        assert cli.main(self.build_args(workspace, out, *flag)) == 1
        assert flag[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_bad_embedder_dim_writes_nothing(self, workspace, tmp_path, capsys, dim):
        out = tmp_path / "art"
        assert cli.main(self.build_args(workspace, out, "--embedder-dim", dim)) == 1
        err = capsys.readouterr().err
        assert f"error: embedder dim must be an integer >= 1, got {dim}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_numeric_column_writes_nothing(self, workspace, tmp_path, capsys):
        """One finite age of 1e200 overflows the float64 std: the build
        names the feature and exits 1, with no RuntimeWarning on stderr."""
        text = (workspace / "data" / "train.csv").read_text(encoding="utf-8")
        header, first, *rest = text.splitlines(keepends=True)
        cells = first.split(",")
        cells[header.split(",").index("age")] = "1e200"
        train = tmp_path / "train.csv"
        train.write_text("".join([header, ",".join(cells), *rest]), encoding="utf-8")
        out = tmp_path / "art"
        args = self.build_args(workspace, out)
        args[args.index("--train") + 1] = str(train)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: feature 'age': training values too large")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, rows",
        [("1e308", lambda i: i % 3 == 0), ("1e200", lambda i: i % 3 != 0)],
        ids=["every-third-1e308", "all-but-every-third-1e200"],
    )
    def test_duration_over_the_bound_is_a_row_error(self, workspace, tmp_path, capsys,
                                                   value, rows):
        """A training duration over MAX_DURATION_MIN (1e6 minutes) would
        overflow the IQR fence, the prior's mean and variance, or the
        calibrated weight's squared median: build and evaluate name its row
        and exit 1, with no traceback and no RuntimeWarning."""
        with open(workspace / "data" / "train.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        for i, row in enumerate(table):
            if rows(i):
                row["duration_min"] = value
        train = tmp_path / "train.csv"
        with open(train, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(table[0]))
            writer.writeheader()
            writer.writerows(table)
        first = next(i for i in range(len(table)) if rows(i)) + 1
        data = workspace / "data"
        out = tmp_path / "art"
        build = self.build_args(workspace, out)
        build[build.index("--train") + 1] = str(train)
        evaluate = ["evaluate", "--train", str(train), "--schema", str(data / "schema.yaml"),
                    "--test", str(data / "test.csv"), "--prior-mode", "calibrated",
                    "--jsonl", str(tmp_path / "cases.jsonl")]
        for argv in (build, evaluate):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: row {first}: case ")
            assert "duration must be positive and finite, at most 1,000,000 minutes" in err
            assert err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "cases.jsonl").exists()

    def test_header_cell_over_csv_field_limit_writes_nothing(self, workspace, tmp_path, capsys):
        """A header cell one character longer than the csv module's field
        limit (131,072) is an unreadable header: exit 1, one error line."""
        text = (workspace / "data" / "train.csv").read_text(encoding="utf-8")
        train = tmp_path / "train.csv"
        train.write_text("x" * (csv.field_size_limit() + 1) + "," + text, encoding="utf-8")
        out = tmp_path / "art"
        args = self.build_args(workspace, out)
        args[args.index("--train") + 1] = str(train)
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CSV header unreadable: field larger than field limit")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_file_sets_fit(self, workspace, tmp_path):
        config = tmp_path / "build.yaml"
        config.write_text("no-pca: true\nmin-cohort: 6\n", encoding="utf-8")
        out = tmp_path / "art"
        assert cli.main(self.build_args(workspace, out, "--config", str(config))) == 0
        fit = json.loads((out / "manifest.json").read_text())["fit_config"]
        assert (fit["pca_weighting"], fit["min_cohort"]) == (False, 6)
        assert fit["variance_fraction"] == 0.95


class TestPredict:
    def test_audit_output(self, workspace, capsys):
        rc = cli.main([
            "predict", "--artifacts", str(workspace / "artifacts"),
            "--query-id", "q-77", "--k", "4", "--rounds", "2", *QUERY_FLAGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "query case: q-77" in out
        assert "mode: rag" in out
        assert "references (stratum:" in out
        assert "prior (cohort" in out
        assert "rounds:" in out
        assert "estimate:" in out

    def test_json_output(self, workspace, capsys):
        rc = cli.main([
            "predict", "--artifacts", str(workspace / "artifacts"),
            "--json", "--k", "4", "--rounds", "2", *QUERY_FLAGS,
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == "query-1"
        assert doc["mode"] == "rag"
        assert isinstance(doc["y_hat"], float)
        assert len(doc["rounds"]) == 2

    @pytest.mark.parametrize("flag", [["--no-pca"], ["--min-cohort", "99"]])
    def test_fit_flags_not_accepted(self, workspace, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--artifacts", str(workspace / "artifacts"), *flag])
        assert exc.value.code == 2

    def test_scripted_backend(self, workspace, capsys):
        rc = cli.main([
            "predict", "--artifacts", str(workspace / "artifacts"),
            "--mode", "zero_shot", "--rounds", "1",
            "--backend", "mock_scripted", "--script", "PREDICTION: 111 minutes",
        ])
        assert rc == 0
        assert "estimate: 111.0 minutes" in capsys.readouterr().out

    def test_case_file_must_hold_one_row(self, workspace, tmp_path, capsys):
        src = (workspace / "data" / "test.csv").read_text(encoding="utf-8")
        lines = src.splitlines()
        two = tmp_path / "two.csv"
        two.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                       "--case", str(two)])
        assert rc == 1
        assert "exactly 1 row" in capsys.readouterr().err

    @pytest.mark.parametrize("feature", ["crp_mg_l", "surgery_name"])
    def test_empty_set_value_is_missing(self, workspace, tmp_path, capsys, feature):
        """--set key= leaves the feature missing, as leaving the flag unset
        and a blank cell in the --case file do."""
        with open(workspace / "data" / "test.csv", newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        row[feature] = row["duration_min"] = ""
        case = tmp_path / "case.csv"
        with open(case, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
        sets = ["--query-id", row.pop("case_id")]
        for name, value in row.items():
            if value:
                sets += ["--set", f"{name}={value}"]
        outputs = []
        for query in ([*sets, "--set", f"{feature}="], sets, ["--case", str(case)]):
            assert cli.main(["predict", "--artifacts", str(workspace / "artifacts"), "--json",
                             *query]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_set_rejects_unknown_feature(self, workspace, capsys):
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                       "--set", "blood_type=A"])
        assert rc == 1
        assert "unknown feature" in capsys.readouterr().err

    def test_set_without_equals_sign_is_refused(self, workspace, capsys):
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"), "--set", "age"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: --set expects key=value, got 'age'\n"
        assert captured.out == ""

    def test_set_rejects_bad_number(self, workspace, capsys):
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                       "--set", "age=heaps"])
        assert rc == 1

    @pytest.mark.parametrize("mode", [["--mode", "zero_shot"], ["--mode", "rag"]])
    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e999"])
    def test_set_rejects_non_finite_number(self, workspace, capsys, mode, raw):
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                       *QUERY_FLAGS, "--set", f"age={raw}", *mode])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"feature 'age' expects a finite number, got {raw!r}" in captured.err
        assert "estimate" not in captured.out

    def test_overflowing_query_norm_is_one_error_line(self, workspace, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                           *QUERY_FLAGS, "--set", "age=-5.7e253"])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "error: query has no finite norm\n"

    def test_set_rejects_bytes_that_are_not_utf8(self, workspace, capsys):
        # what argv holds for the bytes b"\xff\xfe note"
        raw = b"\xff\xfe note".decode("utf-8", "surrogateescape")
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                       *QUERY_FLAGS, "--set", f"preop_note={raw}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: feature 'preop_note': --set value is not valid UTF-8" in captured.err
        assert "estimate" not in captured.out

    def test_http_backend_down_exits_3(self, workspace, capsys):
        rc = cli.main([
            "predict", "--artifacts", str(workspace / "artifacts"),
            "--backend", "http", "--endpoint", "http://127.0.0.1:9/v1",
            "--timeout-s", "2", "--rounds", "1", *QUERY_FLAGS,
        ])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["http://[::1/v1", "ftp://x/y"])
    def test_malformed_endpoint_exits_3(self, workspace, capsys, endpoint):
        rc = cli.main([
            "predict", "--artifacts", str(workspace / "artifacts"),
            "--backend", "http", "--endpoint", endpoint, "--rounds", "1", *QUERY_FLAGS,
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert "error: backend http_chat failed" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_http_first_round_down_exits_3_while_others_answer(
        self, workspace, stub_server, capsys
    ):
        """Rounds 2..5 run beside round 1 and answer; round 1 exhausting
        its retries on transport errors still means the backend is down."""

        def respond(body, seen):
            if json.loads(body)["temperature"] == 0.0:
                return 503, {"error": "overloaded"}
            return 200, chat_reply("PREDICTION: 95 minutes")

        server = stub_server(respond)
        rc = cli.main([
            "predict", "--artifacts", str(workspace / "artifacts"),
            "--backend", "http", "--endpoint", server.url, "--rounds", "5", *QUERY_FLAGS,
        ])
        assert rc == 3
        assert "failed all 3 attempts on the first round" in capsys.readouterr().err
        assert sum(r["body"]["temperature"] == 0.0 for r in server.requests) == 3


# Each backend's own flags with a value; every other backend refuses them.
OWN_BACKEND_FLAGS = [
    ("--endpoint", "http://127.0.0.1:9/v1", "http"), ("--model", "m", "http"),
    ("--api-key-env", "KEY", "http"), ("--timeout-s", "nan", "http"),
    ("--noise-sd", "-5", "mock_reference_mean"), ("--mock-seed", "3", "mock_reference_mean"),
    ("--script", "x", "mock_scripted"),
]
FOREIGN_BACKEND_FLAGS = [
    (flag, value, backend)
    for flag, value, owner in OWN_BACKEND_FLAGS
    for backend in cli.BACKENDS
    if backend != owner
]


class TestEvaluate:
    def evaluate_args(self, workspace, **over):
        args = {
            "artifacts": str(workspace / "artifacts"),
            "test": str(workspace / "data" / "test.csv"),
            "k": "4",
            "rounds": "2",
        }
        args.update(over)
        argv = ["evaluate"]
        for key, value in args.items():
            if value is not None:
                argv += [f"--{key.replace('_', '-')}", value]
        return argv

    def test_prints_metrics_and_writes_files(self, workspace, tmp_path, capsys):
        csv_path = tmp_path / "metrics.csv"
        jsonl_path = tmp_path / "cases.jsonl"
        rc = cli.main(self.evaluate_args(
            workspace, metrics_csv=str(csv_path), jsonl=str(jsonl_path),
        ) + ["--with-median-baseline"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("rag: m=12 failed=0 mae=")
        assert out[1].startswith("global_median_baseline: m=12")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "experiment,m,failed,mae_min,rmse_min,r2,mape_pct"
        assert len(lines) == 3
        assert len(jsonl_path.read_text(encoding="utf-8").splitlines()) == 12

    def test_byte_identical_reruns(self, workspace, tmp_path):
        paths = []
        for tag in ("one", "two"):
            csv_path = tmp_path / f"{tag}.csv"
            jsonl_path = tmp_path / f"{tag}.jsonl"
            rc = cli.main(self.evaluate_args(
                workspace, metrics_csv=str(csv_path), jsonl=str(jsonl_path),
            ))
            assert rc == 0
            paths.append((csv_path, jsonl_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_scripted_reruns_byte_identical_when_concurrent(self, workspace, tmp_path):
        runs = []
        for tag in ("one", "two"):
            jsonl_path = tmp_path / f"{tag}.jsonl"
            rc = cli.main(self.evaluate_args(
                workspace, rounds="3", jsonl=str(jsonl_path), backend="mock_scripted",
                concurrency="10",
            ) + ["--script", "PREDICTION: 77", "--script", "about 90"])
            assert rc == 0
            runs.append(jsonl_path.read_bytes())
        assert runs[0] == runs[1]
        for line in runs[0].decode("utf-8").splitlines():
            rounds = [r["raw_text"] for r in json.loads(line)["rounds"]]
            assert rounds == ["PREDICTION: 77", "about 90", "PREDICTION: 77"]

    @pytest.mark.parametrize(
        "backend", [["mock_reference_mean", "--noise-sd", "10"], ["mock_echo_prior"],
                    ["mock_scripted", "--script", "PREDICTION: 77", "--script", "no idea"]]
    )
    def test_mocks_write_same_bytes_at_any_concurrency(self, workspace, tmp_path, backend):
        runs = []
        for limit in ("1", "10"):
            csv_path, jsonl_path = tmp_path / f"{limit}.csv", tmp_path / f"{limit}.jsonl"
            rc = cli.main(self.evaluate_args(
                workspace, rounds="5", metrics_csv=str(csv_path), jsonl=str(jsonl_path),
                concurrency=limit, backend=backend[0],
            ) + backend[1:] + ["--with-median-baseline"])
            assert rc == 0
            runs.append((csv_path.read_bytes(), jsonl_path.read_bytes()))
        assert runs[0] == runs[1]

    def test_http_writes_same_bytes_at_any_concurrency(self, workspace, tmp_path, stub_server):
        runs = []
        for limit in ("1", "4", "10"):
            server = stub_server(seeded_faults)
            csv_path, jsonl_path = tmp_path / f"{limit}.csv", tmp_path / f"{limit}.jsonl"
            rc = cli.main(self.evaluate_args(
                workspace, rounds="5", metrics_csv=str(csv_path), jsonl=str(jsonl_path),
                concurrency=limit, backend="http", endpoint=server.url,
            ))
            assert rc == 0
            runs.append((csv_path.read_bytes(), jsonl_path.read_bytes()))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize(
        "flags",
        [["--concurrency", "0"], ["--concurrency", "-3"], ["--max-retries", "-1"],
         ["--backend", "http", "--timeout-s", "0"], ["--backend", "http", "--timeout-s", "nan"]],
    )
    def test_bad_backend_settings_exit_1(self, workspace, capsys, flags):
        rc = cli.main(self.evaluate_args(workspace) + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be" in err

    @pytest.mark.parametrize(
        "flag, value, backend", FOREIGN_BACKEND_FLAGS,
        ids=[f"{flag} {backend}" for flag, _, backend in FOREIGN_BACKEND_FLAGS],
    )
    @pytest.mark.parametrize("via", ["argv", "config"])
    def test_flag_of_another_backend_is_usage_error(
        self, workspace, tmp_path, capsys, flag, value, backend, via
    ):
        if via == "argv":
            extra = [flag, value]
        else:
            config = tmp_path / "run.yaml"
            config.write_text(f"{flag[2:]}: {value}\n", encoding="utf-8")
            extra = ["--config", str(config)]
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace, backend=backend) + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} applies to --backend" in err and f"not {backend}" in err

    def test_all_failed_names_the_cause(self, workspace, tmp_path, capsys):
        jsonl_path = tmp_path / "cases.jsonl"
        rc = cli.main(self.evaluate_args(
            workspace, jsonl=str(jsonl_path), backend="mock_scripted",
        ) + ["--script", "no idea"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "0 of 12 cases answered; failed: all_rounds_failed 12" in err
        docs = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        assert len(docs) == 12
        assert all(doc["error"] == "all_rounds_failed" for doc in docs)

    def test_zero_shot_with_k_is_mode_mismatch(self, workspace, capsys):
        rc = cli.main(self.evaluate_args(workspace, mode="zero_shot", k="8"))
        assert rc == 1
        assert "zero_shot" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--no-pca"], ["--min-cohort", "400"]])
    def test_fit_flags_refused_with_artifacts(self, workspace, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace) + flag)
        assert exc.value.code == 2
        assert "--artifacts" in capsys.readouterr().err

    def test_needs_source_of_training_data(self, workspace):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--test", str(workspace / "data" / "test.csv")])
        assert exc.value.code == 2

    def test_unknown_flag(self, workspace):
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace) + ["--turbo"])
        assert exc.value.code == 2

    def test_config_file_overrides_flags(self, workspace, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("rounds: 1\nk: 3\n", encoding="utf-8")
        jsonl_path = tmp_path / "cases.jsonl"
        rc = cli.main(self.evaluate_args(
            workspace, jsonl=str(jsonl_path), config=str(config), rounds="5",
        ))
        assert rc == 0
        docs = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert all(len(d["rounds"]) == 1 for d in docs)
        assert all(len(d["references"]) <= 3 for d in docs)

    def test_config_file_accepts_dashed_keys(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_text("w-prior: 0.0\nrounds: 1\n", encoding="utf-8")
        rc = cli.main(self.evaluate_args(workspace, config=str(config)))
        assert rc == 0

    def test_config_file_unknown_key(self, workspace, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("sharding: 4\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace, config=str(config)))
        assert exc.value.code == 2

    def test_config_file_values_convert_like_flags(self, workspace, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text('rounds: "5"\n', encoding="utf-8")
        jsonl_path = tmp_path / "cases.jsonl"
        rc = cli.main(self.evaluate_args(workspace, jsonl=str(jsonl_path), config=str(config)))
        assert rc == 0
        docs = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert docs and all(len(d["rounds"]) == 5 for d in docs)

    @pytest.mark.parametrize(
        "line",
        ["rounds: five", "mode: bogus", "no-postprocess: maybe", "k: [1, 2]",
         'test: "test.csv\\0"', 'template: "a\\0"', "strategy: geometric"],
    )
    def test_config_file_bad_value_is_usage_error(self, workspace, tmp_path, capsys, line):
        config = tmp_path / "run.yaml"
        config.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace, config=str(config)))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: durcast evaluate" in err
        assert line.split(":")[0] in err

    def test_unknown_strategy_is_usage_error(self, workspace, capsys):
        """--strategy takes only the aggregation strategies, so another
        value is a usage error (exit 2) before any artifact is read, and
        --help lists them."""
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace, strategy="geometric"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: durcast evaluate" in err
        assert "argument --strategy: invalid choice: 'geometric'" in err
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--help"])
        assert exc.value.code == 0
        assert "--strategy {" + ",".join(STRATEGIES) + "}" in capsys.readouterr().out

    def test_config_file_must_be_mapping(self, workspace, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace, config=str(config)))
        assert exc.value.code == 2

    def test_config_file_not_utf8_is_usage_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_bytes(b"rounds: 1\n# caf\xe9\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(self.evaluate_args(workspace, config=str(config)))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot read config file" in err
        assert "Traceback" not in err


class TestAblate:
    def ablate_args(self, workspace, axis, values, out=None):
        argv = [
            "ablate",
            "--artifacts", str(workspace / "artifacts"),
            "--test", str(workspace / "data" / "test.csv"),
            "--axis", axis, "--values", values,
            "--rounds", "1", "--k", "3",
        ]
        if out:
            argv += ["--out", out]
        return argv

    def test_unknown_strategy_value_is_bad_axis_value(self, workspace, capsys):
        """An --axis strategy value is checked by the sweep, not by argparse:
        exit 1, not a usage error."""
        assert cli.main(self.ablate_args(workspace, "strategy", "harmonic")) == 1
        err = capsys.readouterr().err
        assert err == "error: bad strategy value 'harmonic': unknown strategy 'harmonic'\n"

    def test_sweep(self, workspace, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        rc = cli.main(self.ablate_args(workspace, "k", "2,4", out=str(grid)))
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("k=2: mae=")
        assert out[1].startswith("k=4: mae=")
        lines = grid.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "axis,value,m,failed,mae_min,rmse_min,r2,mape_pct"
        assert len(lines) == 3

    def test_boolean_axis_parsing(self, workspace, capsys):
        rc = cli.main(self.ablate_args(workspace, "prior_on_off", "on,off"))
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("prior_on_off=True:")
        assert out[1].startswith("prior_on_off=False:")

    def test_boolean_axis_rejects_unknown_value(self, workspace, capsys):
        rc = cli.main(self.ablate_args(workspace, "pca_on_off", "on,offf"))
        assert rc == 1
        assert "'offf'" in capsys.readouterr().err

    def test_artifacts_pipeline_is_reused(self, workspace, monkeypatch, capsys):
        fitted, loads = [], []
        real_fit = Pipeline.fit.__func__

        def spy(cls, train, config=None):
            fitted.append(real_fit(cls, train, config))
            return fitted[-1]

        def loading(artifact_dir):
            loads.append(load_artifacts(artifact_dir))
            return loads[-1]

        monkeypatch.setattr(Pipeline, "fit", classmethod(spy))
        monkeypatch.setattr(cli, "load_artifacts", loading)
        assert cli.main(self.ablate_args(workspace, "k", "2,3")) == 0
        assert fitted == []
        assert cli.main(self.ablate_args(workspace, "pca_on_off", "on,off")) == 0
        loaded = load_artifacts(workspace / "artifacts")
        assert [p.fit_config.pca_weighting for p in fitted] == [False]
        assert fitted[0].fit_config.embedder == loaded.fit_config.embedder
        assert fitted[0].encoder.dim == loaded.encoder.dim
        assert fitted[0].encoder == loads[-1].encoder

    def test_unknown_axis(self, tmp_path, capsys):
        """The axis is checked before any file is read."""
        rc = cli.main(self.ablate_args(tmp_path, "K", "2,4"))
        assert rc == 1
        assert "unknown axis 'K'" in capsys.readouterr().err

    def test_unparseable_values(self, workspace, capsys):
        rc = cli.main(self.ablate_args(workspace, "k", "two,four"))
        assert rc == 1
        assert "cannot parse" in capsys.readouterr().err


# Every numeric value flag of evaluate and predict, with the backend it
# applies to; the fit flags are evaluate's alone.
NUMERIC_FLAGS = [
    ("--w-prior", None), ("--noise-sd", None), ("--timeout-s", "http"), ("--k", None),
    ("--rounds", None), ("--expansion", None), ("--concurrency", None),
    ("--max-retries", None), ("--variance-fraction", None), ("--min-cohort", None),
    ("--pca-top-m", None),
]
HOSTILE_RUNS = [
    (command, [f"{flag}={value}", *(["--backend", backend] if backend else [])])
    for flag, backend in NUMERIC_FLAGS
    for value in ("nan", "inf", "-inf", "-1")
    for command in ("evaluate", "predict")
    if command == "evaluate" or flag[2:].replace("-", "_") not in cli.FIT_FLAGS
] + [
    ("ablate", ["--axis", "w_prior", "--values", "nan"]),
    ("generate", ["--ratios", "abc,0.5,0.5"]),
    ("generate", ["--ratios", "nan,0.5,0.5"]),
]


@pytest.mark.parametrize(
    "command, flags", HOSTILE_RUNS, ids=[" ".join([c, *f]) for c, f in HOSTILE_RUNS]
)
def test_hostile_numeric_value_is_refused(workspace, tmp_path, capsys, command, flags):
    """A non-finite or negative number is a usage or pipeline error: an
    error line, no traceback and no nan printed as a result."""
    data, artifacts = workspace / "data", str(workspace / "artifacts")
    base = {
        "evaluate": ["--train", str(data / "train.csv"), "--schema", str(data / "schema.yaml"),
                     "--test", str(data / "test.csv")],
        "predict": ["--artifacts", artifacts, *QUERY_FLAGS],
        "ablate": ["--artifacts", artifacts, "--test", str(data / "test.csv")],
        "generate": ["--n", "10", "--out", str(tmp_path / "corpus")],
    }[command]
    capsys.readouterr()
    try:
        rc = cli.main([command, *base, *flags])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc in (1, 2)
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert "nan" not in captured.out


DEFAULT_TEMPLATE = (resources.files("durcast") / "templates/default_prompt.txt").read_text(
    encoding="utf-8"
)
BAD_TEMPLATES = {
    "missing": None,
    "not_utf8": b"[system]\ncaf\xe9\n",
    "unknown_field": DEFAULT_TEMPLATE.replace("{features}\n\n[user]", "{oops}\n\n[user]"),
    "stray_brace": DEFAULT_TEMPLATE.replace("{cohort_size}", "{cohort_size"),
}


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("bad", sorted(BAD_TEMPLATES))
def test_bad_template_is_refused(workspace, tmp_path, capsys, command, bad):
    """An unreadable template, or one whose formatted sections name a field
    they do not take, exits 1 with an error line before any case runs."""
    path = tmp_path / "prompt.txt"
    text = BAD_TEMPLATES[bad]
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text, encoding="utf-8")
    base = {
        "predict": ["--artifacts", str(workspace / "artifacts"), *QUERY_FLAGS],
        "evaluate": ["--artifacts", str(workspace / "artifacts"),
                     "--test", str(workspace / "data" / "test.csv")],
    }[command]
    capsys.readouterr()
    rc = cli.main([command, *base, "--template", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err and "template" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert captured.out == ""


def test_template_without_sections_is_refused(workspace, tmp_path, capsys):
    """A template that stops before its [reference] section exits 1 and
    names the sections it lacks."""
    path = tmp_path / "prompt.txt"
    path.write_text(DEFAULT_TEMPLATE.split("\n[reference]\n")[0], encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"), *QUERY_FLAGS,
                   "--template", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == (
        "error: template missing sections: ['reference', 'statistics', 'query', 'user']\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["{index:zz}", "{median:d}"])
def test_template_format_spec_is_refused(workspace, tmp_path, capsys, spec):
    """A format spec the placeholder's value cannot take is refused when
    the template loads: one error line and exit 1, no traceback."""
    path = tmp_path / "prompt.txt"
    field = spec[1:].split(":")[0]
    path.write_text(DEFAULT_TEMPLATE.replace("{" + field + "}", spec), encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"), *QUERY_FLAGS,
                   "--template", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        captured.err.strip()
    ]
    assert "does not format" in captured.err
    assert captured.out == ""


def test_readme_names_every_long_option():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{command} {option}"
        for command, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(re.escape(option) + r"(?![\w-])", readme)
    ]
    assert missing == []


def resign_index(art, raw):
    """Write raw as art's index.bin and re-sign the manifest over it."""
    (art / "index.bin").write_bytes(raw)
    manifest = json.loads((art / "manifest.json").read_text())
    manifest["files"]["index.bin"] = hashlib.sha256(raw).hexdigest()
    del manifest["fingerprint"]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    manifest["fingerprint"] = hashlib.sha256(blob).hexdigest()
    (art / "manifest.json").write_text(json.dumps(manifest))


def column_at(raw, schema, name):
    """Where the named feature's column starts in index.bin's bytes."""
    dim, n, head_len = struct.unpack("<IIQ", raw[8:24])
    at = 24 + 4 * n * dim + 8 * n + head_len
    for feature in schema.features[: schema.feature_names.index(name)]:
        at += (8 if feature.kind == "numerical" else 4) * n
    return at


def narrow(pipe, raw):
    """An index whose rows are one dimension short of encoder.json's."""
    idx = pipe.index
    return index_mod.save_index(index_mod.build(idx.vectors[:, 1:], list(idx.cases), pipe.schema))


def empty(pipe, raw):
    head = json.dumps({"ids": [], "vocabs": [[]] * len(pipe.index.cases.vocabs)}).encode()
    return index_mod._MAGIC + struct.pack("<IIQ", pipe.index.dim, 0, len(head)) + head


def retired(pipe, raw):
    return b"DURCIDX2" + raw[8:]


def unknown_code(pipe, raw):
    at = column_at(raw, pipe.schema, "department")
    return raw[:at] + struct.pack("<i", 10**6) + raw[at + 4 :]


def infinite_number(pipe, raw):
    at = column_at(raw, pipe.schema, "age")
    return raw[:at] + struct.pack("<d", float("inf")) + raw[at + 8 :]


class TestBrokenIndexExits1:
    """A re-signed index.bin of the retired layout, with a corrupt column,
    with rows that are not encoder.json's width, or with no rows, fails
    every command that loads it with one error line and exit 1."""

    @pytest.mark.parametrize("change, message", [
        (narrow, "dimensions, encoder.json"),
        (empty, "holds no cases"),
        (retired, "DURCIDX2"),
        (unknown_code, "corrupt department entry"),
        (infinite_number, "corrupt age entry"),
    ])
    @pytest.mark.parametrize("command", [
        ["predict", "--mode", "zero_shot", "--rounds", "1", *QUERY_FLAGS],
        ["evaluate", "--test", "TEST", "--rounds", "1"],
    ])
    def test_exits_1_at_load(self, workspace, tmp_path, capsys, change, message, command):
        art = tmp_path / "artifacts"
        shutil.copytree(workspace / "artifacts", art)
        resign_index(art, change(load_artifacts(art), (art / "index.bin").read_bytes()))
        test_csv = str(workspace / "data" / "test.csv")
        rc = cli.main([*(test_csv if arg == "TEST" else arg for arg in command),
                       "--artifacts", str(art)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


class TestDecodesOnlyWhatIsRead:
    """A loaded index builds a case from its columns only when something
    reads that case; built rows are counted by wrapping the decoder."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        rows = []
        real = index_mod.LazyCases._decode

        def counting(cases, i):
            rows.append(i)
            return real(cases, i)

        monkeypatch.setattr(index_mod.LazyCases, "_decode", counting)
        return rows

    def test_load_and_priors_decode_nothing(self, workspace, decoded):
        pipe = load_artifacts(workspace / "artifacts")
        assert decoded == []
        query = ingest_csv(workspace / "data" / "test.csv", pipe.schema).cases[0]
        assert pipe.priors.for_query(query).cohort_size > 0
        assert len(pipe.train_cases()) == len(pipe.index) > 0
        assert decoded == []

    def test_predict_case_decodes_at_most_k(self, workspace, decoded):
        pipe = load_artifacts(workspace / "artifacts")
        query = ingest_csv(workspace / "data" / "test.csv", pipe.schema).cases[0]
        cfg = ExperimentConfig(backend=MockReferenceMean(), k=4, rounds=2)
        pred = pipe.predict_case(query, cfg)
        assert len(decoded) <= 4
        assert [pipe.index.table.ids[i] for i in decoded] == [
            c.id for c, _ in pred.references.references
        ]

    def test_cli_predict_decodes_at_most_k(self, workspace, decoded, capsys):
        rc = cli.main(["predict", "--artifacts", str(workspace / "artifacts"),
                       "--k", "4", "--rounds", "2", *QUERY_FLAGS])
        assert rc == 0
        assert 0 < len(decoded) <= 4

    def test_median_baseline_decodes_nothing(self, workspace, tmp_path, decoded, capsys):
        rc = cli.main([
            "evaluate", "--artifacts", str(workspace / "artifacts"),
            "--test", str(workspace / "data" / "test.csv"), "--rounds", "2",
            "--mode", "zero_shot", "--with-median-baseline",
        ])
        assert rc == 0
        assert "global_median_baseline: m=12" in capsys.readouterr().out
        assert decoded == []

    @pytest.mark.parametrize("mode, k", [("rag", "4"), ("random_few_shot", "3"),
                                         ("zero_shot", None)])
    def test_evaluate_decodes_only_referenced_cases(
        self, workspace, tmp_path, decoded, mode, k
    ):
        jsonl = tmp_path / "cases.jsonl"
        rc = cli.main([
            "evaluate", "--artifacts", str(workspace / "artifacts"),
            "--test", str(workspace / "data" / "test.csv"), "--rounds", "2",
            "--mode", mode, *(["--k", k] if k else []), "--jsonl", str(jsonl),
        ])
        assert rc == 0
        referenced = {
            ref["id"]
            for line in jsonl.read_text(encoding="utf-8").splitlines()
            for ref in json.loads(line).get("references", [])
        }
        ids = load_artifacts(workspace / "artifacts").index.table.ids
        assert len(decoded) == len(set(decoded)) < len(ids)
        assert {ids[i] for i in decoded} == referenced


# Random predict inputs: a --config document, or --set values. Only the
# in-process mocks are drawn, and every count is at most 8, so no draw asks
# for much work or for many threads.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
COUNTS = st.one_of(st.integers(-2, 8), st.floats(-2, 8), st.booleans(),
                   st.sampled_from(["3", "x", "", "0x4", "1e1"]))
REALS = st.one_of(st.floats(), st.integers(-5, 5), st.booleans(),
                  st.sampled_from(["1e308", "-0", "nan", "x"]))
CONFIG_VALUES = {
    "mode": st.sampled_from(["rag", "zero_shot", "random_few_shot", "bogus"]),
    "k": COUNTS,
    "rounds": COUNTS,
    "expansion": COUNTS,
    "max-retries": COUNTS,
    "concurrency": COUNTS,
    "w-prior": REALS,
    "noise-sd": REALS,
    "seed": st.integers(),
    "mock-seed": st.integers(),
    "strategy": st.sampled_from([*STRATEGIES, "bogus"]),
    "prior-mode": st.sampled_from(["fixed", "calibrated", "bogus"]),
    "no-postprocess": st.one_of(st.booleans(), st.just("yes")),
    "json": st.one_of(st.booleans(), st.just(1)),
    "backend": st.sampled_from(["mock_reference_mean", "mock_echo_prior", "mock_scripted"]),
    "script": st.one_of(TEXT, st.lists(TEXT, max_size=3)),
    "query-id": TEXT,
}
SET_VALUES = st.builds(
    "{}={}".format,
    st.sampled_from([*default_schema().feature_names, "nope"]),
    st.one_of(st.floats().map(str), st.integers().map(str),
              st.text(st.characters(blacklist_characters="\0"), max_size=12)),
)
CONFIG_DOCS = st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.one_of(st.none(), CONFIG_VALUES[key]) for key in keys}
    )
)


def run_quietly(argv):
    """cli.main's exit code and stderr; an exception escapes as it would."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=CONFIG_DOCS)
@example(doc={"noise-sd": 1e308})
@example(doc={"backend": "mock_scripted", "script": []})
@example(doc={"query-id": "q\0"})
def test_predict_config_document_ends_in_an_exit_code(workspace, doc):
    config = workspace / "fuzz.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    rc, err = run_quietly(["predict", "--artifacts", str(workspace / "artifacts"),
                           *QUERY_FLAGS, "--config", str(config)])
    assert rc in (0, 1, 2)
    assert rc == 0 or "error:" in err


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(SET_VALUES, max_size=3))
def test_predict_set_values_end_in_an_exit_code(workspace, pairs):
    sets = [arg for pair in pairs for arg in ("--set", pair)]
    rc, err = run_quietly(["predict", "--artifacts", str(workspace / "artifacts"),
                           "--rounds", "2", *QUERY_FLAGS, *sets])
    assert rc in (0, 1, 2)
    assert rc == 0 or "error:" in err
