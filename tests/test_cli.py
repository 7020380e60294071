"""Exit codes, stage composability, and flag handling for the CLI."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from tweetslots import pipeline, serialize
from tweetslots.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, _build_parser, main

from conftest import CONFIG_TEXT, tree_bytes


@pytest.fixture(scope="module")
def cli_run(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["run", "--config", str(ws / "config.ini"), "--output", str(out)])
    assert code == EXIT_OK
    return out


class TestRun:
    def test_exit_zero_and_manifest(self, cli_run):
        obj = json.loads((cli_run / "run_manifest.json").read_text())
        assert obj["status"] == "ok"

    def test_console_script_entry_point(self, ws, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", "import tweetslots.cli as c, sys; sys.exit(c.main())",
             "run", "--config", str(ws / "config.ini"), "--output", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        # argv[1:] of the child process is the CLI argv
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "o" / "run_manifest.json").is_file()
        assert proc.stdout == ""  # logs go to stderr only

    def test_staged_commands_match_run(self, ws, cli_run, tmp_path):
        out = tmp_path / "staged"
        base = ["--config", str(ws / "config.ini"), "--output", str(out)]
        for stage_argv in (
            ["preprocess", *base],
            ["train", *base],
            ["ensemble", *base],
            ["postprocess", *base],
            ["evaluate", *base],
            ["evaluate", *base, "--filtered"],
            ["ablate", *base],
        ):
            assert main(stage_argv) == EXIT_OK, stage_argv
        a = tree_bytes(cli_run, skip=frozenset({".lock", "run_manifest.json"}))
        b = tree_bytes(out)
        assert set(a) == set(b)
        for rel in a:
            assert a[rel] == b[rel], rel


class TestStageTable:
    def test_every_stage_label_is_reachable(self, ws, tmp_path, monkeypatch):
        called = []
        fakes = tuple(
            (label, lambda cfg, out_dir, label=label: called.append(label) or {})
            for label, _ in pipeline._STAGES
        )
        monkeypatch.setattr(pipeline, "_STAGES", fakes)
        base = ["--config", str(ws / "config.ini"), "--output", str(tmp_path)]
        for label, _ in fakes:
            argv = ["evaluate", *base, "--filtered"] if label == "evaluate_filtered" else [label, *base]
            assert main(argv) == EXIT_OK, argv
        assert called == [label for label, _ in fakes]

    def test_run_and_predict_are_the_only_other_subcommands(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        stages = {label for label, _ in pipeline._STAGES} - {"evaluate_filtered"}
        assert set(sub.choices) == stages | {"run", "predict"}

    def test_stage_refuses_a_locked_output(self, ws, cli_run, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        for name in ("report_unfiltered.json", "report_filtered.json"):
            (out / name).write_bytes((cli_run / name).read_bytes())
        lock = out / ".lock"
        lock.write_text("99999\n")
        code = main(["ablate", "--config", str(ws / "config.ini"), "--output", str(out)])
        assert code == EXIT_DATA
        assert lock.read_text() == "99999\n"
        assert not (out / "ablation.json").exists()


class TestPredict:
    def test_single_model_predictions(self, ws, cli_run, tmp_path):
        out_file = tmp_path / "single.jsonl"
        code = main([
            "predict", "--config", str(ws / "config.ini"), "--output", str(cli_run),
            "--model", str(cli_run / "models" / "last-s0.bin"),
            "--out", str(out_file),
        ])
        assert code == EXIT_OK
        records = serialize.load_predictions(out_file)
        n_val = len(serialize.load_instances(cli_run / "val_instances.jsonl"))
        assert len(records) == n_val
        assert all(r.decision in (0, 1) for r in records)

    def test_missing_model_is_data_error(self, ws, tmp_path):
        code = main([
            "predict", "--config", str(ws / "config.ini"), "--output", str(tmp_path),
            "--model", str(tmp_path / "absent.bin"),
        ])
        assert code == EXIT_DATA


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "no.ini")]) == EXIT_CONFIG

    def test_unknown_key(self, ws, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\nmystery = 1\n")
        assert main(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_corpus_path(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("data.corpus = gone.jsonl\n")
        assert main(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG


class TestDataErrors:
    def test_malformed_corpus_row(self, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"id": "a"\n')
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {corpus}\n")
        code = main(["preprocess", "--config", str(p), "--output", str(tmp_path / "o")])
        assert code == EXIT_DATA

    def test_evaluate_without_predictions(self, ws, tmp_path):
        code = main([
            "evaluate", "--config", str(ws / "config.ini"), "--output", str(tmp_path / "empty"),
        ])
        assert code == EXIT_DATA


class TestDivergence:
    def test_exit_four(self, ws, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(CONFIG_TEXT.replace("seed = 1", "seed = 1\ntrain.learning_rate = 1e200\n"))
        for name in ("corpus.jsonl", "subtasks.txt"):
            (tmp_path / name).write_bytes((ws / name).read_bytes())
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", str(p), "--output", str(tmp_path / "o")])
        assert code == EXIT_DIVERGENCE
        obj = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert obj["status"] == "failed"
        assert obj["failed_stage"] == "train"


class TestFlags:
    def test_seed_override_changes_split(self, ws, cli_run, tmp_path):
        out = tmp_path / "seeded"
        code = main([
            "preprocess", "--config", str(ws / "config.ini"),
            "--output", str(out), "--seed", "9",
        ])
        assert code == EXIT_OK
        base = json.loads((cli_run / "split_manifest.json").read_text())
        seeded = json.loads((out / "split_manifest.json").read_text())
        assert seeded["seed"] == 9
        assert seeded["train_ids"] != base["train_ids"]

    def test_no_clean_runs(self, ws, tmp_path):
        out = tmp_path / "noclean"
        code = main([
            "preprocess", "--config", str(ws / "config.ini"),
            "--output", str(out), "--no-clean",
        ])
        assert code == EXIT_OK
        assert (out / "train_instances.jsonl").is_file()
