"""Exit codes, stage composability, and flag handling for the CLI."""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from tweetslots import pipeline, serialize
from tweetslots.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, _build_parser, main
from tweetslots.features import StrategyKind
from tweetslots.multitask import init_model

from conftest import CONFIG_TEXT, FLOAT_TRAIN_KEYS, lock_holder, tree_bytes


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

    @staticmethod
    def _reports(cli_run, out):
        out.mkdir()
        for name in ("report_unfiltered.json", "report_filtered.json"):
            (out / name).write_bytes((cli_run / name).read_bytes())

    @staticmethod
    def _ablate(ws, out):
        return main(["ablate", "--config", str(ws / "config.ini"), "--output", str(out)])

    def test_stage_refuses_a_locked_output(self, ws, cli_run, tmp_path):
        out = tmp_path / "locked"
        self._reports(cli_run, out)
        lock = out / ".lock"
        with pipeline._OutputLock(out):
            held = lock.stat()
            assert self._ablate(ws, out) == EXIT_DATA
            assert os.path.samestat(lock.stat(), held)
        assert not (out / "ablation.json").exists()

    def test_stage_refuses_the_lock_of_a_live_pid(self, ws, cli_run, tmp_path):
        out = tmp_path / "held"
        self._reports(cli_run, out)
        lock = out / ".lock"
        with lock_holder(out):
            held = lock.stat()
            assert self._ablate(ws, out) == EXIT_DATA
            after = lock.stat()
            assert os.path.samestat(after, held)
            assert (after.st_size, after.st_mtime_ns) == (held.st_size, held.st_mtime_ns)
            assert not (out / "ablation.json").exists()

    def test_stage_refuses_a_held_lock_whatever_its_file_says(self, ws, cli_run, tmp_path):
        out = tmp_path / "held"
        self._reports(cli_run, out)
        dead = subprocess.Popen([sys.executable, "-c", ""])
        assert dead.wait(timeout=60) == 0  # exited and reaped: its pid runs no more
        lock = out / ".lock"
        with lock_holder(out):
            lock.write_text(f"{dead.pid} {os.uname().nodename}\n")
            assert self._ablate(ws, out) == EXIT_DATA
            assert lock.read_text() == f"{dead.pid} {os.uname().nodename}\n"
            assert not (out / "ablation.json").exists()

    def test_stage_takes_the_lock_of_a_killed_holder(self, ws, cli_run, tmp_path, caplog):
        out = tmp_path / "crashed"
        self._reports(cli_run, out)
        with lock_holder(out) as holder:
            holder.kill()
            holder.wait(timeout=60)
            assert (out / ".lock").exists()  # SIGKILL gives no chance to clean up
            assert self._ablate(ws, out) == EXIT_OK
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert (out / "ablation.json").is_file()
        assert not (out / ".lock").exists()

    def test_stage_fails_where_flock_is_not_supported(self, ws, cli_run, tmp_path, monkeypatch, caplog):
        import fcntl

        def unsupported(fd, operation):
            raise OSError(errno.ENOLCK, "No locks available")

        out = tmp_path / "nfs"
        self._reports(cli_run, out)
        monkeypatch.setattr(fcntl, "flock", unsupported)
        assert self._ablate(ws, out) == EXIT_DATA
        assert "No locks available" in caplog.text
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
        model = serialize.load_model(cli_run / "models" / "last-s0.bin")
        n_val = len(serialize.load_instances(cli_run / "val_instances.jsonl", model.encoder.config))
        assert len(records) == n_val
        assert all(r.decision in (0, 1) for r in records)

    def test_instances_of_another_max_len_are_data_error(self, ws, cli_run, tmp_path, caplog):
        cfg = pipeline.load_config(ws / "config.ini")
        wider = replace(cfg.encoder, max_len=cfg.encoder.max_len + 1)
        serialize.save_model(init_model(wider, StrategyKind.LAST, pipeline.make_registry(cfg)), tmp_path / "m.bin")
        out_file = tmp_path / "single.jsonl"
        code = main([
            "predict", "--config", str(ws / "config.ini"), "--output", str(cli_run),
            "--model", str(tmp_path / "m.bin"), "--out", str(out_file),
        ])
        assert code == EXIT_DATA
        assert f"field 'max_len' is {cfg.encoder.max_len}, the encoder's max_len is {wider.max_len}" in caplog.text
        assert not out_file.exists()

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_TRAIN_KEYS)
    def test_non_finite_train_value(self, ws, tmp_path, caplog, key, value):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{key} = {value}\n")
        assert main(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{key.split('.')[1]} must be finite" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_repeated_pool_entry(self, ws, tmp_path, caplog):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\nensemble.strategies = last,last\nensemble.k = 1\n")
        assert main(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "ensemble.strategies lists 'last' more than once" in caplog.text

    @pytest.mark.parametrize(
        "line, flags, message",
        [
            ("seed = -1", [], "seed must be >= 0, got -1"),
            ("seed = 1", ["--seed", "-1"], "--seed must be >= 0, got -1"),
            ("ensemble.seeds = 0,-1\nensemble.k = 1", [], "ensemble.seeds entries must be >= 0, got -1"),
        ],
        ids=["seed", "seed-flag", "ensemble-seed"],
    )
    def test_negative_seed(self, ws, tmp_path, caplog, line, flags, message):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{line}\n")
        assert main(["run", "--config", str(p), "--output", str(tmp_path / "o"), *flags]) == EXIT_CONFIG
        assert f"{p}: {message}" in caplog.text
        assert not (tmp_path / "o").exists()

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

    def test_non_object_instance_row(self, ws, cli_run, tmp_path, caplog):
        out = tmp_path / "o"
        out.mkdir()
        first = (cli_run / "val_instances.jsonl").read_text().splitlines()[0]
        (out / "val_instances.jsonl").write_text(f"{first}\n5\n")
        code = main(["ensemble", "--config", str(ws / "config.ini"), "--output", str(out)])
        assert code == EXIT_DATA
        assert f"{out / 'val_instances.jsonl'}:2: expected an object, got 5" in caplog.text

    @pytest.mark.parametrize("command", ["preprocess", "run"])
    def test_corpus_that_is_not_utf8(self, ws, tmp_path, caplog, command):
        corpus = tmp_path / "corpus.jsonl"
        first = (ws / "corpus.jsonl").read_bytes().splitlines(keepends=True)[0]
        corpus.write_bytes(first + first.replace(b'"text":"', b'"text":"\xff', 1))
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {corpus}\ndata.subtasks = {ws / 'subtasks.txt'}\n")
        assert main([command, "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_DATA
        assert f"{corpus}:2: not UTF-8 (byte 0xff)" in caplog.text

    @pytest.mark.parametrize("command", ["preprocess", "run"])
    def test_config_that_is_not_utf8(self, ws, tmp_path, caplog, command):
        p = tmp_path / "c.ini"
        p.write_bytes(f"data.corpus = {ws / 'corpus.jsonl'}\n# caf\xe9 latin-1\n".encode("latin-1"))
        assert main([command, "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{p}:2: not UTF-8 (byte 0xe9)" in caplog.text
        assert not (tmp_path / "o").exists()

    def test_evaluate_without_predictions(self, ws, tmp_path):
        code = main([
            "evaluate", "--config", str(ws / "config.ini"), "--output", str(tmp_path / "empty"),
        ])
        assert code == EXIT_DATA


class TestEnsemblePool:
    """``ensemble`` ranks the config's pool by the members' training logs."""

    def test_lowered_logged_f1_changes_the_members(self, ws, cli_run, tmp_path, monkeypatch):
        out = tmp_path / "o"
        shutil.copytree(cli_run, out)
        loaded = []
        load_model = serialize.load_model
        monkeypatch.setattr(serialize, "load_model", lambda path: loaded.append(path.name) or load_model(path))
        argv = ["ensemble", "--config", str(ws / "config.ini"), "--output", str(out)]
        assert main(argv) == EXIT_OK
        before, top = list(loaded), loaded[0].removesuffix(".bin")
        log_path = out / "logs" / f"{top}.jsonl"
        rows = [json.loads(line) for line in log_path.read_text().splitlines()]
        log_path.write_text("".join(json.dumps({**row, "val_micro_f1": 0.0}) + "\n" for row in rows))
        loaded.clear()
        assert main(argv) == EXIT_OK
        assert f"{top}.bin" not in loaded
        assert len(loaded) == len(before)

    def test_untrained_member_names_its_log(self, ws, cli_run, tmp_path, caplog):
        out = tmp_path / "o"
        shutil.copytree(cli_run, out)
        p = tmp_path / "c.ini"
        p.write_text(CONFIG_TEXT.replace("ensemble.seeds = 0,1,2", "ensemble.seeds = 0,1,2,5"))
        for name in ("corpus.jsonl", "subtasks.txt"):
            (tmp_path / name).write_bytes((ws / name).read_bytes())
        code = main(["ensemble", "--config", str(p), "--output", str(out)])
        assert code == EXIT_DATA
        assert str(out / "logs" / "last-s5.jsonl") in caplog.text


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
