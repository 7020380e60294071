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

from conftest import CONFIG_TEXT, FLOAT_TRAIN_KEYS, lock_holder, tree_bytes, ws_config


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

    @pytest.mark.parametrize(
        "command", ["preprocess", "train", "predict", "ensemble", "postprocess", "evaluate", "ablate", "run"]
    )
    def test_options_are_the_config_the_output_and_inputs(self, ws, tmp_path, command):
        # Every setting comes from the config file; no option overrides one of its keys.
        extra = {"predict": {"--model", "--instances", "--out"}, "evaluate": {"--filtered"}}.get(command, set())
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {opt for action in sub.choices[command]._actions for opt in action.option_strings}
        assert options - {"-h", "--help"} == {"--config", "--output"} | extra
        out = tmp_path / "o"
        base = [command, "--config", str(ws / "config.ini"), "--output", str(out)]
        if command == "predict":
            base += ["--model", str(tmp_path / "m.bin"), "--out", str(tmp_path / "p.jsonl")]
        _build_parser().parse_args(base)  # so the exit below is the flag's
        for flag in (["--seed", "1"], ["--no-clean"]):
            with pytest.raises(SystemExit) as info:
                main([*base, *flag])
            assert info.value.code == EXIT_CONFIG
            assert not out.exists()

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
        assert f"No locks available: '{out / '.lock'}'" in caplog.text
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
        out_file = tmp_path / "single.jsonl"
        code = main([
            "predict", "--config", str(ws / "config.ini"), "--output", str(tmp_path),
            "--model", str(tmp_path / "absent.bin"), "--out", str(out_file),
        ])
        assert code == EXIT_DATA
        assert not out_file.exists()

    def test_out_is_required(self, ws, cli_run):
        # With no default, predict cannot replace the ensemble's predictions.jsonl
        # and leave run_manifest.json's sha256 for it stale.
        before = (cli_run / "predictions.jsonl").read_bytes()
        with pytest.raises(SystemExit) as info:
            main([
                "predict", "--config", str(ws / "config.ini"), "--output", str(cli_run),
                "--model", str(cli_run / "models" / "last-s0.bin"),
            ])
        assert info.value.code == EXIT_CONFIG
        assert (cli_run / "predictions.jsonl").read_bytes() == before


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
        "line, message",
        [
            ("seed = -1", "seed must be >= 0, got -1"),
            ("ensemble.seeds = 0,-1\nensemble.k = 1", "ensemble.seeds entries must be >= 0, got -1"),
        ],
        ids=["seed", "ensemble-seed"],
    )
    def test_negative_seed(self, ws, tmp_path, caplog, line, message):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{line}\n")
        assert main(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{p}:2: {message}" in caplog.text
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
    def test_corpus_with_a_lone_surrogate(self, ws, tmp_path, caplog, command):
        # Read as text, the escape would reach the corpus digest, which cannot encode it as UTF-8.
        corpus = tmp_path / "corpus.jsonl"
        first = (ws / "corpus.jsonl").read_bytes().splitlines(keepends=True)[0]
        corpus.write_bytes(first + first.replace(b'"text":"', b'"text":"\\ud83d', 1))
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {corpus}\ndata.subtasks = {ws / 'subtasks.txt'}\n")
        assert main([command, "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_DATA
        assert f"{corpus}:2: field 'text' holds a lone surrogate '\\ud83d', not text" in caplog.text

    @pytest.mark.parametrize("command", ["preprocess", "run"])
    def test_config_that_is_not_utf8(self, ws, tmp_path, caplog, command):
        p = tmp_path / "c.ini"
        p.write_bytes(f"data.corpus = {ws / 'corpus.jsonl'}\n# caf\xe9 latin-1\n".encode("latin-1"))
        assert main([command, "--config", str(p), "--output", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{p}:2: not UTF-8 (byte 0xe9)" in caplog.text
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fraction, side", [(0.001, "train"), (0.99, "validation")])
    def test_split_with_an_empty_side(self, ws, tmp_path, caplog, fraction, side):
        # The workspace corpus holds 16 tweets: 0.001 puts none on the train
        # side, 0.99 all of them.
        p = tmp_path / "c.ini"
        p.write_text(CONFIG_TEXT.replace("seed = 1", f"seed = 1\nsplit.train_fraction = {fraction}"))
        for name in ("corpus.jsonl", "subtasks.txt"):
            (tmp_path / name).write_bytes((ws / name).read_bytes())
        out = tmp_path / "o"
        assert main(["preprocess", "--config", str(p), "--output", str(out)]) == EXIT_DATA
        corpus = (tmp_path / "corpus.jsonl").resolve()
        assert f"{corpus}: split.train_fraction = {fraction} leaves the {side} side of 16 tweets empty" in caplog.text
        assert not list(out.glob("*instances.jsonl"))

    def test_ablate_refuses_a_report_its_counts_do_not_give(self, ws, cli_run, tmp_path, caplog):
        out = tmp_path / "o"
        TestStageTable._reports(cli_run, out)
        report = json.loads((out / "report_filtered.json").read_text())
        report["micro_f1"] = 0.99
        (out / "report_filtered.json").write_text(json.dumps(report))
        assert TestStageTable._ablate(ws, out) == EXIT_DATA
        assert f"{out / 'report_filtered.json'}: field 'micro_f1' is 0.99, but the counts give " in caplog.text
        assert not (out / "ablation.json").exists()

    def test_ensemble_refuses_a_marker_off_its_open_marker(self, ws, cli_run, tmp_path, caplog):
        # Read from the token after <E>, the row would be scored from context, and ensemble would exit 0.
        out = tmp_path / "o"
        shutil.copytree(cli_run, out)
        lines = (out / "val_instances.jsonl").read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row["marker_pos"] += 1
        lines[1] = json.dumps(row) + "\n"
        (out / "val_instances.jsonl").write_text("".join(lines))
        before = (out / "predictions.jsonl").read_bytes()
        assert main(["ensemble", "--config", str(ws / "config.ini"), "--output", str(out)]) == EXIT_DATA
        token_id = row["token_ids"][row["marker_pos"]]
        assert (f"{out / 'val_instances.jsonl'}:2: field 'marker_pos' is {row['marker_pos']}, where token_ids holds "
                f"{token_id}, not the <E> id 2") in caplog.text
        assert (out / "predictions.jsonl").read_bytes() == before

    def test_evaluate_without_predictions(self, ws, tmp_path):
        code = main([
            "evaluate", "--config", str(ws / "config.ini"), "--output", str(tmp_path / "empty"),
        ])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
    def test_evaluate_refuses_predictions_that_skip_triples(self, ws, cli_run, tmp_path, caplog, filtered):
        # A gold positive without a row would count as no false negative. The rows go in
        # triple order, so the first one dropped is the first triple missing.
        name = "predictions_filtered.jsonl" if filtered else "predictions.jsonl"
        out = tmp_path / "o"
        out.mkdir()
        lines = (cli_run / name).read_text().splitlines(keepends=True)
        kept, first = lines[::2], json.loads(lines[1])
        (out / name).write_text("".join(kept))
        argv = ["evaluate", "--config", str(ws / "config.ini"), "--output", str(out)]
        assert main(argv + ["--filtered"] * filtered) == EXIT_DATA
        assert (f"{out / name}: {len(kept)} predictions for {len(lines)} validation triples; first missing: "
                f"tweet {first['tweet_id']!r}, subtask {first['subtask']}, candidate {first['candidate_index']}"
                ) in caplog.text
        assert not list(out.glob("report_*.json"))


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
    """What the deleted ``--seed`` and ``--no-clean`` flags did, now done by
    the ``seed`` and ``clean.enabled`` keys of a second config file."""

    def test_seed_override_changes_split(self, ws, cli_run, tmp_path):
        out = tmp_path / "seeded"
        p = ws_config(ws, "seed9.ini", "seed = 1", "seed = 9")
        assert main(["preprocess", "--config", str(p), "--output", str(out)]) == EXIT_OK
        base = json.loads((cli_run / "split_manifest.json").read_text())
        seeded = json.loads((out / "split_manifest.json").read_text())
        assert seeded["seed"] == 9
        assert seeded["train_ids"] != base["train_ids"]

    def test_no_clean_runs(self, ws, tmp_path):
        out = tmp_path / "noclean"
        p = ws_config(ws, "no-clean.ini", "seed = 1", "seed = 1\nclean.enabled = false")
        assert pipeline.load_config(p).clean_enabled is False
        assert main(["preprocess", "--config", str(p), "--output", str(out)]) == EXIT_OK
        assert (out / "train_instances.jsonl").is_file()
