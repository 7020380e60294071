"""Exit codes, stage composability, and flag handling for the CLI."""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from tweetslots import pipeline, serialize
from tweetslots.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK, _build_parser, main
from tweetslots.features import StrategyKind
from tweetslots.multitask import init_model

from conftest import FLOAT_TRAIN_KEYS, lock_holder, tree_bytes, ws_config


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

    @pytest.mark.parametrize("kind", [k.value for k in StrategyKind])
    def test_the_one_member_of_a_pool_predicts_the_ensembles_file(self, ws, tmp_path, kind):
        p = ws_config(ws, f"one-{kind}.ini", "ensemble.strategies = last,sum4\nensemble.seeds = 0,1,2\nensemble.k = 3",
                      f"ensemble.strategies = {kind}\nensemble.seeds = 0\nensemble.k = 1")
        out, single = tmp_path / "o", tmp_path / "single.jsonl"
        assert main(["run", "--config", str(p), "--output", str(out)]) == EXIT_OK
        assert main(["predict", "--config", str(p), "--output", str(out),
                     "--model", str(out / "models" / f"{kind}-s0.bin"), "--out", str(single)]) == EXIT_OK
        assert single.read_bytes() == (out / "predictions.jsonl").read_bytes()

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


# The CLI's refusals, one table. A case starts from a directory ``in``, holding
# the workspace's inputs (start "inputs" or "run") or nothing (start "empty"),
# and ``out``, a copy of the ``cli_run`` tree (start "run") or absent. It makes
# one edit, runs one command, and checks the exit code, the message, and what
# the command left alone. Both runners run every case: ``main`` in process, and
# the ``tweetslots`` script (or ``python -m tweetslots.cli`` where none is
# installed) as a child process that imports this package.


@dataclass(frozen=True)
class Case:
    """``argv`` and ``message`` are formatted with the case's ``inputs`` and
    ``out`` paths and what ``edit`` returns. Each glob of ``absent`` is removed
    before the command and must match nothing after it; each path of
    ``unchanged`` keeps its bytes, inode and mtime; each (path, text) of
    ``holds`` names a file that must hold that text after the command.
    ``holder`` is a second process holding ``out``'s lock ("live"), or killed
    after taking it ("killed"). A case that exits 0 logs no warning."""

    id: str
    start: str
    argv: str
    code: int
    message: str
    edit: Callable[[Path], dict | None] = lambda root: None
    absent: tuple[str, ...] = ()
    unchanged: tuple[str, ...] = ()
    holds: tuple[tuple[str, str], ...] = ()
    holder: str | None = None


def _write(rel: str, data: str | bytes):
    """An edit that writes ``data`` to ``rel``."""
    def edit(root):
        (root / rel).write_bytes(data.encode() if isinstance(data, str) else data)
    return edit


def _lines(rel: str, change):
    """An edit of ``rel``'s lines (bytes): ``change`` returns the new lines and the values it formats."""
    def edit(root):
        path = root / rel
        lines, values = change(path.read_bytes().splitlines(keepends=True))
        path.write_bytes(b"".join(lines))
        return values
    return edit


def _replace(rel: str, old: str, new: str):
    """An edit that replaces the first ``old`` in ``rel`` with ``new``."""
    def change(lines):
        text = b"".join(lines).decode()
        assert old in text, old
        return [text.replace(old, new, 1).encode()], {}
    return _lines(rel, change)


def _row(rel: str, change, line: int = 1):
    """An edit of JSON row ``line`` of ``rel``: ``change`` alters the row and returns the values it formats."""
    def change_lines(lines):
        row = json.loads(lines[line - 1])
        values = change(row)
        return [*lines[:line - 1], (json.dumps(row, ensure_ascii=False) + "\n").encode(), *lines[line:]], values
    return _lines(rel, change_lines)


def _skip_rows(rel: str, keep):
    """Keep the prediction rows whose index ``keep(i, n)`` accepts; formats their count
    ``kept``, the ``total``, and the first dropped triple as ``missing``."""
    def change(lines):
        kept = [line for i, line in enumerate(lines) if keep(i, len(lines))]
        first = json.loads(next(line for i, line in enumerate(lines) if not keep(i, len(lines))))
        missing = f"tweet {first['tweet_id']!r}, subtask {first['subtask']}, candidate {first['candidate_index']}"
        return kept, {"kept": len(kept), "total": len(lines), "missing": missing}
    return _lines(rel, change)


def _text_prefix(line: int, prefix: bytes):
    """Put ``prefix`` before the text of corpus line ``line``."""
    return _lines("in/corpus.jsonl", lambda lines: (
        [*lines[:line - 1], lines[line - 1].replace(b'"text":"', b'"text":"' + prefix, 1), *lines[line:]], {}))


def _move_marker(row):
    row["marker_pos"] += 1
    return {"pos": row["marker_pos"], "token": row["token_ids"][row["marker_pos"]]}


def _other_event(row):
    subtask = row["subtask"]
    row["subtask"] = "death/age" if subtask.startswith("cure_and_prevention/") else "cure_and_prevention/opinion"
    return {"tweet": row["tweet_id"], "event": subtask.split("/")[0], "subtask": row["subtask"]}


def _first_row_twice(lines):
    row = json.loads(lines[0])
    return [lines[0], *lines[:-1]], {"key": (row["tweet_id"], tuple(row["subtask"].split("/")), row["candidate_index"])}


def _wider_model(root):
    cfg = pipeline.load_config(root / "in" / "config.ini")
    wider = replace(cfg.encoder, max_len=cfg.encoder.max_len + 1)
    serialize.save_model(init_model(wider, StrategyKind.LAST, pipeline.make_registry(cfg)), root / "in" / "m.bin")
    return {"max_len": cfg.encoder.max_len, "wider": wider.max_len}


_STAGE = "--config {inputs}/config.ini --output {out}"
_C_INI = "--config {inputs}/c.ini --output {out}"
_PREDICT = "predict " + _STAGE + " --model {inputs}/m.bin --out {inputs}/single.jsonl"
_PREDICTIONS = "{out}/predictions.jsonl: "

CASES = (
    Case("evaluate-without-the-last-row", "run", "evaluate " + _STAGE, EXIT_DATA,
         _PREDICTIONS + "{kept} predictions for {total} validation triples; first missing: {missing}",
         _skip_rows("out/predictions.jsonl", lambda i, n: i < n - 1), absent=("out/report_*.json",)),
    *(Case(f"evaluate-skipping-triples-{label}", "run", f"evaluate {_STAGE}{flag}", EXIT_DATA,
           f"{{out}}/{name}: {{kept}} predictions for {{total}} validation triples; first missing: {{missing}}",
           _skip_rows(f"out/{name}", lambda i, n: i % 2 == 0), absent=("out/report_*.json",))
      for label, flag, name in (("unfiltered", "", "predictions.jsonl"),
                                ("filtered", " --filtered", "predictions_filtered.jsonl"))),
    Case("evaluate-unknown-tweet", "run", "evaluate " + _STAGE, EXIT_DATA,
         _PREDICTIONS + "prediction references unknown tweet ''",
         _row("out/predictions.jsonl", lambda row: row.update(tweet_id="")), absent=("out/report_*.json",)),
    Case("evaluate-unregistered-subtask", "run", "evaluate " + _STAGE, EXIT_DATA,
         _PREDICTIONS + "prediction references unregistered subtask death/when",
         _row("out/predictions.jsonl", lambda row: row.update(subtask="death/when")), absent=("out/report_*.json",)),
    Case("evaluate-foreign-event", "run", "evaluate " + _STAGE, EXIT_DATA,
         _PREDICTIONS + "tweet {tweet!r} is a {event} tweet; prediction for {subtask} cannot join it",
         _row("out/predictions.jsonl", _other_event), absent=("out/report_*.json",)),
    Case("evaluate-candidate-out-of-range", "run", "evaluate " + _STAGE, EXIT_DATA,
         _PREDICTIONS + "tweet {tweet!r}: candidate index 99 out of range",
         _row("out/predictions.jsonl", lambda row: row.update(candidate_index=99) or {"tweet": row["tweet_id"]}),
         absent=("out/report_*.json",)),
    Case("evaluate-duplicate-row", "run", "evaluate " + _STAGE, EXIT_DATA,
         _PREDICTIONS + "duplicate prediction for {key}",
         _lines("out/predictions.jsonl", _first_row_twice), absent=("out/report_*.json",)),
    Case("evaluate-without-predictions", "inputs", "evaluate " + _STAGE, EXIT_DATA,
         "No such file or directory: '{out}/predictions.jsonl'", absent=("out/report_*.json",)),
    Case("ensemble-marker-off-its-open-marker", "run", "ensemble " + _STAGE, EXIT_DATA,
         "{out}/val_instances.jsonl:1: field 'marker_pos' is {pos}, where token_ids holds {token}, not the <E> id 2",
         _row("out/val_instances.jsonl", _move_marker), unchanged=("out/predictions.jsonl",)),
    Case("ensemble-without-its-close-marker", "run", "ensemble " + _STAGE, EXIT_DATA,
         "{out}/val_instances.jsonl:1: field 'token_ids' must hold one <E> id 2, at marker_pos, and one </E> id 3",
         _row("out/val_instances.jsonl", lambda row: row["token_ids"].__setitem__(row["token_ids"].index(3), 7)),
         unchanged=("out/predictions.jsonl",)),
    Case("ensemble-non-object-instance-row", "run", "ensemble " + _STAGE, EXIT_DATA,
         "{out}/val_instances.jsonl:2: expected an object, got 5",
         _lines("out/val_instances.jsonl", lambda lines: ([lines[0], b"5\n"], {})),
         unchanged=("out/predictions.jsonl",)),
    Case("ensemble-untrained-member", "run", "ensemble " + _STAGE, EXIT_DATA, "{out}/logs/last-s5.jsonl",
         _replace("in/config.ini", "ensemble.seeds = 0,1,2", "ensemble.seeds = 0,1,2,5"),
         unchanged=("out/predictions.jsonl",)),
    Case("ablate-report-its-counts-do-not-give", "run", "ablate " + _STAGE, EXIT_DATA,
         "{out}/report_filtered.json: field 'micro_f1' is 0.99, but the counts give ",
         _lines("out/report_filtered.json", lambda lines: (
             [json.dumps({**json.loads(b"".join(lines)), "micro_f1": 0.99}).encode()], {})),
         absent=("out/ablation.json",)),
    Case("ablate-under-a-live-holder", "run", "ablate " + _STAGE, EXIT_DATA,
         "output directory is locked by {out}/.lock: another command holds it",
         absent=("out/ablation.json",), unchanged=("out/.lock",), holder="live"),
    Case("ablate-after-the-holder-is-killed", "run", "ablate " + _STAGE, EXIT_OK, "",
         _write("out/ablation.json", ""), absent=("out/.lock",),
         holds=(("out/ablation.json", '"label_b": "filtered"'),), holder="killed"),
    *(Case(f"{command}-lone-surrogate", "inputs", f"{command} {_STAGE}", EXIT_DATA,
           "{inputs}/corpus.jsonl:4: field 'text' holds a lone surrogate '\\ud83d', not text",
           _text_prefix(4, b"\\ud83d"), absent=("out/*instances.jsonl",))
      for command in ("preprocess", "run")),
    *(Case(f"{command}-corpus-not-utf8", "inputs", f"{command} {_STAGE}", EXIT_DATA,
           "{inputs}/corpus.jsonl:2: not UTF-8 (byte 0xff)", _text_prefix(2, b"\xff"),
           absent=("out/*instances.jsonl",))
      for command in ("preprocess", "run")),
    Case("preprocess-malformed-corpus-row", "inputs", "preprocess " + _STAGE, EXIT_DATA,
         "{inputs}/corpus.jsonl:1: malformed JSON", _write("in/corpus.jsonl", '{"id": "a"\n'),
         absent=("out/*instances.jsonl",)),
    *(Case(f"preprocess-split-leaves-{side}-empty", "inputs", "preprocess " + _STAGE, EXIT_DATA,
           f"{{inputs}}/corpus.jsonl: split.train_fraction = {fraction} leaves the {side} side of 16 tweets empty",
           _replace("in/config.ini", "seed = 1", f"seed = 1\nsplit.train_fraction = {fraction}"),
           absent=("out/*instances.jsonl",))
      for fraction, side in ((0.001, "train"), (0.99, "validation"))),
    Case("run-diverges", "inputs", "run " + _STAGE, EXIT_DIVERGENCE,
         "training diverged: non-finite loss at epoch 1, batch 1",
         _replace("in/config.ini", "seed = 1", "seed = 1\ntrain.learning_rate = 1e200"),
         absent=("out/predictions.jsonl",),
         holds=(("out/run_manifest.json", '"status": "failed"'), ("out/run_manifest.json", '"failed_stage": "train"'))),
    Case("predict-instances-of-another-max-len", "run", _PREDICT, EXIT_DATA,
         "field 'max_len' is {max_len}, the encoder's max_len is {wider}", _wider_model,
         absent=("in/single.jsonl",)),
    Case("predict-missing-model", "inputs", _PREDICT, EXIT_DATA,
         "No such file or directory: '{inputs}/m.bin'", absent=("in/single.jsonl",)),
    Case("predict-without-out", "run", "predict " + _STAGE + " --model {out}/models/last-s0.bin", EXIT_CONFIG,
         "the following arguments are required: --out", unchanged=("out/predictions.jsonl",)),
    Case("run-missing-config", "empty", "run --config {inputs}/no.ini", EXIT_CONFIG,
         "config file not found: {inputs}/no.ini", absent=("out",)),
    Case("preprocess-form-feed-ends-no-line", "empty", "preprocess " + _C_INI, EXIT_CONFIG,
         "{inputs}/c.ini:2: unknown config key 'bogus.key'",
         _write("in/c.ini", "# page\f\nbogus.key = 1\n"), absent=("out",)),
    Case("preprocess-batch-size-zero", "inputs", "preprocess " + _C_INI, EXIT_CONFIG,
         "{inputs}/c.ini:2: config key 'train.batch_size': batch_size must be >= 1, got 0",
         _write("in/c.ini", "data.corpus = corpus.jsonl\ntrain.batch_size = 0\n"), absent=("out",)),
    Case("run-unknown-key", "inputs", "run " + _C_INI, EXIT_CONFIG, "{inputs}/c.ini:2: unknown config key 'mystery'",
         _write("in/c.ini", "data.corpus = corpus.jsonl\nmystery = 1\n"), absent=("out",)),
    Case("run-missing-corpus", "empty", "run " + _C_INI, EXIT_CONFIG,
         "{inputs}/c.ini:1: config key 'data.corpus': path does not exist: {inputs}/gone.jsonl",
         _write("in/c.ini", "data.corpus = gone.jsonl\n"), absent=("out",)),
    Case("run-repeated-pool-entry", "inputs", "run " + _C_INI, EXIT_CONFIG,
         "ensemble.strategies lists 'last' more than once",
         _write("in/c.ini", "data.corpus = corpus.jsonl\nensemble.strategies = last,last\nensemble.k = 1\n"),
         absent=("out",)),
    *(Case(f"run-negative-{name}", "inputs", "run " + _C_INI, EXIT_CONFIG, "{inputs}/c.ini:2: " + message,
           _write("in/c.ini", f"data.corpus = corpus.jsonl\n{line}\n"), absent=("out",))
      for name, line, message in (
          ("seed", "seed = -1", "seed must be >= 0, got -1"),
          ("ensemble-seed", "ensemble.seeds = 0,-1\nensemble.k = 1", "ensemble.seeds entries must be >= 0, got -1"))),
    *(Case(f"{command}-config-not-utf8", "inputs", f"{command} {_C_INI}", EXIT_CONFIG,
           "{inputs}/c.ini:2: not UTF-8 (byte 0xe9)",
           _write("in/c.ini", "data.corpus = corpus.jsonl\n# caf\xe9 latin-1\n".encode("latin-1")), absent=("out",))
      for command in ("preprocess", "run")),
    *(Case(f"run-non-finite-{key}-{value}", "inputs", "run " + _C_INI, EXIT_CONFIG,
           f"{{inputs}}/c.ini:2: config key '{key}': {key.split('.')[1]} must be finite, got {value}",
           _write("in/c.ini", f"data.corpus = corpus.jsonl\n{key} = {value}\n"), absent=("out",))
      for key in FLOAT_TRAIN_KEYS for value in ("nan", "inf", "-inf")),
)

# Where no ``tweetslots`` script is installed, the module stands in for it. Through
# PYTHONPATH the child imports this process's copy of the package, whichever copy the
# script was installed from.
_INSTALLED = shutil.which("tweetslots")
_SCRIPT = [_INSTALLED] if _INSTALLED else [sys.executable, "-m", "tweetslots.cli"]


@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
@pytest.mark.parametrize("runner", ["main", "script"])
def test_refusal(runner, case, ws, cli_run, tmp_path, monkeypatch, caplog, capsys):
    root = tmp_path.resolve()
    inputs, out = root / "in", root / "out"
    inputs.mkdir()
    if case.start != "empty":
        for name in ("corpus.jsonl", "subtasks.txt", "config.ini"):
            shutil.copyfile(ws / name, inputs / name)
    if case.start == "run":
        shutil.copytree(cli_run, out)
    names = {"inputs": inputs, "out": out, **(case.edit(root) or {})}
    for pattern in case.absent:
        for path in root.glob(pattern):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    argv = [arg.format(**names) for arg in case.argv.split()]
    monkeypatch.chdir(root)
    with lock_holder(out) if case.holder else contextlib.nullcontext() as holder:
        if case.holder == "killed":
            holder.kill()
            holder.wait(timeout=60)
            assert (out / ".lock").exists()  # SIGKILL gives no chance to clean up
        before = {rel: _stamp(root / rel) for rel in case.unchanged}
        if runner == "main":
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # a diverging run overflows on purpose
                    code = main(argv)
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
            text = caplog.text + capsys.readouterr().err
        else:
            env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
            proc = subprocess.run([*_SCRIPT, *argv], capture_output=True, text=True, env=env, timeout=600)
            code, text = proc.returncode, proc.stderr
        assert code == case.code, text
        assert case.message.format(**names) in text
        if code == EXIT_OK:
            assert not [line for line in text.splitlines() if line.startswith(("WARNING", "ERROR"))], text
        assert {rel: _stamp(root / rel) for rel in case.unchanged} == before
    for pattern in case.absent:
        assert not list(root.glob(pattern)), pattern
    for rel, held in case.holds:
        assert held in (root / rel).read_text(), rel


def _stamp(path: Path):
    stat = path.stat()
    return path.read_bytes(), stat.st_ino, stat.st_mtime_ns
