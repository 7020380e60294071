"""Config parsing, stage orchestration, and artifact layout tests."""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from tweetslots import metrics, pipeline, serialize
from tweetslots.corpus import CorpusError
from tweetslots.features import StrategyKind
from tweetslots.pipeline import (
    ConfigError,
    PipelineError,
    config_fingerprint,
    load_config,
    parse_config_text,
    run_pipeline,
)

from conftest import FLOAT_TRAIN_KEYS, tree_bytes


class TestParseConfigText:
    def test_basic(self):
        raw = parse_config_text("a = 1\nb=two words\n")
        assert raw == {"a": "1", "b": "two words"}

    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# header\n\n  # indented comment\nseed = 4\n")
        assert raw == {"seed": "4"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_separator(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("just a line\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("a =\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("= 1\n")

    def test_reports_line_number(self):
        with pytest.raises(ConfigError, match="cfg:3"):
            parse_config_text("a = 1\n# two\nbad\n", path="cfg")


class TestLoadConfig:
    def test_defaults(self, ws):
        cfg = load_config(ws / "config.ini")
        assert cfg.corpus_path == ws / "corpus.jsonl"
        assert cfg.subtasks_path == ws / "subtasks.txt"
        assert cfg.gazetteer_dir is None
        assert cfg.clean_enabled is True
        assert cfg.split.train_fraction == 0.8
        assert cfg.feature_strategy is StrategyKind.LAST
        assert cfg.train.pos_weight == 10.0
        assert cfg.train.neg_weight == 1.0
        assert cfg.train.clip_norm == 5.0
        assert cfg.ensemble_k == 3
        assert cfg.ensemble_strategies == (StrategyKind.LAST, StrategyKind.SUM4)
        assert cfg.ensemble_seeds == (0, 1, 2)
        assert len(cfg.pool) == 6

    def test_seed_flows_to_encoder_and_train(self, ws):
        cfg = load_config(ws / "config.ini")
        assert cfg.seed == cfg.encoder.seed == cfg.train.seed == 1

    def test_seed_override(self, ws):
        cfg = load_config(ws / "config.ini", seed_override=9)
        assert cfg.seed == cfg.encoder.seed == cfg.train.seed == 9

    def test_no_clean_override(self, ws):
        assert load_config(ws / "config.ini", no_clean=True).clean_enabled is False

    def test_relative_paths_resolve_against_config_dir(self, ws, tmp_path, monkeypatch):
        # cwd elsewhere must not affect resolution
        monkeypatch.chdir(tmp_path)
        cfg = load_config(ws / "config.ini")
        assert cfg.corpus_path.is_absolute()
        assert cfg.corpus_path.read_text().startswith("{")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_key(self, ws, tmp_path):
        p = tmp_path / "c.ini"
        # The last three are section fields set from `vocab.size` and `seed`.
        for key in ("train.lr", "train.seed", "encoder.seed", "encoder.vocab_size"):
            p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{key} = 1\n")
            with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
                load_config(p)

    # (key, field it lands on, a valid non-default value): every key that a
    # section dataclass declares, plus the pipeline keys that set a field.
    SECTION_KEYS = [
        ("vocab.size", "encoder.vocab_size", 512),
        ("encoder.num_layers", "encoder.num_layers", 5),
        ("encoder.hidden_size", "encoder.hidden_size", 12),
        ("encoder.max_len", "encoder.max_len", 20),
        ("encoder.context_window", "encoder.context_window", 1),
        ("split.train_fraction", "split.train_fraction", 0.6),
        ("train.batch_size", "train.batch_size", 7),
        ("train.learning_rate", "train.learning_rate", 0.002),
        ("train.weight_decay", "train.weight_decay", 0.0),
        ("train.beta1", "train.beta1", 0.8),
        ("train.beta2", "train.beta2", 0.99),
        ("train.epsilon", "train.epsilon", 1e-06),
        ("train.pos_weight", "train.pos_weight", 3.5),
        ("train.neg_weight", "train.neg_weight", 0.5),
        ("train.epochs", "train.epochs", 3),
        ("train.threshold", "train.threshold", 0.4),
        ("train.clip_norm", "train.clip_norm", 0.0),
    ]

    def test_section_keys_cover_the_dataclass_fields(self):
        derived = {k for k in pipeline._KNOWN_KEYS if k.startswith(("encoder.", "train."))}
        assert derived <= {key for key, _, _ in self.SECTION_KEYS}

    @pytest.mark.parametrize("key, target, value", SECTION_KEYS, ids=[key for key, _, _ in SECTION_KEYS])
    def test_section_key_lands_on_its_field(self, ws, tmp_path, key, target, value):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n")
        base = load_config(p)
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{key} = {value}\n")
        section, name = target.split(".")
        assert getattr(getattr(base, section), name) != value
        want = replace(base, **{section: replace(getattr(base, section), **{name: value})})
        assert load_config(p) == want

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_TRAIN_KEYS)
    def test_non_finite_train_value_rejected(self, ws, tmp_path, key, value):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"{key.split('.')[1]} must be finite"):
            load_config(p)

    def test_missing_corpus_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("seed = 1\n")
        with pytest.raises(ConfigError, match="data.corpus"):
            load_config(p)

    def test_nonexistent_data_path(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("data.corpus = missing.jsonl\n")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(p)

    @pytest.mark.parametrize(
        "line, pat",
        [
            ("clean.enabled = maybe", "true/false"),
            ("train.epochs = many", "train.epochs"),
            ("split.train_fraction = 1.5", "train_fraction"),
            ("split.train_fraction = 0", "train_fraction"),
            ("train.epsilon = -1", "epsilon"),
            ("train.weight_decay = -0.5", "weight_decay"),
            ("ensemble.k = 4", "odd"),
            ("ensemble.k = -1", "odd"),
            ("feature_strategy = mean4", "strategy"),
        ],
    )
    def test_invalid_values(self, ws, tmp_path, line, pat):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{line}\n")
        with pytest.raises(ConfigError, match=pat):
            load_config(p)

    def test_pool_must_cover_k(self, ws, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            f"data.corpus = {ws / 'corpus.jsonl'}\n"
            "ensemble.strategies = last\nensemble.seeds = 0\nensemble.k = 3\n"
        )
        with pytest.raises(ConfigError, match="pool"):
            load_config(p)

    @pytest.mark.parametrize(
        "lines, pat",
        [
            ("ensemble.strategies = last,last\nensemble.k = 1", "ensemble.strategies lists 'last'"),
            ("ensemble.strategies = sum4, LAST ,last", "ensemble.strategies lists 'last'"),
            ("ensemble.seeds = 0,1,0", "ensemble.seeds lists 0"),
            ("ensemble.seeds = 7, 07\nensemble.k = 1", "ensemble.seeds lists 7"),
        ],
        ids=["strategy-twice", "strategy-case-and-space", "seed-twice", "seed-leading-zero"],
    )
    def test_repeated_pool_entry_rejected(self, ws, tmp_path, lines, pat):
        # Two pool members with one (strategy, seed) would write one model
        # file and could be counted twice by the vote.
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{lines}\n")
        with pytest.raises(ConfigError, match=pat):
            load_config(p)

    @pytest.mark.parametrize(
        "line, override, message",
        [
            ("seed = -1", None, "seed must be >= 0, got -1"),
            ("seed = 1", -1, "--seed must be >= 0, got -1"),
            ("ensemble.seeds = 0,-1\nensemble.k = 1", None, "ensemble.seeds entries must be >= 0, got -1"),
        ],
        ids=["seed", "seed-override", "ensemble-seed"],
    )
    def test_negative_seed_rejected(self, ws, tmp_path, line, override, message):
        # numpy refuses a negative seed, so it must not get past loading.
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{p}: {message}')}$"):
            load_config(p, seed_override=override)

    def test_fingerprint_stability(self, ws):
        a = config_fingerprint(load_config(ws / "config.ini"))
        b = config_fingerprint(load_config(ws / "config.ini"))
        c = config_fingerprint(load_config(ws / "config.ini", seed_override=9))
        assert a == b
        assert a != c

    def test_fingerprint_ignores_how_the_config_path_is_spelled(self, ws, monkeypatch):
        monkeypatch.chdir(ws.parent)
        spellings = [ws / "config.ini", Path(ws.name) / "config.ini", Path(ws.name) / ".." / ws.name / "config.ini"]
        cfgs = [load_config(p) for p in spellings]
        assert {config_fingerprint(cfg) for cfg in cfgs} == {config_fingerprint(cfgs[0])}
        assert {cfg.corpus_path for cfg in cfgs} == {(ws / "corpus.jsonl").resolve()}


@pytest.fixture(scope="module")
def run_dir(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = load_config(ws / "config.ini")
    run_pipeline(cfg, out)
    return out


EXPECTED_FILES = {
    "split_manifest.json",
    "train_instances.jsonl",
    "val_instances.jsonl",
    "predictions.jsonl",
    "predictions_filtered.jsonl",
    "report_unfiltered.json",
    "report_filtered.json",
    "table_unfiltered.txt",
    "table_filtered.txt",
    "ablation.txt",
    "ablation.json",
    "run_manifest.json",
}


class TestRunPipeline:
    def test_artifact_files_exist(self, run_dir):
        present = {p.name for p in run_dir.iterdir() if p.is_file()}
        assert EXPECTED_FILES <= present
        for kind in ("last", "sum4"):
            for seed in (0, 1, 2):
                assert (run_dir / "models" / f"{kind}-s{seed}.bin").is_file()
                assert (run_dir / "logs" / f"{kind}-s{seed}.jsonl").is_file()

    def test_lock_released(self, run_dir):
        assert not (run_dir / ".lock").exists()

    def test_manifest_hashes_match_files(self, run_dir):
        obj = json.loads((run_dir / "run_manifest.json").read_text())
        assert obj["status"] == "ok"
        assert obj["seed"] == 1
        assert "partial" not in obj
        assert len(obj["artifacts"]) == 23
        for name, entry in obj["artifacts"].items():
            path = run_dir / entry["path"]
            assert path.is_file(), name
            assert serialize.file_sha256(path) == entry["sha256"], name

    def test_split_manifest_partitions_corpus(self, ws, run_dir):
        obj = json.loads((run_dir / "split_manifest.json").read_text())
        ids = obj["train_ids"] + obj["val_ids"]
        assert len(ids) == 16
        assert len(set(ids)) == 16
        assert len(obj["train_ids"]) == 13  # round(0.8 * 16)

    def test_reports_joinable(self, run_dir):
        rep = metrics.load_report(run_dir / "report_unfiltered.json")
        rep_f = metrics.load_report(run_dir / "report_filtered.json")
        assert rep.corpus_id == rep_f.corpus_id
        assert rep.corpus_id.endswith("/val")
        assert len(rep.counts) == 3
        assert 0.0 <= rep.micro_f1 <= 1.0

    def test_ablation_references_both_reports(self, run_dir):
        obj = json.loads((run_dir / "ablation.json").read_text())
        assert obj["label_a"] == "unfiltered"
        assert obj["label_b"] == "filtered"
        text = (run_dir / "ablation.txt").read_text()
        assert "unfiltered" in text and "filtered" in text

    def test_predictions_cover_val_instances(self, ws, run_dir):
        n_val = len(serialize.load_instances(run_dir / "val_instances.jsonl", load_config(ws / "config.ini").encoder))
        records = serialize.load_predictions(run_dir / "predictions.jsonl")
        assert len(records) == n_val > 0


class TestStageComposition:
    def test_staged_sequence_matches_run(self, ws, run_dir, tmp_path):
        cfg = load_config(ws / "config.ini")
        staged = tmp_path / "staged"
        staged.mkdir()
        pipeline.stage_preprocess(cfg, staged)
        pipeline.stage_train_pool(cfg, staged)
        pipeline.stage_ensemble(cfg, staged)
        pipeline.stage_postprocess(cfg, staged)
        pipeline.stage_evaluate(cfg, staged)
        pipeline.stage_evaluate_filtered(cfg, staged)
        pipeline.stage_ablate(cfg, staged)
        a = tree_bytes(run_dir, skip=frozenset({".lock", "run_manifest.json"}))
        b = tree_bytes(staged)
        assert set(a) == set(b)
        for rel in a:
            assert a[rel] == b[rel], rel

    def test_repeat_run_is_byte_identical(self, ws, run_dir, tmp_path):
        cfg = load_config(ws / "config.ini")
        again = tmp_path / "again"
        run_pipeline(cfg, again)
        a = tree_bytes(run_dir)
        b = tree_bytes(again)
        assert set(a) == set(b)
        for rel in a:
            assert a[rel] == b[rel], rel


class TestOutputLock:
    def test_two_locks_in_one_process_exclude_each_other(self, tmp_path):
        first, second = pipeline._OutputLock(tmp_path), pipeline._OutputLock(tmp_path)
        with first:
            assert (tmp_path / ".lock").stat().st_mode & 0o111 == 0  # a lock file, not a program
            with pytest.raises(PipelineError, match=re.escape(f"locked by {tmp_path / '.lock'}")):
                second.__enter__()
        with second:
            with pytest.raises(PipelineError, match="locked"):
                first.__enter__()
        assert not (tmp_path / ".lock").exists()

    @pytest.mark.parametrize("retaken", [True, False], ids=["retaken", "left-free"])
    def test_a_release_between_open_and_flock_cannot_seat_two_holders(self, tmp_path, monkeypatch, retaken):
        import fcntl

        lock = tmp_path / ".lock"
        first, taker, third = (pipeline._OutputLock(tmp_path) for _ in range(3))
        real_flock, raced = fcntl.flock, []

        def flock(fd, operation):
            # The taker has opened the first holder's file. Before its flock,
            # that holder releases, and perhaps a third command takes the new file.
            monkeypatch.setattr(fcntl, "flock", real_flock)
            raced.append(fd)
            first.__exit__(None, None, None)
            if retaken:
                third.__enter__()
            return real_flock(fd, operation)

        first.__enter__()
        monkeypatch.setattr(fcntl, "flock", flock)
        if retaken:
            with pytest.raises(PipelineError, match="locked"):
                taker.__enter__()
            holder = third
        else:
            taker.__enter__()
            holder = taker
            with pytest.raises(PipelineError, match="locked"):
                third.__enter__()
        assert len(raced) == 1
        assert os.path.samestat(os.fstat(holder._fd), lock.stat())
        holder.__exit__(None, None, None)
        assert not lock.exists()

    def test_a_left_file_is_taken_unread(self, tmp_path, caplog):
        (tmp_path / ".lock").write_bytes(b"\xff not a pid\n")
        with pipeline._OutputLock(tmp_path):
            pass
        assert caplog.records == []
        assert not (tmp_path / ".lock").exists()


class TestFailureHandling:
    def test_locked_output_rejected(self, ws, tmp_path):
        cfg = load_config(ws / "config.ini")
        out = tmp_path / "busy"
        out.mkdir()
        with pipeline._OutputLock(out):
            held = (out / ".lock").stat()
            with pytest.raises(PipelineError, match="locked"):
                run_pipeline(cfg, out)
            # a lock we did not take stays in place
            assert os.path.samestat((out / ".lock").stat(), held)
        assert [p.name for p in out.iterdir()] == []

    def test_failed_stage_writes_partial_manifest(self, ws, tmp_path):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{not json\n")
        conf = tmp_path / "c.ini"
        conf.write_text(f"data.corpus = {corpus}\n")
        cfg = load_config(conf)
        out = tmp_path / "out"
        with pytest.raises((PipelineError, CorpusError)):
            run_pipeline(cfg, out)
        obj = json.loads((out / "run_manifest.json").read_text())
        assert obj["status"] == "failed"
        assert obj["failed_stage"] == "preprocess"
        assert obj["partial"] is True
        assert not (out / ".lock").exists()

    def test_best_val_score(self):
        from tweetslots.multitask import TrainLogEntry

        logs = [TrainLogEntry(1, 0.9, 0.2), TrainLogEntry(2, 0.5, 0.7), TrainLogEntry(3, 0.4, 0.6)]
        assert pipeline.best_val_score(logs) == 0.7
