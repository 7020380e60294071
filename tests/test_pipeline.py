"""Config parsing, stage orchestration, and artifact layout tests."""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots import metrics, pipeline, serialize
from tweetslots.corpus import CorpusError, SplitConfig
from tweetslots.encoder import EncoderConfig
from tweetslots.features import StrategyKind
from tweetslots.multitask import TrainConfig
from tweetslots.pipeline import (
    ConfigError,
    PipelineError,
    config_fingerprint,
    load_config,
    parse_config_text,
    run_pipeline,
)

from conftest import FLOAT_TRAIN_KEYS, tree_bytes, ws_config


class TestParseConfigText:
    def test_basic(self):
        raw = parse_config_text("a = 1\nb=two words\n")
        assert raw == {"a": "1", "b": "two words"}

    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# header\n\n  # indented comment\nseed = 4\n")
        assert raw == {"seed": "4"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match=re.escape("<config>:3: key 'a' listed twice (first on line 1)")):
            parse_config_text("a = 1\nb = 2\na = 2\n")

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


# (key, class, field) of every section field a config key reaches; the class's own rule checks it.
CLASS_CHECKED_KEYS = [("vocab.size", EncoderConfig, "vocab_size")] + [
    (f"{prefix}.{f.name}", cls, f.name)
    for prefix, cls in (("encoder", EncoderConfig), ("train", TrainConfig), ("split", SplitConfig))
    for f in fields(cls) if f.name not in ("vocab_size", "seed")
]


def _refusal(cls, name: str, value) -> str | None:
    """The message with which ``cls`` refuses ``value`` for field ``name``, or None."""
    try:
        cls(**{name: value})
    except ValueError as exc:
        return str(exc)
    return None


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
        derived = {k for k in pipeline._KNOWN_KEYS if k.startswith(("encoder.", "train.", "split."))}
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
        "line, message",
        [
            ("seed = -1", "seed must be >= 0, got -1"),
            ("ensemble.seeds = 0,-1\nensemble.k = 1", "ensemble.seeds entries must be >= 0, got -1"),
        ],
        ids=["seed", "ensemble-seed"],
    )
    def test_negative_seed_rejected(self, ws, tmp_path, line, message):
        # numpy refuses a negative seed, so it must not get past loading.
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
            load_config(p)

    @pytest.mark.parametrize("key", ["data.corpus", "data.gazetteer_dir", "data.type_map", "data.emoji_map",
                                     "data.covid_tags", "data.subtasks"])
    def test_data_path_of_the_wrong_kind(self, ws, tmp_path, key):
        # The gazetteer is a directory and every other data path a file; the wrong kind is
        # refused at load, not by the stage that opens it.
        kind, wrong = ("directory", ws / "corpus.jsonl") if key == "data.gazetteer_dir" else ("file", ws)
        lines = ["# the key at fault is on line 2", f"{key} = {wrong}"]
        if key != "data.corpus":
            lines.append(f"data.corpus = {ws / 'corpus.jsonl'}")
        p = tmp_path / "c.ini"
        p.write_text("\n".join(lines) + "\n")
        message = f"{p}:2: config key {key!r}: path is not a {kind}: {wrong}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(p)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("train.epochs = abc", "config key 'train.epochs': invalid literal for int() with base 10: 'abc'"),
            ("clean.enabled = maybe", "config key 'clean.enabled': expected true/false, got 'maybe'"),
            ("seed = x", "config key 'seed': invalid literal for int() with base 10: 'x'"),
            ("vocab.size = big", "config key 'vocab.size': invalid literal for int() with base 10: 'big'"),
            ("feature_strategy = mean4", "config key 'feature_strategy': unknown feature strategy 'mean4'"),
            ("data.type_map = gone.txt", "config key 'data.type_map': path does not exist: "),
            ("mystery = 1", "unknown config key 'mystery'"),
            ("ensemble.k = 4", "ensemble.k must be odd and positive, got 4"),
            ("ensemble.seeds = 0,x", "config key 'ensemble.seeds': invalid literal for int() with base 10: 'x'"),
            ("ensemble.strategies = last,mean4", "config key 'ensemble.strategies': unknown feature strategy 'mean4'"),
            ("ensemble.strategies = last,last\nensemble.k = 1", "ensemble.strategies lists 'last' more than once"),
            ("ensemble.k = 3\nensemble.strategies = last\nensemble.seeds = 0",
             "ensemble pool of 1 runs cannot fill k=3 members"),
            # A value the section's own class refuses is named at its key and line too.
            ("train.batch_size = 0", "config key 'train.batch_size': batch_size must be >= 1, got 0"),
            ("encoder.hidden_size = 6",
             "config key 'encoder.hidden_size': hidden_size must be a positive multiple of 4, got 6"),
            ("encoder.num_layers = 3", "config key 'encoder.num_layers': num_layers must be >= 4, got 3"),
            ("train.threshold = 1.5", "config key 'train.threshold': threshold must lie in (0, 1), got 1.5"),
            ("train.learning_rate = nan", "config key 'train.learning_rate': learning_rate must be finite, got nan"),
            ("split.train_fraction = 1.5",
             "config key 'split.train_fraction': train_fraction must be in (0, 1), got 1.5"),
            ("vocab.size = 4", "config key 'vocab.size': vocab_size must be >= 8, got 4"),
        ],
        ids=["int", "bool", "seed", "vocab-size", "feature-strategy", "data-path", "unknown-key", "ensemble-k",
             "ensemble-seeds", "ensemble-strategies", "ensemble-repeat", "pool-size", "batch-size", "hidden-size",
             "num-layers", "threshold", "learning-rate", "train-fraction", "vocab-size-rule"],
    )
    def test_single_key_refusal_names_file_and_line(self, ws, tmp_path, line, message):
        p = tmp_path / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n# the key at fault is on line 3\n{line}\n")
        with pytest.raises(ConfigError) as info:
            load_config(p)
        assert str(info.value).startswith(f"{p}:3: {message}")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_refused_section_value_names_its_key_and_line(self, ws, tmp_path_factory, data):
        # Every section field a key reaches, a value its class refuses, a few comment
        # lines before the key: the refusal is the class's own message at that key and line.
        key, cls, name = data.draw(st.sampled_from(CLASS_CHECKED_KEYS))
        default = getattr(cls, name)
        values = st.integers(-10**6, 10**6) if isinstance(default, int) else st.floats()
        value = data.draw(values.filter(lambda v: _refusal(cls, name, v) is not None))
        comments = data.draw(st.integers(0, 3))
        p = tmp_path_factory.mktemp("refused") / "c.ini"
        p.write_text(f"data.corpus = {ws / 'corpus.jsonl'}\n" + "# note\n" * comments + f"{key} = {value!r}\n")
        with pytest.raises(ConfigError) as info:
            load_config(p)
        assert str(info.value) == f"{p}:{comments + 2}: config key {key!r}: {_refusal(cls, name, value)}"

    def test_fingerprint_stability(self, ws):
        a = config_fingerprint(load_config(ws / "config.ini"))
        b = config_fingerprint(load_config(ws / "config.ini"))
        c = config_fingerprint(load_config(ws_config(ws, "seed9.ini", "seed = 1", "seed = 9")))
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

    def test_each_model_header_carries_its_member_seed(self, run_dir):
        # `seed = 1` seeds the split; each member's init and shuffle come from its `ensemble.seeds` entry.
        for kind in ("last", "sum4"):
            for seed in (0, 1, 2):
                model = serialize.load_model(run_dir / "models" / f"{kind}-s{seed}.bin")
                assert model.encoder.config.seed == seed

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


class TestStageTable:
    """``_STAGES`` declares, by ``ARTIFACTS`` name, what each stage may read and what it writes."""

    def test_each_artifact_has_one_writer_that_runs_before_its_readers(self):
        order = list(pipeline._STAGES)
        for name in pipeline.ARTIFACTS:
            (writer,) = [stage for stage, (_, _, writes) in pipeline._STAGES.items() if name in writes]
            readers = [stage for stage, (_, reads, _) in pipeline._STAGES.items() if name in reads]
            assert all(order.index(writer) < order.index(reader) for reader in readers), name

    def test_run_tree_is_the_declared_outputs(self, ws, run_dir):
        cfg = load_config(ws / "config.ini")
        declared = {}
        for stage in pipeline._STAGES:
            declared.update(pipeline.stage_files(stage, cfg, run_dir)[1])
        files = {p for p in run_dir.rglob("*") if p.is_file()}
        assert files == set(declared.values()) | {run_dir / pipeline.RUN_MANIFEST}
        listed = json.loads((run_dir / pipeline.RUN_MANIFEST).read_text())["artifacts"]
        assert {name: run_dir / entry["path"] for name, entry in listed.items()} == declared

    @pytest.mark.parametrize("stage", list(pipeline._STAGES))
    def test_a_stage_needs_only_its_declared_inputs(self, ws, run_dir, tmp_path, stage):
        cfg = load_config(ws / "config.ini")
        out = tmp_path / "o"
        out.mkdir()
        for path in pipeline.stage_files(stage, cfg, run_dir)[0].values():
            (out / path.relative_to(run_dir)).parent.mkdir(exist_ok=True)
            shutil.copyfile(path, out / path.relative_to(run_dir))
        before = tree_bytes(out)
        written = pipeline.run_stage(stage, cfg, out)
        after = tree_bytes(out)
        assert written == pipeline.stage_files(stage, cfg, out)[1]
        assert {rel: after[rel] for rel in before} == before
        assert set(after) - set(before) == {str(path.relative_to(out)) for path in written.values()}
        for path in written.values():
            assert path.read_bytes() == (run_dir / path.relative_to(out)).read_bytes(), path


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

    def test_a_directory_the_lock_made_goes_when_nothing_else_is_in_it(self, tmp_path):
        made, kept, old = tmp_path / "made", tmp_path / "kept", tmp_path / "old"
        nested, nested_kept, sibling = tmp_path / "nest/a/o", tmp_path / "keep/a/o", tmp_path / "keep/a/b/o"
        old.mkdir()
        for out in (made, kept, old, nested, nested_kept, sibling):
            with pipeline._OutputLock(out):
                assert (out / ".lock").is_file()
                if out in (kept, nested_kept):
                    (out / "report.json").write_text("{}")
        assert not made.exists()
        assert [p.name for p in kept.iterdir()] == ["report.json"]
        assert list(old.iterdir()) == []
        # The parents the lock made go too, innermost first, up to the first that is not empty.
        assert not (tmp_path / "nest").exists()
        assert [p.name for p in (tmp_path / "keep/a").iterdir()] == ["o"]
        assert [p.name for p in nested_kept.iterdir()] == ["report.json"]

    def test_a_directory_the_lock_made_goes_when_flock_fails(self, tmp_path, monkeypatch):
        import fcntl

        def unsupported(fd, operation):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(fcntl, "flock", unsupported)
        old = tmp_path / "old"
        old.mkdir()
        for out in (tmp_path / "made", old, tmp_path / "nest/a/o", old / "a/o"):
            with pytest.raises(OSError, match=re.escape(f"No locks available: '{out / '.lock'}'")):
                pipeline._OutputLock(out).__enter__()
        # Only the directories the lock made go, and the lock file it made goes with them.
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert [p.name for p in old.iterdir()] == []

    def test_only_a_lock_file_the_lock_made_goes_when_flock_fails(self, tmp_path, monkeypatch):
        import fcntl

        def unsupported(fd, operation):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(fcntl, "flock", unsupported)
        made, left = tmp_path / "made", tmp_path / "left"
        made.mkdir()
        left.mkdir()
        (left / ".lock").write_bytes(b"a crashed holder's")
        for out in (made, left):
            with pytest.raises(OSError, match=re.escape(f"No locks available: '{out / '.lock'}'")):
                pipeline._OutputLock(out).__enter__()
        assert list(made.iterdir()) == []
        assert (left / ".lock").read_bytes() == b"a crashed holder's"

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
