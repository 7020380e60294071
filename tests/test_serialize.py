"""Model binary, instance/prediction JSONL, log, and manifest format tests."""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetslots.corpus import EventType, SubtaskId, SubtaskRegistry
from tweetslots.encoder import EncoderConfig
from tweetslots.features import StrategyKind
from tweetslots.multitask import PredictionRecord, TrainLogEntry, init_model
from tweetslots.preprocess import E_CLOSE_ID, E_OPEN_ID, PAD_ID, MaskedInstance
from tweetslots.serialize import (
    MODEL_MAGIC,
    FormatError,
    _instance_from_obj,
    file_sha256,
    load_ensemble_manifest,
    load_instances,
    load_model,
    load_predictions,
    load_train_log,
    save_ensemble_manifest,
    save_instances,
    save_model,
    save_predictions,
    save_train_log,
)

REG = SubtaskRegistry(
    {EventType.DEATH: ("age", "name"), EventType.CURE_AND_PREVENTION: ("opinion",)}
)
NAME = SubtaskId(EventType.DEATH, "name")


def small_model(kind=StrategyKind.SUM4, seed=0):
    cfg = EncoderConfig(num_layers=4, hidden_size=8, vocab_size=32, max_len=10,
                        context_window=1, seed=0)
    return init_model(cfg, kind, REG, seed=seed)


class TestModelBinary:
    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_round_trip_bitwise(self, kind, tmp_path):
        model = small_model(kind)
        p = tmp_path / "m.bin"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.encoder.config == model.encoder.config
        assert loaded.strategy.kind is model.strategy.kind
        pairs = list(zip(model.named_arrays(), loaded.named_arrays()))
        assert pairs
        for (n1, a1), (n2, a2) in pairs:
            assert n1 == n2
            assert a1.dtype == a2.dtype == np.float64
            assert np.array_equal(a1, a2), n1

    def test_deterministic_bytes(self, tmp_path):
        model = small_model()
        save_model(model, tmp_path / "a.bin")
        save_model(model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_header_layout(self, tmp_path):
        model = small_model()
        p = tmp_path / "m.bin"
        save_model(model, p)
        blob = p.read_bytes()
        assert blob.startswith(MODEL_MAGIC)
        version, header_len = struct.unpack_from("<II", blob, len(MODEL_MAGIC))
        assert version == 1
        header = json.loads(blob[16:16 + header_len])
        assert header["strategy"] == "sum4"
        assert [s for s in header["subtasks"]] == [str(s) for s in sorted(REG.all_subtasks())]
        names = [name for name, shape in header["arrays"]]
        assert names[0] == "enc.token_emb"
        assert names == [n for n, _ in model.named_arrays()]
        shapes = [tuple(shape) for name, shape in header["arrays"]]
        assert shapes == [a.shape for _, a in model.named_arrays()]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_model(p)

    def test_truncated_file(self, tmp_path):
        model = small_model()
        p = tmp_path / "m.bin"
        save_model(model, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-16])
        with pytest.raises(FormatError):
            load_model(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = small_model()
        p = tmp_path / "m.bin"
        save_model(model, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_model(p)

    def test_unsupported_version(self, tmp_path):
        model = small_model()
        p = tmp_path / "m.bin"
        save_model(model, p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, len(MODEL_MAGIC), 99)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_model(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_not_saved(self, bad, tmp_path):
        model = small_model()
        model.encoder.token_emb[3, 1] = bad
        p = tmp_path / "m.bin"
        with pytest.raises(FormatError, match=r"m\.bin: array 'enc\.token_emb' holds non-finite"):
            save_model(model, p)
        assert not p.exists()

    def test_non_finite_weight_rejected_on_load(self, tmp_path):
        model = small_model()
        p = tmp_path / "m.bin"
        save_model(model, p)
        last_name, last = list(model.named_arrays())[-1]
        blob = bytearray(p.read_bytes())
        struct.pack_into("<d", blob, len(blob) - 8 * last.size, np.nan)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"m\\.bin: array '{last_name}' holds non-finite"):
            load_model(p)

    def test_proj4_round_trips_projections(self, tmp_path):
        model = small_model(StrategyKind.PROJ4)
        p = tmp_path / "m.bin"
        save_model(model, p)
        loaded = load_model(p)
        assert np.array_equal(loaded.strategy.proj.w, model.strategy.proj.w)
        assert np.array_equal(loaded.strategy.proj.b, model.strategy.proj.b)


def make_instance(label=1, length=5):
    ids = np.full(10, PAD_ID, dtype=np.int64)
    ids[:length] = [9, E_OPEN_ID, 12, E_CLOSE_ID, 15][:length]
    return MaskedInstance(
        token_ids=ids, length=length, marker_pos=1, subtask=NAME, label=label,
        chunk_text="the chunk", tweet_id="tw1", candidate_index=2,
    )


class TestInstancesJsonl:
    def test_round_trip(self, tmp_path):
        insts = [make_instance(1), make_instance(0, length=4)]
        p = tmp_path / "i.jsonl"
        save_instances(insts, p)
        loaded = load_instances(p)
        assert len(loaded) == 2
        for a, b in zip(insts, loaded):
            assert np.array_equal(a.token_ids, b.token_ids)
            assert a.length == b.length
            assert a.marker_pos == b.marker_pos
            assert a.subtask == b.subtask
            assert a.label == b.label
            assert a.chunk_text == b.chunk_text
            assert a.tweet_id == b.tweet_id
            assert a.candidate_index == b.candidate_index

    def test_rows_trim_pad(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_instances([make_instance(length=5)], p)
        row = json.loads(p.read_text().splitlines()[0])
        assert len(row["token_ids"]) == 5
        assert row["max_len"] == 10
        assert row["subtask"] == "death/name"

    def test_rejects_bool_label(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_instances([make_instance()], p)
        row = json.loads(p.read_text().splitlines()[0])
        row["label"] = True
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_instances(p)

    def test_rejects_missing_field(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_instances([make_instance()], p)
        row = json.loads(p.read_text().splitlines()[0])
        del row["marker_pos"]
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_instances(p)

    def test_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text("{nope\n")
        with pytest.raises(FormatError):
            load_instances(p)

    @given(st.lists(st.one_of(
        st.integers(-2**40, 2**40), st.booleans(), st.floats(), st.text(max_size=3),
    ), min_size=1, max_size=10))
    def test_token_id_check_matches_per_token_predicate(self, ids):
        # Oracle: the same rule checked token by token.
        bad = any(isinstance(t, bool) or not isinstance(t, int) or t < 0 for t in ids)
        obj = {"subtask": "death/name", "length": len(ids), "max_len": 10, "marker_pos": 0,
               "label": 0, "token_ids": ids, "chunk_text": "c", "tweet_id": "t", "candidate_index": 0}
        if bad:
            with pytest.raises(FormatError, match=r"^i\.jsonl:7: field 'token_ids' must hold nonnegative integers$"):
                _instance_from_obj(obj, Path("i.jsonl"), 7)
        else:
            assert _instance_from_obj(obj, Path("i.jsonl"), 7).token_ids[:len(ids)].tolist() == ids


def make_record(decision=1, filtered=False, chunk="c"):
    return PredictionRecord(
        tweet_id="t3", subtask=NAME, candidate_index=1, chunk_text=chunk,
        probability=0.75, decision=decision, filtered=filtered,
    )


class TestPredictionsJsonl:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "p.jsonl"
        save_predictions([make_record(1), make_record(0)], p)
        loaded = load_predictions(p)
        assert [r.decision for r in loaded] == [1, 0]
        assert loaded[0].subtask == NAME
        assert loaded[0].probability == pytest.approx(0.75)

    def test_filtered_flag_only_when_asked(self, tmp_path):
        p = tmp_path / "p.jsonl"
        save_predictions([make_record(0, filtered=True)], p)
        row = json.loads(p.read_text().splitlines()[0])
        assert "filtered" not in row
        save_predictions([make_record(0, filtered=True)], p, include_filtered=True)
        row = json.loads(p.read_text().splitlines()[0])
        assert row["filtered"] is True
        [rec] = load_predictions(p)
        assert rec.filtered is True

    def test_rejects_bad_probability(self, tmp_path):
        p = tmp_path / "p.jsonl"
        save_predictions([make_record()], p)
        row = json.loads(p.read_text().splitlines()[0])
        row["probability"] = 1.5
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_predictions(p)

    def test_rejects_bad_decision(self, tmp_path):
        p = tmp_path / "p.jsonl"
        save_predictions([make_record()], p)
        row = json.loads(p.read_text().splitlines()[0])
        row["decision"] = 2
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_predictions(p)


class TestTrainLogCsv:
    def test_round_trip_exact_floats(self, tmp_path):
        entries = [
            TrainLogEntry(epoch=1, train_loss=1.2345678901234567, val_micro_f1=0.1),
            TrainLogEntry(epoch=2, train_loss=0.3, val_micro_f1=2 / 3),
        ]
        p = tmp_path / "log.csv"
        save_train_log(entries, p)
        loaded = load_train_log(p)
        assert loaded == entries

    def test_header(self, tmp_path):
        p = tmp_path / "log.csv"
        save_train_log([TrainLogEntry(1, 0.5, 0.5)], p)
        assert p.read_text().splitlines()[0] == "epoch,train_loss,val_micro_f1"

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("epoch,train_loss,val_micro_f1\nx,y,z\n")
        with pytest.raises(FormatError):
            load_train_log(p)


class TestEnsembleManifest:
    def test_round_trip(self, tmp_path):
        members = [("models/sum4-s0.bin", 0.91), ("models/last-s2.bin", 0.88)]
        p = tmp_path / "m.jsonl"
        save_ensemble_manifest(members, p)
        assert load_ensemble_manifest(p) == members

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        with pytest.raises(FormatError):
            load_ensemble_manifest(p)

    def test_score_range_checked(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"path": "m.bin", "val_micro_f1": 1.5}\n')
        with pytest.raises(FormatError):
            load_ensemble_manifest(p)


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "f.bin"
        p.write_bytes(b"abc123")
        assert file_sha256(p) == hashlib.sha256(b"abc123").hexdigest()
