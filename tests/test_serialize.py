"""Model binary, instance/prediction JSONL, and training log format tests."""

from __future__ import annotations

import json
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import cut_short
from tweetslots.corpus import AnnotatedTweet, EventType, SubtaskId, SubtaskRegistry, canonical_json, write_file
from tweetslots.encoder import EncoderConfig
from tweetslots.features import StrategyKind
from tweetslots.multitask import (
    PredictionRecord,
    TrainConfig,
    TrainLogEntry,
    init_model,
    loss_and_grads,
    predict_probs,
    train,
)
from tweetslots.preprocess import (
    E_CLOSE_ID,
    E_OPEN_ID,
    PAD_ID,
    CleanConfig,
    MaskedInstance,
    MaskingError,
    Vocab,
    mask_corpus,
)
from tweetslots.serialize import (
    MODEL_MAGIC,
    FormatError,
    file_sha256,
    load_instances,
    load_model,
    load_predictions,
    load_train_log,
    save_instances,
    save_model,
    save_predictions,
    save_train_log,
)

REG = SubtaskRegistry(
    {EventType.DEATH: ("age", "name"), EventType.CURE_AND_PREVENTION: ("opinion",)}
)
NAME = SubtaskId(EventType.DEATH, "name")


ENC = EncoderConfig(num_layers=4, hidden_size=8, vocab_size=32, max_len=10, context_window=1, seed=0)


def small_model(kind=StrategyKind.SUM4, seed=0):
    return init_model(ENC, kind, REG, seed=seed)


class TestModelBinary:
    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_round_trip_bitwise(self, kind, tmp_path):
        model = small_model(kind)
        model.head_b[:] = np.random.default_rng(1).standard_normal(model.head_b.shape)  # init biases are zero
        p = tmp_path / "m.bin"
        save_model(model, p)
        loaded = load_model(p)
        assert loaded.encoder.config == model.encoder.config
        assert loaded.strategy.kind is model.strategy.kind
        assert loaded.subtasks == model.subtasks == tuple(sorted(REG.all_subtasks()))
        assert loaded.head_w.tobytes() == model.head_w.tobytes()
        assert loaded.head_b.tobytes() == model.head_b.tobytes()
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

    @pytest.mark.parametrize("kind", [StrategyKind.SUM4, StrategyKind.PROJ4])
    def test_header_layout(self, kind, tmp_path):
        # The manifest is the trunk, then one (dim,) and one (1,) array per sorted subtask: the
        # model's `head.w` and `head.b` are stored row by row, and the data follows that order.
        model = small_model(kind)
        model.head_b[:] = np.arange(len(model.subtasks)) + 0.5
        p = tmp_path / "m.bin"
        save_model(model, p)
        blob = p.read_bytes()
        assert blob.startswith(MODEL_MAGIC)
        version, header_len = struct.unpack_from("<II", blob, len(MODEL_MAGIC))
        assert version == 1
        header = json.loads(blob[16:16 + header_len])
        assert header["strategy"] == kind.value
        subtasks = [str(s) for s in model.subtasks]
        assert header["subtasks"] == subtasks == sorted(subtasks) == [str(s) for s in sorted(REG.all_subtasks())]
        h, dim = ENC.hidden_size, model.head_w.shape[1]
        want = [["enc.token_emb", [ENC.vocab_size, h]], ["enc.pos_emb", [ENC.max_len, h]]]
        for i in range(ENC.num_layers):
            want += [[f"enc.layer{i}.w", [ENC.num_taps, h, h]], [f"enc.layer{i}.b", [h]]]
        if kind is StrategyKind.PROJ4:
            want += [["proj.w", [4, h, h // 4]], ["proj.b", [4, h // 4]]]
        for subtask in subtasks:
            want += [[f"head.{subtask}.w", [dim]], [f"head.{subtask}.b", [1]]]
        assert header["arrays"] == want
        data = np.frombuffer(blob[16 + header_len:], dtype="<f8")
        heads = data[-len(subtasks) * (dim + 1):].reshape(len(subtasks), dim + 1)
        assert heads[:, :dim].tobytes() == model.head_w.tobytes() and heads[:, dim].tobytes() == model.head_b.tobytes()

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
        last_name = f"head.{model.subtasks[-1]}.b"  # the file's last array holds one value
        blob = bytearray(p.read_bytes())
        struct.pack_into("<d", blob, len(blob) - 8, np.nan)
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"m\\.bin: array '{last_name}' holds non-finite"):
            load_model(p)

    @staticmethod
    def saved_with_header(path, edit):
        """Save a small model to ``path``, then rewrite its JSON header through ``edit``."""
        save_model(small_model(), path)
        blob = path.read_bytes()
        start = len(MODEL_MAGIC) + 8
        header_len = struct.unpack_from("<I", blob, len(MODEL_MAGIC) + 4)[0]
        header = json.loads(blob[start:start + header_len])
        edit(header)
        text = json.dumps(header).encode()
        path.write_bytes(blob[:len(MODEL_MAGIC) + 4] + struct.pack("<I", len(text)) + text + blob[start + header_len:])

    def test_header_implying_more_data_than_the_file_holds(self, tmp_path):
        # Refused before the zeroed model is built: it would need 58 TiB.
        p = tmp_path / "m.bin"
        self.saved_with_header(p, lambda header: header["encoder"].update(vocab_size=10**12))
        with pytest.raises(FormatError, match=r"m\.bin: truncated array data: \d+ bytes, the header implies 64\d{12}$"):
            load_model(p)

    @pytest.mark.parametrize("reorder", [lambda keys: keys[::-1], lambda keys: [*keys, keys[0]],
                                         lambda keys: [keys[1], keys[0], keys[1], keys[2]]],
                             ids=["reversed", "repeat", "swapped-and-repeat"])
    def test_subtasks_other_than_the_sorted_distinct_list_refused(self, reorder, tmp_path):
        # The writer lists each subtask once, sorted (the head rows' order); the loader
        # refuses any other list instead of sorting it and dropping repeats.
        p = tmp_path / "m.bin"
        self.saved_with_header(p, lambda header: header.update(subtasks=reorder(header["subtasks"])))
        with pytest.raises(FormatError, match=re.escape(
                f"{p}: model header: field 'subtasks' must list each subtask once, in sorted order")):
            load_model(p)

    def test_proj4_round_trips_projections(self, tmp_path):
        model = small_model(StrategyKind.PROJ4)
        p = tmp_path / "m.bin"
        save_model(model, p)
        loaded = load_model(p)
        assert np.array_equal(loaded.strategy.proj.w, model.strategy.proj.w)
        assert np.array_equal(loaded.strategy.proj.b, model.strategy.proj.b)


AGE = SubtaskId(EventType.DEATH, "age")


def make_instance(label=1, length=5, subtask=NAME, tweet_id="tw1", candidate_index=2, token_ids=None):
    if token_ids is None:
        token_ids = np.full(10, PAD_ID, dtype=np.int64)
        token_ids[:length] = [9, E_OPEN_ID, 12, E_CLOSE_ID, 15][:length]
    return MaskedInstance(
        token_ids=token_ids, length=length, marker_pos=1, subtask=subtask, label=label,
        chunk_text="the chunk", tweet_id=tweet_id, candidate_index=candidate_index,
    )


def padded(row) -> np.ndarray:
    return np.concatenate([row, np.full(10 - len(row), PAD_ID)]).astype(np.int64)


def assert_same_instances(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.token_ids, b.token_ids)
        assert a.token_ids.dtype == b.token_ids.dtype
        assert a.length == b.length
        assert a.marker_pos == b.marker_pos
        assert a.subtask == b.subtask
        assert a.label == b.label
        assert a.chunk_text == b.chunk_text
        assert a.tweet_id == b.tweet_id
        assert a.candidate_index == b.candidate_index


def write_lines(path, rows) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def draw_corpus(data, **encoder) -> tuple[list[AnnotatedTweet], SubtaskRegistry, EncoderConfig]:
    """A random corpus of 1-4 tweets over a random registry, and an encoder config to mask it for."""
    names = ["age", "name", "opinion", "relation", "symptoms", "when", "where"]
    registry = SubtaskRegistry({
        event: tuple(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=7, unique=True)))
        for event in EventType
    })
    words = ["alpha", "Beta", "@user", "#covid19", "\U0001f637", "“q”", "62", "https://t.co/x"]
    tweets = []
    for i in range(data.draw(st.integers(1, 4))):
        toks = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=8))
        starts = [sum(len(t) + 1 for t in toks[:k]) for k in range(len(toks))]
        spans = []
        for _ in range(data.draw(st.integers(1, 3))):
            a = data.draw(st.integers(0, len(toks) - 1))
            b = data.draw(st.integers(a, len(toks) - 1))
            spans.append((starts[a], starts[b] + len(toks[b])))
        event = data.draw(st.sampled_from(list(EventType)))
        gold = {n: frozenset(data.draw(st.sets(st.integers(0, len(spans) - 1))))
                for n in registry.names_for(event)}
        tweets.append(AnnotatedTweet(id=f"t{i}", text=" ".join(toks), event=event,
                                     candidates=tuple(spans), gold=gold))
    return tweets, registry, EncoderConfig(vocab_size=512, max_len=data.draw(st.integers(8, 40)), **encoder)


class TestInstancesJsonl:
    def test_round_trip(self, tmp_path):
        shared = make_instance().token_ids
        insts = [
            make_instance(0, subtask=AGE, token_ids=shared), make_instance(1, subtask=NAME, token_ids=shared),
            make_instance(0, length=4, tweet_id="tw2"),
        ]
        p = tmp_path / "i.jsonl"
        save_instances(insts, p)
        assert len(p.read_text().splitlines()) == 2
        loaded = load_instances(p, ENC)
        assert_same_instances(loaded, insts)
        assert loaded[0].token_ids is loaded[1].token_ids

    def test_rows_trim_pad(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_instances([make_instance(length=5)], p)
        row = json.loads(p.read_text().splitlines()[0])
        assert len(row["token_ids"]) == 5
        assert row["max_len"] == 10
        assert row["event"] == "death"
        assert row["labels"] == {"name": 1}
        assert "subtask" not in row and "label" not in row

    def test_rejects_bool_label(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_instances([make_instance()], p)
        row = json.loads(p.read_text().splitlines()[0])
        row["labels"]["name"] = True
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_instances(p, ENC)

    def test_rejects_missing_field(self, tmp_path):
        p = tmp_path / "i.jsonl"
        save_instances([make_instance()], p)
        row = json.loads(p.read_text().splitlines()[0])
        del row["marker_pos"]
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(FormatError):
            load_instances(p, ENC)

    def test_rejects_malformed_json(self, tmp_path):
        p = tmp_path / "i.jsonl"
        p.write_text("{nope\n")
        with pytest.raises(FormatError):
            load_instances(p, ENC)

    @given(st.lists(st.one_of(
        st.just(E_OPEN_ID), st.just(E_CLOSE_ID), st.integers(1, 40), st.integers(-2**40, 2**40), st.integers(2**63 - 2, 2**64),
        st.booleans(), st.floats(), st.text(max_size=3),
    ), min_size=1, max_size=10))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_token_id_check_matches_per_token_predicate(self, tmp_path, ids):
        # Oracle: the same rules checked token by token; the encoder's vocabulary, which only the
        # loader knows, is checked after the rules the writer shares.
        cfg = replace(ENC, vocab_size=2**20)
        bad = any(isinstance(t, bool) or not isinstance(t, int) or t < 0 for t in ids)
        obj = {"event": "death", "labels": {"name": 0}, "length": len(ids), "max_len": 10, "marker_pos": 0,
               "token_ids": ids, "chunk_text": "c", "tweet_id": "t", "candidate_index": 0}
        p = tmp_path / "i.jsonl"
        write_lines(p, [obj])
        where = re.escape(f"{p}:1")
        if bad:
            with pytest.raises(FormatError, match=rf"^{where}: field 'token_ids' must hold nonnegative integers$"):
                load_instances(p, cfg)
        elif any(t == PAD_ID for t in ids):
            first = next(k for k, t in enumerate(ids) if t == PAD_ID)
            with pytest.raises(FormatError, match=rf"^{where}: field 'token_ids' holds PAD id {PAD_ID} "
                                                  rf"inside its length, at position {first}$"):
                load_instances(p, cfg)
        elif ids[0] != E_OPEN_ID:
            with pytest.raises(FormatError, match=rf"^{where}: field 'marker_pos' is 0, where token_ids holds "
                                                  rf"{ids[0]}, not the <E> id {E_OPEN_ID}$"):
                load_instances(p, cfg)
        elif ids.count(E_OPEN_ID) != 1 or ids.count(E_CLOSE_ID) != 1 or E_CLOSE_ID not in ids[1:]:
            with pytest.raises(FormatError, match=rf"^{where}: field 'token_ids' must hold one <E> id {E_OPEN_ID}, "
                                                  rf"at marker_pos, and one </E> id {E_CLOSE_ID} after it$"):
                load_instances(p, cfg)
        elif any(t >= cfg.vocab_size for t in ids):
            with pytest.raises(FormatError, match=rf"^{where}: field 'token_ids' holds id {max(ids)}, "
                                                  rf"the encoder's vocab_size is {2**20}$"):
                load_instances(p, cfg)
        else:
            assert load_instances(p, cfg)[0].token_ids[:len(ids)].tolist() == ids

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mask_corpus_output_round_trips(self, tmp_path, data):
        tweets, registry, cfg = draw_corpus(data)
        try:
            insts = mask_corpus(tweets, Vocab(cfg.vocab_size), CleanConfig(), cfg.max_len, registry)
        except MaskingError:
            return
        p = tmp_path / "i.jsonl"
        save_instances(insts, p)
        loaded = load_instances(p, cfg)
        assert_same_instances(loaded, insts)
        arrays = {}
        for inst in loaded:
            arrays.setdefault((inst.tweet_id, inst.candidate_index), set()).add(id(inst.token_ids))
        assert all(len(ids) == 1 for ids in arrays.values())
        assert len(p.read_text().splitlines()) == len(arrays) == sum(len(t.candidates) for t in tweets)

    @pytest.mark.parametrize("case, message", [
        ("tokens differ", "tweet 'tw1': candidate 0 has two different masked inputs"),
        ("marker differs", "tweet 'tw1': candidate 0 has two different masked inputs"),
        ("chunk text differs", "tweet 'tw1': candidate 0 has two different masked inputs"),
        ("events differ", "tweet 'tw1': instances span events death and cure_and_prevention"),
        ("subtask sets differ", "tweet 'tw1': instances are not one per (subtask, candidate) in explode order"),
        ("instance repeated", "tweet 'tw1': instances are not one per (subtask, candidate) in explode order"),
        ("tweets not adjacent", "instances of tweet 'tw1' are not adjacent"),
        ("candidate-major order", "tweet 'tw1': instances are not one per (subtask, candidate) in explode order"),
        ("subtasks descending", "tweet 'tw1': instances are not one per (subtask, candidate) in explode order"),
        ("candidates descending", "tweet 'tw1': instances are not one per (subtask, candidate) in explode order"),
        ("label outside 0/1", "tweet 'tw1': label 2 of death/age is not 0 or 1"),
        ("token ids past length", "tweet 'tw1': candidate 0 has non-PAD token ids past its length"),
    ])
    def test_writer_refuses_what_it_cannot_round_trip(self, tmp_path, case, message):
        a = make_instance(0, subtask=AGE, candidate_index=0)
        b = make_instance(1, subtask=AGE, candidate_index=1, token_ids=a.token_ids)
        c = make_instance(1, subtask=NAME, candidate_index=0, token_ids=a.token_ids)
        d = make_instance(0, subtask=NAME, candidate_index=1, token_ids=a.token_ids)
        other = make_instance(tweet_id="tw9")
        insts = {
            "tokens differ": [a, replace(c, token_ids=a.token_ids + 1)],
            "marker differs": [a, replace(c, marker_pos=2)],
            "chunk text differs": [a, replace(c, chunk_text="other")],
            "events differ": [a, replace(c, subtask=SubtaskId(EventType.CURE_AND_PREVENTION, "opinion"))],
            "subtask sets differ": [a, b, c],
            "instance repeated": [a, a],
            "tweets not adjacent": [a, other, c],
            "candidate-major order": [a, c, b, d],
            "subtasks descending": [c, d, a, b],
            "candidates descending": [b, a, d, c],
            "label outside 0/1": [a, replace(b, label=2)],
            "token ids past length": [replace(a, length=4)],
        }[case]
        save_instances([a, b, c, d, other], tmp_path / "ok.jsonl")  # explode order is accepted
        p = tmp_path / "i.jsonl"
        with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
            save_instances(insts, p)
        assert not p.exists()

    @pytest.mark.parametrize("edit, field", [
        (lambda inst: replace(inst, token_ids=np.where(np.arange(10) == 2, -1, inst.token_ids)), "token_ids"),
        (lambda inst: replace(inst, token_ids=inst.token_ids.astype(np.float64)), "token_ids"),
        (lambda inst: replace(inst, token_ids=np.where(np.arange(10) == 2, PAD_ID, inst.token_ids)), "token_ids"),
        (lambda inst: replace(inst, marker_pos=5), "marker_pos"),
        (lambda inst: replace(inst, marker_pos=-1), "marker_pos"),
        (lambda inst: replace(inst, marker_pos=2), "marker_pos"),
        (lambda inst: replace(inst, length=0), "length"),
        (lambda inst: replace(inst, length=11), "length"),
        (lambda inst: replace(inst, candidate_index=-1), "candidate_index"),
        (lambda inst: replace(inst, subtask=SubtaskId(EventType.DEATH, "Age")), "labels"),
        (lambda inst: replace(inst, token_ids=padded([9, E_OPEN_ID, 12, 7, 15])), "token_ids"),
        (lambda inst: replace(inst, token_ids=padded([9, E_OPEN_ID, 12, E_OPEN_ID, 15])), "token_ids"),
        (lambda inst: replace(inst, token_ids=padded([9, E_OPEN_ID, E_CLOSE_ID, E_CLOSE_ID, 15])), "token_ids"),
        (lambda inst: replace(inst, token_ids=padded([E_CLOSE_ID, E_OPEN_ID, 12, 14, 15])), "token_ids"),
    ], ids=["negative id", "float ids", "PAD inside length", "marker at length", "negative marker", "marker off <E>",
            "length 0",
            "length over max_len", "negative candidate", "name Age", "no </E>", "two <E>", "two </E>",
            "</E> before <E>"])
    def test_writer_refuses_rows_the_loader_refuses(self, tmp_path, edit, field):
        inst = edit(make_instance(candidate_index=0))
        p = tmp_path / "i.jsonl"
        with pytest.raises(FormatError, match=re.escape(f"{p}: tweet 'tw1': ") + f".*field '{field}'") as wrote:
            save_instances([inst], p)
        assert not p.exists()
        # The row the writer would have written, built by hand: the loader refuses it too.
        row = {"tweet_id": "tw1", "candidate_index": inst.candidate_index, "event": "death",
               "chunk_text": inst.chunk_text, "marker_pos": inst.marker_pos, "length": inst.length,
               "max_len": 10, "token_ids": inst.token_ids[:inst.length].tolist(), "labels": {inst.subtask.name: 1}}
        write_lines(p, [row])
        with pytest.raises(FormatError, match=re.escape(f"{p}:1: ") + f".*field '{field}'") as loaded:
            load_instances(p, ENC)
        # A rule both share gives one message; the loader refuses a negative JSON integer by its type rule first.
        if inst.marker_pos >= 0 and inst.candidate_index >= 0:
            wrote, loaded = str(wrote.value), str(loaded.value)
            assert wrote[wrote.index("field '"):] == loaded[loaded.index("field '"):]

    def test_writer_names_a_pad_inside_the_length(self, tmp_path):
        # The encoder would read the token as padding, so the row is refused with its position.
        inst = make_instance(candidate_index=0)
        inst.token_ids[3] = PAD_ID
        p = tmp_path / "i.jsonl"
        with pytest.raises(FormatError, match=re.escape(
                f"{p}: tweet 'tw1': candidate 0: field 'token_ids' holds PAD id 0 inside its length, at position 3")):
            save_instances([inst], p)

    @pytest.mark.parametrize("marker_pos", [0, 2, 3, 4])
    def test_marker_off_its_open_marker_is_refused(self, tmp_path, marker_pos):
        # The features are read at marker_pos; masking always puts the <E> id there.
        inst = replace(make_instance(candidate_index=0), marker_pos=marker_pos)
        token_id = int(inst.token_ids[marker_pos])
        p = tmp_path / "i.jsonl"
        with pytest.raises(FormatError, match=re.escape(
                f"{p}: tweet 'tw1': candidate 0: field 'marker_pos' is {marker_pos}, where token_ids holds "
                f"{token_id}, not the <E> id {E_OPEN_ID}")):
            save_instances([inst], p)
        assert not p.exists()
        save_instances([make_instance(candidate_index=0)], p)
        write_lines(p, [{**json.loads(p.read_text()), "marker_pos": marker_pos}])
        with pytest.raises(FormatError, match=re.escape(
                f"{p}:1: field 'marker_pos' is {marker_pos}, where token_ids holds {token_id}, "
                f"not the <E> id {E_OPEN_ID}")):
            load_instances(p, ENC)

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [rows[0], rows[0]], r":2: repeated unit \(tweet 'tw1', candidate 0; first on line 1\)"),
        (lambda rows: [rows[1], rows[0]], r":2: field 'candidate_index' must exceed 1"),
        (lambda rows: [rows[0], rows[2], rows[1]], r":3: rows of tweet 'tw1' are not adjacent \(first on line 1\)"),
        (lambda rows: [rows[0], {**rows[1], "labels": {"name": 1}}],
         r":2: field 'labels' names other subtasks than line 1"),
        (lambda rows: [rows[0], {**rows[1], "event": "tested_positive"}], r":2: field 'event' differs from line 1"),
        (lambda rows: [{**rows[0], "labels": {}}], r":1: field 'labels' names no subtask"),
        (lambda rows: [{**rows[0], "labels": {"Age": 0}}], r":1: field 'labels': subtask name 'Age'"),
        (lambda rows: [{**rows[0], "event": "flu"}], r":1: field 'event': unknown event 'flu'"),
    ])
    def test_loader_rejects_rows_it_cannot_expand(self, tmp_path, edit, message):
        a = make_instance(0, subtask=AGE, candidate_index=0)
        b = make_instance(1, subtask=AGE, candidate_index=1, token_ids=a.token_ids)
        save_instances([a, b, replace(a, subtask=NAME), replace(b, subtask=NAME), make_instance(tweet_id="tw2")],
                       tmp_path / "ok.jsonl")
        rows = [json.loads(line) for line in (tmp_path / "ok.jsonl").read_text().splitlines()]
        p = tmp_path / "i.jsonl"
        write_lines(p, edit(rows))
        with pytest.raises(FormatError, match=re.escape(str(p)) + message):
            load_instances(p, ENC)

    @pytest.mark.parametrize("max_len", [10**15, 9, 11])
    def test_loader_refuses_a_max_len_other_than_the_encoders(self, tmp_path, max_len):
        # 10**15 would allocate 7 PiB of token ids.
        p = tmp_path / "i.jsonl"
        save_instances([make_instance()], p)
        write_lines(p, [{**json.loads(p.read_text()), "max_len": max_len}])
        with pytest.raises(FormatError, match=re.escape(f"{p}:1: field 'max_len' is {max_len}, "
                                                        f"the encoder's max_len is 10")):
            load_instances(p, ENC)

    @pytest.mark.parametrize("token_id", [32, 2**63, 2**70])
    def test_loader_refuses_a_token_id_outside_the_vocabulary(self, tmp_path, token_id):
        # 2**63 does not fit an int64 token array.
        p = tmp_path / "i.jsonl"
        save_instances([make_instance()], p)
        row = json.loads(p.read_text())
        write_lines(p, [{**row, "token_ids": [*row["token_ids"][:-1], token_id]}])
        with pytest.raises(FormatError, match=re.escape(f"{p}:1: field 'token_ids' holds id {token_id}, "
                                                        f"the encoder's vocab_size is 32")):
            load_instances(p, ENC)


class TestInstanceTable:
    @given(data=st.data(), kind=st.sampled_from(list(StrategyKind)), seed=st.integers(0, 3))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_and_its_instance_list_give_the_same_bytes(self, tmp_path, data, kind, seed):
        # Every entry point gives the same bits for a table and for the list of
        # its instance views, which it groups into a table of its own.
        tweets, registry, enc = draw_corpus(data, num_layers=4, hidden_size=8, context_window=1)
        try:
            table = mask_corpus(tweets, Vocab(enc.vocab_size), CleanConfig(), enc.max_len, registry)
        except MaskingError:
            return
        insts = list(table)
        assert len(insts) == len(table) and insts[0].token_ids is table[0].token_ids
        model = init_model(enc, kind, registry, seed=seed)
        cfg = TrainConfig(epochs=2, batch_size=data.draw(st.integers(1, 8)), seed=seed)

        (value_a, grads_a), (value_b, grads_b) = (loss_and_grads(model, batch, cfg) for batch in (table, insts))
        assert value_a.hex() == value_b.hex()
        assert list(grads_a) == list(grads_b)
        assert all(grads_a[name].tobytes() == grads_b[name].tobytes() for name in grads_a)

        assert predict_probs(model, table).tobytes() == predict_probs(model, insts).tobytes()

        runs = [train(init_model(enc, kind, registry, seed=seed), tr, tr, cfg) for tr in (table, insts)]
        for name, (params, _) in zip("ab", runs):
            save_model(params, tmp_path / f"{name}.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert runs[0][1] == runs[1][1]

        save_instances(table, tmp_path / "a.jsonl")
        save_instances(insts, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


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
        [rec] = load_predictions(p, include_filtered=True)
        assert rec.filtered is True

    @pytest.mark.parametrize("include_filtered, message", [
        (False, "unknown field 'filtered'"),
        (True, "missing field 'filtered'"),
    ])
    def test_the_filtered_flag_is_in_the_filtered_file_only(self, tmp_path, include_filtered, message):
        # Line 2 is written for the other kind of file.
        p = tmp_path / "p.jsonl"
        save_predictions([make_record(0)], p, include_filtered)
        save_predictions([make_record(0)], tmp_path / "other.jsonl", not include_filtered)
        p.write_text(p.read_text() + (tmp_path / "other.jsonl").read_text())
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
            load_predictions(p, include_filtered)

    def test_save_cut_short_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "p.jsonl"
        records = [make_record(1), make_record(0), make_record(1)]
        save_predictions(records, p)
        before = p.read_bytes()
        with pytest.raises(RuntimeError, match="cut short"):
            save_predictions(cut_short(records[::-1], 2), p, include_filtered=True)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

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

    def test_rejects_a_filtered_row_that_keeps_decision_one(self, tmp_path):
        # The filter nullifies a row by setting its decision to 0, so it never writes this row.
        p = tmp_path / "p.jsonl"
        save_predictions([make_record(1), make_record(0, filtered=True), make_record(1, filtered=True)], p,
                         include_filtered=True)
        message = f"{p}:3: field 'filtered' is true but field 'decision' is 1 (a nullified row has decision 0)"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_predictions(p, include_filtered=True)

    @pytest.mark.parametrize("subtask, message", [
        ("sick/name", "unknown event 'sick' in subtask key 'sick/name'"),
        ("death/Name", "subtask name 'Name' must be lowercase ASCII with underscores"),
        (7, "field 'subtask' must be a string, got 7"),
        (["death/name"], "field 'subtask' must be a string, got a list"),
    ])
    def test_a_bad_subtask_after_a_parsed_one_names_its_own_line(self, tmp_path, subtask, message):
        # Line 2 repeats line 1, whose subtask string has parsed, but for its subtask.
        p = tmp_path / "p.jsonl"
        save_predictions([make_record(1), make_record(0)], p)
        good, other = p.read_text().splitlines()
        p.write_text(f"{good}\n{json.dumps({**json.loads(good), 'subtask': subtask})}\n{other}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}:2: {message}')}$"):
            load_predictions(p)

    def test_rows_split_only_at_newlines(self, tmp_path):
        # Canonical JSON writes U+2028, U+2029 and U+0085 raw; str.splitlines would split there.
        p = tmp_path / "p.jsonl"
        chunks = ["a\u2028b", "c\u2029d\x85e", "f\rg\x1ch"]
        save_predictions([make_record(chunk=c) for c in chunks], p)
        assert p.read_bytes().count(b"\n") == len(chunks)
        assert [r.chunk_text for r in load_predictions(p)] == chunks

    @pytest.mark.parametrize("row", ['\ufeff{"decision": 1}', '{"decision": 1', '{"decision": 1}}', "[1]"])
    def test_a_line_that_is_no_object_names_file_line_and_problem(self, tmp_path, row):
        p = tmp_path / "p.jsonl"
        save_predictions([make_record()], p)
        p.write_text(p.read_text() + row + "\n", encoding="utf-8")
        try:
            json.loads(row + "\n")  # the line as read, so positions in the message agree
        except json.JSONDecodeError as exc:
            problem = f"malformed JSON ({exc})"
        else:
            problem = "expected an object, got a list"
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}:2: {problem}')}$"):
            load_predictions(p)


_ROW = {"tweet_id": "t1", "subtask": "death/name", "candidate_index": 0, "chunk_text": "my aunt",
        "probability": 0.75, "decision": 1}
_VALUES = st.sampled_from([
    True, False, 0, 1, -1, 2, 10**400, 0.5, 1.5, float("nan"), None, [1], {},
    "death/name", "death/age", "sick/name", "death/Name", "", "t1",
])


@st.composite
def _prediction_rows(draw, field, include_filtered):
    """``_ROW``, in a filtered file marked filtered or not (a filtered row with its decision of 1
    is one the filter never writes), with ``field``, and maybe one more field, replaced by a JSON
    value or dropped; sometimes joined by an unknown field."""
    row = dict(_ROW, filtered=draw(st.booleans(), label="filtered")) if include_filtered else dict(_ROW)
    for name in [field, *draw(st.lists(st.sampled_from([*_ROW, "filtered"]), max_size=1))]:
        if draw(st.booleans()):
            row[name] = draw(_VALUES)
        else:
            row.pop(name, None)
    if draw(st.booleans()):
        row[draw(st.sampled_from(["spare", "Decision"]))] = 1
    return row


class TestPredictionRowReader:
    """The reader refuses a row naming its file, its line and a field, or it accepts the row,
    and the writer writes it back as it was, in either kind of prediction file."""

    @pytest.mark.parametrize("include_filtered", [False, True], ids=["predictions", "filtered"])
    @pytest.mark.parametrize("field", [*_ROW, "filtered"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_row_is_refused_naming_a_field_or_written_back(self, tmp_path, include_filtered, field, data):
        # Line 1 is a good row, so line 2 may name a subtask string that has already parsed.
        rows = [dict(_ROW, filtered=False) if include_filtered else _ROW,
                data.draw(_prediction_rows(field, include_filtered))]
        p, again = tmp_path / "p.jsonl", tmp_path / "again.jsonl"
        write_lines(p, rows)
        try:
            records = load_predictions(p, include_filtered)
        except FormatError as exc:
            assert str(exc).startswith(f"{p}:2: ")
            assert re.search(r"field '\w+'|subtask (key|name) '", str(exc)), str(exc)
            return
        save_predictions(records, again, include_filtered)
        # The one normalisation: an integer probability is written back as a float.
        assert again.read_text().splitlines() == [canonical_json({**row, "probability": float(row["probability"])})
                                                  for row in rows]


def dict_row_writer(records, path, include_filtered=False):
    """The writer ``save_predictions`` replaced, one dict and one ``canonical_json`` call per row:
    the oracle of its bytes and its errors."""
    rows = ({
        "tweet_id": rec.tweet_id,
        "subtask": str(rec.subtask),
        "candidate_index": rec.candidate_index,
        "chunk_text": rec.chunk_text,
        "probability": rec.probability,
        "decision": rec.decision,
        **({"filtered": rec.filtered} if include_filtered else {}),
    } for rec in records)
    write_file(path, (canonical_json(row) + "\n" for row in rows))


# Strings from all of Unicode, lone surrogates included, with the characters JSON escapes or
# that split lines elsewhere drawn often.
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\/\x00\x1f\x7f\x85\u2028\u2029\ud83d\U0001f637')), max_size=6)
_FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                                                 -2.2250738585072014e-308, 1e16, 0.1]))
_NUMPY = st.one_of(_FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-3, 3).map(np.int64),
                   st.booleans().map(np.bool_))
_ANY = st.one_of(_TEXT, _FLOATS, st.integers(-(2**70), 2**70), st.booleans(), _NUMPY, st.none())


@st.composite
def _records(draw):
    """0-6 records whose fields have their usual types, each with up to two fields set to a value
    of any kind."""
    records = []
    for _ in range(draw(st.integers(0, 6))):
        record = draw(st.builds(
            PredictionRecord,
            tweet_id=st.sampled_from(["t1", "t2"]) | _TEXT,
            subtask=st.sampled_from([NAME, SubtaskId(EventType.DEATH, "age")]),
            candidate_index=st.integers(0, 3),
            chunk_text=st.sampled_from(["my aunt", "c"]) | _TEXT,
            probability=_FLOATS,
            decision=st.sampled_from([0, 1]),
            filtered=st.booleans(),
        ))
        for name in draw(st.lists(st.sampled_from([*PredictionRecord.__dataclass_fields__]), max_size=2)):
            record = replace(record, **{name: draw(_ANY)})
        records.append(record)
    return records


class TestPredictionWriterOracle:
    """``save_predictions`` writes the bytes of the dict writer it replaced, or raises the same
    exception type and leaves the old file, in either kind of prediction file."""

    @pytest.mark.parametrize("include_filtered", [False, True], ids=["predictions", "filtered"])
    @given(records=_records())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_or_error_of_the_dict_writer(self, tmp_path, include_filtered, records):
        outcomes = []
        for writer, path in ((dict_row_writer, tmp_path / "oracle.jsonl"), (save_predictions, tmp_path / "p.jsonl")):
            path.write_bytes(b"old\n")
            try:
                writer(records, path, include_filtered)
            except Exception as exc:  # any type: the two writers must raise the same one
                outcomes.append(type(exc))
            else:
                outcomes.append(None)
            outcomes.append(path.read_bytes())
        assert outcomes[2:] == outcomes[:2]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["oracle.jsonl", "p.jsonl"]


class TestTrainLog:
    def test_round_trip_exact_floats(self, tmp_path):
        entries = [
            TrainLogEntry(epoch=1, train_loss=1.2345678901234567, val_micro_f1=0.1),
            TrainLogEntry(epoch=2, train_loss=0.3, val_micro_f1=2 / 3),
        ]
        p = tmp_path / "log.jsonl"
        save_train_log(entries, p)
        loaded = load_train_log(p)
        assert loaded == entries

    def test_rows_are_canonical_json(self, tmp_path):
        p = tmp_path / "log.jsonl"
        save_train_log([TrainLogEntry(1, 0.5, 0.25), TrainLogEntry(2, 3.0, 1.0)], p)
        assert p.read_text() == (
            '{"epoch":1,"train_loss":0.5,"val_micro_f1":0.25}\n'
            '{"epoch":2,"train_loss":3.0,"val_micro_f1":1.0}\n'
        )

    def test_save_cut_short_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "log.jsonl"
        entries = [TrainLogEntry(1, 0.5, 0.25), TrainLogEntry(2, 0.4, 0.5), TrainLogEntry(3, 0.3, 0.75)]
        save_train_log(entries, p)
        before = p.read_bytes()
        with pytest.raises(RuntimeError, match="cut short"):
            save_train_log(cut_short(entries[:2], 1), p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text("x,y,z\n")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}:1: malformed JSON')}"):
            load_train_log(p)

    # The old CSV reader took "1,nan,inf", " 1 , 1_000.5 ,0.5", "+2,1e3,  .25"
    # and a validation F1 of 7.5; each row below must name its field.
    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"train_loss": 0.5, "val_micro_f1": 0.5', "missing field 'epoch'"),
            ('"epoch": "1", "train_loss": 0.5, "val_micro_f1": 0.5', "field 'epoch' must be an integer"),
            ('"epoch": 1.0, "train_loss": 0.5, "val_micro_f1": 0.5', "field 'epoch' must be an integer"),
            ('"epoch": 0, "train_loss": 0.5, "val_micro_f1": 0.5', "field 'epoch' must be >= 1, got 0"),
            ('"epoch": 1, "train_loss": "1_000.5", "val_micro_f1": 0.5', "field 'train_loss' must be a number"),
            ('"epoch": 1, "train_loss": NaN, "val_micro_f1": 0.5', "field 'train_loss' must be finite"),
            ('"epoch": 1, "train_loss": Infinity, "val_micro_f1": 0.5', "field 'train_loss' must be finite"),
            ('"epoch": 1, "train_loss": -0.5, "val_micro_f1": 0.5', "field 'train_loss' must be finite and >= 0"),
            ('"epoch": 1, "train_loss": 0.5, "val_micro_f1": 7.5', "field 'val_micro_f1' must lie in [0, 1]"),
            ('"epoch": 1, "train_loss": 0.5, "val_micro_f1": NaN', "field 'val_micro_f1' must lie in [0, 1]"),
            ('"epoch": 1, "train_loss": 0.5, "val_micro_f1": true', "field 'val_micro_f1' must be a number"),
        ],
        ids=["no-epoch", "epoch-string", "epoch-float", "epoch-zero", "loss-string", "loss-nan", "loss-inf",
             "loss-negative", "f1-above-one", "f1-nan", "f1-bool"],
    )
    def test_rejects_a_field_out_of_rule(self, tmp_path, fields, message):
        p = tmp_path / "log.jsonl"
        p.write_text('{"epoch": 1, "train_loss": 0.5, "val_micro_f1": 0.5}\n{' + fields + "}\n")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}:2: {message}')}"):
            load_train_log(p)

    @pytest.mark.parametrize(
        "epochs, line, expected",
        [([1, 1], 2, 2), ([3], 1, 1), ([1, 3], 2, 2), ([2, 3], 1, 1), ([1, 2, 2], 3, 3)],
        ids=["repeated", "first-is-not-1", "gap", "starts-at-2", "repeated-last"],
    )
    def test_rejects_an_epoch_out_of_sequence(self, tmp_path, epochs, line, expected):
        p = tmp_path / "log.jsonl"
        p.write_text("".join(f'{{"epoch": {e}, "train_loss": 0.5, "val_micro_f1": 0.5}}\n' for e in epochs))
        message = f"{p}:{line}: field 'epoch' must be {expected} (rows count up from 1), got {epochs[line - 1]}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_train_log(p)

    def test_empty_log_rejected(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text("\n")
        with pytest.raises(FormatError, match=f"^{re.escape(f'{p}: empty training log')}"):
            load_train_log(p)


_LOG_ROWS = ({"epoch": 1, "train_loss": 0.5, "val_micro_f1": 0.25},
             {"epoch": 2, "train_loss": 0.375, "val_micro_f1": 0.5})
_LOG_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 3, -1, 10**400, 0.0, -0.0, 1.0, 1.0000000000000002, 5e-324, -5e-324,
                     1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([True, False, None, "1", "0.5", [1], {}]),
    st.floats(), st.integers(),
)


@st.composite
def _train_logs(draw):
    """``_LOG_ROWS`` with one row changed: a field set to a boundary value or a value of another
    JSON type, the epoch moved by one, a field dropped, or an unknown field added. Returns the
    rows and the changed row's line."""
    rows = [dict(row) for row in _LOG_ROWS]
    line = draw(st.sampled_from([1, 2]), label="line")
    row, field = rows[line - 1], draw(st.sampled_from(sorted(_LOG_ROWS[0])), label="field")
    change = draw(st.sampled_from(["value", "epoch", "drop", "add"]), label="change")
    if change == "value":
        row[field] = draw(_LOG_VALUES)
    elif change == "epoch":
        row["epoch"] += draw(st.sampled_from([-1, 1]))
    elif change == "drop":
        del row[field]
    else:
        row[draw(st.sampled_from(["spare", "Epoch", "val_f1"]))] = draw(_LOG_VALUES)
    return rows, line


class TestTrainLogRowReader:
    """The training-log reader refuses a row naming its file, its line and a field, or it accepts
    the log, and the writer writes it back as it was."""

    @given(log=_train_logs())
    @example(log=([_LOG_ROWS[0], {**_LOG_ROWS[1], "train_loss": 10**400}], 2))  # float() raises OverflowError
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_row_is_refused_naming_a_field_or_written_back(self, tmp_path, log):
        rows, line = log
        p, again = tmp_path / "log.jsonl", tmp_path / "again.jsonl"
        write_lines(p, rows)
        try:
            entries = load_train_log(p)
        except FormatError as exc:
            assert str(exc).startswith(f"{p}:{line}: ")
            assert re.search(r"field '\w+'", str(exc)), str(exc)
            return
        save_train_log(entries, again)
        # The one normalisation: an integer loss or F1 is written back as a float.
        assert again.read_text().splitlines() == [
            canonical_json({**row, "train_loss": float(row["train_loss"]), "val_micro_f1": float(row["val_micro_f1"])})
            for row in rows]


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "f.bin"
        p.write_bytes(b"abc123")
        assert file_sha256(p) == hashlib.sha256(b"abc123").hexdigest()
