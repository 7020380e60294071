"""Corpus schema, registry, splitting, and instance-explosion tests."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cut_short
from tweetslots.corpus import (
    DEFAULT_SUBTASKS,
    EVENT_ORDER,
    AnnotatedTweet,
    CorpusError,
    EventType,
    SplitConfig,
    SubtaskId,
    SubtaskRegistry,
    corpus_digest,
    dumps_tweet,
    explode_instances,
    load_corpus,
    save_corpus,
    split,
    write_file,
)
from tweetslots.metrics import load_report
from tweetslots.nerfilter import load_gazetteer, load_type_map
from tweetslots.preprocess import load_covid_tags, load_emoji_map


def make_tweet(i: int, event=EventType.DEATH, n_cands: int = 2, gold=None) -> AnnotatedTweet:
    text = f"tweet number {i} with some candidate words"
    cands = tuple((j * 5, j * 5 + 4) for j in range(n_cands))
    return AnnotatedTweet(
        id=f"t{i:03d}", text=text, event=event, candidates=cands, gold=gold or {}
    )


class TestRegistry:
    def test_default_has_33_subtasks(self):
        reg = SubtaskRegistry.default()
        assert len(reg) == 33
        assert len(reg.all_subtasks()) == 33

    def test_per_event_counts(self):
        sizes = {e: len(DEFAULT_SUBTASKS[e]) for e in EVENT_ORDER}
        assert sizes == {
            EventType.TESTED_POSITIVE: 10,
            EventType.TESTED_NEGATIVE: 9,
            EventType.CAN_NOT_TEST: 5,
            EventType.DEATH: 6,
            EventType.CURE_AND_PREVENTION: 3,
        }

    def test_all_subtasks_event_order_and_unique(self):
        subtasks = SubtaskRegistry.default().all_subtasks()
        events = [s.event for s in subtasks]
        assert events == sorted(events, key=EVENT_ORDER.index)
        keys = [s.key for s in subtasks]
        assert len(set(keys)) == len(keys)

    def test_duplicate_names_rejected(self):
        with pytest.raises(CorpusError):
            SubtaskRegistry({EventType.DEATH: ("age", "age")})

    def test_bad_name_rejected(self):
        with pytest.raises(CorpusError):
            SubtaskRegistry({EventType.DEATH: ("Age",)})

    def test_load_override(self, tmp_path):
        p = tmp_path / "reg.txt"
        p.write_text("death = age, name\ncure_and_prevention = opinion\n")
        reg = SubtaskRegistry.load(p)
        assert len(reg) == 3
        assert reg.names_for(EventType.DEATH) == ("age", "name")
        assert reg.names_for(EventType.TESTED_POSITIVE) == ()

    def test_load_unknown_event(self, tmp_path):
        p = tmp_path / "reg.txt"
        p.write_text("no_such_event = age\n")
        with pytest.raises(CorpusError):
            SubtaskRegistry.load(p)

    def test_load_refuses_an_event_with_no_subtasks(self, tmp_path):
        p = tmp_path / "reg.txt"
        p.write_text("cure_and_prevention = opinion\ndeath =\n")
        with pytest.raises(CorpusError, match=re.escape(f"{p}:2: expected 'event = sub1,sub2,...'")):
            SubtaskRegistry.load(p)

    @pytest.mark.parametrize("names", ["age, Name", "age,,name", "age, age"])
    def test_load_names_the_line_of_a_bad_subtask_name(self, tmp_path, names):
        p = tmp_path / "reg.txt"
        p.write_text(f"cure_and_prevention = opinion\ndeath = {names}\n")
        with pytest.raises(CorpusError, match=re.escape(f"{p}:2: ")):
            SubtaskRegistry.load(p)

    def test_events_property_follows_event_order(self):
        reg = SubtaskRegistry({EventType.DEATH: ("age",), EventType.TESTED_POSITIVE: ("name",)})
        assert reg.events == (EventType.TESTED_POSITIVE, EventType.DEATH)


class TestSubtaskId:
    def test_str_and_parse_round_trip(self):
        for sid in SubtaskRegistry.default().all_subtasks():
            assert SubtaskId.parse(str(sid)) == sid

    def test_parse_rejects_garbage(self):
        for bad in ("", "death", "death/", "/age", "nope/age"):
            with pytest.raises(CorpusError):
                SubtaskId.parse(bad)

    def test_ordering_is_by_key(self):
        a = SubtaskId(EventType.CAN_NOT_TEST, "where")
        b = SubtaskId(EventType.DEATH, "age")
        assert a < b
        assert sorted([b, a]) == [a, b]


class TestTweetValidation:
    def test_valid_tweet_passes(self):
        tw = make_tweet(0, gold={"age": frozenset({0})})
        tw.validate(SubtaskRegistry.default())

    def test_span_out_of_range(self):
        tw = AnnotatedTweet(
            id="x", text="short", event=EventType.DEATH, candidates=((0, 99),), gold={}
        )
        with pytest.raises(CorpusError):
            tw.validate(SubtaskRegistry.default())

    def test_reversed_span(self):
        tw = AnnotatedTweet(
            id="x", text="enough text here", event=EventType.DEATH, candidates=((4, 2),), gold={}
        )
        with pytest.raises(CorpusError):
            tw.validate(SubtaskRegistry.default())

    def test_gold_unknown_subtask(self):
        tw = make_tweet(0, gold={"employer": frozenset({0})})
        with pytest.raises(CorpusError):
            tw.validate(SubtaskRegistry.default())

    def test_gold_candidate_out_of_range(self):
        tw = make_tweet(0, n_cands=2, gold={"age": frozenset({5})})
        with pytest.raises(CorpusError):
            tw.validate(SubtaskRegistry.default())

    def test_chunk_text_uses_unicode_scalars(self):
        tw = AnnotatedTweet(
            id="x",
            text="café \U0001f637 mask",
            event=EventType.DEATH,
            candidates=((0, 4), (5, 6)),
            gold={},
        )
        assert tw.chunk_text(0) == "café"
        assert tw.chunk_text(1) == "\U0001f637"


class TestCorpusIo:
    def test_round_trip(self, tmp_path):
        tweets = [make_tweet(i, gold={"age": frozenset({0})}) for i in range(5)]
        p = tmp_path / "c.jsonl"
        save_corpus(tweets, p)
        loaded = load_corpus(p)
        assert loaded == tweets

    def test_save_cut_short_keeps_the_old_file(self, tmp_path):
        tweets = [make_tweet(i) for i in range(4)]
        p = tmp_path / "c.jsonl"
        save_corpus(tweets, p)
        before = p.read_bytes()
        with pytest.raises(RuntimeError, match="cut short"):
            save_corpus(cut_short(tweets[::-1], 2), p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_digest_stable_across_round_trip(self, tmp_path):
        tweets = [make_tweet(i) for i in range(4)]
        p = tmp_path / "c.jsonl"
        save_corpus(tweets, p)
        assert corpus_digest(load_corpus(p)) == corpus_digest(tweets)

    def test_digest_changes_with_content(self):
        a = [make_tweet(0)]
        b = [make_tweet(1)]
        assert corpus_digest(a) != corpus_digest(b)

    def test_dumps_is_canonical_json(self):
        tw = make_tweet(0, gold={"age": frozenset({1, 0})})
        obj = json.loads(dumps_tweet(tw))
        assert obj["gold"]["age"] == [0, 1]
        assert list(obj) == sorted(obj)

    def test_malformed_json_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a"\n')
        with pytest.raises(CorpusError, match="malformed JSON"):
            load_corpus(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "t", "event": "death"}\n')
        with pytest.raises(CorpusError, match="missing field"):
            load_corpus(p)

    def test_unknown_event(self, tmp_path):
        p = tmp_path / "c.jsonl"
        row = {"id": "a", "text": "t", "event": "nope", "candidates": [], "gold": {}}
        p.write_text(json.dumps(row) + "\n")
        with pytest.raises(CorpusError, match="unknown event"):
            load_corpus(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        line = dumps_tweet(make_tweet(0))
        p.write_text(f"{line}\n{dumps_tweet(make_tweet(1))}\n{line}\n")
        with pytest.raises(CorpusError, match=r"c\.jsonl:3: duplicate tweet id 't000' \(first on line 1\)"):
            load_corpus(p)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        bad=st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=4), st.none()),
        place=st.sampled_from(["start", "end", "gold"]),
    )
    def test_non_integer_bounds_and_gold_rejected(self, tmp_path, bad, place):
        # JSON integers only: bools, floats (even 3.0) and digit strings must
        # not be coerced by int().
        row = json.loads(dumps_tweet(make_tweet(1, gold={"age": frozenset({1})})))
        if place == "gold":
            row["gold"]["age"] = [bad]
        else:
            row["candidates"][1][place == "end"] = bad
        p = tmp_path / "c.jsonl"
        p.write_text(dumps_tweet(make_tweet(0)) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(CorpusError, match=re.escape(f"{p}:2: ") + ".*integer"):
            load_corpus(p)


class TestWriteFile:
    def test_text_is_utf8_and_bytes_pass_through(self, tmp_path):
        p = tmp_path / "f"
        write_file(p, ["caf\u00e9\r\n", b"\x00\xff", "\n"])
        assert p.read_bytes() == b"caf\xc3\xa9\r\n\x00\xff\n"

    def test_failing_chunks_leave_the_old_bytes_and_no_temp_file(self, tmp_path):
        p = tmp_path / "f.jsonl"
        p.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="cut short"):
            write_file(p, cut_short(["new 1\n", "new 2\n", "new 3\n"], 2))
        assert p.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_failing_chunks_leave_no_file_where_there_was_none(self, tmp_path):
        with pytest.raises(RuntimeError, match="cut short"):
            write_file(tmp_path / "f", cut_short([b"x"], 1))
        assert list(tmp_path.iterdir()) == []

    def test_a_leftover_temp_file_is_overwritten(self, tmp_path):
        p = tmp_path / "f.jsonl"
        Path(f"{p}.tmp").write_text("half a row from a killed run", encoding="utf-8")
        write_file(p, ["row\n"])
        assert p.read_text(encoding="utf-8") == "row\n"
        assert list(tmp_path.iterdir()) == [p]


class TestSplit:
    def test_partition(self):
        tweets = [make_tweet(i) for i in range(20)]
        train, val = split(tweets, SplitConfig(0.8, seed=0))
        assert len(train) == 16 and len(val) == 4
        ids = sorted(t.id for t in train + val)
        assert ids == sorted(t.id for t in tweets)

    def test_deterministic(self):
        tweets = [make_tweet(i) for i in range(30)]
        a = split(tweets, SplitConfig(0.7, seed=5))
        b = split(tweets, SplitConfig(0.7, seed=5))
        assert [t.id for t in a[0]] == [t.id for t in b[0]]
        assert [t.id for t in a[1]] == [t.id for t in b[1]]

    def test_seed_changes_split(self):
        tweets = [make_tweet(i) for i in range(30)]
        a = split(tweets, SplitConfig(0.8, seed=0))
        b = split(tweets, SplitConfig(0.8, seed=1))
        assert [t.id for t in a[0]] != [t.id for t in b[0]]

    def test_matches_documented_fisher_yates(self):
        # Independent re-implementation of the documented shuffle contract.
        tweets = [make_tweet(i) for i in range(13)]
        cfg = SplitConfig(0.8, seed=42)
        n = len(tweets)
        order = list(range(n))
        rng = np.random.default_rng(cfg.seed)
        for i in range(n - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            order[i], order[j] = order[j], order[i]
        n_train = round(cfg.train_fraction * n)
        want_train = [tweets[i].id for i in order[:n_train]]
        want_val = [tweets[i].id for i in order[n_train:]]
        train, val = split(tweets, cfg)
        assert [t.id for t in train] == want_train
        assert [t.id for t in val] == want_val

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            split([], SplitConfig())

    def test_bad_fraction_rejected(self):
        with pytest.raises(CorpusError):
            SplitConfig(train_fraction=1.0)
        with pytest.raises(CorpusError):
            SplitConfig(train_fraction=0.0)

    @given(n=st.integers(1, 60), seed=st.integers(0, 10), frac=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_split_is_a_partition_property(self, n, seed, frac):
        tweets = [make_tweet(i) for i in range(n)]
        train, val = split(tweets, SplitConfig(frac, seed=seed))
        assert len(train) + len(val) == n
        assert sorted(t.id for t in train + val) == sorted(t.id for t in tweets)


class TestExplodeInstances:
    def test_row_count(self):
        # death has 6 subtasks; 2 candidates -> 12 rows per tweet.
        tweets = [make_tweet(i, n_cands=2) for i in range(3)]
        rows = explode_instances(tweets)
        assert len(rows) == 3 * 6 * 2

    def test_labels_follow_gold(self):
        tw = make_tweet(0, n_cands=3, gold={"age": frozenset({1})})
        rows = explode_instances([tw])
        got = {(str(s), c): lab for _, s, c, lab in rows}
        assert got[("death/age", 1)] == 1
        assert got[("death/age", 0)] == 0
        assert got[("death/age", 2)] == 0
        assert got[("death/name", 1)] == 0

    def test_ordering(self):
        tw = make_tweet(0, n_cands=2)
        rows = explode_instances([tw])
        names = [s.name for _, s, _, _ in rows]
        assert names == sorted(names)
        cands = [c for _, _, c, _ in rows]
        assert cands == [0, 1] * 6

    def test_respects_registry_subset(self):
        reg = SubtaskRegistry({EventType.DEATH: ("age",)})
        tw = make_tweet(0, n_cands=2)
        assert len(explode_instances([tw], reg)) == 2


def _gazetteer_dir(tmp_path: Path, bad_file: str) -> Path:
    for name in ("person.txt", "location.txt", "organization.txt", "rules.txt"):
        (tmp_path / name).write_bytes(b"# caf\xe9\n" if name == bad_file else b"")
    return tmp_path


@pytest.mark.parametrize(
    "name, data, load",
    [
        ("subtasks.txt", b"death = age\n# caf\xe9\n", SubtaskRegistry.load),
        ("tags.txt", b"#covid19\n#caf\xe9\n", load_covid_tags),
        ("emoji.tsv", b"x\t:x:\n# caf\xe9\n", load_emoji_map),
        ("type_map.txt", b"name\tPERSON\n# caf\xe9\n", load_type_map),
        ("report.json", b'{"model_id": "m",\n "corpus_id": "caf\xe9"}\n', load_report),
        ("corpus.jsonl", b"\n# caf\xe9\n", load_corpus),
        ("gazetteer/location.txt", None, lambda path: load_gazetteer(_gazetteer_dir(path.parent, path.name))),
        ("gazetteer/rules.txt", None, lambda path: load_gazetteer(_gazetteer_dir(path.parent, path.name))),
    ],
    ids=["registry", "covid-tags", "emoji-map", "type-map", "report", "corpus", "gazetteer-phrases", "gazetteer-rules"],
)
def test_a_data_file_that_is_not_utf8_names_file_and_line(tmp_path, name, data, load):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    if data is not None:
        path.write_bytes(data)
    line = 1 if data is None else 2
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: not UTF-8 (byte 0xe9)")):
        load(path)
