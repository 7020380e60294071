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
    read_utf8,
    save_corpus,
    split,
    table_lines,
    write_file,
)
from tweetslots.metrics import load_report
from tweetslots.nerfilter import EntityType, load_gazetteer, load_type_map
from tweetslots.pipeline import load_config
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

    def test_load_refuses_a_repeated_event_naming_its_first_line(self, tmp_path):
        p = tmp_path / "reg.txt"
        p.write_text("death = age\n# death = name\ncure_and_prevention = opinion\ndeath = name  # again\n")
        with pytest.raises(CorpusError, match=re.escape(f"{p}:4: event 'death' listed twice (first on line 1)")):
            SubtaskRegistry.load(p)

    def test_load_cuts_a_trailing_comment(self, tmp_path):
        p = tmp_path / "reg.txt"
        p.write_text("  # header\ndeath = age, name  # two slots\n")
        assert SubtaskRegistry.load(p).names_for(EventType.DEATH) == ("age", "name")

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

    def test_hash_and_text_are_the_derived_ones(self):
        # Computed once at construction, with the values the plain dataclass gave:
        # set and dict order, and so every written artifact, stay as they were.
        for sid in SubtaskRegistry.default().all_subtasks():
            twin = SubtaskId(sid.event, sid.name)
            assert hash(sid) == hash((sid.event, sid.name)) == hash(twin)
            assert sid == twin and str(sid) == f"{sid.event.value}/{sid.name}"
            assert repr(sid) == f"SubtaskId(event={sid.event!r}, name={sid.name!r})"
        with pytest.raises(AttributeError):
            sid.name = "other"

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


    @pytest.mark.parametrize("escape, lone", [
        ("\\ud83d", "\\ud83d"), ("\\ude37", "\\ude37"), ("\\uDE37\\ud83d", "\\ude37"),
        ("x\\ud83d\\ud83d\\ude37", "\\ud83d"), ("\\ud83d\\ude37\\ude37", "\\ude37"),
    ], ids=["high", "low", "low then high", "high before a pair", "low after a pair"])
    def test_lone_surrogate_names_file_line_and_field(self, tmp_path, escape, lone):
        p = tmp_path / "c.jsonl"
        line = dumps_tweet(make_tweet(1))
        p.write_text(dumps_tweet(make_tweet(0)) + "\n" + line.replace('"text":"', f'"text":"{escape}', 1) + "\n")
        with pytest.raises(CorpusError, match=re.escape(f"{p}:2: field 'text' holds a lone surrogate '{lone}', not text")):
            load_corpus(p)

    @pytest.mark.parametrize("row, field", [
        ({"gold": {"\udc00": [0]}}, "gold"),
        ({"note": ["a", {"b": "\ud800"}]}, "note"),
        ({"\ud800": 1}, "\ud800"),
    ], ids=["gold key", "nested value", "field name"])
    def test_lone_surrogate_anywhere_in_a_row_names_its_field(self, tmp_path, row, field):
        base = dumps_tweet(make_tweet(0))
        p = tmp_path / "c.jsonl"
        p.write_text(base[:-1] + "," + json.dumps(row)[1:] + "\n")
        with pytest.raises(CorpusError, match=re.escape(f"{p}:1: field {field!r} holds a lone surrogate")):
            load_corpus(p)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(max_size=8), at=st.integers(0, 8), lone=st.integers(0xD800, 0xDFFF))
    def test_escaped_text_reads_back_and_an_inserted_surrogate_is_refused(self, tmp_path, text, at, lone):
        # json.dumps escapes every non-ASCII character, so an astral one is written as a surrogate pair.
        def write(t):
            row = {"id": "a", "text": t, "event": "death", "candidates": [], "gold": {}}
            p.write_text(json.dumps(row) + "\n", encoding="ascii")

        p = tmp_path / "c.jsonl"
        write(text)
        (tweet,) = load_corpus(p)
        assert tweet.text == text
        save_corpus([tweet], p)
        assert load_corpus(p) == [tweet]
        write(text[:at] + chr(lone) + text[at:])
        with pytest.raises(CorpusError, match=re.escape(f"{p}:1: field 'text' holds a lone surrogate {chr(lone)!r}")):
            load_corpus(p)

    def test_surrogate_pair_escape_reads_as_its_character(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(dumps_tweet(make_tweet(0)).replace('"text":"', '"text":"\\ud83d\\ude37 ', 1) + "\n")
        (tweet,) = load_corpus(p)
        assert tweet.text.startswith("\U0001f637 ")
        save_corpus([tweet], p)
        assert p.read_bytes().count("\U0001f637".encode("utf-8")) == 1 and b"\\u" not in p.read_bytes()
        assert load_corpus(p) == [tweet]

    def test_escaped_backslash_u_is_text(self, tmp_path):
        # "\\ud83d" in JSON is a backslash and the letters ud83d, not an escape.
        p = tmp_path / "c.jsonl"
        line = dumps_tweet(make_tweet(0))
        p.write_text(line.replace('"text":"', '"text":"C:\\\\ud83d ', 1) + "\n")
        assert load_corpus(p)[0].text.startswith("C:\\ud83d ")


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


def test_read_utf8_counts_lines_ended_by_cr_and_crlf(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\rb\r\nc\rd \xe9\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:4: not UTF-8 (byte 0xe9)")):
        read_utf8(path, CorpusError)


# Characters that str.splitlines ends a line at, though an editor shows them inside one.
_INNER_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def _table_texts(draw):
    pieces = st.one_of(
        st.sampled_from(_INNER_BREAKS), st.sampled_from(_LINE_ENDS), st.sampled_from(["", " ", "\t", "  "]),
        st.sampled_from(["#", "# note", "//", "// tag", "#covid19", "a = 1", "x\ty"]), st.text(max_size=3),
    )
    return "".join(draw(st.lists(pieces, max_size=20)))


@given(text=_table_texts(), comment=st.sampled_from(["#", "//"]))
def test_table_lines_match_a_line_end_oracle(text, comment):
    lines = [(n, raw.strip()) for n, raw in enumerate(re.split(r"\r\n|\r|\n", text), 1)]
    assert list(table_lines(text, comment)) == [(n, line) for n, line in lines if line and not line.startswith(comment)]


def _complete_gazetteer(path: Path) -> Path:
    """The directory of ``path``, with each required gazetteer file it lacks written empty."""
    for name in ("person.txt", "location.txt", "organization.txt", "rules.txt"):
        if not (path.parent / name).exists():
            (path.parent / name).write_text("")
    return path.parent


# Per reader: a table whose first lines hold {0} inside a comment, the line of a later fault, its
# message, and the call that loads the table. str.splitlines would split the comment in two and
# name the line after the fault's.
_FAULT_AFTER_A_BREAK = {
    "config": ("# a{0}# b\nbad\n", "c.ini", 2, "expected 'key = value'", load_config),
    "emoji-map": ("# a{0}# b\njustone\n", "e.tsv", 2, "expected 'emoji<TAB>alias'", load_emoji_map),
    "covid-tags": ("// a{0}// b\ncovid\n", "t.txt", 2, "tag 'covid' must begin with '#'", load_covid_tags),
    "gazetteer-phrases": ("seattle\n# a{0}# b\nseattle\n", "location.txt", 3,
                          "phrase 'seattle' listed twice (first on line 1)",
                          lambda path: load_gazetteer(_complete_gazetteer(path))),
    "gazetteer-rules": ("# a{0}# b\nPERSON\n", "rules.txt", 2, "expected 'TYPE<TAB>pattern'",
                        lambda path: load_gazetteer(_complete_gazetteer(path))),
    "type-map": ("# a{0}# b\nname\n", "type_map.txt", 2, "expected 'subtask<TAB>TYPE[,TYPE...]'", load_type_map),
    "registry": ("# a{0}# b\nbogus = age\n", "subtasks.txt", 2, "unknown event 'bogus'", SubtaskRegistry.load),
}


@pytest.mark.parametrize("inner", _INNER_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("reader", sorted(_FAULT_AFTER_A_BREAK))
def test_a_fault_after_a_line_holding_a_break_names_the_line_an_editor_shows(tmp_path, reader, inner):
    template, name, line, message, load = _FAULT_AFTER_A_BREAK[reader]
    path = tmp_path / name
    for end in _LINE_ENDS:
        path.write_text(template.format(inner).replace("\n", end), encoding="utf-8", newline="")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            load(path)


def test_a_phrase_holding_a_break_stays_one_phrase(tmp_path):
    path = tmp_path / "person.txt"
    path.write_text("dr\x85who\n  # indented comment\r\n nurse \r", encoding="utf-8", newline="")
    assert load_gazetteer(_complete_gazetteer(path)).phrases[EntityType.PERSON] == {"dr\x85who", "nurse"}
