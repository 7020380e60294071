"""Gazetteer tagging and type-aware prediction filtering tests."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.corpus import EventType, SubtaskId
from tweetslots.multitask import PredictionRecord
from tweetslots.nerfilter import (
    _PERSON_CUES,
    NOT_SPECIFIED,
    EntityType,
    Gazetteer,
    NerFilterError,
    TypeMap,
    default_gazetteer,
    default_type_map,
    filter_predictions,
    load_gazetteer,
    load_type_map,
    save_gazetteer,
    tag,
)

NAME = SubtaskId(EventType.DEATH, "name")
WHERE = SubtaskId(EventType.DEATH, "where")
WHEN = SubtaskId(EventType.DEATH, "when")
AGE = SubtaskId(EventType.DEATH, "age")
OPINION = SubtaskId(EventType.CURE_AND_PREVENTION, "opinion")


@pytest.fixture(scope="module")
def gaz() -> Gazetteer:
    return default_gazetteer()


@pytest.fixture(scope="module")
def tmap() -> TypeMap:
    return default_type_map()


class TestTag:
    def test_location_beats_person_cue_on_longer_match(self, gaz):
        # 'persons' alone is a person cue, but the longer location phrase
        # wins.
        assert tag("old persons home", gaz) is EntityType.LOCATION

    def test_kinship_chain_is_person(self, gaz):
        assert tag("my wife's grandmother", gaz) is EntityType.PERSON

    def test_age_pattern(self, gaz):
        assert tag("34 years old", gaz) is EntityType.AGE
        assert tag("she is 34-years-old", gaz) is EntityType.AGE
        assert tag("aged 70", gaz) is EntityType.AGE

    def test_date_patterns(self, gaz):
        assert tag("last tuesday", gaz) is EntityType.DATE
        assert tag("on march 15", gaz) is EntityType.DATE
        assert tag("3 days ago", gaz) is EntityType.DATE

    def test_duration_patterns(self, gaz):
        assert tag("for two weeks", gaz) is EntityType.DURATION
        assert tag("14 days", gaz) is EntityType.DURATION

    def test_age_beats_duration_on_longer_match(self, gaz):
        # '34 years old' (AGE) strictly contains '34 years' (DURATION).
        assert tag("34 years old", gaz) is EntityType.AGE

    def test_organization(self, gaz):
        assert tag("the cdc", gaz) is EntityType.ORGANIZATION
        assert tag("world health organization", gaz) is EntityType.ORGANIZATION

    def test_location(self, gaz):
        assert tag("new york", gaz) is EntityType.LOCATION
        assert tag("nursing home", gaz) is EntityType.LOCATION

    def test_person_cue_fallback(self, gaz):
        # No gazetteer phrase or rule, but a pronoun token cues PERSON.
        assert tag("he sadly", gaz) is EntityType.PERSON

    def test_other(self, gaz):
        assert tag("vitamin zinc gargle", gaz) is EntityType.OTHER
        assert tag("", gaz) is EntityType.OTHER
        assert tag("...", gaz) is EntityType.OTHER

    def test_case_and_punctuation_insensitive(self, gaz):
        assert tag("New York!", gaz) is EntityType.LOCATION
        assert tag("  MY   WIFE ", gaz) is EntityType.PERSON

    def test_match_requires_word_boundary(self, gaz):
        # 'cdc' must not fire inside a longer word.
        assert tag("abcdcde", gaz) is EntityType.OTHER


class TestGazetteerIo:
    def test_loads_all_types(self, gaz):
        assert len(gaz.phrases[EntityType.PERSON]) > 50
        assert len(gaz.phrases[EntityType.LOCATION]) > 50
        assert len(gaz.phrases[EntityType.ORGANIZATION]) > 50
        assert len(gaz.rules) > 3

    def test_round_trip(self, gaz, tmp_path):
        # Saving canonicalizes rule order; tagging treats rules as a set.
        save_gazetteer(gaz, tmp_path / "g")
        again = load_gazetteer(tmp_path / "g")
        assert again.phrases == gaz.phrases
        assert {(t, p.pattern) for t, p in again.rules} == {
            (t, p.pattern) for t, p in gaz.rules
        }

    def test_round_trip_is_canonical(self, gaz, tmp_path):
        save_gazetteer(gaz, tmp_path / "a")
        again = load_gazetteer(tmp_path / "a")
        save_gazetteer(again, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_text() == (tmp_path / "b" / f.name).read_text()

    def test_missing_required_file(self, tmp_path):
        (tmp_path / "person.txt").write_text("wife\n")
        with pytest.raises(NerFilterError):
            load_gazetteer(tmp_path)

    def test_bad_rule_line(self, tmp_path, gaz):
        save_gazetteer(gaz, tmp_path)
        (tmp_path / "rules.txt").write_text("AGE only-one-column\n".replace("-", " "))
        with pytest.raises(NerFilterError):
            load_gazetteer(tmp_path)

    def test_uppercase_phrase_rejected(self):
        with pytest.raises(NerFilterError):
            Gazetteer(
                phrases={EntityType.PERSON: frozenset({"Wife"})},
                rules=(),
            )


    def test_later_edits_to_the_caller_mapping_do_not_leak(self):
        phrases = {EntityType.LOCATION: frozenset()}
        g = Gazetteer(phrases=phrases, rules=())
        phrases[EntityType.LOCATION] = frozenset({"seattle"})
        assert tag("seattle", g) is EntityType.OTHER
        assert g.phrases[EntityType.LOCATION] == frozenset()


# Words of the drawn gazetteers and chunks; "my" and "wife" are person cues.
_WORDS = ("ab", "cd", "ef", "my", "wife")
_TYPED = tuple(e for e in EntityType if e is not EntityType.OTHER)
_words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
_endings = st.sampled_from([".", "!", "'s", "-"])
_phrase = st.tuples(_words, st.sampled_from(["", ".", "'s"])).map("".join)


@st.composite
def _gazetteers(draw):
    """Phrases: a prefix and its extension, one ending in punctuation, one
    shared by two types, and a few more; rules: literal words."""
    base = draw(_words)
    required = [base, f"{base} {draw(_words)}", draw(_words) + draw(_endings)]
    phrases = {etype: set() for etype in _TYPED}
    for phrase in required + draw(st.lists(_phrase, max_size=3)):
        for etype in draw(st.lists(st.sampled_from(_TYPED), min_size=1, max_size=2, unique=True)):
            phrases[etype].add(phrase)
    shared = draw(_phrase)
    for etype in draw(st.lists(st.sampled_from(_TYPED), min_size=2, max_size=2, unique=True)):
        phrases[etype].add(shared)
    rules = draw(st.lists(st.tuples(st.sampled_from(_TYPED), st.sampled_from(_WORDS)), max_size=3))
    return phrases, rules


@st.composite
def _chunk_texts(draw, phrases):
    """Gazetteer phrases and loose words, joined by a space or nothing, so
    punctuation sometimes touches the next word; some pieces upper-cased."""
    pieces = sorted(set().union(*phrases.values())) + list(_WORDS) + [".", "!", "'s", "-"]
    out = ""
    for piece in draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=5)):
        out += draw(st.sampled_from(["", " ", "  "])) + (piece.upper() if draw(st.booleans()) else piece)
    return out


def _is_word(c: str) -> bool:
    return c.isalnum() or c == "_"


def _boundary(text: str, i: int) -> bool:
    return (i > 0 and _is_word(text[i - 1])) != (i < len(text) and _is_word(text[i]))


def _spans(text: str, phrase: str) -> list[tuple[int, int]]:
    """Where ``phrase`` occurs starting a word, with a word boundary after it."""
    return [
        (s, s + len(phrase))
        for s in range(len(text))
        if text.startswith(phrase, s) and _is_word(text[s]) and _boundary(text, s) and _boundary(text, s + len(phrase))
    ]


def _oracle_tag(chunk: str, phrases, rules) -> EntityType:
    """``tag``'s documented priority by brute force: gazetteer phrases, then
    rules, then person cues; within a stage the longest match, then the
    earlier type in ``EntityType`` order, then the earlier start."""
    text = " ".join(chunk.lower().split())
    order = list(EntityType)
    for stage in (
        [(etype, phrase) for etype in _TYPED for phrase in phrases[etype]],
        [(etype, word) for etype, word in rules],
    ):
        found = [(s - e, order.index(etype), s, etype) for etype, needle in stage for s, e in _spans(text, needle)]
        if found:
            return min(found)[3]
    words = "".join(c if _is_word(c) else " " for c in text).split()
    return EntityType.PERSON if _PERSON_CUES & set(words) else EntityType.OTHER


class TestTagOracle:
    @given(data=st.data(), drawn=_gazetteers())
    @settings(max_examples=300, deadline=None)
    def test_tag_follows_the_documented_priority(self, data, drawn):
        phrases, rules = drawn
        gz = Gazetteer(phrases=phrases, rules=tuple((etype, re.compile(rf"\b{word}\b")) for etype, word in rules))
        chunk = data.draw(_chunk_texts(phrases))
        assert tag(chunk, gz) is _oracle_tag(chunk, phrases, rules), chunk

    def test_oracle_sees_boundaries_after_punctuation(self):
        phrases = {etype: set() for etype in _TYPED}
        phrases[EntityType.LOCATION] = {"ab."}
        phrases[EntityType.PERSON] = {"ab"}
        gz = Gazetteer(phrases=phrases, rules=())
        # "ab." needs a word character after its final '.', for the boundary
        for chunk, expected in (("ab.cd", EntityType.LOCATION), ("ab. cd", EntityType.PERSON)):
            assert tag(chunk, gz) is _oracle_tag(chunk, phrases, []) is expected


class TestTypeMap:
    def test_default_expectations(self, tmap):
        assert tmap.allowed["name"] == {EntityType.PERSON}
        assert tmap.allowed["where"] == {EntityType.LOCATION}
        assert tmap.allowed["when"] == {EntityType.DATE}
        assert tmap.allowed["how_long"] == {EntityType.DURATION}
        assert tmap.allowed["age"] == {EntityType.AGE}
        assert EntityType.PERSON in tmap.allowed["employer"]

    def test_exempt_subtasks_absent(self, tmap):
        for name in ("opinion", "symptoms", "gender_male", "gender_female", "what_cure"):
            assert name not in tmap.allowed

    def test_load_rejects_unknown_type(self, tmp_path):
        p = tmp_path / "tm.txt"
        p.write_text("name\tPERSONISH\n")
        with pytest.raises(NerFilterError):
            load_type_map(p)

    @pytest.mark.parametrize("second", ["name\tLOCATION", "name\texempt", "name\tPERSON"])
    def test_load_refuses_a_repeated_subtask(self, tmp_path, second):
        p = tmp_path / "tm.txt"
        p.write_text(f"name\tPERSON\nwhere\tLOCATION\n{second}\n")
        with pytest.raises(NerFilterError, match=f"{p}:3: subtask 'name' listed twice \\(first on line 1\\)"):
            load_type_map(p)

    def test_load_multi_type(self, tmp_path):
        p = tmp_path / "tm.txt"
        p.write_text("employer\tORGANIZATION,PERSON\n")
        tm = load_type_map(p)
        assert tm.allowed["employer"] == {EntityType.ORGANIZATION, EntityType.PERSON}


def rec(subtask, chunk, decision=1, prob=0.9, tweet="t0", cand=0):
    return PredictionRecord(
        tweet_id=tweet, subtask=subtask, candidate_index=cand,
        chunk_text=chunk, probability=prob, decision=decision,
    )


class TestFilterPredictions:
    def test_type_conflict_nullified(self, gaz, tmap):
        [out] = filter_predictions([rec(NAME, "nursing home")], tmap, gaz)
        assert out.decision == 0
        assert out.filtered is True
        assert out.chunk_text == NOT_SPECIFIED

    def test_type_match_kept(self, gaz, tmap):
        [out] = filter_predictions([rec(NAME, "my uncle")], tmap, gaz)
        assert out.decision == 1
        assert out.filtered is False
        assert out.chunk_text == "my uncle"

    def test_negatives_untouched(self, gaz, tmap):
        source = rec(NAME, "nursing home", decision=0)
        [out] = filter_predictions([source], tmap, gaz)
        assert out == source
        assert out is not source  # defensive copy

    def test_exempt_subtask_untouched(self, gaz, tmap):
        source = rec(OPINION, "nursing home", decision=1)
        [out] = filter_predictions([source], tmap, gaz)
        assert out == source

    def test_other_typed_chunk_on_typed_slot_nullified(self, gaz, tmap):
        # OTHER is not in any allowed set, so a typed slot drops it.
        [out] = filter_predictions([rec(WHERE, "vitamin gargle")], tmap, gaz)
        assert out.decision == 0

    def test_idempotent(self, gaz, tmap):
        records = [
            rec(NAME, "nursing home"),
            rec(NAME, "my uncle"),
            rec(WHERE, "new york"),
            rec(WHEN, "my uncle"),
            rec(OPINION, "whatever", decision=1),
            rec(AGE, "34 years old"),
            rec(AGE, "last tuesday", decision=0),
        ]
        once = filter_predictions(records, tmap, gaz)
        twice = filter_predictions(once, tmap, gaz)
        assert once == twice

    def test_preserves_order_and_length(self, gaz, tmap):
        records = [rec(NAME, f"chunk {i}", tweet=f"t{i}") for i in range(10)]
        out = filter_predictions(records, tmap, gaz)
        assert [(r.tweet_id, r.candidate_index) for r in out] == [
            (r.tweet_id, r.candidate_index) for r in records
        ]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_safety_property(self, seed):
        # Filtering never increases positives and never flips a negative.
        gz = default_gazetteer()
        tm = default_type_map()
        rng = np.random.default_rng(seed)
        chunks = [
            "my uncle", "nursing home", "new york", "the cdc", "34 years old",
            "last tuesday", "for two weeks", "vitamin gargle", "he", "she said",
        ]
        subtasks = [NAME, WHERE, WHEN, AGE, OPINION]
        records = []
        for i in range(int(rng.integers(1, 12))):
            records.append(
                rec(
                    subtasks[rng.integers(0, len(subtasks))],
                    chunks[rng.integers(0, len(chunks))],
                    decision=int(rng.integers(0, 2)),
                    prob=float(rng.random()),
                    tweet=f"t{i}",
                    cand=int(rng.integers(0, 3)),
                )
            )
        out = filter_predictions(records, tm, gz)
        assert len(out) == len(records)
        for before, after in zip(records, out):
            if before.decision == 0:
                assert after == before
            else:
                assert after.decision <= before.decision
                if after.decision == 0:
                    assert after.filtered and after.chunk_text == NOT_SPECIFIED
