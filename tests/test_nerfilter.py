"""Gazetteer tagging and type-aware prediction filtering tests."""

from __future__ import annotations

import re
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tweetslots.corpus import EventType, SubtaskId
from tweetslots import nerfilter
from tweetslots.multitask import PredictionRecord
from tweetslots.preprocess import _PUNCT_TABLE
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


_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
_BLANKS = "".join(c for c in _CODE_POINTS if c.isspace())


class TestNormalize:
    def test_regex_blanks_are_the_str_blanks(self):
        # `\s` and `str.isspace` agree on every code point, so splitting on blanks and
        # collapsing `\s+` runs cut the text at the same places.
        assert "".join(re.findall(r"\s", _CODE_POINTS)) == _BLANKS

    @given(st.text(st.sampled_from(_BLANKS) | st.sampled_from(sorted(map(chr, _PUNCT_TABLE))) | st.characters()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_regex_form(self, text):
        regex_form = re.sub(r"\s+", " ", text.translate(_PUNCT_TABLE).lower()).strip()
        assert nerfilter._normalize(text) == regex_form


# Text for a phrase or a rule: mostly letters, blanks and punctuation that the normal form of
# tag() standardises; sometimes an upper-case letter, a comment mark or a line end.
_TABLE_TEXT = (st.text(st.sampled_from("ab .'\u2019\u2026"), min_size=1, max_size=5)
               | st.text(st.sampled_from("ab A#\t\n\r\xa0"), min_size=1, max_size=3))


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

    @given(phrases=st.dictionaries(st.sampled_from(list(EntityType)), st.frozensets(_TABLE_TEXT, max_size=4),
                                   max_size=3),
           rules=st.lists(st.tuples(st.sampled_from(list(EntityType)), _TABLE_TEXT), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_any_gazetteer_that_constructs_loads_back(self, phrases, rules):
        try:
            gz = Gazetteer(phrases=phrases, rules=tuple((etype, re.compile(re.escape(t))) for etype, t in rules))
        except NerFilterError:
            assume(False)
        with tempfile.TemporaryDirectory() as directory:
            save_gazetteer(gz, directory)
            again = load_gazetteer(directory)
        for etype in EntityType:
            assert again.phrases.get(etype, frozenset()) == gz.phrases.get(etype, frozenset()), etype
        assert sorted((t.name, p.pattern) for t, p in again.rules) == sorted((t.name, p.pattern) for t, p in gz.rules)

    def test_gazetteer_refuses_a_rule_twice(self):
        # Saved, the second copy would be refused on its line of rules.txt.
        rule = (EntityType.AGE, re.compile(r"\d+ yo"))
        with pytest.raises(NerFilterError, match=re.escape(r"rule 'AGE<TAB>\d+ yo' listed twice")):
            Gazetteer(phrases={}, rules=(rule, (EntityType.AGE, re.compile(r"\d+ yo", re.IGNORECASE))))

    def test_gazetteer_refuses_two_phrases_of_one_normal_form(self):
        # tag() matches both as one phrase; saved, the second line of person.txt would be refused.
        with pytest.raises(NerFilterError, match="person phrases \"o'brien\" and 'o’brien' have one normal "
                                                 "form \"o'brien\""):
            Gazetteer(phrases={EntityType.PERSON: frozenset({"o’brien", "o'brien"})}, rules=())
        # The same normal form under two types is two phrases.
        Gazetteer(phrases={EntityType.PERSON: frozenset({"o'brien"}), EntityType.LOCATION: frozenset({"o’brien"})},
                  rules=())

    def test_missing_required_file(self, tmp_path):
        (tmp_path / "person.txt").write_text("wife\n")
        with pytest.raises(NerFilterError):
            load_gazetteer(tmp_path)

    def test_bad_rule_line(self, tmp_path, gaz):
        save_gazetteer(gaz, tmp_path)
        (tmp_path / "rules.txt").write_text("AGE only-one-column\n".replace("-", " "))
        with pytest.raises(NerFilterError):
            load_gazetteer(tmp_path)

    def test_rules_file_drops_outer_blanks_and_indented_comments(self, tmp_path):
        save_gazetteer(Gazetteer(phrases={}, rules=()), tmp_path)
        (tmp_path / "rules.txt").write_text("  # note\n AGE\t\\d+ years? old \n")
        [(etype, pattern)] = load_gazetteer(tmp_path).rules
        assert (etype, pattern.pattern) == (EntityType.AGE, r"\d+ years? old")

    @pytest.mark.parametrize("second", ["AGE\t\\d+ years? old", " AGE \t \\d+ years? old  "])
    def test_load_refuses_a_rule_listed_twice(self, tmp_path, second):
        # The same pattern under another type is another rule; the same type and pattern after
        # stripping is a repeat, named on its line.
        save_gazetteer(Gazetteer(phrases={}, rules=()), tmp_path)
        p = tmp_path / "rules.txt"
        p.write_text(f"AGE\t\\d+ years? old\n# note\nDURATION\t\\d+ years? old\n{second}\n")
        with pytest.raises(NerFilterError, match=re.escape(f"{p}:4: rule 'AGE<TAB>\\d+ years? old' listed twice "
                                                           "(first on line 1)")):
            load_gazetteer(tmp_path)
        p.write_text("AGE\t\\d+ years? old\nDURATION\t\\d+ years? old\n")
        assert len(load_gazetteer(tmp_path).rules) == 2

    def test_load_refuses_a_packaged_rule_listed_twice(self, gaz, tmp_path):
        save_gazetteer(gaz, tmp_path)
        p = tmp_path / "rules.txt"
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines + lines[:1]))
        first = lines[0].rstrip("\n").replace("\t", "<TAB>")
        with pytest.raises(NerFilterError, match=re.escape(f"{p}:{len(lines) + 1}: rule '{first}' listed twice "
                                                           "(first on line 1)")):
            load_gazetteer(tmp_path)

    @pytest.mark.parametrize("second", ["Seattle", "seattle", "  SEATTLE  "])
    def test_load_refuses_a_phrase_repeated_after_lower_casing(self, gaz, tmp_path, second):
        save_gazetteer(gaz, tmp_path)
        p = tmp_path / "location.txt"
        p.write_text(f"seattle\n# {second}\nportland\n{second}\n")
        with pytest.raises(NerFilterError, match=f"{p}:4: phrase 'seattle' listed twice \\(first on line 1\\)"):
            load_gazetteer(tmp_path)

    @pytest.mark.parametrize("name, first, second", [
        ("person.txt", "o’brien", "o'brien"),
        ("person.txt", "o'brien", "O’Brien"),
        ("location.txt", "north pole", "north  pole"),
        ("location.txt", "north\tpole", "North Pole"),
    ])
    def test_load_refuses_a_phrase_repeated_in_the_normal_form_of_tag(self, tmp_path, name, first, second):
        # tag() matches both lines as one phrase, so the second is a repeat.
        save_gazetteer(Gazetteer(phrases={}, rules=()), tmp_path)
        p = tmp_path / name
        p.write_text(f"{first}\nportland\n{second}\n", encoding="utf-8")
        with pytest.raises(NerFilterError, match=rf"{re.escape(str(p))}:3: phrase {re.escape(repr(second.lower()))} "
                                                 r"listed twice \(first on line 1\)"):
            load_gazetteer(tmp_path)

    def test_uppercase_phrase_rejected(self):
        with pytest.raises(NerFilterError):
            Gazetteer(
                phrases={EntityType.PERSON: frozenset({"Wife"})},
                rules=(),
            )


    def test_phrases_match_in_the_normal_form_of_tag(self, tmp_path):
        # tag() standardises punctuation and collapses blanks in the chunk; a phrase
        # written with a curly quote or two blanks used to match nothing.
        save_gazetteer(Gazetteer(phrases={}, rules=()), tmp_path)
        (tmp_path / "person.txt").write_text("o\u2019brien\n", encoding="utf-8")
        (tmp_path / "location.txt").write_text("north  pole\n", encoding="utf-8")
        g = load_gazetteer(tmp_path)
        assert g.phrases[EntityType.PERSON] == {"o\u2019brien"}  # the file's text is kept
        assert g.phrases[EntityType.LOCATION] == {"north  pole"}
        for chunk in ("o\u2019brien", "O'Brien", "o\u2018brien"):
            assert tag(chunk, g) is EntityType.PERSON, chunk
        for chunk in ("north pole", "North  Pole", "north\tpole"):
            assert tag(chunk, g) is EntityType.LOCATION, chunk

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
    # Distinct rules, as a Gazetteer requires; the phrases are in tag()'s normal form already,
    # so a type's distinct phrases have distinct normal forms.
    rules = draw(st.lists(st.tuples(st.sampled_from(_TYPED), st.sampled_from(_WORDS)), max_size=3, unique=True))
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

    @pytest.mark.parametrize("line", ["Name\tPERSON", "how-long\tDURATION", "2nd\texempt"])
    def test_load_refuses_a_name_off_the_subtask_name_rule(self, tmp_path, line):
        # Subtask names are lowercase ASCII with underscores, so "Name" matched no slot:
        # the name slot silently stayed unfiltered.
        p = tmp_path / "tm.txt"
        p.write_text(f"where\tLOCATION\n{line}\n")
        name = line.split("\t")[0]
        message = f"{p}:2: subtask name {name!r} must be lowercase ASCII with underscores"
        with pytest.raises(NerFilterError, match=f"^{re.escape(message)}$"):
            load_type_map(p)

    def test_type_map_built_in_code_follows_the_subtask_name_rule(self):
        with pytest.raises(NerFilterError, match="subtask name 'Name' must be lowercase ASCII"):
            TypeMap({"Name": frozenset({EntityType.PERSON})})

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

    @given(drawn=st.lists(st.tuples(
        st.sampled_from([NAME, WHERE, WHEN, AGE, OPINION]),
        st.sampled_from(["my uncle", "nursing home", "new york", "34 years old", "last tuesday", "he", "Nursing  Home!"]),
        st.integers(0, 1),
        st.booleans(),
    ), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_per_record_oracle(self, gaz, tmap, drawn):
        # Chunk texts repeat across records, subtasks, decisions and flags.
        records = [
            PredictionRecord(tweet_id=f"t{i}", subtask=subtask, candidate_index=i % 3, chunk_text=chunk,
                             probability=0.25 + i / 100, decision=decision, filtered=flag)
            for i, (subtask, chunk, decision, flag) in enumerate(drawn)
        ]
        want = []
        for r in records:  # tags every positive mapped record on its own
            allowed = tmap.allowed.get(r.subtask.name)
            if r.decision == 1 and allowed is not None and tag(r.chunk_text, gaz) not in allowed:
                want.append(replace(r, decision=0, filtered=True, chunk_text=NOT_SPECIFIED))
            else:
                want.append(replace(r))
        got = filter_predictions(records, tmap, gaz)
        assert got == want
        assert all(type(g) is PredictionRecord and g is not r for g, r in zip(got, records))

    def test_tags_each_distinct_positive_mapped_chunk_once(self, gaz, tmap, monkeypatch):
        calls = []

        def counting_tag(chunk_text, gz):
            calls.append(chunk_text)
            return tag(chunk_text, gz)

        monkeypatch.setattr(nerfilter, "tag", counting_tag)
        records = [
            rec(NAME, "nursing home"), rec(WHERE, "nursing home"), rec(NAME, "my uncle"),
            rec(NAME, "nursing home", tweet="t1"), rec(AGE, "my uncle"),
            rec(NAME, "new york", decision=0), rec(OPINION, "the cdc"), rec(WHEN, "last tuesday", decision=0),
        ]
        filter_predictions(records, tmap, gaz)
        assert sorted(calls) == ["my uncle", "nursing home"]
        calls.clear()
        filter_predictions(records, tmap, gaz)  # nothing is kept between calls
        assert sorted(calls) == ["my uncle", "nursing home"]

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
