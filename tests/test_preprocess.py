"""Cleaning, tokenization, hashed vocabulary, and masking tests."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.corpus import AnnotatedTweet, EventType, SubtaskId
from tweetslots.preprocess import (
    COVID_TAG_ID,
    COVID_TAG_TOKEN,
    E_CLOSE_ID,
    E_OPEN_ID,
    NUM_RESERVED,
    PAD_ID,
    SPECIAL_TOKEN_IDS,
    URL_ID,
    URL_TOKEN,
    USER_ID,
    USER_TOKEN,
    _PUNCT_TABLE,
    CleanConfig,
    MaskingError,
    PreprocessError,
    Vocab,
    clean,
    default_covid_tags,
    default_emoji_map,
    load_covid_tags,
    load_emoji_map,
    mask_candidate,
    mask_corpus,
    tokenize,
    tokenize_words,
)

SID = SubtaskId(EventType.DEATH, "name")


def reference_clean(text: str, cfg: CleanConfig) -> str:
    """``clean`` as it was before any pass skipped text: every pass runs on every piece."""
    if not cfg.enabled:
        return text
    text = re.sub(r"(?:https?://|www\.)\S+", URL_TOKEN, text)
    text = re.sub(r"@\w+", USER_TOKEN, text)
    if cfg.covid_tags:
        alts = sorted(cfg.covid_tags, key=len, reverse=True)
        tag_re = re.compile("(?:" + "|".join(re.escape(t) for t in alts) + r")(?!\w)", re.IGNORECASE)
        text = tag_re.sub(COVID_TAG_TOKEN, text)
    if cfg.emoji_map:
        alts = sorted(cfg.emoji_map, key=len, reverse=True)
        emoji_re = re.compile("|".join(re.escape(e) for e in alts))
        text = emoji_re.sub(lambda m: cfg.emoji_map[m.group(0)], text)
    text = text.translate(_PUNCT_TABLE)
    return re.sub(r"\s+", " ", text).strip()


def fnv1a_64_reference(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_EMOJI = sorted({e[:n] for e in default_emoji_map() for n in range(1, len(e) + 1)})
_TAGS = sorted({v for t in default_covid_tags() for v in (t, t.upper(), t.title(), t + "s", t + "_")})
# Every piece the cleaning passes act on, and pieces next to which they must not act.
_PIECES = (
    _SPACES + _EMOJI + _TAGS + [chr(c) for c in _PUNCT_TABLE]
    + ["https://t.co/x", "www.a.b", "http:/", "@user", "@", "#", "a", "Z", "1", "_", ".", ":", "<", ">"]
)


def clean_texts(extra=()):
    """Text drawn from ``_PIECES`` and ``extra``, glued together or mixed with arbitrary characters."""
    return st.lists(st.sampled_from(_PIECES + list(extra)) | st.text(max_size=3), max_size=24).map("".join)


# Keys from a small alphabet share prefixes; it holds ASCII, control, regex-special and astral characters.
# CleanConfig refuses a key or alias with outer blanks, so blanks are drawn only inside one.
_KEY_CHARS = "\x00\t :)(-]^\\a#\u231b\U0001f637\U0001f3fb"


def _trimmed(text: str) -> bool:
    return text == text.strip()


emoji_maps = st.dictionaries(st.text(_KEY_CHARS, min_size=1, max_size=3).filter(_trimmed),
                             st.text(min_size=1, max_size=4).filter(_trimmed), max_size=8)
tag_sets = st.frozensets(st.text("aBc1_\u00e9", max_size=4).map(lambda t: "#" + t), max_size=4)


@pytest.fixture(scope="module")
def cfg() -> CleanConfig:
    return CleanConfig()


class TestClean:
    def test_url_replaced(self, cfg):
        assert clean("see https://t.co/abc now", cfg) == f"see {URL_TOKEN} now"
        assert clean("go to www.example.com/page", cfg) == f"go to {URL_TOKEN}"

    def test_mention_replaced(self, cfg):
        assert clean("thanks @dr_smith !", cfg) == f"thanks {USER_TOKEN} !"

    def test_covid_tag_replaced(self, cfg):
        assert clean("stay safe #covid19", cfg) == f"stay safe {COVID_TAG_TOKEN}"
        assert clean("STAY SAFE #COVID19", cfg) == f"STAY SAFE {COVID_TAG_TOKEN}"

    def test_unlisted_hashtag_kept(self, cfg):
        assert clean("watch #fridaynight", cfg) == "watch #fridaynight"

    def test_tag_boundary_not_prefix(self, cfg):
        # '#covid' is configured; '#covidiots' must not half-match it.
        out = clean("those #covidiots again", cfg)
        assert COVID_TAG_TOKEN not in out

    def test_emoji_expanded(self, cfg):
        out = clean("feeling sick \U0001f637", cfg)
        assert "\U0001f637" not in out
        assert ":" in out

    def test_punctuation_standardized(self, cfg):
        assert clean("“fine” – he said…", cfg) == '"fine" - he said...'

    def test_whitespace_collapsed(self, cfg):
        assert clean("  a \t b \n c  ", cfg) == "a b c"

    def test_disabled_is_identity(self):
        off = CleanConfig(enabled=False)
        raw = "check https://x.y  @user “quoted” #covid19"
        assert clean(raw, off) == raw

    def test_caller_mutation_after_construction_ignored(self):
        emoji = {"\U0001f637": ":mask:"}
        tags = {"#covid19"}
        c = CleanConfig(emoji_map=emoji, covid_tags=tags)
        text = "sick \U0001f637 \U0001f912 #covid19 #flu"
        before = clean(text, c)
        emoji["\U0001f912"] = ":fever:"
        emoji["\U0001f637"] = ":other:"
        tags.add("#flu")
        assert clean(text, c) == before == f"sick :mask: \U0001f912 {COVID_TAG_TOKEN} #flu"

    def test_idempotent_on_fixed_samples(self, cfg):
        samples = [
            "RT @user: tested positive!! https://t.co/xyz #covid19 \U0001f637",
            "my ‘uncle’ — 62 — is in the ICU…",
            "no specials here",
            "",
        ]
        for s in samples:
            once = clean(s, cfg)
            assert clean(once, cfg) == once

    @pytest.mark.parametrize("emoji, alias, named", [("", ":x:", "''"), ("\U0001f637", "", "'\U0001f637'")],
                             ids=["empty-emoji", "empty-alias"])
    def test_empty_emoji_or_alias_refused(self, emoji, alias, named):
        # As in load_emoji_map. An empty key matched between every two characters: "ab" -> ":x:a:x:b:x:".
        with pytest.raises(PreprocessError, match=f"^emoji {re.escape(named)}: "):
            CleanConfig(emoji_map={"\U0001f912": ":ill:", emoji: alias})

    @pytest.mark.parametrize(
        "emoji, alias, message",
        [
            ("\U0001f637 ", ":mask:", "emoji '\U0001f637 ': emoji is not trimmed"),
            ("\t\U0001f637", ":mask:", "emoji '\\t\U0001f637': emoji is not trimmed"),
            ("\U0001f637", ":mask: ", "emoji '\U0001f637': alias is not trimmed"),
        ],
        ids=["emoji-trailing-blank", "emoji-leading-tab", "alias-trailing-blank"],
    )
    def test_untrimmed_emoji_or_alias_refused(self, emoji, alias, message):
        # As load_emoji_map strips each field: a key "\U0001f637 " ate the blank after the emoji.
        with pytest.raises(PreprocessError, match=f"^{re.escape(message)}$"):
            CleanConfig(emoji_map={"\U0001f912": ":ill:", emoji: alias})

    @given(clean_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_with_default_tables(self, text):
        assert clean(text, CleanConfig()) == reference_clean(text, CleanConfig())

    @given(data=st.data(), emoji_map=emoji_maps, tags=tag_sets)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_with_generated_tables(self, data, emoji_map, tags):
        c = CleanConfig(emoji_map=emoji_map, covid_tags=tags)
        text = data.draw(clean_texts(list(emoji_map) + [t.upper() for t in tags]))
        assert clean(text, c) == reference_clean(text, c)

    def test_punct_keys_are_non_ascii(self):
        # clean() skips the punctuation pass on ASCII text.
        assert min(_PUNCT_TABLE) > 0x7F

    def test_split_and_regex_agree_on_whitespace(self):
        # clean() collapses whitespace with str.split, which must remove exactly what \s matches.
        every = "".join(map(chr, range(0x110000)))
        assert "".join(every.split()) == re.sub(r"\s", "", every)

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_property(self, text):
        c = CleanConfig()
        once = clean(text, c)
        assert clean(once, c) == once


class TestTokenize:
    def test_specials_survive_tokenization(self):
        words = tokenize_words(f"a {USER_TOKEN}, b {URL_TOKEN} {COVID_TAG_TOKEN}")
        assert words == ["a", USER_TOKEN, ",", "b", URL_TOKEN, COVID_TAG_TOKEN]

    def test_lowercases_words(self):
        assert tokenize_words("Tested POSITIVE") == ["tested", "positive"]

    def test_splits_punctuation(self):
        assert tokenize_words("sick,sad!") == ["sick", ",", "sad", "!"]

    def test_marker_tokens(self):
        # Only masking writes marker ids; marker text is the punctuation and word it is made of.
        assert tokenize_words("<E>x</E>") == ["<", "e", ">", "x", "<", "/", "e", ">"]
        assert tokenize_words("a <E> b </E> c") == ["a", "<", "e", ">", "b", "<", "/", "e", ">", "c"]

    def test_special_ids(self):
        assert SPECIAL_TOKEN_IDS == {USER_TOKEN: USER_ID, URL_TOKEN: URL_ID, COVID_TAG_TOKEN: COVID_TAG_ID}
        v = Vocab(64)
        ids = tokenize(f"{USER_TOKEN} {URL_TOKEN} {COVID_TAG_TOKEN} <E> </E>", v)
        assert ids[:3] == [USER_ID, URL_ID, COVID_TAG_ID]
        assert ids[3:] == [v.token_to_id(t) for t in ("<", "e", ">", "<", "/", "e", ">")]
        assert all(i >= NUM_RESERVED for i in ids[3:])


class TestVocab:
    def test_range(self):
        v = Vocab(100)
        for tok in ("hello", "x", "123", "été"):
            assert NUM_RESERVED <= v.token_to_id(tok) < 100

    def test_deterministic_across_instances(self):
        assert Vocab(4096).token_to_id("cough") == Vocab(4096).token_to_id("cough")

    def test_fnv1a_reference_vectors(self):
        # Published FNV-1a 64-bit values: fnv("") = offset basis,
        # fnv("a") = 0xaf63dc4c8601ec8c.
        fnv = fnv1a_64_reference
        assert fnv(b"") == 0xCBF29CE484222325
        assert fnv(b"a") == 0xAF63DC4C8601EC8C
        size = 1 << 20
        v = Vocab(size)
        for tok in ("a", "covid", "hospital"):
            want = NUM_RESERVED + fnv(tok.encode()) % (size - NUM_RESERVED)
            assert v.token_to_id(tok) == want

    @given(st.lists(st.text(max_size=6), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_cached_ids_match_uncached_hash(self, tokens):
        # Hashes are memoised; a repeated token must get the id the plain hash gives.
        for size in (64, 1 << 20):
            v = Vocab(size)
            for tok in tokens + tokens:
                want = NUM_RESERVED + fnv1a_64_reference(tok.encode("utf-8")) % (size - NUM_RESERVED)
                assert v.token_to_id(tok) == SPECIAL_TOKEN_IDS.get(tok, want)

    def test_too_small_rejected(self):
        with pytest.raises(PreprocessError):
            Vocab(NUM_RESERVED)


class TestDataFiles:
    def test_emoji_map_loads(self, cfg):
        assert len(cfg.emoji_map) > 100
        for emoji, alias in cfg.emoji_map.items():
            assert alias.startswith(":") and alias.endswith(":")

    def test_covid_tags_load(self, cfg):
        assert len(cfg.covid_tags) > 10
        assert all(t.startswith("#") for t in cfg.covid_tags)
        assert "#covid19" in cfg.covid_tags

    def test_emoji_loader_rejects_bad_rows(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("justonecolumn\n")
        with pytest.raises(PreprocessError):
            load_emoji_map(p)

    def test_emoji_loader_refuses_a_repeated_emoji(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("\U0001f637\t:mask:\n\U0001f912\t:ill:\n\U0001f637\t:face_with_mask:\n", encoding="utf-8")
        with pytest.raises(PreprocessError, match=f"{p}:3: emoji '\U0001f637' listed twice \\(first on line 1\\)"):
            load_emoji_map(p)

    def test_emoji_loader_drops_outer_blanks_and_indented_comments(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("  # note\n \U0001f637\t:mask: \n", encoding="utf-8")
        assert load_emoji_map(p) == {"\U0001f637": ":mask:"}

    def test_emoji_loader_strips_each_field(self, tmp_path):
        # A blank before the tab made the key "\U0001f637 ", which ate the blank after the emoji.
        p = tmp_path / "e.tsv"
        p.write_text("\U0001f637 \t:mask:\n\U0001f912\t  :ill:\n", encoding="utf-8")
        emoji_map = load_emoji_map(p)
        assert emoji_map == {"\U0001f637": ":mask:", "\U0001f912": ":ill:"}
        cfg = CleanConfig(emoji_map=emoji_map)
        assert clean("sick \U0001f637 now", cfg) == "sick :mask: now"
        assert clean("sick \U0001f637!", cfg) == "sick :mask:!"

    @pytest.mark.parametrize("second", ["#covid19", "#COVID19", "  #Covid19 "])
    def test_tag_loader_refuses_a_tag_repeated_after_lower_casing(self, tmp_path, second):
        p = tmp_path / "t.txt"
        p.write_text(f"#COVID19\n// {second}\n#staysafe\n{second}\n")
        with pytest.raises(PreprocessError, match=re.escape(f"{p}:4: tag '#covid19' listed twice (first on line 1)")):
            load_covid_tags(p)

    def test_tag_loader_rejects_missing_hash(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("covid19\n")
        with pytest.raises(PreprocessError):
            load_covid_tags(p)


def make_tweet(text: str, spans) -> AnnotatedTweet:
    return AnnotatedTweet(
        id="t0", text=text, event=EventType.DEATH, candidates=tuple(spans), gold={}
    )


class TestMasking:
    def test_basic_layout(self, cfg):
        v = Vocab(256)
        tw = make_tweet("my uncle died today", [(3, 8)])
        inst = mask_candidate(tw, 0, SID, 1, v, cfg, max_len=16)
        ids = inst.token_ids
        assert ids[inst.marker_pos] == E_OPEN_ID
        close = inst.close_marker_pos()
        assert ids[close] == E_CLOSE_ID
        assert list(ids[inst.marker_pos + 1:close]) == tokenize("uncle", v)
        assert inst.chunk_text == "uncle"
        # my <E> uncle </E> died today
        assert inst.length == 6
        assert list(ids[inst.length:]) == [PAD_ID] * (16 - inst.length)

    def test_chunk_text_is_raw_substring(self, cfg):
        tw = make_tweet("RIP “Uncle Joe” sadly", [(4, 15)])
        inst = mask_candidate(tw, 0, SID, 1, Vocab(256), cfg, max_len=32)
        assert inst.chunk_text == "“Uncle Joe”"

    def test_round_trip_equals_clean_tokenize(self, cfg):
        v = Vocab(512)
        tw = make_tweet("sad news: @user says Aunt May \U0001f637 passed https://t.co/x", [(21, 29)])
        inst = mask_candidate(tw, 0, SID, 1, v, cfg, max_len=64)
        close = inst.close_marker_pos()
        between = list(inst.token_ids[inst.marker_pos + 1:close])
        assert between == tokenize(clean(tw.text[21:29], cfg), v)

    def test_truncation_keeps_chunk_and_markers(self, cfg):
        v = Vocab(512)
        long_prefix = "word " * 50
        long_suffix = " tail" * 50
        text = long_prefix + "TARGET" + long_suffix
        start = len(long_prefix)
        tw = make_tweet(text, [(start, start + 6)])
        inst = mask_candidate(tw, 0, SID, 1, v, cfg, max_len=12)
        assert inst.length == 12
        close = inst.close_marker_pos()
        assert list(inst.token_ids[inst.marker_pos + 1:close]) == tokenize("target", v)

    def test_truncation_symmetric_budget(self, cfg):
        # 1-token chunk, max_len=7 -> budget 4: two context tokens per side.
        v = Vocab(512)
        text = "a b c d X e f g h"
        tw = make_tweet(text, [(8, 9)])
        inst = mask_candidate(tw, 0, SID, 0, v, cfg, max_len=7)
        got = [int(t) for t in inst.token_ids[:inst.length]]
        want = tokenize("c d", v) + [E_OPEN_ID] + tokenize("x", v) + [E_CLOSE_ID] + tokenize("e f", v)
        assert got == want

    def test_budget_flows_to_other_side(self, cfg):
        # Prefix empty: the whole context budget goes to the suffix.
        v = Vocab(512)
        text = "X a b c d e f g h"
        tw = make_tweet(text, [(0, 1)])
        inst = mask_candidate(tw, 0, SID, 0, v, cfg, max_len=7)
        got = [int(t) for t in inst.token_ids[:inst.length]]
        want = [E_OPEN_ID] + tokenize("x", v) + [E_CLOSE_ID] + tokenize("a b c d", v)
        assert got == want
        assert inst.marker_pos == 0

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_masking_is_the_only_marker_writer(self, cfg, data):
        # Marker text in a tweet is ordinary text: the row holds one <E> id, at marker_pos, one
        # </E> id after it, and between them exactly the cleaned, tokenized chunk.
        pieces = ["<E>", "</E>", "<e>", "</e>", "<E", "/E>", "<USER>", "<URL>", "<COVID_TAG>", "@user",
                  "#covid19", "https://t.co/x", "\U0001f637", "\u2615", "alpha", "B", ",", " ", "<", ">", "/"]
        text = "".join(data.draw(st.lists(st.sampled_from(pieces) | st.text(min_size=1, max_size=2), min_size=1, max_size=12)))
        start = data.draw(st.integers(0, len(text) - 1))
        end = data.draw(st.integers(start + 1, len(text)))
        max_len = data.draw(st.integers(2, 48))
        v = Vocab(64)
        chunk_ids = tokenize(clean(text[start:end], cfg), v)
        try:
            inst = mask_candidate(make_tweet(text, [(start, end)]), 0, SID, 1, v, cfg, max_len)
        except MaskingError:
            assert len(chunk_ids) + 2 > max_len
            return
        row = inst.token_ids[:inst.length].tolist()
        assert row.count(E_OPEN_ID) == 1 and row[inst.marker_pos] == E_OPEN_ID
        assert row.count(E_CLOSE_ID) == 1 and row.index(E_CLOSE_ID) > inst.marker_pos
        assert row[inst.marker_pos + 1:row.index(E_CLOSE_ID)] == chunk_ids
        assert inst.close_marker_pos() == row.index(E_CLOSE_ID)

    def test_oversized_chunk_rejected(self, cfg):
        v = Vocab(512)
        text = "w " * 40
        tw = make_tweet(text, [(0, len(text) - 1)])
        with pytest.raises(MaskingError):
            mask_candidate(tw, 0, SID, 0, v, cfg, max_len=16)

    def test_bad_candidate_index(self, cfg):
        tw = make_tweet("some text", [(0, 4)])
        with pytest.raises(MaskingError):
            mask_candidate(tw, 3, SID, 0, Vocab(64), cfg)

    def test_mask_corpus_order_matches_explode(self, cfg):
        from tweetslots.corpus import explode_instances

        tweets = [
            AnnotatedTweet(
                id=f"t{i}", text="alpha beta gamma", event=EventType.CURE_AND_PREVENTION,
                candidates=((0, 5), (6, 10)), gold={"opinion": frozenset({0})},
            )
            for i in range(3)
        ]
        insts = mask_corpus(tweets, Vocab(128), cfg, max_len=16)
        rows = explode_instances(tweets)
        assert [(m.tweet_id, m.subtask, m.candidate_index, m.label) for m in insts] == rows

    def test_mask_corpus_rejects_repeated_tweet_id(self, cfg):
        tweets = [
            AnnotatedTweet(id="a", text=text, event=EventType.CURE_AND_PREVENTION,
                           candidates=((0, 5),), gold={})
            for text in ("alpha beta", "gamma delta")
        ]
        with pytest.raises(PreprocessError, match="repeated tweet id 'a'"):
            mask_corpus(tweets, Vocab(128), cfg, max_len=16)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mask_corpus_matches_per_triple_oracle(self, data):
        from tweetslots import preprocess
        from tweetslots.corpus import SubtaskRegistry, explode_instances

        registry = SubtaskRegistry.default()
        words = ["alpha", "Beta", "@user", "#covid19", "\U0001f637", "“q”", "62", "https://t.co/x"]
        tweets = []
        for i in range(data.draw(st.integers(1, 3))):
            toks = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=8))
            starts = [sum(len(t) + 1 for t in toks[:k]) for k in range(len(toks))]
            spans = []
            for _ in range(data.draw(st.integers(1, 3))):
                a = data.draw(st.integers(0, len(toks) - 1))
                b = data.draw(st.integers(a, len(toks) - 1))
                spans.append((starts[a], starts[b] + len(toks[b])))
            event = data.draw(st.sampled_from(list(EventType)))
            names = registry.names_for(event)
            gold = {n: frozenset(data.draw(st.sets(st.integers(0, len(spans) - 1)))) for n in names[:2]}
            tweets.append(AnnotatedTweet(id=f"t{i}", text=" ".join(toks), event=event,
                                         candidates=tuple(spans), gold=gold))
        max_len = data.draw(st.integers(6, 24))
        v, c = Vocab(512), CleanConfig()
        by_id = {t.id: t for t in tweets}
        try:
            want = [mask_candidate(by_id[tid], k, sub, lab, v, c, max_len)
                    for tid, sub, k, lab in explode_instances(tweets, registry)]
        except MaskingError:
            with pytest.raises(MaskingError):
                mask_corpus(tweets, v, c, max_len, registry)
            return
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(preprocess, "clean", lambda text, cfg: calls.append(text) or clean(text, cfg))
            got = mask_corpus(tweets, v, c, max_len, registry)
        assert len(calls) == 3 * sum(len(t.candidates) for t in tweets)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.tweet_id, g.candidate_index, g.subtask, g.label, g.chunk_text) == (
                w.tweet_id, w.candidate_index, w.subtask, w.label, w.chunk_text)
            assert (g.length, g.marker_pos) == (w.length, w.marker_pos)
            assert np.array_equal(g.token_ids, w.token_ids)

    @given(
        n_pre=st.integers(0, 30), n_chunk=st.integers(1, 6), n_suf=st.integers(0, 30),
        max_len=st.integers(8, 48),
    )
    @settings(max_examples=120, deadline=None)
    def test_round_trip_property(self, n_pre, n_chunk, n_suf, max_len):
        v = Vocab(512)
        c = CleanConfig()
        pre = " ".join(f"p{i}" for i in range(n_pre))
        chunk = " ".join(f"c{i}" for i in range(n_chunk))
        suf = " ".join(f"s{i}" for i in range(n_suf))
        text = (pre + " " if pre else "") + chunk + (" " + suf if suf else "")
        start = len(pre) + 1 if pre else 0
        tw = make_tweet(text, [(start, start + len(chunk))])
        if n_chunk + 2 > max_len:
            with pytest.raises(MaskingError):
                mask_candidate(tw, 0, SID, 0, v, c, max_len=max_len)
            return
        inst = mask_candidate(tw, 0, SID, 0, v, c, max_len=max_len)
        assert inst.length <= max_len
        close = inst.close_marker_pos()
        assert list(inst.token_ids[inst.marker_pos + 1:close]) == tokenize(clean(chunk, c), v)
        # PAD tail only.
        assert all(t == PAD_ID for t in inst.token_ids[inst.length:])
        assert all(t != PAD_ID for t in inst.token_ids[:inst.length])
