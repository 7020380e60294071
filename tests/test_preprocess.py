"""Cleaning, tokenization, hashed vocabulary, and masking tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.corpus import AnnotatedTweet, EventType, SubtaskId
from tweetslots.preprocess import (
    COVID_TAG_ID,
    COVID_TAG_TOKEN,
    E_CLOSE,
    E_CLOSE_ID,
    E_OPEN,
    E_OPEN_ID,
    NUM_RESERVED,
    PAD_ID,
    URL_ID,
    URL_TOKEN,
    USER_ID,
    USER_TOKEN,
    CleanConfig,
    MaskingError,
    PreprocessError,
    Vocab,
    clean,
    load_covid_tags,
    load_emoji_map,
    mask_candidate,
    mask_corpus,
    tokenize,
    tokenize_words,
)

SID = SubtaskId(EventType.DEATH, "name")


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
        assert tokenize_words(f"{E_OPEN}x{E_CLOSE}") == [E_OPEN, "x", E_CLOSE]

    def test_special_ids(self):
        v = Vocab(64)
        ids = tokenize(f"{E_OPEN} {E_CLOSE} {USER_TOKEN} {URL_TOKEN} {COVID_TAG_TOKEN}", v)
        assert ids == [E_OPEN_ID, E_CLOSE_ID, USER_ID, URL_ID, COVID_TAG_ID]


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
        def fnv(data: bytes) -> int:
            h = 0xCBF29CE484222325
            for b in data:
                h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            return h

        assert fnv(b"") == 0xCBF29CE484222325
        assert fnv(b"a") == 0xAF63DC4C8601EC8C
        size = 1 << 20
        v = Vocab(size)
        for tok in ("a", "covid", "hospital"):
            want = NUM_RESERVED + fnv(tok.encode()) % (size - NUM_RESERVED)
            assert v.token_to_id(tok) == want

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
        want = tokenize(f"c d {E_OPEN} x {E_CLOSE} e f", v)
        assert got == want

    def test_budget_flows_to_other_side(self, cfg):
        # Prefix empty: the whole context budget goes to the suffix.
        v = Vocab(512)
        text = "X a b c d e f g h"
        tw = make_tweet(text, [(0, 1)])
        inst = mask_candidate(tw, 0, SID, 0, v, cfg, max_len=7)
        got = [int(t) for t in inst.token_ids[:inst.length]]
        want = tokenize(f"{E_OPEN} x {E_CLOSE} a b c d", v)
        assert got == want
        assert inst.marker_pos == 0

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
