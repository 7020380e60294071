"""Tweet normalization, hashed tokenization, and candidate-chunk masking.

Cleaning replaces @-mentions with ``<USER>``, URLs with ``<URL>``, configured
hashtags with ``<COVID_TAG>``, expands emoji to ASCII aliases, and
standardizes punctuation. The tokenizer lowercases, splits on whitespace and
punctuation boundaries, maps the special tokens to reserved ids, and hashes
everything else into the non-reserved id range with FNV-1a, so ids are stable
across processes. Masking wraps one candidate chunk in ``<E>``/``</E>``
markers and truncates context symmetrically so both markers (and the whole
chunk) always survive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .corpus import AnnotatedTweet, SubtaskId, explode_instances, read_utf8

PAD_ID = 0
UNK_ID = 1
E_OPEN_ID = 2
E_CLOSE_ID = 3
USER_ID = 4
URL_ID = 5
COVID_TAG_ID = 6
NUM_RESERVED = 7

E_OPEN = "<E>"
E_CLOSE = "</E>"
USER_TOKEN = "<USER>"
URL_TOKEN = "<URL>"
COVID_TAG_TOKEN = "<COVID_TAG>"

SPECIAL_TOKEN_IDS: dict[str, int] = {
    E_OPEN: E_OPEN_ID,
    E_CLOSE: E_CLOSE_ID,
    USER_TOKEN: USER_ID,
    URL_TOKEN: URL_ID,
    COVID_TAG_TOKEN: COVID_TAG_ID,
}


class PreprocessError(ValueError):
    """Bad preprocessing input or configuration."""


class MaskingError(PreprocessError):
    """A candidate chunk cannot be masked under the length budget."""


def _data_path(name: str):
    return resources.files("tweetslots").joinpath("data", name)


def load_emoji_map(path: str | Path) -> dict[str, str]:
    """Read a TSV of ``codepoint-sequence<TAB>alias`` rows."""
    table: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(read_utf8(path, PreprocessError).splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise PreprocessError(f"{path}:{lineno}: expected 'emoji<TAB>alias'")
        if first_line.setdefault(parts[0], lineno) != lineno:
            raise PreprocessError(f"{path}:{lineno}: emoji {parts[0]!r} listed twice (first on line {first_line[parts[0]]})")
        table[parts[0]] = parts[1]
    return table


def load_covid_tags(path: str | Path) -> frozenset[str]:
    """Read a hashtag list, one tag per line; entries must start with '#'."""
    tags = set()
    for lineno, raw in enumerate(read_utf8(path, PreprocessError).splitlines(), 1):
        tag = raw.strip()
        if not tag or tag.startswith("//"):
            continue
        if not tag.startswith("#"):
            raise PreprocessError(f"{path}:{lineno}: tag {tag!r} must begin with '#'")
        tags.add(tag.lower())
    return frozenset(tags)


def default_emoji_map() -> dict[str, str]:
    with resources.as_file(_data_path("emoji_map.tsv")) as p:
        return load_emoji_map(p)


def default_covid_tags() -> frozenset[str]:
    with resources.as_file(_data_path("covid_tags.txt")) as p:
        return load_covid_tags(p)


@dataclass(frozen=True)
class CleanConfig:
    """Cleaning switches; ``enabled=False`` makes clean() the identity."""

    enabled: bool = True
    emoji_map: Mapping[str, str] = field(default_factory=default_emoji_map)
    covid_tags: frozenset[str] = field(default_factory=default_covid_tags)

    def __post_init__(self):
        for tag in self.covid_tags:
            if not tag.startswith("#"):
                raise PreprocessError(f"covid tag {tag!r} must begin with '#'")
        # Private read-only copies, so the compiled tables cannot go stale.
        object.__setattr__(self, "emoji_map", MappingProxyType(dict(self.emoji_map)))
        object.__setattr__(self, "covid_tags", frozenset(self.covid_tags))

    @cached_property
    def _tables(self) -> tuple[re.Pattern[str] | None, re.Pattern[str] | None]:
        """(emoji matcher, hashtag matcher), compiled once per config."""
        emoji_re = None
        if self.emoji_map:
            alts = sorted(self.emoji_map, key=len, reverse=True)
            emoji_re = re.compile("|".join(re.escape(e) for e in alts))
        tag_re = None
        if self.covid_tags:
            alts = sorted(self.covid_tags, key=len, reverse=True)
            tag_re = re.compile("(?:" + "|".join(re.escape(t) for t in alts) + r")(?!\w)", re.IGNORECASE)
        return emoji_re, tag_re


# Single-pass-complete rules (no lookbehind) keep clean() idempotent.
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_WS_RE = re.compile(r"\s+")

# Curly quotes, dashes, ellipsis, NBSP -> plain ASCII.
_PUNCT_TABLE = {
    ord("“"): '"', ord("”"): '"', ord("„"): '"', ord("″"): '"',
    ord("‘"): "'", ord("’"): "'", ord("‚"): "'", ord("′"): "'",
    ord("–"): "-", ord("—"): "-", ord("―"): "-", ord("−"): "-",
    ord("…"): "...",
    ord(" "): " ",
}


def clean(text: str, cfg: CleanConfig) -> str:
    """Normalize one piece of tweet text; identity when cleaning is disabled.

    Replacement order: URLs, @-mentions, configured hashtags, emoji, then
    punctuation standardization (curly quotes -> ASCII quotes, dash variants
    -> '-', ellipsis -> '...', NBSP -> space) and whitespace collapsing.
    Idempotent: cleaning cleaned text changes nothing.
    """
    if not cfg.enabled:
        return text
    emoji_re, tag_re = cfg._tables
    text = _URL_RE.sub(URL_TOKEN, text)
    text = _MENTION_RE.sub(USER_TOKEN, text)
    if tag_re is not None:
        text = tag_re.sub(COVID_TAG_TOKEN, text)
    if emoji_re is not None:
        emoji_map = cfg.emoji_map
        text = emoji_re.sub(lambda m: emoji_map[m.group(0)], text)
    text = text.translate(_PUNCT_TABLE)
    text = _WS_RE.sub(" ", text).strip()
    return text


@dataclass(frozen=True)
class Vocab:
    """Fixed-size hashed vocabulary with reserved special-token ids."""

    size: int = 4096

    def __post_init__(self):
        if self.size <= NUM_RESERVED:
            raise PreprocessError(f"vocab size must exceed {NUM_RESERVED}, got {self.size}")

    def token_to_id(self, token: str) -> int:
        """Total mapping: specials -> reserved ids, others -> FNV-1a hash.

        The hash is 64-bit FNV-1a over the token's UTF-8 bytes, taken modulo
        (size - NUM_RESERVED) and offset past the reserved range.
        """
        special = SPECIAL_TOKEN_IDS.get(token)
        if special is not None:
            return special
        return NUM_RESERVED + _fnv1a_64(token.encode("utf-8")) % (self.size - NUM_RESERVED)


def _fnv1a_64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# Specials first so "<USER>," splits into [<USER>] [,]; then word runs, then
# single punctuation characters.
_TOKEN_RE = re.compile(r"(</E>|<E>|<USER>|<URL>|<COVID_TAG>)|(\w+)|([^\w\s])")


def tokenize_words(text: str) -> list[str]:
    """Split into special tokens, lowercased word runs, and punctuation."""
    out: list[str] = []
    for special, word, punct in _TOKEN_RE.findall(text):
        if special:
            out.append(special)
        elif word:
            out.append(word.lower())
        else:
            out.append(punct)
    return out


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Token ids for ``text``; see ``Vocab.token_to_id`` for the id scheme."""
    return [vocab.token_to_id(tok) for tok in tokenize_words(text)]


@dataclass(eq=False)
class MaskedInstance:
    """One (tweet, subtask, candidate) classification input.

    ``token_ids`` has length ``max_len`` with PAD fill; ``length`` counts the
    real tokens. ``chunk_text`` keeps the raw (uncleaned) candidate substring.
    """

    token_ids: np.ndarray
    length: int
    marker_pos: int
    subtask: SubtaskId
    label: int
    chunk_text: str
    tweet_id: str
    candidate_index: int

    def close_marker_pos(self) -> int:
        """Index of the matching ``</E>`` token."""
        for i in range(self.marker_pos + 1, self.length):
            if self.token_ids[i] == E_CLOSE_ID:
                return i
        raise PreprocessError(f"instance {self.tweet_id}/{self.candidate_index}: no </E> marker")


def mask_candidate(
    tweet: AnnotatedTweet,
    candidate_index: int,
    subtask: SubtaskId,
    label: int,
    vocab: Vocab,
    cfg: CleanConfig,
    max_len: int = 96,
) -> MaskedInstance:
    """Build the marker-wrapped token sequence for one candidate chunk.

    The tweet is split at the candidate span; prefix, chunk, and suffix are
    cleaned and tokenized separately, then joined as
    ``prefix ++ <E> ++ chunk ++ </E> ++ suffix``. When that exceeds
    ``max_len``, context tokens are dropped symmetrically around the marker
    region; the markers and every chunk token always survive. A chunk whose
    own tokens plus the two markers exceed ``max_len`` cannot be represented
    and raises MaskingError.
    """
    if not (0 <= candidate_index < len(tweet.candidates)):
        raise MaskingError(
            f"tweet {tweet.id!r}: candidate index {candidate_index} out of range "
            f"({len(tweet.candidates)} candidates)"
        )
    start, end = tweet.candidates[candidate_index]
    if not (0 <= start < end <= len(tweet.text)):
        raise MaskingError(f"tweet {tweet.id!r}: candidate span ({start}, {end}) out of bounds")
    chunk_text = tweet.text[start:end]
    prefix_ids = tokenize(clean(tweet.text[:start], cfg), vocab)
    chunk_ids = tokenize(clean(chunk_text, cfg), vocab)
    suffix_ids = tokenize(clean(tweet.text[end:], cfg), vocab)

    region = len(chunk_ids) + 2
    if region > max_len:
        raise MaskingError(
            f"tweet {tweet.id!r}: candidate {candidate_index} spans {len(chunk_ids)} tokens; "
            f"markers + chunk exceed max_len={max_len}"
        )
    budget = max_len - region
    left = min(len(prefix_ids), (budget + 1) // 2)
    right = min(len(suffix_ids), budget - left)
    left = min(len(prefix_ids), budget - right)

    kept = prefix_ids[len(prefix_ids) - left:] + [E_OPEN_ID] + chunk_ids + [E_CLOSE_ID] + suffix_ids[:right]
    length = len(kept)
    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    token_ids[:length] = kept
    return MaskedInstance(
        token_ids=token_ids,
        length=length,
        marker_pos=left,
        subtask=subtask,
        label=int(label),
        chunk_text=chunk_text,
        tweet_id=tweet.id,
        candidate_index=candidate_index,
    )


def mask_corpus(
    tweets: Sequence[AnnotatedTweet],
    vocab: Vocab,
    cfg: CleanConfig,
    max_len: int = 96,
    registry=None,
) -> list[MaskedInstance]:
    """Explode a corpus into masked instances (one per exploded triple).

    The masked sequence depends only on (tweet, candidate), so each candidate
    is cleaned, tokenized and masked once; its instances for the event's
    subtasks differ only in ``subtask`` and ``label`` and share one
    ``token_ids`` array.
    """
    by_id: dict[str, AnnotatedTweet] = {}
    for tweet in tweets:
        if tweet.id in by_id:
            raise PreprocessError(f"repeated tweet id {tweet.id!r}")
        by_id[tweet.id] = tweet
    units: dict[tuple[str, int], MaskedInstance] = {}
    out = []
    for tweet_id, subtask, cand_idx, label in explode_instances(tweets, registry):
        key = (tweet_id, cand_idx)
        if key not in units:
            units[key] = mask_candidate(by_id[tweet_id], cand_idx, subtask, label, vocab, cfg, max_len)
        out.append(replace(units[key], subtask=subtask, label=int(label)))
    return out
