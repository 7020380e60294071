"""Tweet normalization, hashed tokenization, and candidate-chunk masking.

Cleaning replaces @-mentions with ``<USER>``, URLs with ``<URL>``, configured
hashtags with ``<COVID_TAG>``, expands emoji to ASCII aliases, and
standardizes punctuation. The tokenizer lowercases, splits on whitespace and
punctuation boundaries, maps those three placeholders to reserved ids, and
hashes everything else into the non-reserved id range with FNV-1a, so ids are
stable across processes. Masking wraps one candidate chunk in the ``<E>`` and
``</E>`` marker ids and truncates context symmetrically so both markers (and
the whole chunk) always survive. Masking is the only writer of marker ids:
marker text in a tweet, such as ``</E>``, tokenizes as the punctuation and
word it is made of.

A corpus is masked into an ``InstanceTable``: one input per (tweet, candidate) unit, one (unit,
subtask, label) row per triple. ``as_table`` is the one place a list of triples is grouped into units.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .corpus import AnnotatedTweet, DataError, SubtaskId, explode_instances, read_utf8, table_lines

PAD_ID = 0
UNK_ID = 1
E_OPEN_ID = 2
E_CLOSE_ID = 3
USER_ID = 4
URL_ID = 5
COVID_TAG_ID = 6
NUM_RESERVED = 7

USER_TOKEN = "<USER>"
URL_TOKEN = "<URL>"
COVID_TAG_TOKEN = "<COVID_TAG>"

# The placeholders cleaning writes; the marker ids come only from ``mask_candidate``.
SPECIAL_TOKEN_IDS: dict[str, int] = {
    USER_TOKEN: USER_ID,
    URL_TOKEN: URL_ID,
    COVID_TAG_TOKEN: COVID_TAG_ID,
}


class PreprocessError(DataError):
    """Bad preprocessing input or configuration."""


class MaskingError(PreprocessError):
    """A candidate chunk cannot be masked under the length budget."""


def _data_path(name: str):
    return resources.files("tweetslots").joinpath("data", name)


def load_emoji_map(path: str | Path) -> dict[str, str]:
    """Read a TSV of ``codepoint-sequence<TAB>alias`` rows; each field is stripped."""
    table: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in table_lines(read_utf8(path, PreprocessError)):
        parts = [part.strip() for part in line.split("\t")]
        if len(parts) != 2:  # a stripped line neither begins nor ends with its tab, so no field is empty
            raise PreprocessError(f"{path}:{lineno}: expected 'emoji<TAB>alias'")
        if first_line.setdefault(parts[0], lineno) != lineno:
            raise PreprocessError(f"{path}:{lineno}: emoji {parts[0]!r} listed twice (first on line {first_line[parts[0]]})")
        table[parts[0]] = parts[1]
    return table


def load_covid_tags(path: str | Path) -> frozenset[str]:
    """Read a hashtag list, one tag per line; entries must start with '#', so
    '//' begins a comment. A tag that repeats after lower-casing is refused."""
    first_line: dict[str, int] = {}
    for lineno, tag in table_lines(read_utf8(path, PreprocessError), comment="//"):
        if not tag.startswith("#"):
            raise PreprocessError(f"{path}:{lineno}: tag {tag!r} must begin with '#'")
        tag = tag.lower()
        if first_line.setdefault(tag, lineno) != lineno:
            raise PreprocessError(f"{path}:{lineno}: tag {tag!r} listed twice (first on line {first_line[tag]})")
    return frozenset(first_line)


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
        # What load_emoji_map never yields from a file: an empty key would match between every
        # two characters, the emoji matcher reads each key's first character, and a key or
        # alias with outer blanks would eat or add the blanks around the emoji.
        for emoji, alias in self.emoji_map.items():
            for what, text in (("emoji", emoji), ("alias", alias)):
                if not text or text != text.strip():
                    raise PreprocessError(f"emoji {emoji!r}: {what} is {'not trimmed' if text else 'empty'}")
        # Private read-only copies, so the compiled tables cannot go stale.
        object.__setattr__(self, "emoji_map", MappingProxyType(dict(self.emoji_map)))
        object.__setattr__(self, "covid_tags", frozenset(self.covid_tags))

    @cached_property
    def _tables(self) -> tuple[re.Pattern[str] | None, re.Pattern[str] | None]:
        """(emoji matcher, hashtag matcher), compiled once per config."""
        emoji_re = None
        if self.emoji_map:
            alts = sorted(self.emoji_map, key=len, reverse=True)
            # sre tries the alternation's first characters one by one at every position; the
            # lookahead lets it enter the alternation only where some key's first character can be.
            lowest = min(ord(e[0]) for e in alts)
            keys = "|".join(re.escape(e) for e in alts)
            emoji_re = re.compile(f"(?=[\\U{lowest:08x}-\\U0010ffff])(?:{keys})")
        tag_re = None
        if self.covid_tags:
            alts = sorted(self.covid_tags, key=len, reverse=True)
            tag_re = re.compile("(?:" + "|".join(re.escape(t) for t in alts) + r")(?!\w)", re.IGNORECASE)
        return emoji_re, tag_re


# Single-pass-complete rules (no lookbehind) keep clean() idempotent.
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")

# Curly quotes, dashes, ellipsis, NBSP -> plain ASCII. Every key is non-ASCII, which clean() relies on.
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

    Each pass skips only text it cannot change. The hashtag pass runs only on
    text holding a '#', since every configured tag begins with one. The emoji
    matcher enters its alternation only at a character no lower than the
    lowest first character of any key, so every key must be non-empty. The
    punctuation pass skips ASCII text, since every ``_PUNCT_TABLE`` key is
    non-ASCII. ``str.split()`` splits at exactly the characters the regex
    class ``\\s`` matches (those ``str.isspace`` accepts), so joining its parts
    collapses the same whitespace runs a ``\\s+`` substitution would.
    """
    if not cfg.enabled:
        return text
    emoji_re, tag_re = cfg._tables
    text = _URL_RE.sub(URL_TOKEN, text)
    text = _MENTION_RE.sub(USER_TOKEN, text)
    if tag_re is not None and "#" in text:
        text = tag_re.sub(COVID_TAG_TOKEN, text)
    if emoji_re is not None:
        emoji_map = cfg.emoji_map
        text = emoji_re.sub(lambda m: emoji_map[m.group(0)], text)
    if not text.isascii():
        text = text.translate(_PUNCT_TABLE)
    return " ".join(text.split())


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


@lru_cache(maxsize=1 << 16)  # a corpus repeats few distinct tokens many times
def _fnv1a_64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# Specials first so "<USER>," splits into [<USER>] [,]; then word runs, then
# single punctuation characters.
_TOKEN_RE = re.compile("(" + "|".join(map(re.escape, SPECIAL_TOKEN_IDS)) + r")|(\w+)|([^\w\s])")


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
        """Index of the ``</E>`` token, which masking writes after ``marker_pos``."""
        return self.token_ids[:self.length].tolist().index(E_CLOSE_ID, self.marker_pos + 1)


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


@dataclass(frozen=True, eq=False)
class InstanceTable(Sequence):
    """Triples over units. Unit u, the masked input of one (tweet, candidate), is row u of the
    unit arrays; triple k reads unit ``unit[k]``, subtask ``subtask_ids[subtask[k]]`` (sorted, as
    head rows are) and label ``label[k]``. Item k is a ``MaskedInstance`` view; a unit's views share one token array."""

    token_ids: np.ndarray  # (U, max_len), PAD fill
    lengths: np.ndarray
    marker_pos: np.ndarray
    tweet_ids: list[str]
    candidate_indexes: list[int]
    chunk_texts: list[str]
    unit: np.ndarray  # (N,)
    subtask: np.ndarray
    label: np.ndarray
    subtask_ids: tuple[SubtaskId, ...]

    @classmethod
    def build(cls, units: Mapping[object, MaskedInstance], triples: Sequence[tuple]) -> InstanceTable:
        """The table of ``units`` (key -> one instance of the unit) and (unit key, subtask, label) triples."""
        index = {key: u for u, key in enumerate(units)}
        code_of = {s: c for c, s in enumerate(sorted({s for _, s, _ in triples}))}  # in sorted order
        first = list(units.values())
        return cls(
            token_ids=np.stack([i.token_ids for i in first]) if first else np.zeros((0, 0), dtype=np.int64),
            lengths=np.asarray([i.length for i in first], dtype=np.int64),
            marker_pos=np.asarray([i.marker_pos for i in first], dtype=np.int64),
            tweet_ids=[i.tweet_id for i in first],
            candidate_indexes=[i.candidate_index for i in first],
            chunk_texts=[i.chunk_text for i in first],
            unit=np.asarray([index[key] for key, _, _ in triples], dtype=np.int64),
            subtask=np.asarray([code_of[s] for _, s, _ in triples], dtype=np.int64),
            label=np.asarray([y for _, _, y in triples]),  # as given, so the writer sees a label outside 0/1
            subtask_ids=tuple(code_of),
        )

    def __len__(self) -> int:
        return len(self.unit)

    def __getitem__(self, k: int) -> MaskedInstance:
        u = int(self.unit[k])
        return MaskedInstance(
            self._rows[u], int(self.lengths[u]), int(self.marker_pos[u]), self.subtask_ids[self.subtask[k]],
            self.label[k].item(), self.chunk_texts[u], self.tweet_ids[u], self.candidate_indexes[u],
        )

    @cached_property
    def _rows(self) -> list[np.ndarray]:
        return list(self.token_ids)

    def take(self, index: np.ndarray) -> InstanceTable:
        """The triples ``index`` names, in that order, over the same units."""
        return replace(self, unit=self.unit[index], subtask=self.subtask[index], label=self.label[index])


def as_table(instances: Sequence[MaskedInstance]) -> InstanceTable:
    """``instances`` itself when it is a table; otherwise its triples over one unit per distinct (tweet
    id, candidate index, chunk text, length, marker position, token bytes), in order of first appearance."""
    if isinstance(instances, InstanceTable):
        return instances
    units: dict[tuple, MaskedInstance] = {}
    triples = []
    for i in instances:
        key = (i.tweet_id, i.candidate_index, i.chunk_text, i.length, i.marker_pos, i.token_ids.tobytes())
        units.setdefault(key, i)
        triples.append((key, i.subtask, i.label))
    return InstanceTable.build(units, triples)


def mask_corpus(
    tweets: Sequence[AnnotatedTweet],
    vocab: Vocab,
    cfg: CleanConfig,
    max_len: int = 96,
    registry=None,
) -> InstanceTable:
    """The table of a corpus: each (tweet, candidate) unit is cleaned,
    tokenized and masked once; the triples follow in explode order."""
    by_id: dict[str, AnnotatedTweet] = {}
    for tweet in tweets:
        if tweet.id in by_id:
            raise PreprocessError(f"repeated tweet id {tweet.id!r}")
        by_id[tweet.id] = tweet
    units: dict[tuple[str, int], MaskedInstance] = {}
    triples = []
    for tweet_id, subtask, cand_idx, label in explode_instances(tweets, registry):
        if (tweet_id, cand_idx) not in units:
            units[tweet_id, cand_idx] = mask_candidate(by_id[tweet_id], cand_idx, subtask, label, vocab, cfg, max_len)
        triples.append(((tweet_id, cand_idx), subtask, label))
    return InstanceTable.build(units, triples)
