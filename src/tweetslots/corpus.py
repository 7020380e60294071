"""Corpus schema: annotated tweets, the subtask registry, loading, and splits.

A corpus is a JSONL file, one tweet per line:

    {"id": str, "text": str, "event": str, "candidates": [[start, end], ...],
     "gold": {"subtask_name": [idx, ...], ...}}

Spans index Unicode scalar values of ``text`` (never bytes). ``gold`` maps a
subtask name to the candidate indices that answer the slot; an absent or empty
list means the slot is unanswered.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class CorpusError(ValueError):
    """A corpus file or record violates the schema."""


class EventType(Enum):
    """The five tweet event categories."""

    TESTED_POSITIVE = "tested_positive"
    TESTED_NEGATIVE = "tested_negative"
    CAN_NOT_TEST = "can_not_test"
    DEATH = "death"
    CURE_AND_PREVENTION = "cure_and_prevention"


EVENT_ORDER: tuple[EventType, ...] = tuple(EventType)

# Built-in 33-subtask registry (10 + 9 + 5 + 6 + 3), overridable via
# SubtaskRegistry.load().
DEFAULT_SUBTASKS: dict[EventType, tuple[str, ...]] = {
    EventType.TESTED_POSITIVE: (
        "age", "close_contact", "employer", "gender_male", "gender_female",
        "name", "recent_travel", "relation", "when", "where",
    ),
    EventType.TESTED_NEGATIVE: (
        "age", "close_contact", "gender_male", "gender_female", "how_long",
        "name", "relation", "when", "where",
    ),
    EventType.CAN_NOT_TEST: ("relation", "symptoms", "name", "when", "where"),
    EventType.DEATH: ("age", "name", "relation", "symptoms", "when", "where"),
    EventType.CURE_AND_PREVENTION: ("opinion", "what_cure", "who_cure"),
}


@dataclass(frozen=True)
class SubtaskId:
    """One slot question, identified by (event, name)."""

    event: EventType
    name: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.event.value, self.name)

    def __lt__(self, other: "SubtaskId") -> bool:
        return self.key < other.key

    def __str__(self) -> str:
        return f"{self.event.value}/{self.name}"

    @classmethod
    def parse(cls, text: str) -> "SubtaskId":
        """Inverse of str(): 'event/name' -> SubtaskId."""
        event_part, sep, name = text.partition("/")
        if not sep or not name:
            raise CorpusError(f"subtask key {text!r} must look like 'event/name'")
        try:
            event = EventType(event_part)
        except ValueError:
            raise CorpusError(f"unknown event {event_part!r} in subtask key {text!r}") from None
        _check_name(name)
        return cls(event, name)


_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise CorpusError(f"subtask name {name!r} must be lowercase ASCII with underscores")


@dataclass(frozen=True)
class SubtaskRegistry:
    """Closed set of subtasks per event.

    The default mirrors the 33-slot schema above; ``load`` reads an override
    file with one line per event: ``event_name = sub1,sub2,...``.
    """

    subtasks: Mapping[EventType, tuple[str, ...]]

    def __post_init__(self):
        for event, names in self.subtasks.items():
            for name in names:
                _check_name(name)
            if len(set(names)) != len(names):
                raise CorpusError(f"duplicate subtask names for event {event.value}")

    @classmethod
    def default(cls) -> "SubtaskRegistry":
        return cls(dict(DEFAULT_SUBTASKS))

    @classmethod
    def load(cls, path: str | Path) -> "SubtaskRegistry":
        table: dict[EventType, tuple[str, ...]] = {}
        for lineno, raw in enumerate(read_utf8(path, CorpusError).splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            event_s, sep, names_s = (part.strip() for part in line.partition("="))
            if not sep or not names_s:  # `death =` is refused, never read as no event
                raise CorpusError(f"{path}:{lineno}: expected 'event = sub1,sub2,...'")
            try:
                event = EventType(event_s)
            except ValueError:
                raise CorpusError(f"{path}:{lineno}: unknown event {event_s!r}") from None
            if event in table:
                raise CorpusError(f"{path}:{lineno}: event {event_s!r} listed twice")
            names = tuple(n.strip() for n in names_s.split(","))
            try:
                cls({event: names})  # the name rules, reported with this line
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            table[event] = names
        if not table:
            raise CorpusError(f"{path}: registry file defines no events")
        return cls(table)

    @property
    def events(self) -> tuple[EventType, ...]:
        return tuple(e for e in EVENT_ORDER if self.subtasks.get(e))

    def names_for(self, event: EventType) -> tuple[str, ...]:
        return self.subtasks.get(event, ())

    def all_subtasks(self) -> list[SubtaskId]:
        """Every registered subtask, events in declaration order."""
        out = []
        for event in EVENT_ORDER:
            out.extend(SubtaskId(event, n) for n in self.names_for(event))
        return out

    def __len__(self) -> int:
        return sum(len(v) for v in self.subtasks.values())


@dataclass(frozen=True)
class AnnotatedTweet:
    """One tweet with its candidate chunk spans and gold slot answers."""

    id: str
    text: str
    event: EventType
    candidates: tuple[tuple[int, int], ...]
    gold: Mapping[str, frozenset[int]]

    def validate(self, registry: SubtaskRegistry) -> None:
        n = len(self.text)
        for i, (start, end) in enumerate(self.candidates):
            if not (0 <= start < end <= n):
                raise CorpusError(
                    f"tweet {self.id!r}: candidate {i} span ({start}, {end}) "
                    f"out of bounds for text of length {n}"
                )
        allowed = set(registry.names_for(self.event))
        for name, indices in self.gold.items():
            if name not in allowed:
                raise CorpusError(
                    f"tweet {self.id!r}: gold subtask {name!r} does not belong "
                    f"to event {self.event.value!r}"
                )
            for idx in indices:
                if not (0 <= idx < len(self.candidates)):
                    raise CorpusError(
                        f"tweet {self.id!r}: gold index {idx} for subtask "
                        f"{name!r} exceeds candidate count {len(self.candidates)}"
                    )

    def chunk_text(self, candidate_index: int) -> str:
        start, end = self.candidates[candidate_index]
        return self.text[start:end]


@dataclass(frozen=True)
class SplitConfig:
    """Tweet-level train/validation split parameters."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise CorpusError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


_JSON_KINDS = {
    dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number", bool: "a boolean",
}


def _shown(value) -> str:
    """A JSON value as error messages name it: containers by kind, scalars as written."""
    return _JSON_KINDS[type(value)] if type(value) in (list, dict) else json.dumps(value, ensure_ascii=False)


def canonical_json(obj) -> str:
    """The one text of ``obj`` every artifact writer emits: sorted keys,
    compact separators, non-ASCII kept as is."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def json_document(obj) -> str:
    """The one text of a whole-file JSON artifact (reports, manifests):
    sorted keys, two-space indent, non-ASCII escaped, a final newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_json_object(text: str, where: str, error: type[ValueError]) -> dict:
    """The JSON object in ``text``; raises ``error`` prefixed with ``where``
    for malformed JSON or a value that is not an object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: malformed JSON ({exc})") from None
    if type(obj) is not dict:
        raise error(f"{where}: expected an object, got {_shown(obj)}")
    return obj


def read_jsonl(path: Path, error: type[ValueError]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each nonblank line of a JSONL file.

    Every artifact loader reads through this and ``json_field``, so one rule
    holds for all of them: each line is one JSON object and each field has
    one JSON type, never coerced. Problems raise the loader's ``error``
    naming the file, the line and the field.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                if raw.strip():
                    yield lineno, parse_json_object(raw, f"{path}:{lineno}", error)
    except UnicodeDecodeError:
        read_utf8(path, error)  # raises, naming the line
        raise


def read_utf8(path: str | Path, error: type[ValueError]) -> str:
    """The text of ``path`` as UTF-8; a byte that is not raises ``error`` naming file and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + data.count(b"\n", 0, exc.start)
        raise error(f"{path}:{line}: not UTF-8 (byte {data[exc.start]:#04x})") from None


def write_file(path: str | Path, chunks: Iterable[str | bytes]) -> None:
    """Replace ``path`` whole with ``chunks``, text as UTF-8 and bytes as
    they are, with no newline translation. Every artifact writer uses this.
    The chunks go to ``<path>.tmp`` and ``os.replace`` moves it onto
    ``path``, so an exception, even one the chunks raise, leaves the old
    file or none, never a shortened one."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def json_field(obj: dict, name: str, kind: type, where: str, error: type[ValueError]):
    """``obj[name]`` if it holds a JSON value of type ``kind``, else raise
    ``error`` prefixed with ``where`` and naming the field.

    Types match exactly, so a bool is neither an int nor a float. A float
    field also takes a JSON integer (JSON has one number type) and returns
    it as a float.
    """
    try:
        value = obj[name]
    except KeyError:
        raise error(f"{where}: missing field {name!r}") from None
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise error(f"{where}: field {name!r} must be {_JSON_KINDS[kind]}, got {_shown(value)}")


def json_known_fields(obj: dict, known: frozenset[str], where: str, error: type[ValueError]) -> None:
    """Raise ``error`` prefixed with ``where`` for the first field of ``obj``
    not in ``known``, so a misspelt field is never read as absent."""
    if not obj.keys() <= known:
        name = next(name for name in obj if name not in known)
        raise error(f"{where}: unknown field {name!r}")


def json_nonnegative_int(obj: dict, name: str, where: str, error: type[ValueError]) -> int:
    """``json_field(obj, name, int, ...)`` that also rejects a value below 0."""
    value = json_field(obj, name, int, where, error)
    if value < 0:
        raise error(f"{where}: field {name!r} must be a nonnegative integer, got {value}")
    return value


def _tweet_from_obj(obj: dict, where: str) -> AnnotatedTweet:
    tweet_id = json_field(obj, "id", str, where, CorpusError)
    text = json_field(obj, "text", str, where, CorpusError)
    event_name = json_field(obj, "event", str, where, CorpusError)
    pairs = json_field(obj, "candidates", list, where, CorpusError)
    gold_raw = json_field(obj, "gold", dict, where, CorpusError)
    try:
        event = EventType(event_name)
    except ValueError:
        raise CorpusError(f"{where}: unknown event {event_name!r}") from None
    for i, pair in enumerate(pairs):
        if type(pair) is not list or len(pair) != 2:
            raise CorpusError(f"{where}: 'candidates' must be a list of [start, end] pairs")
        if type(pair[0]) is not int or type(pair[1]) is not int:
            raise CorpusError(f"{where}: candidate {i} bounds must be integers, got {pair!r}")
    gold: dict[str, frozenset[int]] = {}
    for name, idxs in gold_raw.items():
        if type(idxs) is not list or any(type(i) is not int for i in idxs):
            raise CorpusError(f"{where}: gold[{name!r}] must be a list of integer candidate indices")
        gold[name] = frozenset(idxs)
    candidates = tuple((start, end) for start, end in pairs)
    return AnnotatedTweet(id=tweet_id, text=text, event=event, candidates=candidates, gold=gold)


def load_corpus(path: str | Path, registry: SubtaskRegistry | None = None) -> list[AnnotatedTweet]:
    """Read and validate a JSONL corpus, preserving file order.

    Raises CorpusError naming the line number for malformed lines and
    repeated tweet ids, and the tweet id for invariant violations.
    """
    registry = registry or SubtaskRegistry.default()
    tweets: list[AnnotatedTweet] = []
    first_line: dict[str, int] = {}
    path = Path(path)
    for lineno, obj in read_jsonl(path, CorpusError):
        tweet = _tweet_from_obj(obj, f"{path}:{lineno}")
        if tweet.id in first_line:
            raise CorpusError(
                f"{path}:{lineno}: duplicate tweet id {tweet.id!r} (first on line {first_line[tweet.id]})"
            )
        first_line[tweet.id] = lineno
        tweet.validate(registry)
        tweets.append(tweet)
    return tweets


def tweet_to_obj(tweet: AnnotatedTweet) -> dict:
    return {
        "id": tweet.id,
        "text": tweet.text,
        "event": tweet.event.value,
        "candidates": [[s, e] for s, e in tweet.candidates],
        "gold": {name: sorted(idxs) for name, idxs in sorted(tweet.gold.items())},
    }


def dumps_tweet(tweet: AnnotatedTweet) -> str:
    return canonical_json(tweet_to_obj(tweet))


def save_corpus(tweets: Iterable[AnnotatedTweet], path: str | Path) -> None:
    """Write tweets as canonical JSONL (UTF-8, LF, sorted keys)."""
    write_file(path, (dumps_tweet(tweet) + "\n" for tweet in tweets))


def corpus_digest(tweets: Sequence[AnnotatedTweet]) -> str:
    """Deterministic content id: sha256 of the canonical serialization."""
    h = hashlib.sha256()
    for tweet in tweets:
        h.update(dumps_tweet(tweet).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:12]


def split(
    tweets: Sequence[AnnotatedTweet], cfg: SplitConfig
) -> tuple[list[AnnotatedTweet], list[AnnotatedTweet]]:
    """Deterministic seeded tweet-level split.

    Shuffle algorithm (documented so it can be re-implemented independently):
    Fisher-Yates over the index list ``[0..N-1]``, where for
    ``i = N-1, N-2, ..., 1`` the swap partner is
    ``j = numpy.random.default_rng(seed).integers(0, i + 1)`` drawn from a
    single generator in that order. The train side is the first
    ``round(train_fraction * N)`` indices of the shuffled order (Python
    banker's rounding); the rest is validation. Both sides keep shuffled
    order.
    """
    if not tweets:
        raise CorpusError("cannot split an empty corpus")
    n = len(tweets)
    order = list(range(n))
    rng = np.random.default_rng(cfg.seed)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    n_train = round(cfg.train_fraction * n)
    train = [tweets[i] for i in order[:n_train]]
    validation = [tweets[i] for i in order[n_train:]]
    return train, validation


def explode_instances(
    tweets: Sequence[AnnotatedTweet], registry: SubtaskRegistry | None = None
) -> list[tuple[str, SubtaskId, int, int]]:
    """One row per (tweet, subtask-of-its-event, candidate) triple.

    Rows are ordered by tweet order, then subtask name, then candidate index.
    The label is 1 iff the candidate index is in that subtask's gold set.
    """
    registry = registry or SubtaskRegistry.default()
    rows: list[tuple[str, SubtaskId, int, int]] = []
    for tweet in tweets:
        for name in sorted(registry.names_for(tweet.event)):
            positives = tweet.gold.get(name, frozenset())
            subtask = SubtaskId(tweet.event, name)
            for idx in range(len(tweet.candidates)):
                rows.append((tweet.id, subtask, idx, 1 if idx in positives else 0))
    return rows
