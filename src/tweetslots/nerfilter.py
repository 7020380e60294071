"""Type-aware post-processing of slot predictions.

A deterministic entity tagger (gazetteer phrases, regex rules, and a
pronoun/kinship fallback) assigns each predicted chunk an entity type. A
positive prediction whose tag conflicts with its subtask's expected types is
nullified: decision drops to 0, the slot value becomes "Not Specified", and
the record is marked filtered. Negative decisions and exempt subtasks pass
through untouched, so the filter can only remove false (or true) positives,
never invent them.

Gazetteer phrases are compared in the form ``tag`` puts the chunk text in
(punctuation standardised, lower-cased, blank runs collapsed); the loaded
phrases keep the file's text. Type-map subtask names follow the registry's
subtask-name rule, and a file's bad name is refused on its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .corpus import CorpusError, DataError, _check_name, read_utf8, table_lines, write_file
from .multitask import PredictionRecord
from .preprocess import _PUNCT_TABLE


class NerFilterError(DataError):
    """Bad gazetteer, rules, or type-map input."""


class EntityType(Enum):
    PERSON = "person"
    LOCATION = "location"
    ORGANIZATION = "organization"
    DATE = "date"
    DURATION = "duration"
    AGE = "age"
    OTHER = "other"


# Tie-break order for equal-length matches: declaration order; OTHER is only
# a fallback.
_TYPE_ORDER = {etype: i for i, etype in enumerate(EntityType)}

_PHRASE_FILES = {
    EntityType.PERSON: "person.txt",
    EntityType.LOCATION: "location.txt",
    EntityType.ORGANIZATION: "organization.txt",
    EntityType.DATE: "date.txt",
    EntityType.DURATION: "duration.txt",
    EntityType.AGE: "age.txt",
}
_REQUIRED_FILES = ("person.txt", "location.txt", "organization.txt", "rules.txt")

# Head-noun fallback: chunks containing these read as people.
_PERSON_CUES = frozenset(
    """
    i me my mine myself we us our ours he him his himself she her hers herself
    they them their theirs themselves who whom someone somebody anyone everybody
    mom mum mother dad father parent parents grandma grandmother grandpa
    grandfather granny husband wife spouse partner son daughter kid kids child
    children baby brother sister sibling uncle aunt auntie cousin nephew niece
    friend friends buddy neighbor neighbour neighbors neighbours roommate
    flatmate coworker colleague boss employee doctor nurse patient teacher
    student guy girl man woman lady gentleman folks people family relative
    relatives
    """.split()
)


@dataclass(frozen=True)
class Gazetteer:
    phrases: Mapping[EntityType, frozenset[str]]
    rules: tuple[tuple[EntityType, "re.Pattern[str]"], ...]

    def __post_init__(self):
        # Private read-only copies, so the compiled matchers cannot go stale.
        object.__setattr__(self, "phrases", MappingProxyType({e: frozenset(p) for e, p in self.phrases.items()}))
        object.__setattr__(self, "rules", tuple(self.rules))
        for etype, phrases in self.phrases.items():
            for p in phrases:
                if not p or p != p.strip() or p != p.lower():
                    raise NerFilterError(f"{etype.value} phrase {p!r} must be nonempty, trimmed, lowercase")

    @cached_property
    def _matchers(self) -> tuple[tuple[EntityType, "re.Pattern[str]"], ...]:
        """Per-type anchored phrase matchers, compiled once per gazetteer."""
        matchers = []
        for etype in EntityType:
            phrases = self.phrases.get(etype) if etype is not EntityType.OTHER else None
            if not phrases:
                continue
            # Longest alternative first, so an anchored match returns the longest phrase
            # starting at that position; phrases are matched in the form tag() compares.
            alts = sorted({_normalize(p) for p in phrases}, key=len, reverse=True)
            pattern = "(?:" + "|".join(re.escape(p) for p in alts) + r")\b"
            matchers.append((etype, re.compile(pattern)))
        return tuple(matchers)


@dataclass(frozen=True)
class TypeMap:
    """Subtask name -> allowed entity types; absent names are exempt."""

    allowed: Mapping[str, frozenset[EntityType]]

    def __post_init__(self):
        for name, types in self.allowed.items():
            _check_subtask_name(name, "type map")
            if not types:
                raise NerFilterError(f"type map entry {name!r} has an empty allowed set")


def _check_subtask_name(name: str, where: str) -> None:
    """``corpus._check_name``'s rule, refused as a ``NerFilterError`` at ``where``."""
    try:
        _check_name(name)
    except CorpusError as exc:
        raise NerFilterError(f"{where}: {exc}") from None


def _read_phrase_file(path: Path) -> frozenset[str]:
    """The phrases of ``path``, lower-cased; refuses a phrase whose normal form
    (the form ``tag`` matches) repeats an earlier line's, so no line is
    silently merged into another."""
    phrases: list[str] = []
    first_line: dict[str, int] = {}
    for lineno, line in table_lines(read_utf8(path, NerFilterError)):
        phrase = line.lower()
        key = _normalize(phrase)
        if first_line.setdefault(key, lineno) != lineno:
            raise NerFilterError(f"{path}:{lineno}: phrase {phrase!r} listed twice (first on line {first_line[key]})")
        phrases.append(phrase)
    return frozenset(phrases)


def _read_rules_file(path: Path) -> tuple[tuple[EntityType, "re.Pattern[str]"], ...]:
    """The rules of ``path``; refuses a rule whose stripped type and pattern repeat an earlier line's."""
    rules = []
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in table_lines(read_utf8(path, NerFilterError)):
        type_name, tab, pattern = line.partition("\t")
        if not tab:
            raise NerFilterError(f"{path}:{lineno}: expected 'TYPE<TAB>pattern'")
        type_name, pattern = type_name.strip(), pattern.strip()
        if first_line.setdefault((type_name, pattern), lineno) != lineno:
            raise NerFilterError(f"{path}:{lineno}: rule '{type_name}<TAB>{pattern}' listed twice "
                                 f"(first on line {first_line[type_name, pattern]})")
        try:
            etype = EntityType[type_name]
        except KeyError:
            raise NerFilterError(f"{path}:{lineno}: unknown entity type {type_name!r}") from None
        try:
            compiled = re.compile(pattern, re.IGNORECASE)
        except re.error as exc:
            raise NerFilterError(f"{path}:{lineno}: invalid regex: {exc}") from None
        rules.append((etype, compiled))
    return tuple(rules)


def load_gazetteer(directory: str | Path) -> Gazetteer:
    """Load phrase files plus rules.txt from a gazetteer directory.

    person.txt, location.txt, organization.txt, and rules.txt must exist;
    date.txt, duration.txt, and age.txt are optional phrase lists (those
    types are usually covered by regex rules).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NerFilterError(f"gazetteer directory not found: {directory}")
    for name in _REQUIRED_FILES:
        if not (directory / name).is_file():
            raise NerFilterError(f"gazetteer file missing: {directory / name}")
    phrases = {}
    for etype, name in _PHRASE_FILES.items():
        path = directory / name
        phrases[etype] = _read_phrase_file(path) if path.is_file() else frozenset()
    rules = _read_rules_file(directory / "rules.txt")
    return Gazetteer(phrases=phrases, rules=rules)


def save_gazetteer(gaz: Gazetteer, directory: str | Path) -> None:
    """Write the canonical form: sorted phrases, rules sorted by (type, pattern)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for etype, name in _PHRASE_FILES.items():
        entries = sorted(gaz.phrases.get(etype, frozenset()))
        if entries or name.split(".")[0] in ("person", "location", "organization"):
            write_file(directory / name, (e + "\n" for e in entries))
    write_file(directory / "rules.txt", sorted(f"{etype.name}\t{pattern.pattern}\n" for etype, pattern in gaz.rules))


def default_gazetteer() -> Gazetteer:
    with resources.as_file(resources.files("tweetslots").joinpath("data", "gazetteer")) as p:
        return load_gazetteer(p)


def load_type_map(path: str | Path) -> TypeMap:
    """Read subtask<TAB>TYPE[,TYPE...] lines; the literal type 'exempt' opts out.
    Each name follows the subtask-name rule, refused on its line."""
    allowed: dict[str, frozenset[EntityType]] = {}
    first_line: dict[str, int] = {}
    for lineno, line in table_lines(read_utf8(path, NerFilterError)):
        parts = line.split("\t")
        if len(parts) != 2:
            raise NerFilterError(f"{path}:{lineno}: expected 'subtask<TAB>TYPE[,TYPE...]'")
        name, spec_part = parts[0].strip(), parts[1].strip()
        _check_subtask_name(name, f"{path}:{lineno}")
        if first_line.setdefault(name, lineno) != lineno:
            raise NerFilterError(f"{path}:{lineno}: subtask {name!r} listed twice (first on line {first_line[name]})")
        if spec_part.lower() == "exempt":
            continue
        types = set()
        for piece in spec_part.split(","):
            try:
                types.add(EntityType[piece.strip()])
            except KeyError:
                raise NerFilterError(f"{path}:{lineno}: unknown entity type {piece.strip()!r}") from None
        allowed[name] = frozenset(types)
    return TypeMap(allowed=allowed)


def default_type_map() -> TypeMap:
    with resources.as_file(resources.files("tweetslots").joinpath("data", "type_map.txt")) as p:
        return load_type_map(p)


def _normalize(text: str) -> str:
    return " ".join(text.translate(_PUNCT_TABLE).lower().split())


def tag(chunk_text: str, gaz: Gazetteer) -> EntityType:
    """Entity type of a candidate chunk.

    Longest-match priority: gazetteer phrases beat regex rules beat the
    person-cue fallback; within a stage the longest matched substring wins
    and exact-length ties go to the earlier type in PERSON < LOCATION <
    ORGANIZATION < DATE < DURATION < AGE order.
    """
    text = _normalize(chunk_text)
    if not text:
        return EntityType.OTHER

    starts = [m.start() for m in re.finditer(r"\b\w", text)]
    best: tuple[int, int] | None = None  # (-match_len, type_order)
    best_type = EntityType.OTHER
    for etype, matcher in gaz._matchers:
        for s in starts:
            m = matcher.match(text, s)
            if m is None:
                continue
            cand = (-(m.end() - m.start()), _TYPE_ORDER[etype])
            if best is None or cand < best:
                best = cand
                best_type = etype
    if best is not None:
        return best_type

    for etype, pattern in gaz.rules:
        for m in pattern.finditer(text):
            cand = (-(m.end() - m.start()), _TYPE_ORDER[etype])
            if m.end() > m.start() and (best is None or cand < best):
                best = cand
                best_type = etype
    if best is not None:
        return best_type

    tokens = set(re.findall(r"\w+", text))
    if tokens & _PERSON_CUES:
        return EntityType.PERSON
    return EntityType.OTHER


NOT_SPECIFIED = "Not Specified"


def filter_predictions(
    records: Sequence[PredictionRecord],
    type_map: TypeMap,
    gaz: Gazetteer,
) -> list[PredictionRecord]:
    """Nullify positive predictions whose chunk type conflicts with the slot.

    Only decision-1 records of mapped subtasks are examined; a type conflict
    sets decision 0, filtered True, and replaces the slot text with
    "Not Specified". Everything else passes through as a copy, so the filter
    is idempotent and can never increase the positive count. The call tags
    each distinct chunk text once, however many records hold it.
    """
    types: dict[str, EntityType] = {}
    out = []
    for rec in records:
        allowed = type_map.allowed.get(rec.subtask.name)
        nullify = False
        if rec.decision == 1 and allowed is not None:
            etype = types.get(rec.chunk_text)
            if etype is None:
                etype = types[rec.chunk_text] = tag(rec.chunk_text, gaz)
            nullify = etype not in allowed
        out.append(PredictionRecord(
            tweet_id=rec.tweet_id,
            subtask=rec.subtask,
            candidate_index=rec.candidate_index,
            chunk_text=NOT_SPECIFIED if nullify else rec.chunk_text,
            probability=rec.probability,
            decision=0 if nullify else rec.decision,
            filtered=nullify or rec.filtered,
        ))
    return out
