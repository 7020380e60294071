"""On-disk formats: model container, instance/prediction JSONL, logs.

The model file is self-describing: an 8-byte magic, a little-endian u32
format version, a u32 header length, a canonical-JSON header (encoder config,
strategy, subtask list, and an array manifest with shapes), then the raw
float64 little-endian array bytes in manifest order. Identical parameters
produce identical bytes. The heads are stored as one pair of arrays per row,
``head.<subtask>.w`` and ``.b``, in sorted subtask order.

JSONL rows are canonical JSON (sorted keys, compact separators) so files are
reproducible byte-for-byte; loaders validate schemas, refuse fields they do
not read, and report the file, line, and field of the first problem. An
instance file holds the units of an ``InstanceTable``, one row each. A row's
``token_ids`` hold one ``<E>`` id, at ``marker_pos``, and one ``</E>`` id
after it, as masking writes them; the writer and the loader refuse any other.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from json.encoder import encode_basestring  # canonical_json's string encoder (ensure_ascii=False)
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import (
    CorpusError,
    DataError,
    EventType,
    SubtaskId,
    canonical_json,
    json_field,
    json_known_fields,
    json_nonnegative_int,
    parse_json_object,
    read_jsonl,
    write_file,
)
from .encoder import EncoderConfig, zero_grads
from .features import FeatureStrategy, Proj4Params, StrategyKind, feature_dim
from .multitask import ModelParams, PredictionRecord, TrainLogEntry
from .preprocess import E_CLOSE_ID, E_OPEN_ID, PAD_ID, InstanceTable, MaskedInstance, as_table

MODEL_MAGIC = b"TWSLMODL"
MODEL_VERSION = 1
_ENCODER_FIELDS = ("num_layers", "hidden_size", "vocab_size", "max_len", "context_window", "seed")


class FormatError(DataError):
    """Malformed or inconsistent artifact file."""


def _subtask_field(obj: dict, where: str) -> SubtaskId:
    try:
        return SubtaskId.parse(json_field(obj, "subtask", str, where, FormatError))
    except CorpusError as exc:
        raise FormatError(f"{where}: {exc}") from None


# -- model container ---------------------------------------------------------


def _check_finite(path: str | Path, name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: array {name!r} holds non-finite values")


def _file_arrays(params: ModelParams):
    """(name, array) pairs in file order: the trunk, then per subtask ``head.<subtask>.w``, a
    row view of ``head_w``, and ``head.<subtask>.b``, a (1,) view of ``head_b``."""
    yield from params.encoder.named_arrays()
    yield from params.strategy.named_arrays()
    for i, subtask in enumerate(params.subtasks):
        yield f"head.{subtask}.w", params.head_w[i]
        yield f"head.{subtask}.b", params.head_b[i:i + 1]


def save_model(params: ModelParams, path: str | Path) -> None:
    """Write the model container, one array at a time; refuses a model with
    a non-finite weight."""
    cfg = params.encoder.config
    arrays = list(_file_arrays(params))
    for name, arr in arrays:
        _check_finite(path, name, arr)
    header = {
        "encoder": {name: getattr(cfg, name) for name in _ENCODER_FIELDS},
        "strategy": params.strategy.kind.value,
        "subtasks": [str(s) for s in params.subtasks],
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    header_bytes = canonical_json(header).encode("utf-8")
    write_file(path, itertools.chain(
        (MODEL_MAGIC, struct.pack("<II", MODEL_VERSION, len(header_bytes)), header_bytes),
        (np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays),
    ))


def load_model(path: str | Path) -> ModelParams:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < len(MODEL_MAGIC) + 8 or not blob.startswith(MODEL_MAGIC):
        raise FormatError(f"{path}: not a model file (bad magic)")
    version, header_len = struct.unpack_from("<II", blob, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model format version {version}")
    body_start = len(MODEL_MAGIC) + 8
    where = f"{path}: model header"
    try:
        text = blob[body_start:body_start + header_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{where}: {exc}") from None
    header = parse_json_object(text, where, FormatError)
    enc_obj = json_field(header, "encoder", dict, where, FormatError)
    enc_values = {name: json_field(enc_obj, name, int, f"{where}, encoder", FormatError) for name in _ENCODER_FIELDS}
    kind_name = json_field(header, "strategy", str, where, FormatError)
    subtask_keys = json_field(header, "subtasks", list, where, FormatError)
    declared = json_field(header, "arrays", list, where, FormatError)
    if any(type(key) is not str for key in subtask_keys):
        raise FormatError(f"{where}: field 'subtasks' must hold 'event/name' strings")
    try:
        cfg = EncoderConfig(**enc_values)
        kind = StrategyKind(kind_name)
        subtasks = tuple(SubtaskId.parse(key) for key in subtask_keys)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None
    if subtasks != tuple(sorted(set(subtasks))):
        raise FormatError(f"{where}: field 'subtasks' must list each subtask once, in sorted order")
    # Checked before anything is allocated, so a header cannot ask for more
    # memory than the file holds data for.
    offset = body_start + header_len
    data_len, implied = len(blob) - offset, _array_bytes(cfg, kind, len(subtasks))
    if data_len < implied:
        raise FormatError(f"{path}: truncated array data: {data_len} bytes, the header implies {implied}")
    if data_len > implied:
        raise FormatError(f"{path}: {data_len - implied} trailing bytes after array data")
    params = _empty_model(cfg, kind, subtasks)
    arrays = list(_file_arrays(params))
    # Compared as canonical JSON, so a shape of 4.0 or true never passes for 4.
    if canonical_json(declared) != canonical_json([[name, list(arr.shape)] for name, arr in arrays]):
        raise FormatError(f"{path}: array manifest does not match the declared config")
    for name, arr in arrays:
        end = offset + arr.nbytes
        arr[...] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(arr.shape)
        _check_finite(path, name, arr)
        offset = end
    return params


def _array_bytes(cfg: EncoderConfig, kind: StrategyKind, num_heads: int) -> int:
    """Size of the float64 array data of the model ``_empty_model`` builds."""
    h = cfg.hidden_size
    size = (cfg.vocab_size + cfg.max_len) * h + cfg.num_layers * (cfg.num_taps * h * h + h)
    if kind is StrategyKind.PROJ4:
        size += h * h + h
    return 8 * (size + num_heads * (feature_dim(kind, h) + 1))


def _empty_model(cfg: EncoderConfig, kind: StrategyKind, subtasks: tuple[SubtaskId, ...]) -> ModelParams:
    h, n = cfg.hidden_size, len(subtasks)
    proj = Proj4Params(w=np.zeros((4, h, h // 4)), b=np.zeros((4, h // 4))) if kind is StrategyKind.PROJ4 else None
    head_w = np.zeros((n, feature_dim(kind, h)))
    return ModelParams(zero_grads(cfg), FeatureStrategy(kind, proj), subtasks, head_w, np.zeros(n))


# -- masked instances --------------------------------------------------------
#
# One JSONL row per unit of an instance table, a (tweet, candidate) pair, with ``labels`` mapping
# each subtask name of the tweet's event to 0 or 1. Rows go in tweet order, then candidate order;
# a tweet's triples follow its rows in ``explode_instances`` order (subtask name, then candidate).
# The features are read at ``marker_pos``, the one ``<E>`` of ``token_ids``.


def _check_unit_tokens(ids: list, length: int, max_len: int, marker_pos: int, where: str) -> None:
    """Refuse a unit whose real tokens ``ids``, the ids before its PAD tail, break a rule that
    the writer and the loader share; masking breaks none of them."""
    if not 0 < length <= max_len:
        raise FormatError(f"{where}: field 'length' must lie in [1, max_len {max_len}], got {length}")
    if len(ids) != length:
        raise FormatError(f"{where}: field 'token_ids' holds {len(ids)} ids, length says {length}")
    if not 0 <= marker_pos < length:
        raise FormatError(f"{where}: field 'marker_pos' must lie in [0, length), got {marker_pos}")
    if not (set(map(type, ids)) <= {int} and min(ids) >= 0):
        raise FormatError(f"{where}: field 'token_ids' must hold nonnegative integers")
    if PAD_ID in ids:
        raise FormatError(f"{where}: field 'token_ids' holds PAD id {PAD_ID} inside its length, "
                          f"at position {ids.index(PAD_ID)}")
    if ids[marker_pos] != E_OPEN_ID:
        raise FormatError(f"{where}: field 'marker_pos' is {marker_pos}, where token_ids holds "
                          f"{ids[marker_pos]}, not the <E> id {E_OPEN_ID}")
    if ids.count(E_OPEN_ID) != 1 or ids.count(E_CLOSE_ID) != 1 or ids.index(E_CLOSE_ID) < marker_pos:
        raise FormatError(f"{where}: field 'token_ids' must hold one <E> id {E_OPEN_ID}, at marker_pos, "
                          f"and one </E> id {E_CLOSE_ID} after it")


def save_instances(instances: Sequence[MaskedInstance], path: str | Path) -> None:
    """Write one row per unit of ``as_table(instances)``; refuses a table whose
    rows would not load back as exactly its triples, or hold a field the loader refuses."""
    table = as_table(instances)
    cands, lengths, markers = table.candidate_indexes, table.lengths.tolist(), table.marker_pos.tolist()
    pairs = zip(table.unit.tolist(), table.subtask.tolist(), table.label.tolist())
    lines, done, parsed = [], set(), {}
    for tweet_id, block in itertools.groupby(pairs, key=lambda pair: table.tweet_ids[pair[0]]):
        if tweet_id in done:
            raise FormatError(f"{path}: instances of tweet {tweet_id!r} are not adjacent")
        done.add(tweet_id)
        where = f"{path}: tweet {tweet_id!r}"
        triples = [(u, table.subtask_ids[s], label) for u, s, label in block]
        event = triples[0][1].event
        unit_of, labels = {}, {}  # candidate index -> unit, unit -> its row's labels
        for u, subtask, label in triples:
            if subtask.event is not event:
                raise FormatError(f"{where}: instances span events {event.value} and {subtask.event.value}")
            if unit_of.setdefault(cands[u], u) != u:
                raise FormatError(f"{where}: candidate {cands[u]} has two different masked inputs")
            if label not in (0, 1):
                raise FormatError(f"{where}: label {label!r} of {subtask} is not 0 or 1")
            labels.setdefault(u, {})[subtask.name] = int(label)
        rows = [unit_of[c] for c in sorted(unit_of)]
        names = [s.name for s in _label_subtasks(event.value, labels[rows[0]], where, parsed)]
        if [(s.name, u) for u, s, _ in triples] != [(n, u) for n in names for u in rows]:
            raise FormatError(f"{where}: instances are not one per (subtask, candidate) in explode order")
        for u in rows:  # each row's fields, refused as the loader would refuse them
            ids, length, marker_pos = table.token_ids[u], lengths[u], markers[u]
            unit_where = f"{where}: candidate {cands[u]}"
            if cands[u] < 0:
                raise FormatError(f"{unit_where}: field 'candidate_index' must be >= 0")
            row = ids[:length].tolist()
            _check_unit_tokens(row, length, len(ids), marker_pos, unit_where)
            if np.count_nonzero(ids[length:] != PAD_ID):
                raise FormatError(f"{unit_where} has non-PAD token ids past its length")
            lines.append(canonical_json({
                "tweet_id": tweet_id, "candidate_index": cands[u], "event": event.value,
                "chunk_text": table.chunk_texts[u], "marker_pos": marker_pos, "length": length,
                "max_len": len(ids), "token_ids": row, "labels": labels[u],
            }) + "\n")
    write_file(path, lines)


def load_instances(path: str | Path, cfg: EncoderConfig) -> InstanceTable:
    """Read unit rows into a table, each tweet's triples in ``explode_instances`` order. ``cfg`` is
    the config of the encoder that will read them: a row with another ``max_len`` or a token id
    outside its vocabulary is refused before its token array is allocated."""
    path = Path(path)
    units: dict[tuple[str, int], MaskedInstance] = {}  # each row, as its first triple
    triples: list[tuple[tuple[str, int], SubtaskId, int]] = []
    first_line: dict[str, int] = {}
    parsed: dict[tuple[str, ...], list[SubtaskId]] = {}
    tweet, event, subtasks = [], "", []  # the current tweet's (unit key, labels, line) rows, event and subtasks
    for lineno, obj in read_jsonl(path, FormatError):
        where = f"{path}:{lineno}"
        json_known_fields(obj, _UNIT_FIELDS, where, FormatError)
        length = json_field(obj, "length", int, where, FormatError)
        max_len = json_field(obj, "max_len", int, where, FormatError)
        marker_pos = json_nonnegative_int(obj, "marker_pos", where, FormatError)
        ids = json_field(obj, "token_ids", list, where, FormatError)
        row_event = json_field(obj, "event", str, where, FormatError)
        labels = json_field(obj, "labels", dict, where, FormatError)
        if max_len != cfg.max_len:
            raise FormatError(f"{where}: field 'max_len' is {max_len}, the encoder's max_len is {cfg.max_len}")
        _check_unit_tokens(ids, length, max_len, marker_pos, where)
        if max(ids) >= cfg.vocab_size:
            raise FormatError(f"{where}: field 'token_ids' holds id {max(ids)}, "
                              f"the encoder's vocab_size is {cfg.vocab_size}")
        if not labels:
            raise FormatError(f"{where}: field 'labels' names no subtask")
        for name in labels:
            if json_field(labels, name, int, f"{where}, labels", FormatError) not in (0, 1):
                raise FormatError(f"{where}, labels: field {name!r} must be 0 or 1, got {labels[name]}")
        chunk_text = json_field(obj, "chunk_text", str, where, FormatError)
        key = tweet_id, index = (json_field(obj, "tweet_id", str, where, FormatError),
                                 json_nonnegative_int(obj, "candidate_index", where, FormatError))
        if tweet and tweet_id == tweet[0][0][0]:
            (_, prev), _, prev_line = tweet[-1]
            first = first_line[tweet_id]
            if index == prev:
                raise FormatError(f"{where}: repeated unit (tweet {tweet_id!r}, candidate {index}; "
                                  f"first on line {prev_line})")
            if index < prev:
                raise FormatError(f"{where}: field 'candidate_index' must exceed {prev} (line {prev_line}); "
                                  "a tweet's rows go in candidate order")
            if row_event != event:
                raise FormatError(f"{where}: field 'event' differs from line {first} of the same tweet")
            if labels.keys() != tweet[0][1].keys():
                raise FormatError(f"{where}: field 'labels' names other subtasks than line {first} of the same tweet")
        else:
            if tweet_id in first_line:
                raise FormatError(f"{where}: rows of tweet {tweet_id!r} are not adjacent "
                                  f"(first on line {first_line[tweet_id]})")
            first_line[tweet_id] = lineno
            triples.extend((k, s, row_labels[s.name]) for s in subtasks for k, row_labels, _ in tweet)
            tweet, event, subtasks = [], row_event, _label_subtasks(row_event, labels, where, parsed)
        tweet.append((key, labels, lineno))
        token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
        token_ids[:length] = ids
        units[key] = MaskedInstance(token_ids, length, marker_pos, subtasks[0], labels[subtasks[0].name],
                                    chunk_text, tweet_id, index)
    triples.extend((k, s, row_labels[s.name]) for s in subtasks for k, row_labels, _ in tweet)
    return InstanceTable.build(units, triples)


_UNIT_FIELDS = frozenset(
    ("tweet_id", "candidate_index", "event", "chunk_text", "marker_pos", "length", "max_len", "token_ids", "labels")
)


def _label_subtasks(event: str, labels: dict, where: str, parsed: dict) -> list[SubtaskId]:
    """The subtasks ``labels`` names, names ascending; ``parsed`` caches them per (event, names)."""
    key = (event, *sorted(labels))
    if key not in parsed:
        try:
            EventType(event)
        except ValueError:
            raise FormatError(f"{where}: field 'event': unknown event {event!r}") from None
        try:
            parsed[key] = [SubtaskId.parse(f"{event}/{name}") for name in key[1:]]
        except CorpusError as exc:
            raise FormatError(f"{where}: field 'labels': {exc}") from None
    return parsed[key]


# -- predictions -------------------------------------------------------------


def save_predictions(records: Iterable[PredictionRecord], path: str | Path, include_filtered: bool = False) -> None:
    """Write prediction JSONL; postprocessed files add the 'filtered' flag.

    A row is ``canonical_json`` of {tweet_id, subtask, candidate_index, chunk_text, probability,
    decision[, filtered]}, with ``str(subtask)`` as its key. The lines are streamed to
    ``write_file``. A row whose fields all have their usual exact types (str, int, a finite float,
    a bool flag) is written from one template in sorted key order: each distinct string is
    encoded once per file by the encoder ``canonical_json`` uses, and the float by
    ``float.__repr__``, as ``json`` writes it. Any other row, such as one holding a NaN or a
    NumPy scalar, goes through ``canonical_json`` itself, so every record gives the bytes, or
    the error, of ``canonical_json`` on its row."""
    write_file(path, _prediction_lines(records, include_filtered))


class _EncodedStrings(dict):
    """Each string looked up, mapped to its JSON text on first use."""

    def __missing__(self, text: str) -> str:
        self[text] = encoded = encode_basestring(text)
        return encoded


def _prediction_lines(records: Iterable[PredictionRecord], include_filtered: bool):
    strings, isfinite = _EncodedStrings(), math.isfinite
    for rec in records:
        index, chunk, decision, probability = rec.candidate_index, rec.chunk_text, rec.decision, rec.probability
        subtask, tweet_id = str(rec.subtask), rec.tweet_id
        flag = rec.filtered if include_filtered else False
        if (type(index) is int and type(decision) is int and type(probability) is float and type(flag) is bool
                and type(chunk) is str and type(subtask) is str and type(tweet_id) is str and isfinite(probability)):
            filtered = ('"filtered":true,' if flag else '"filtered":false,') if include_filtered else ""
            yield (f'{{"candidate_index":{index},"chunk_text":{strings[chunk]},"decision":{decision},{filtered}'
                   f'"probability":{probability!r},"subtask":{strings[subtask]},"tweet_id":{strings[tweet_id]}}}\n')
        else:
            row = {"tweet_id": tweet_id, "subtask": subtask, "candidate_index": index, "chunk_text": chunk,
                   "probability": probability, "decision": decision}
            yield canonical_json({**row, "filtered": flag} if include_filtered else row) + "\n"


def load_predictions(path: str | Path, include_filtered: bool = False) -> list[PredictionRecord]:
    """Read prediction JSONL as ``save_predictions`` writes it with the same ``include_filtered``:
    a row holds the 'filtered' flag exactly when the file is postprocessed. Each field is checked
    in turn; the ``<file>:<line>`` text is built only for a field that fails, and each subtask
    string is parsed once per file."""
    path = Path(path)
    known = _PREDICTION_FIELDS | {"filtered"} if include_filtered else _PREDICTION_FIELDS
    subtasks: dict[str, SubtaskId] = {}  # each subtask string of the file, once it has parsed
    records = []
    for lineno, obj in read_jsonl(path, FormatError):
        if not obj.keys() <= known:
            json_known_fields(obj, known, f"{path}:{lineno}", FormatError)
        key = obj.get("subtask")
        subtask = subtasks.get(key) if type(key) is str else None
        if subtask is None:
            subtask = subtasks[key] = _subtask_field(obj, f"{path}:{lineno}")
        # Where a value's JSON type is wrong or it is missing, the json_* helper raises the message.
        index = obj.get("candidate_index")
        if type(index) is not int or index < 0:
            json_nonnegative_int(obj, "candidate_index", f"{path}:{lineno}", FormatError)
        probability = obj.get("probability")
        if type(probability) is not float:
            probability = json_field(obj, "probability", float, f"{path}:{lineno}", FormatError)
        decision = obj.get("decision")
        if type(decision) is not int:
            json_field(obj, "decision", int, f"{path}:{lineno}", FormatError)
        if decision not in (0, 1):
            raise FormatError(f"{path}:{lineno}: field 'decision' must be 0 or 1")
        if not 0.0 <= probability <= 1.0:
            raise FormatError(f"{path}:{lineno}: field 'probability' must lie in [0, 1]")
        tweet_id, chunk_text = obj.get("tweet_id"), obj.get("chunk_text")
        if type(tweet_id) is not str:
            json_field(obj, "tweet_id", str, f"{path}:{lineno}", FormatError)
        if type(chunk_text) is not str:
            json_field(obj, "chunk_text", str, f"{path}:{lineno}", FormatError)
        filtered = obj.get("filtered") if include_filtered else False
        if type(filtered) is not bool:
            json_field(obj, "filtered", bool, f"{path}:{lineno}", FormatError)
        if filtered and decision:
            raise FormatError(f"{path}:{lineno}: field 'filtered' is true but field 'decision' is 1 "
                              "(a nullified row has decision 0)")
        records.append(PredictionRecord(tweet_id, subtask, index, chunk_text, probability, decision, filtered))
    return records


_PREDICTION_FIELDS = frozenset(("tweet_id", "subtask", "candidate_index", "chunk_text", "probability", "decision"))


# -- training log ------------------------------------------------------------


_LOG_FIELDS = frozenset(("epoch", "train_loss", "val_micro_f1"))


def save_train_log(entries: Sequence[TrainLogEntry], path: str | Path) -> None:
    """One row per epoch: {epoch, train_loss, val_micro_f1}. The ensemble
    stage ranks pool members by the best ``val_micro_f1`` of their log."""
    rows = ({"epoch": e.epoch, "train_loss": e.train_loss, "val_micro_f1": e.val_micro_f1} for e in entries)
    write_file(path, (canonical_json(row) + "\n" for row in rows))


def load_train_log(path: str | Path) -> list[TrainLogEntry]:
    path = Path(path)
    out = []
    for lineno, obj in read_jsonl(path, FormatError):
        where = f"{path}:{lineno}"
        json_known_fields(obj, _LOG_FIELDS, where, FormatError)
        epoch = json_field(obj, "epoch", int, where, FormatError)
        train_loss = json_field(obj, "train_loss", float, where, FormatError)
        score = json_field(obj, "val_micro_f1", float, where, FormatError)
        if epoch < 1:
            raise FormatError(f"{where}: field 'epoch' must be >= 1, got {epoch}")
        # JSON's NaN and Infinity literals parse, so these checks refuse them.
        if not (math.isfinite(train_loss) and train_loss >= 0.0):
            raise FormatError(f"{where}: field 'train_loss' must be finite and >= 0, got {train_loss}")
        if not 0.0 <= score <= 1.0:
            raise FormatError(f"{where}: field 'val_micro_f1' must lie in [0, 1], got {score}")
        # Rows are epochs 1, 2, ... in order; the ensemble ranks members by them.
        if epoch != len(out) + 1:
            raise FormatError(f"{where}: field 'epoch' must be {len(out) + 1} (rows count up from 1), got {epoch}")
        out.append(TrainLogEntry(epoch=epoch, train_loss=train_loss, val_micro_f1=score))
    if not out:
        raise FormatError(f"{path}: empty training log")
    return out


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
