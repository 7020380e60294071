"""On-disk formats: model container, instance/prediction JSONL, logs.

The model file is self-describing: an 8-byte magic, a little-endian u32
format version, a u32 header length, a canonical-JSON header (encoder config,
strategy, subtask list, and an array manifest with shapes), then the raw
float64 little-endian array bytes in manifest order. Identical parameters
produce identical bytes.

JSONL rows are canonical JSON (sorted keys, compact separators) so files are
reproducible byte-for-byte; loaders validate schemas and report the file,
line, and field of the first problem.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import CorpusError, SubtaskId, json_field, parse_json_object, read_jsonl
from .encoder import EncoderConfig, zero_grads
from .features import FeatureStrategy, Proj4Params, StrategyKind, feature_dim
from .multitask import Head, ModelParams, PredictionRecord, TrainLogEntry
from .preprocess import PAD_ID, MaskedInstance

MODEL_MAGIC = b"TWSLMODL"
MODEL_VERSION = 1
_ENCODER_FIELDS = ("num_layers", "hidden_size", "vocab_size", "max_len", "context_window", "seed")


class FormatError(ValueError):
    """Malformed or inconsistent artifact file."""


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _subtask_field(obj: dict, where: str) -> SubtaskId:
    try:
        return SubtaskId.parse(json_field(obj, "subtask", str, where, FormatError))
    except CorpusError as exc:
        raise FormatError(f"{where}: {exc}") from None


# -- model container ---------------------------------------------------------


def _check_finite(path: str | Path, name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{path}: array {name!r} holds non-finite values")


def save_model(params: ModelParams, path: str | Path) -> None:
    """Write the model container; refuses, before opening ``path``, a model
    with a non-finite weight."""
    cfg = params.encoder.config
    arrays = list(params.named_arrays())
    for name, arr in arrays:
        _check_finite(path, name, arr)
    header = {
        "encoder": {name: getattr(cfg, name) for name in _ENCODER_FIELDS},
        "strategy": params.strategy.kind.value,
        "subtasks": [str(s) for s in sorted(params.heads)],
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    header_bytes = _canonical_json(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", MODEL_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        params = _empty_model(
            EncoderConfig(**enc_values), StrategyKind(kind_name), [SubtaskId.parse(key) for key in subtask_keys]
        )
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None
    arrays = list(params.named_arrays())
    # Compared as canonical JSON, so a shape of 4.0 or true never passes for 4.
    if _canonical_json(declared) != _canonical_json([[name, list(arr.shape)] for name, arr in arrays]):
        raise FormatError(f"{path}: array manifest does not match the declared config")

    offset = body_start + header_len
    for name, arr in arrays:
        end = offset + 8 * arr.size
        if end > len(blob):
            raise FormatError(f"{path}: truncated array data at {name!r}")
        arr[...] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(arr.shape)
        _check_finite(path, name, arr)
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after array data")
    return params


def _empty_model(cfg: EncoderConfig, kind: StrategyKind, subtasks: Sequence[SubtaskId]) -> ModelParams:
    h = cfg.hidden_size
    proj = Proj4Params(w=np.zeros((4, h, h // 4)), b=np.zeros((4, h // 4))) if kind is StrategyKind.PROJ4 else None
    dim = feature_dim(kind, h)
    heads = {s: Head(w=np.zeros(dim), b=np.zeros(1)) for s in subtasks}
    return ModelParams(encoder=zero_grads(cfg), strategy=FeatureStrategy(kind, proj), heads=heads)


# -- masked instances --------------------------------------------------------


def save_instances(instances: Iterable[MaskedInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            row = {
                "tweet_id": inst.tweet_id,
                "subtask": str(inst.subtask),
                "candidate_index": inst.candidate_index,
                "label": inst.label,
                "chunk_text": inst.chunk_text,
                "marker_pos": inst.marker_pos,
                "length": inst.length,
                "max_len": int(inst.token_ids.shape[0]),
                "token_ids": [int(t) for t in inst.token_ids[:inst.length]],
            }
            fh.write(_canonical_json(row) + "\n")


def load_instances(path: str | Path) -> list[MaskedInstance]:
    path = Path(path)
    return [_instance_from_obj(obj, path, lineno) for lineno, obj in read_jsonl(path, FormatError)]


def _instance_from_obj(obj: dict, path: Path, lineno: int) -> MaskedInstance:
    where = f"{path}:{lineno}"
    subtask = _subtask_field(obj, where)
    length = json_field(obj, "length", int, where, FormatError)
    max_len = json_field(obj, "max_len", int, where, FormatError)
    marker_pos = json_field(obj, "marker_pos", int, where, FormatError)
    label = json_field(obj, "label", int, where, FormatError)
    ids = json_field(obj, "token_ids", list, where, FormatError)
    if label not in (0, 1):
        raise FormatError(f"{where}: field 'label' must be 0 or 1")
    if not 0 < length <= max_len:
        raise FormatError(f"{where}: field 'length' must lie in [1, max_len]")
    if len(ids) != length:
        raise FormatError(f"{where}: field 'token_ids' holds {len(ids)} ids, length says {length}")
    if not 0 <= marker_pos < length:
        raise FormatError(f"{where}: field 'marker_pos' outside the token range")
    if not (set(map(type, ids)) <= {int} and min(ids) >= 0):
        raise FormatError(f"{where}: field 'token_ids' must hold nonnegative integers")
    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    token_ids[:length] = ids
    return MaskedInstance(
        token_ids=token_ids,
        length=length,
        marker_pos=marker_pos,
        subtask=subtask,
        label=label,
        chunk_text=json_field(obj, "chunk_text", str, where, FormatError),
        tweet_id=json_field(obj, "tweet_id", str, where, FormatError),
        candidate_index=json_field(obj, "candidate_index", int, where, FormatError),
    )


# -- predictions -------------------------------------------------------------


def save_predictions(records: Iterable[PredictionRecord], path: str | Path, include_filtered: bool = False) -> None:
    """Write prediction JSONL; postprocessed files add the 'filtered' flag."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            row = {
                "tweet_id": rec.tweet_id,
                "subtask": str(rec.subtask),
                "candidate_index": rec.candidate_index,
                "chunk_text": rec.chunk_text,
                "probability": rec.probability,
                "decision": rec.decision,
            }
            if include_filtered:
                row["filtered"] = rec.filtered
            fh.write(_canonical_json(row) + "\n")


def load_predictions(path: str | Path) -> list[PredictionRecord]:
    path = Path(path)
    return [_prediction_from_obj(obj, path, lineno) for lineno, obj in read_jsonl(path, FormatError)]


def _prediction_from_obj(obj: dict, path: Path, lineno: int) -> PredictionRecord:
    where = f"{path}:{lineno}"
    subtask = _subtask_field(obj, where)
    candidate_index = json_field(obj, "candidate_index", int, where, FormatError)
    probability = json_field(obj, "probability", float, where, FormatError)
    decision = json_field(obj, "decision", int, where, FormatError)
    if decision not in (0, 1):
        raise FormatError(f"{where}: field 'decision' must be 0 or 1")
    if candidate_index < 0:
        raise FormatError(f"{where}: field 'candidate_index' must be a nonnegative integer")
    if not 0.0 <= probability <= 1.0:
        raise FormatError(f"{where}: field 'probability' must lie in [0, 1]")
    return PredictionRecord(
        tweet_id=json_field(obj, "tweet_id", str, where, FormatError),
        subtask=subtask,
        candidate_index=candidate_index,
        chunk_text=json_field(obj, "chunk_text", str, where, FormatError),
        probability=probability,
        decision=decision,
        filtered=json_field(obj, "filtered", bool, where, FormatError) if "filtered" in obj else False,
    )


# -- training log and ensemble manifest --------------------------------------


def save_train_log(entries: Sequence[TrainLogEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_micro_f1"])
        for e in entries:
            writer.writerow([e.epoch, repr(e.train_loss), repr(e.val_micro_f1)])


def load_train_log(path: str | Path) -> list[TrainLogEntry]:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or rows[0] != ["epoch", "train_loss", "val_micro_f1"]:
        raise FormatError(f"{path}: missing training-log header row")
    out = []
    for lineno, row in enumerate(rows[1:], 2):
        try:
            out.append(TrainLogEntry(epoch=int(row[0]), train_loss=float(row[1]), val_micro_f1=float(row[2])))
        except (IndexError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: bad training-log row: {exc}") from None
    return out


def save_ensemble_manifest(members: Sequence[tuple[str, float]], path: str | Path) -> None:
    """Rows of {path, val_micro_f1}; paths are relative to the manifest."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for model_path, score in members:
            fh.write(_canonical_json({"path": model_path, "val_micro_f1": score}) + "\n")


def load_ensemble_manifest(path: str | Path) -> list[tuple[str, float]]:
    path = Path(path)
    out = []
    for lineno, obj in read_jsonl(path, FormatError):
        where = f"{path}:{lineno}"
        score = json_field(obj, "val_micro_f1", float, where, FormatError)
        if not 0.0 <= score <= 1.0:
            raise FormatError(f"{where}: field 'val_micro_f1' must lie in [0, 1]")
        out.append((json_field(obj, "path", str, where, FormatError), score))
    if not out:
        raise FormatError(f"{path}: empty ensemble manifest")
    return out


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
