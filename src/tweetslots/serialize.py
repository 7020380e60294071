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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import CorpusError, SubtaskId
from .encoder import EncoderConfig, zero_grads
from .features import FeatureStrategy, Proj4Params, StrategyKind, feature_dim
from .multitask import Head, ModelParams, PredictionRecord, TrainLogEntry
from .preprocess import PAD_ID, MaskedInstance

MODEL_MAGIC = b"TWSLMODL"
MODEL_VERSION = 1


class FormatError(ValueError):
    """Malformed or inconsistent artifact file."""


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _jsonl_rows(path: Path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each nonblank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            yield lineno, obj


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
        "encoder": {
            "num_layers": cfg.num_layers,
            "hidden_size": cfg.hidden_size,
            "vocab_size": cfg.vocab_size,
            "max_len": cfg.max_len,
            "context_window": cfg.context_window,
            "seed": cfg.seed,
        },
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
    try:
        header = json.loads(blob[body_start:body_start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: corrupt model header: {exc}") from None
    try:
        enc_obj = header["encoder"]
        cfg = EncoderConfig(
            num_layers=int(enc_obj["num_layers"]),
            hidden_size=int(enc_obj["hidden_size"]),
            vocab_size=int(enc_obj["vocab_size"]),
            max_len=int(enc_obj["max_len"]),
            context_window=int(enc_obj["context_window"]),
            seed=int(enc_obj["seed"]),
        )
        kind = StrategyKind(header["strategy"])
        subtasks = [SubtaskId.parse(key) for key in header["subtasks"]]
        manifest = [(str(name), tuple(int(d) for d in shape)) for name, shape in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: corrupt model header: {exc}") from None

    offset = body_start + header_len
    stored: dict[str, np.ndarray] = {}
    for name, shape in manifest:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + 8 * count
        if end > len(blob):
            raise FormatError(f"{path}: truncated array data at {name!r}")
        stored[name] = np.frombuffer(blob[offset:end], dtype="<f8").reshape(shape).copy()
        _check_finite(path, name, stored[name])
        offset = end
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after array data")

    params = _empty_model(cfg, kind, subtasks)
    expected = dict(params.named_arrays())
    if list(expected) != [name for name, _ in manifest]:
        raise FormatError(f"{path}: array manifest does not match the declared config")
    for name, arr in stored.items():
        if expected[name].shape != arr.shape:
            raise FormatError(f"{path}: array {name!r} has shape {arr.shape}, expected {expected[name].shape}")
        expected[name][...] = arr
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
    return [_instance_from_obj(obj, path, lineno) for lineno, obj in _jsonl_rows(path)]


def _instance_from_obj(obj: dict, path: Path, lineno: int) -> MaskedInstance:
    def field(name, kind):
        if name not in obj:
            raise FormatError(f"{path}:{lineno}: missing field {name!r}")
        value = obj[name]
        if kind is int and isinstance(value, bool) or not isinstance(value, kind):
            raise FormatError(f"{path}:{lineno}: field {name!r} must be {kind.__name__}")
        return value

    try:
        subtask = SubtaskId.parse(field("subtask", str))
    except CorpusError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None
    length = field("length", int)
    max_len = field("max_len", int)
    marker_pos = field("marker_pos", int)
    label = field("label", int)
    ids = field("token_ids", list)
    if label not in (0, 1):
        raise FormatError(f"{path}:{lineno}: field 'label' must be 0 or 1")
    if not 0 < length <= max_len:
        raise FormatError(f"{path}:{lineno}: field 'length' must lie in [1, max_len]")
    if len(ids) != length:
        raise FormatError(f"{path}:{lineno}: field 'token_ids' holds {len(ids)} ids, length says {length}")
    if not 0 <= marker_pos < length:
        raise FormatError(f"{path}:{lineno}: field 'marker_pos' outside the token range")
    if not (set(map(type, ids)) <= {int} and min(ids) >= 0):
        raise FormatError(f"{path}:{lineno}: field 'token_ids' must hold nonnegative integers")
    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    token_ids[:length] = ids
    return MaskedInstance(
        token_ids=token_ids,
        length=length,
        marker_pos=marker_pos,
        subtask=subtask,
        label=label,
        chunk_text=field("chunk_text", str),
        tweet_id=field("tweet_id", str),
        candidate_index=field("candidate_index", int),
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
    return [_prediction_from_obj(obj, path, lineno) for lineno, obj in _jsonl_rows(path)]


def _prediction_from_obj(obj: dict, path: Path, lineno: int) -> PredictionRecord:
    try:
        subtask = SubtaskId.parse(str(obj["subtask"]))
        probability = float(obj["probability"])
        decision = obj["decision"]
        candidate_index = obj["candidate_index"]
        record = PredictionRecord(
            tweet_id=str(obj["tweet_id"]),
            subtask=subtask,
            candidate_index=candidate_index,
            chunk_text=str(obj["chunk_text"]),
            probability=probability,
            decision=decision,
            filtered=bool(obj.get("filtered", False)),
        )
    except (KeyError, TypeError, ValueError, CorpusError) as exc:
        field = exc.args[0] if isinstance(exc, KeyError) else exc
        raise FormatError(f"{path}:{lineno}: bad prediction row: {field}") from None
    if isinstance(decision, bool) or decision not in (0, 1):
        raise FormatError(f"{path}:{lineno}: field 'decision' must be 0 or 1")
    if isinstance(candidate_index, bool) or not isinstance(candidate_index, int) or candidate_index < 0:
        raise FormatError(f"{path}:{lineno}: field 'candidate_index' must be a nonnegative integer")
    if not 0.0 <= probability <= 1.0:
        raise FormatError(f"{path}:{lineno}: field 'probability' must lie in [0, 1]")
    return record


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
    for lineno, obj in _jsonl_rows(path):
        try:
            member = (str(obj["path"]), float(obj["val_micro_f1"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: bad manifest row: {exc}") from None
        if not 0.0 <= member[1] <= 1.0:
            raise FormatError(f"{path}:{lineno}: field 'val_micro_f1' must lie in [0, 1]")
        out.append(member)
    if not out:
        raise FormatError(f"{path}: empty ensemble manifest")
    return out


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
