"""Compare two `tweetslots run` trees under the float-order rule.

    python tools/compare_trees.py A B

A change that only reorders float arithmetic may move the last bits of a
run's numbers, but nothing a reader sees. The rule holds file by file:

- every file of one tree is in the other;
- the split manifest, the instance files, `report_*`, `table_*`, `ablation.*`
  and every other file not named below are byte-identical;
- `run_manifest.json` holds equal fields (the run's status, the split seed,
  a failed stage) and the same path for each artifact name. It may differ
  in two things. Each artifact's SHA-256 differs whenever a file that the
  rule lets differ does, and the rule compares those files themselves. The
  config fingerprint hashes the resolved config's repr, so it moves when a
  config dataclass changes, even if no other file does;
- the prediction files (`predictions*.jsonl`) have equal rows with equal
  fields, except that a probability may differ by up to 1e-11 relative;
- in the training logs (`logs/*.jsonl`), `epoch` and `val_micro_f1` are
  equal and `train_loss` is within 1e-11 relative;
- the model files (`models/*.bin`) have equal headers, and each array value
  is within 1e-9 of that array's largest magnitude.

Prints one JSON verdict: whether the trees are byte-identical (every file,
the manifest included), the first differing file, the largest relative
differences seen, and each failure.
Exits 0 when the rule holds, 1 when it fails, 2 when a tree is not a
directory. It reads the files itself and imports no `tweetslots`, so trees
written by two versions of the package compare the same way.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np

PROBABILITY_RTOL = 1e-11
TRAIN_LOSS_RTOL = 1e-11
MODEL_ATOL = 1e-9  # times each array's largest magnitude
MODEL_MAGIC = b"TWSLMODL"
MANIFEST = "run_manifest.json"


class Mismatch(Exception):
    """The two versions of one file break the rule."""


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if a == b else abs(a - b) / scale


def _jsonl_rows(data: bytes, name: str) -> list[dict]:
    try:
        return [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except ValueError as exc:
        raise Mismatch(f"{name} is not JSON lines: {exc}") from None


def _paired_rows(a: bytes, b: bytes, name: str):
    rows_a, rows_b = _jsonl_rows(a, name), _jsonl_rows(b, name)
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a)} rows against {len(rows_b)}")
    for lineno, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if not isinstance(row_a, dict) or not isinstance(row_b, dict) or row_a.keys() != row_b.keys():
            raise Mismatch(f"line {lineno}: the rows have different fields")
        yield lineno, row_a, row_b


def _close_rows(a: bytes, b: bytes, name: str, field: str, rtol: float) -> float:
    """Rows equal field by field, ``field`` within ``rtol`` relative; returns its largest relative difference."""
    worst = 0.0
    for lineno, row_a, row_b in _paired_rows(a, b, name):
        for key in row_a:
            x, y = row_a[key], row_b[key]
            if key == field and type(x) is float and type(y) is float:
                rel = _relative(x, y)
                worst = max(worst, rel)
                if rel > rtol:
                    raise Mismatch(f"line {lineno}: {key} {x!r} against {y!r}, {rel:.3g} relative > {rtol:g}")
            elif x != y or type(x) is not type(y):
                raise Mismatch(f"line {lineno}: {key} {x!r} against {y!r}")
    return worst


def _model_arrays(data: bytes, name: str) -> tuple[bytes, list[tuple[str, np.ndarray]]]:
    """The model container's header bytes (magic through JSON header) and its arrays."""
    start = len(MODEL_MAGIC) + 8
    if len(data) < start or not data.startswith(MODEL_MAGIC):
        raise Mismatch(f"{name} is not a model file")
    (header_len,) = struct.unpack_from("<I", data, len(MODEL_MAGIC) + 4)
    header = data[:start + header_len]
    try:
        declared = json.loads(header[start:].decode("utf-8"))["arrays"]
    except (ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"{name}: unreadable model header: {exc}") from None
    arrays, offset = [], len(header)
    for array_name, shape in declared:
        size = int(np.prod(shape, dtype=np.int64))
        if offset + 8 * size > len(data):
            raise Mismatch(f"{name}: truncated array data")
        values = np.frombuffer(data, dtype="<f8", count=size, offset=offset) if size else np.empty(0)
        arrays.append((array_name, values))
        offset += 8 * size
    if offset != len(data):
        raise Mismatch(f"{name}: the array data does not fill the file")
    return header, arrays


def _close_models(a: bytes, b: bytes, name: str) -> float:
    """Equal headers; each array within MODEL_ATOL of its largest magnitude. Returns the largest
    difference seen, relative to its array's largest magnitude."""
    header_a, arrays_a = _model_arrays(a, name)
    header_b, arrays_b = _model_arrays(b, name)
    if header_a != header_b:
        raise Mismatch("the model headers differ")
    worst = 0.0
    for (array_name, x), (_, y) in zip(arrays_a, arrays_b):
        scale = max(float(np.abs(x).max(initial=0.0)), float(np.abs(y).max(initial=0.0)))
        diff = float(np.abs(x - y).max(initial=0.0))
        rel = 0.0 if diff == 0.0 else diff / scale
        worst = max(worst, rel)
        if rel > MODEL_ATOL:
            raise Mismatch(f"array {array_name}: differs by {rel:.3g} of its largest magnitude > {MODEL_ATOL:g}")
    return worst


def _manifest_fields(data: bytes, name: str) -> dict:
    """A run manifest's fields without its config fingerprint and its artifacts' SHA-256."""
    try:
        obj = json.loads(data.decode("utf-8"))
        obj.pop("config_sha256", None)
        obj["artifacts"] = {key: {k: v for k, v in entry.items() if k != "sha256"}
                            for key, entry in obj["artifacts"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise Mismatch(f"{name} is not a run manifest: {exc!r}") from None
    return obj


def _same_manifest(a: bytes, b: bytes, name: str) -> None:
    """Equal fields, and equal entries name by name, outside the fingerprint and the SHA-256."""
    fields_a, fields_b = _manifest_fields(a, name), _manifest_fields(b, name)
    for key in sorted((fields_a.keys() | fields_b.keys()) - {"artifacts"}):
        if fields_a.get(key) != fields_b.get(key):
            raise Mismatch(f"{key} {fields_a.get(key)!r} against {fields_b.get(key)!r}")
    arts_a, arts_b = fields_a["artifacts"], fields_b["artifacts"]
    for key in sorted(arts_a.keys() | arts_b.keys()):
        if arts_a.get(key) != arts_b.get(key):
            raise Mismatch(f"artifact {key}: {arts_a.get(key)!r} against {arts_b.get(key)!r}")


def _check(rel: str, a: bytes, b: bytes, worst: dict[str, float]) -> None:
    """Raise Mismatch unless two unequal versions of ``rel`` satisfy the rule."""
    parts = rel.split("/")
    if rel == MANIFEST:
        _same_manifest(a, b, rel)
        return
    if len(parts) == 1 and parts[0].startswith("predictions") and parts[0].endswith(".jsonl"):
        kind, rel_diff = "probability", _close_rows(a, b, rel, "probability", PROBABILITY_RTOL)
    elif len(parts) == 2 and parts[0] == "logs" and parts[1].endswith(".jsonl"):
        kind, rel_diff = "train_loss", _close_rows(a, b, rel, "train_loss", TRAIN_LOSS_RTOL)
    elif len(parts) == 2 and parts[0] == "models" and parts[1].endswith(".bin"):
        kind, rel_diff = "model", _close_models(a, b, rel)
    else:
        raise Mismatch("must be byte-identical")
    worst[kind] = max(worst[kind], rel_diff)


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(a: Path, b: Path) -> dict:
    """The verdict on trees ``a`` and ``b``."""
    files_a, files_b = _files(a), _files(b)
    failures = [{"file": rel, "reason": f"only in {side}"}
                for side, only in ((str(a), files_a - files_b), (str(b), files_b - files_a))
                for rel in sorted(only)]
    worst = {"probability": 0.0, "train_loss": 0.0, "model": 0.0}
    differing = []
    for rel in sorted(files_a & files_b):
        data_a, data_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if data_a == data_b:
            continue
        differing.append(rel)
        try:
            _check(rel, data_a, data_b, worst)
        except Mismatch as exc:
            failures.append({"file": rel, "reason": str(exc)})
    return {
        "ok": not failures,
        "bytes_identical": not failures and not differing,
        "first_difference": min(differing + [f["file"] for f in failures], default=None),
        "differing_files": len(differing),
        "max_relative": worst,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_trees.py A B", file=sys.stderr)
        return 2
    a, b = Path(args[0]), Path(args[1])
    for root in (a, b):
        if not root.is_dir():
            print(f"compare_trees.py: {root} is not a directory", file=sys.stderr)
            return 2
    verdict = compare(a, b)
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
