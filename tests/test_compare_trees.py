"""tools/compare_trees.py: byte-identical trees pass, float-order noise passes, anything a reader sees fails."""

from __future__ import annotations

import importlib.util
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from tweetslots.pipeline import load_config, run_pipeline

_SPEC = importlib.util.spec_from_file_location(
    "compare_trees", Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py")
compare_trees = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_trees)


@pytest.fixture(scope="module")
def tree(ws, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("tree") / "run"
    run_pipeline(load_config(ws / "config.ini"), out)
    return out


@pytest.fixture
def copy(tree, tmp_path) -> Path:
    dest = tmp_path / "copy"
    shutil.copytree(tree, dest)
    return dest


def verdict(a: Path, b: Path, capsys) -> tuple[int, dict]:
    code = compare_trees.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    return code, json.loads(lines[0])


def edit_row(path: Path, line: int, **changes) -> None:
    rows = [json.loads(text) for text in path.read_text(encoding="utf-8").splitlines()]
    for key, change in changes.items():
        rows[line][key] = change(rows[line][key])
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows),
                    encoding="utf-8")


def edit_manifest(root: Path, change) -> None:
    path = root / "run_manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    change(manifest)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def test_identical_tree_passes(tree, copy, capsys):
    code, v = verdict(tree, copy, capsys)
    assert code == 0
    assert v["ok"] and v["bytes_identical"]
    assert v["first_difference"] is None


def test_probability_within_1e_11_relative_passes(tree, copy, capsys):
    edit_row(copy / "predictions.jsonl", 0, probability=lambda p: p * (1 + 1e-13))
    code, v = verdict(tree, copy, capsys)
    assert code == 0
    assert v["ok"] and not v["bytes_identical"]
    assert v["first_difference"] == "predictions.jsonl"
    assert 0 < v["max_relative"]["probability"] < 1e-11


def test_flipped_decision_fails(tree, copy, capsys):
    edit_row(copy / "predictions_filtered.jsonl", 2, decision=lambda d: 1 - d)
    code, v = verdict(tree, copy, capsys)
    assert code == 1
    assert not v["ok"]
    assert v["failures"][0]["file"] == "predictions_filtered.jsonl"
    assert "decision" in v["failures"][0]["reason"]


def test_probability_beyond_1e_11_relative_fails(tree, copy, capsys):
    edit_row(copy / "predictions.jsonl", 1, probability=lambda p: p * (1 + 1e-10))
    code, v = verdict(tree, copy, capsys)
    assert code == 1
    assert "probability" in v["failures"][0]["reason"]


def test_missing_file_fails(tree, copy, capsys):
    (copy / "table_filtered.txt").unlink()
    code, v = verdict(tree, copy, capsys)
    assert code == 1
    assert v["failures"] == [{"file": "table_filtered.txt", "reason": f"only in {tree}"}]


def test_report_must_be_byte_identical(tree, copy, capsys):
    path = copy / "report_filtered.json"
    path.write_bytes(path.read_bytes() + b"\n")
    code, v = verdict(tree, copy, capsys)
    assert code == 1
    assert v["failures"] == [{"file": "report_filtered.json", "reason": "must be byte-identical"}]


def test_train_loss_tolerance_and_exact_fields(tree, copy, capsys):
    log = next((copy / "logs").iterdir())
    edit_row(log, 0, train_loss=lambda x: x * (1 + 1e-13))
    assert verdict(tree, copy, capsys)[0] == 0
    edit_row(log, 0, val_micro_f1=lambda x: x * (1 + 1e-15) + 1e-15)
    code, v = verdict(tree, copy, capsys)
    assert code == 1
    assert "val_micro_f1" in v["failures"][0]["reason"]


@pytest.mark.parametrize("scale, ok", [(1e-12, True), (1e-8, False)])
def test_model_arrays_within_1e_9_of_their_largest_magnitude(tree, copy, capsys, scale, ok):
    path = next((copy / "models").iterdir())
    data = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", data, 12)
    [name, shape] = json.loads(data[16:16 + header_len])["arrays"][0]
    assert name == "enc.token_emb"
    first = 16 + header_len
    largest = float(np.abs(np.frombuffer(bytes(data), dtype="<f8", offset=first, count=int(np.prod(shape)))).max())
    (value,) = struct.unpack_from("<d", data, first)
    struct.pack_into("<d", data, first, value + scale * largest)
    path.write_bytes(bytes(data))
    code, v = verdict(tree, copy, capsys)
    assert (code == 0) is ok
    assert v["first_difference"] == path.relative_to(copy).as_posix()


def test_manifest_fingerprint_and_hashes_may_differ(tree, copy, capsys):
    def change(manifest):
        manifest["config_sha256"] = "0" * 64
        manifest["artifacts"]["report_filtered"]["sha256"] = "1" * 64
    edit_manifest(copy, change)
    code, v = verdict(tree, copy, capsys)
    assert code == 0
    assert v["ok"] and not v["bytes_identical"]
    assert v["first_difference"] == "run_manifest.json"


@pytest.mark.parametrize("change, reason", [
    (lambda m: m["artifacts"].__setitem__("ablation_text", m["artifacts"].pop("ablation_table")),
     "artifact ablation_table: {'path': 'ablation.txt'} against None"),
    (lambda m: m["artifacts"]["report_filtered"].__setitem__("path", "reports/filtered.json"),
     "artifact report_filtered: {'path': 'report_filtered.json'} against {'path': 'reports/filtered.json'}"),
    (lambda m: m.__setitem__("status", "failed"), "status 'ok' against 'failed'"),
    (lambda m: m.__setitem__("seed", m["seed"] + 1), "seed "),
], ids=["renamed-artifact", "moved-path", "status", "seed"])
def test_manifest_fields_and_paths_must_agree(tree, copy, capsys, change, reason):
    edit_manifest(copy, change)
    code, v = verdict(tree, copy, capsys)
    assert code == 1
    assert not v["ok"] and not v["bytes_identical"]
    [failure] = v["failures"]
    assert failure["file"] == "run_manifest.json"
    assert failure["reason"].startswith(reason)
