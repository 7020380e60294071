"""One field rule for every JSON artifact loader.

Each row kind gets a property: replace one field with an arbitrary JSON
value; the loader rejects it with a type error naming the file, the line (for
JSONL) and the field exactly when the value's JSON type differs from the
field's. A number field takes integers too; a boolean is never a number.
"""

from __future__ import annotations

import json
import re
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tweetslots.corpus import CorpusError, EventType, SubtaskRegistry, load_corpus
from tweetslots.encoder import EncoderConfig
from tweetslots.features import StrategyKind
from tweetslots.metrics import MetricsError, load_report
from tweetslots import serialize
from tweetslots.multitask import init_model
from tweetslots.serialize import (
    MODEL_MAGIC,
    FormatError,
    load_model,
    load_train_log,
    save_model,
)

TWEET = {"id": "t1", "text": "my aunt died", "event": "death", "candidates": [[0, 7], [8, 12]], "gold": {"name": [0]}}
INSTANCE = {"tweet_id": "t1", "candidate_index": 0, "event": "death", "chunk_text": "my aunt", "marker_pos": 0,
            "length": 3, "max_len": 8, "token_ids": [2, 9, 3], "labels": {"name": 1}}
PREDICTION = {"tweet_id": "t1", "subtask": "death/name", "candidate_index": 0, "chunk_text": "my aunt",
              "probability": 0.75, "decision": 1, "filtered": False}
INSTANCE_ENCODER = EncoderConfig(vocab_size=32, max_len=8)
LOG_ROW = {"epoch": 1, "train_loss": 0.5, "val_micro_f1": 0.25}
REPORT = {"model_id": "m", "corpus_id": "c", "filtered": False, "micro_f1": 0.4,
          "subtasks": {"death/name": {"tp": 1, "fp": 0, "fn": 3, "f1": 0.4, "zero_denominator": False}}}

JSON_VALUES = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-100, 100),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.none(),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def load_instances(path):
    """``serialize.load_instances`` for the encoder the ``INSTANCE`` rows fit."""
    return serialize.load_instances(path, INSTANCE_ENCODER)


def load_predictions(path):
    """``serialize.load_predictions`` for a postprocessed file, whose rows, like ``PREDICTION``, hold 'filtered'."""
    return serialize.load_predictions(path, include_filtered=True)


def json_kind(value) -> str:
    """The JSON type of ``value``, read off its serialized text."""
    text = json.dumps(value)
    if text in ("true", "false"):
        return "boolean"
    if text == "null":
        return "null"
    if text[0] in '"[{':
        return {'"': "string", "[": "list", "{": "object"}[text[0]]
    return "integer" if re.fullmatch(r"-?\d+", text) else "number"


def check_type_rule(load, error, where: str, field: str, kind: str, value) -> None:
    """``load()`` raises the type error for ``field`` iff ``value`` has the wrong JSON type."""
    fits = json_kind(value) == kind or (kind == "number" and json_kind(value) == "integer")
    type_error = re.escape(f"{where}: field '{field}' must be ") + r"an? \w+, got "
    if not fits:
        with pytest.raises(error, match=type_error):
            load()
        return
    try:
        load()
    except error as exc:
        assert not re.search(type_error, str(exc)), exc


def write_rows(path, good: dict, field: str, value) -> None:
    """``good`` on line 1, then ``good`` with ``field`` replaced on line 2.

    Line 1 names another tweet, because a corpus repeats no tweet id and an
    instance file no (tweet, candidate) unit.
    """
    first = {**good, **{key: "t0" for key in ("id", "tweet_id") if key in good}}
    rows = [first, {**good, field: value}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_unchanged_rows_load(tmp_path):
    p = tmp_path / "f.jsonl"
    # A corpus comes from outside the program and may carry metadata; the
    # program's own artifact rows hold only the fields their loader reads.
    write_rows(p, TWEET, "spare", 0)
    assert len(load_corpus(p)) == 2
    for load, good in ((load_instances, INSTANCE), (load_predictions, PREDICTION)):
        write_rows(p, good, "spare", 0)
        with pytest.raises(FormatError, match=re.escape(f"{p}:2: unknown field 'spare'")):
            load(p)
    p.write_text(json.dumps(REPORT))
    [cell] = load_report(p).counts.values()
    assert cell.fn == 3


CORPUS_FIELDS = {"id": "string", "text": "string", "event": "string", "candidates": "list", "gold": "object"}


@PROPERTY
@given(field=st.sampled_from(sorted(CORPUS_FIELDS)), value=JSON_VALUES)
def test_corpus_row_fields(tmp_path, field, value):
    p = tmp_path / "c.jsonl"
    write_rows(p, TWEET, field, value)
    check_type_rule(lambda: load_corpus(p), CorpusError, f"{p}:2", field, CORPUS_FIELDS[field], value)


INSTANCE_FIELDS = {
    "tweet_id": "string", "candidate_index": "integer", "event": "string", "chunk_text": "string",
    "marker_pos": "integer", "length": "integer", "max_len": "integer", "token_ids": "list", "labels": "object",
}


@PROPERTY
@given(field=st.sampled_from(sorted(INSTANCE_FIELDS)), value=JSON_VALUES)
def test_instance_row_fields(tmp_path, field, value):
    p = tmp_path / "i.jsonl"
    write_rows(p, INSTANCE, field, value)
    check_type_rule(lambda: load_instances(p), FormatError, f"{p}:2", field, INSTANCE_FIELDS[field], value)


@PROPERTY
@given(value=JSON_VALUES)
@example(value=True)
@example(value=2)
@example(value="1")
def test_instance_label_values(tmp_path, value):
    p = tmp_path / "i.jsonl"
    write_rows(p, INSTANCE, "labels", {"name": value})
    if json_kind(value) == "integer" and value not in (0, 1):
        with pytest.raises(FormatError, match=re.escape(f"{p}:2, labels: field 'name' must be 0 or 1, got {value}")):
            load_instances(p)
        return
    check_type_rule(lambda: load_instances(p), FormatError, f"{p}:2, labels", "name", "integer", value)
    if value in (0, 1) and type(value) is int:
        assert [inst.label for inst in load_instances(p)] == [1, value]


PREDICTION_FIELDS = {
    "tweet_id": "string", "subtask": "string", "candidate_index": "integer", "chunk_text": "string",
    "probability": "number", "decision": "integer", "filtered": "boolean",
}


@PROPERTY
@given(field=st.sampled_from(sorted(PREDICTION_FIELDS)), value=JSON_VALUES)
def test_prediction_row_fields(tmp_path, field, value):
    p = tmp_path / "p.jsonl"
    write_rows(p, PREDICTION, field, value)
    check_type_rule(lambda: load_predictions(p), FormatError, f"{p}:2", field, PREDICTION_FIELDS[field], value)


HEADER_FIELDS = {
    "encoder": "object", "strategy": "string", "subtasks": "list", "arrays": "list",
    **{f"encoder.{name}": "integer" for name in ("num_layers", "hidden_size", "vocab_size", "max_len",
                                                 "context_window", "seed")},
}


@PROPERTY
@given(field=st.sampled_from(sorted(HEADER_FIELDS)), value=JSON_VALUES)
def test_model_header_fields(tmp_path, field, value):
    p = tmp_path / "m.bin"
    cfg = EncoderConfig(num_layers=4, hidden_size=8, vocab_size=32, max_len=10, context_window=1, seed=0)
    save_model(init_model(cfg, StrategyKind.SUM4, SubtaskRegistry({EventType.DEATH: ("name",)}), seed=0), p)
    blob = p.read_bytes()
    start = len(MODEL_MAGIC) + 8
    header_len = struct.unpack_from("<I", blob, len(MODEL_MAGIC) + 4)[0]
    header = json.loads(blob[start:start + header_len])
    section, _, name = field.rpartition(".")
    (header[section] if section else header)[name] = value
    text = json.dumps(header).encode()
    p.write_bytes(blob[:len(MODEL_MAGIC) + 4] + struct.pack("<I", len(text)) + text + blob[start + header_len:])
    where = f"{p}: model header" + (f", {section}" if section else "")
    check_type_rule(lambda: load_model(p), FormatError, where, name, HEADER_FIELDS[field], value)


REPORT_FIELDS = {"model_id": "string", "corpus_id": "string", "filtered": "boolean", "micro_f1": "number",
                 "subtasks": "object", "tp": "integer", "fp": "integer", "fn": "integer", "f1": "number",
                 "zero_denominator": "boolean"}
CELL_FIELDS = ("tp", "fp", "fn", "f1", "zero_denominator")


@PROPERTY
@given(field=st.sampled_from(sorted(REPORT_FIELDS)), value=JSON_VALUES)
def test_report_fields(tmp_path, field, value):
    p = tmp_path / "r.json"
    obj = json.loads(json.dumps(REPORT))
    where = str(p)
    if field in CELL_FIELDS:
        obj["subtasks"]["death/name"][field] = value
        where = f"{p}, subtask death/name"
    else:
        obj[field] = value
    p.write_text(json.dumps(obj))
    check_type_rule(lambda: load_report(p), MetricsError, where, field, REPORT_FIELDS[field], value)


@pytest.mark.parametrize("row", ["5", "null", "[1, 2]", '"text"'])
def test_non_object_row_names_file_and_line(tmp_path, row):
    p = tmp_path / "i.jsonl"
    p.write_text(json.dumps(INSTANCE) + "\n" + row + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:2: expected an object, got ")):
        load_instances(p)


@pytest.mark.parametrize("name, row, load, message", [
    ("p.jsonl", {**PREDICTION, "filtered": "false"}, load_predictions,
     ":1: field 'filtered' must be a boolean, got \"false\""),
    ("r.json", {**REPORT, "subtasks": {"death/name": {"tp": 2.7, "fp": 0, "fn": 0}}}, load_report,
     ", subtask death/name: field 'tp' must be an integer, got 2.7"),
])
def test_values_once_coerced_are_rejected(tmp_path, name, row, load, message):
    p = tmp_path / name
    p.write_text(json.dumps(row) + "\n")
    with pytest.raises((FormatError, MetricsError), match=re.escape(f"{p}{message}")):
        load(p)


@pytest.mark.parametrize("name, row, load, field, where", [
    ("c.jsonl", TWEET, load_corpus, "text", ":1"),
    ("i.jsonl", INSTANCE, load_instances, "chunk_text", ":1"),
    ("p.jsonl", PREDICTION, load_predictions, "tweet_id", ":1"),
    ("r.json", REPORT, load_report, "model_id", ""),
])
def test_lone_surrogate_is_refused(tmp_path, name, row, load, field, where):
    # json.dumps writes the surrogate as the escape \ud83d. Read as text, it could not be written as UTF-8.
    p = tmp_path / name
    p.write_text(json.dumps({**row, field: row[field] + "\ud83d"}) + "\n")
    with pytest.raises((CorpusError, FormatError, MetricsError), match=re.escape(
            f"{p}{where}: field {field!r} holds a lone surrogate '\\ud83d', not text")):
        load(p)


@pytest.mark.parametrize("row, load, field", [
    # Read leniently, this row loaded as filtered=False.
    ({**{k: v for k, v in PREDICTION.items() if k != "filtered"}, "filterd": True}, load_predictions, "filterd"),
    ({**LOG_ROW, "val_f1": 0.9}, load_train_log, "val_f1"),
    ({**INSTANCE, "label": 1}, load_instances, "label"),
], ids=["prediction", "log", "instance"])
def test_unknown_artifact_field_is_refused(tmp_path, row, load, field):
    p = tmp_path / "a.jsonl"
    p.write_text(json.dumps(row) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{p}:1: unknown field '{field}'")):
        load(p)


def _report_with(cell: dict | None = None, **top) -> dict:
    return {**REPORT, **top, "subtasks": {"death/name": {**REPORT["subtasks"]["death/name"], **(cell or {})}}}


@pytest.mark.parametrize("report, message", [
    (_report_with(extra=1), ": unknown field 'extra'"),
    (_report_with({"spare": 0}), ", subtask death/name: unknown field 'spare'"),
    (_report_with(micro_f1=0.99), ": field 'micro_f1' is 0.99, but the counts give 0.4"),
    (_report_with({"f1": 0.42}), ", subtask death/name: field 'f1' is 0.42, but the counts give 0.4"),
    (_report_with({"zero_denominator": True}),
     ", subtask death/name: field 'zero_denominator' is True, but the counts give False"),
], ids=["top-level-field", "cell-field", "micro-f1", "cell-f1", "zero-denominator"])
def test_report_holds_only_what_its_counts_give(tmp_path, report, message):
    # Read leniently, each of these loaded, and ablate compared the recomputed scores.
    p = tmp_path / "r.json"
    p.write_text(json.dumps(report))
    with pytest.raises(MetricsError, match=f"^{re.escape(f'{p}{message}')}$"):
        load_report(p)


@pytest.mark.parametrize("name, row, load, message", [
    ("r.json", {**REPORT, "subtasks": {"death/name": {"tp": -3, "fp": 0, "fn": 0}}}, load_report,
     ", subtask death/name: field 'tp' must be a nonnegative integer, got -3"),
    ("i.jsonl", {**INSTANCE, "candidate_index": -4}, load_instances,
     ":1: field 'candidate_index' must be a nonnegative integer, got -4"),
    ("i.jsonl", {**INSTANCE, "marker_pos": -1}, load_instances,
     ":1: field 'marker_pos' must be a nonnegative integer, got -1"),
    ("p.jsonl", {**PREDICTION, "candidate_index": -2}, load_predictions,
     ":1: field 'candidate_index' must be a nonnegative integer, got -2"),
])
def test_negative_counts_and_indices_are_rejected(tmp_path, name, row, load, message):
    p = tmp_path / name
    p.write_text(json.dumps(row) + "\n")
    with pytest.raises((FormatError, MetricsError), match=re.escape(f"{p}{message}")):
        load(p)


def test_integer_probability_loads_as_float(tmp_path):
    p = tmp_path / "p.jsonl"
    p.write_text(json.dumps({**PREDICTION, "probability": 1}) + "\n")
    [rec] = load_predictions(p)
    assert type(rec.probability) is float and rec.probability == 1.0


@pytest.mark.parametrize("name, row, load, field, where", [
    ("p.jsonl", PREDICTION, load_predictions, "probability", ":1"),
    ("log.jsonl", LOG_ROW, load_train_log, "train_loss", ":1"),
    ("r.json", REPORT, load_report, "micro_f1", ""),
], ids=["prediction", "log", "report"])
def test_an_integer_too_large_for_a_float_names_its_field(tmp_path, name, row, load, field, where):
    # float(10**400) raises OverflowError, which no loader may let escape.
    p = tmp_path / name
    p.write_text(json.dumps({**row, field: 10**400}) + "\n")
    with pytest.raises((FormatError, MetricsError), match=re.escape(
            f"{p}{where}: field {field!r} is an integer too large for a float")):
        load(p)


@pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000 + "]" * 100_000], ids=["digits", "nesting"])
@pytest.mark.parametrize("name, row, load, where", [
    ("p.jsonl", PREDICTION, load_predictions, ":1"),
    ("r.json", REPORT, load_report, ""),
], ids=["prediction", "report"])
def test_json_the_parser_cannot_hold_is_malformed(tmp_path, name, row, load, where, value):
    # Python's parser refuses an integer of over 4300 digits with a ValueError, and deep nesting
    # with a RecursionError; neither is a JSONDecodeError.
    p = tmp_path / name
    p.write_text(json.dumps(row)[:-1] + f', "spare": {value}}}\n')
    with pytest.raises((FormatError, MetricsError), match=re.escape(f"{p}{where}: malformed JSON (")):
        load(p)
