"""In-memory span tracing around the public functions of each layer.

Each wrapper is installed where its caller looks the name up: a module
global for callers inside that module (``preprocess.clean``,
``nerfilter.tag``), the importing module for a from-import binding
(``pipeline.mask_corpus``), and the class for a method (``AdamW.step``).
A target a refactor removed is recorded as absent instead of failing.

A span is ``(id, parent_id, name, start, end)``; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict
from typing import Callable

import numpy as np

from tweetslots import encoder, ensemble, features, metrics, multitask, nerfilter, pipeline
from tweetslots import preprocess, serialize
from tweetslots.preprocess import PAD_ID

import spec

Hook = Callable[[dict, tuple, dict, object], None]


def _file_bytes(counter: str) -> Hook:
    def hook(counts, args, kwargs, result):
        counts[counter] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    return hook


def _masked(counts, args, kwargs, result):
    counts["preprocess.masked_rows"] += len(result)
    counts["preprocess.unique_pairs"] += len({(i.tweet_id, i.candidate_index) for i in result})


def _encoder_flop(cfg, b: int, t: int) -> float:
    """Multiply-adds of the tap matmuls, as 2 flops each: (B*T, H) @ (H, H)."""
    return 2.0 * b * t * cfg.hidden_size ** 2 * cfg.num_taps * cfg.num_layers


def _forward(counts, args, kwargs, result):
    ids = np.asarray(args[1] if len(args) > 1 else kwargs["ids"])
    counts["encoder.rows"] += ids.shape[0]
    counts["encoder.pad_cells"] += int(np.count_nonzero(ids == PAD_ID))
    counts["encoder.cells"] += ids.size
    counts["encoder.fwd_gflop"] += _encoder_flop(args[0].config, *ids.shape) / 1e9


def _backward(counts, args, kwargs, result):
    params, cache = args[0], args[1]
    # Weight gradient plus input gradient: twice the forward tap work.
    counts["encoder.bwd_gflop"] += 2 * _encoder_flop(params.config, *cache.ids.shape) / 1e9


def _filtered(counts, args, kwargs, result):
    counts["nerfilter.nullified"] += sum(1 for r in result if r.filtered)


# (owner, attribute, span name, hook or None)
TARGETS = (
    *((pipeline, fn_name, f"stage.{label}", None) for label, fn_name in spec.STAGES),
    (pipeline, "make_registry", "pipeline.setup_rebuild", None),
    (pipeline, "make_clean_config", "pipeline.setup_rebuild", None),
    (pipeline, "make_gazetteer", "pipeline.setup_rebuild", None),
    (pipeline, "make_type_map", "pipeline.setup_rebuild", None),
    (pipeline, "load_and_split", "corpus.load_split", None),
    (pipeline, "mask_corpus", "preprocess.mask_corpus", _masked),
    (pipeline, "ensemble_from_manifest", "ensemble.members", None),
    (preprocess, "clean", "preprocess.clean", None),
    (preprocess, "tokenize", "preprocess.tokenize", None),
    (serialize, "save_instances", "serialize.instances_io", _file_bytes("serialize.instances_bytes")),
    (serialize, "load_instances", "serialize.instances_io", None),
    (serialize, "save_model", "serialize.model_io", None),
    (serialize, "load_model", "serialize.model_io", None),
    (serialize, "save_predictions", "serialize.predictions_io", _file_bytes("serialize.predictions_bytes")),
    (serialize, "load_predictions", "serialize.predictions_io", None),
    (encoder, "forward_batch", "encoder.forward", _forward),
    (encoder, "backward_batch", "encoder.backward", _backward),
    (features, "extract_batch", "features.extract", None),
    (features, "extract_backward_batch", "features.backward", None),
    (multitask, "train", "multitask.train_member", None),
    (multitask, "loss_and_grads", "multitask.loss_and_grads", None),
    (multitask.AdamW, "step", "multitask.adamw_step", None),
    (multitask, "validation_micro_f1", "multitask.validate", None),
    (multitask, "predict", "multitask.predict", None),
    (ensemble, "ensemble_predict", "ensemble.vote", None),
    (nerfilter, "filter_predictions", "nerfilter.filter", _filtered),
    (nerfilter, "tag", "nerfilter.tag", None),
    (metrics, "score", "metrics.score", None),
)


class Tracer:
    """Records spans and counters while installed; ``remove`` restores every
    original binding."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for owner, attr, name, hook in TARGETS:
            original = vars(owner).get(attr)
            if not callable(original):
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, hook))
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def _wrap(self, fn, name: str, hook: Hook | None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced


def span_table(spans) -> list[tuple[str, str, float, float]]:
    """One ``(name, root_name, duration, self_duration)`` row per span; the
    root is the outermost enclosing span, normally a stage."""
    child_time: dict[int, float] = defaultdict(float)
    parent_of = {}
    name_of = {}
    for span_id, parent, name, start, end in spans:
        child_time[parent] += end - start
        parent_of[span_id] = parent
        name_of[span_id] = name
    rows = []
    for span_id, _, name, start, end in spans:
        root = span_id
        while parent_of[root] in parent_of:
            root = parent_of[root]
        rows.append((name, name_of[root], end - start, end - start - child_time[span_id]))
    return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, overhead_frac: float, speed: float) -> tuple[dict[str, float], dict]:
    """Per-layer values from traced iterations, each ``(spans, counts)``.

    Totals and counts are medians over iterations (per pipeline run);
    per-call p50 and tail pool every call of every traced iteration. Every
    time is multiplied by ``speed``, the reference kernel's scale factor.
    """
    per_iter_total: dict[str, list[float]] = defaultdict(list)
    per_iter_calls: dict[str, list[int]] = defaultdict(list)
    samples: dict[str, list[float]] = defaultdict(list)
    train_self: dict[str, float] = defaultdict(float)
    counts: dict[str, list[float]] = defaultdict(list)
    for spans, iter_counts in traced:
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, root, dur, self_dur in span_table(spans):
            value = self_dur if name in spec.SELF_TIMED else dur
            total[name] += value
            calls[name] += 1
            samples[name].append(value)
            if root == "stage.train" and name != "stage.train":
                train_self[name] += self_dur / len(traced)
        for name in spec.TIMED:
            per_iter_total[name].append(total[name])
            per_iter_calls[name].append(calls[name])
        for key, value in iter_counts.items():
            counts[key].append(value)

    values: dict[str, float] = {}
    tails = {}
    for name in spec.TIMED:
        total_name, count_name, p50_name, tail_name = spec.timed_names(name)
        values[total_name] = statistics.median(per_iter_total[name]) * speed
        values[count_name] = statistics.median(per_iter_calls[name])
        ms = np.asarray(samples[name] or [0.0]) * 1e3 * speed
        q = spec.tail_percentile(len(samples[name]))
        values[p50_name] = float(np.percentile(ms, 50))
        values[tail_name] = float(np.percentile(ms, q))
        tails[tail_name] = q

    def count(key):
        return statistics.median(counts[key]) if counts[key] else 0.0

    values["preprocess.masked_rows"] = count("preprocess.masked_rows")
    values["preprocess.unique_ratio"] = _ratio(count("preprocess.unique_pairs"), count("preprocess.masked_rows"))
    values["serialize.instances_bytes"] = count("serialize.instances_bytes")
    values["serialize.predictions_bytes"] = count("serialize.predictions_bytes")
    values["encoder.rows"] = count("encoder.rows")
    values["encoder.pad_frac"] = _ratio(count("encoder.pad_cells"), count("encoder.cells"))
    values["encoder.fwd_gflop"] = count("encoder.fwd_gflop")
    values["encoder.bwd_gflop"] = count("encoder.bwd_gflop")
    values["encoder.bwd_gflop_per_s"] = _ratio(values["encoder.bwd_gflop"], values["encoder.backward_s"])
    values["nerfilter.nullified"] = count("nerfilter.nullified")
    values["nerfilter.nullified_ratio"] = _ratio(values["nerfilter.nullified"], values["nerfilter.tag_calls"])
    values["trace.overhead_frac"] = overhead_frac

    top = sorted(train_self.items(), key=lambda kv: -kv[1])
    notes = {
        "tail_percentile": tails,
        "no_samples": sorted(n for n in spec.TIMED if not samples[n]),
        "train_self_s": [[name, round(s * speed, 6)] for name, s in top],
        "computed_not_measured": ["encoder.fwd_gflop", "encoder.bwd_gflop", "encoder.bwd_gflop_per_s"],
    }
    return values, notes
