"""The stage sequence a pipeline run calls, and the names, units and
directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same metrics; ``smoke.py`` checks that the two
agree.
"""

# The stage sequence one pipeline run calls, as (label, pipeline function).
STAGES = (
    ("preprocess", "stage_preprocess"),
    ("train", "stage_train_pool"),
    ("ensemble", "stage_ensemble"),
    ("postprocess", "stage_postprocess"),
    ("evaluate", "stage_evaluate"),
    ("evaluate_filtered", "stage_evaluate_filtered"),
    ("ablate", "stage_ablate"),
)
INFER_STAGES = ("ensemble", "postprocess", "evaluate", "evaluate_filtered", "ablate")
# Stages timed between two runs of the reference kernel (see reference.py).
STAGE_GROUPS = (("preprocess",), ("train",), INFER_STAGES)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("preprocess_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("infer_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("micro_f1_filtered", "ratio", "higher"),
    ("ok_frac", "ratio", "higher"),
)

# Span names timed by the traced run. Each yields <base>_s (seconds per
# pipeline run), a call count, and the per-call p50 and tail in ms. The
# loss-and-gradients span reports self time, excluding its encoder and
# feature children.
TIMED = (
    "preprocess.clean",
    "preprocess.tokenize",
    "preprocess.mask_corpus",
    "serialize.instances_io",
    "serialize.model_io",
    "serialize.predictions_io",
    "corpus.load_split",
    "encoder.forward",
    "encoder.backward",
    "features.extract",
    "features.backward",
    "multitask.loss_and_grads",
    "multitask.adamw_step",
    "multitask.validate",
    "multitask.predict",
    "multitask.train_member",
    "ensemble.members",
    "ensemble.vote",
    "nerfilter.tag",
    "metrics.score",
    "pipeline.setup_rebuild",
)
SELF_TIMED = {"multitask.loss_and_grads": "multitask.loss_and_grads_self"}
COUNT_NAMES = {
    "multitask.adamw_step": "multitask.adamw_steps",
    "pipeline.setup_rebuild": "pipeline.setup_rebuilds",
}


def timed_names(span: str) -> tuple[str, str, str, str]:
    """(total, count, p50, tail) metric names of one timed span."""
    base = SELF_TIMED.get(span, span)
    count = COUNT_NAMES.get(span, f"{base}_calls")
    return f"{base}_s", count, f"{base}_p50_ms", f"{base}_tail_ms"


DERIVED = (
    ("preprocess.masked_rows", "count", "lower"),
    ("preprocess.unique_ratio", "ratio", "higher"),
    ("serialize.instances_bytes", "bytes", "lower"),
    ("serialize.predictions_bytes", "bytes", "lower"),
    ("encoder.rows", "count", "lower"),
    ("encoder.pad_frac", "ratio", "lower"),
    ("encoder.fwd_gflop", "gflop_computed", "lower"),
    ("encoder.bwd_gflop", "gflop_computed", "lower"),
    ("encoder.bwd_gflop_per_s", "gflop_computed/s", "higher"),
    ("nerfilter.nullified", "count", "lower"),
    ("nerfilter.nullified_ratio", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for span in TIMED:
        total, count, p50, tail = timed_names(span)
        out += [(total, "s", "lower"), (count, "count", "lower"), (p50, "ms", "lower"), (tail, "ms", "lower")]
    return out + list(DERIVED)


_TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it (p50
    when there are too few samples for any)."""
    for q in _TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0
