"""Chunk-level F1 scoring, report rendering, and ablation comparison.

Each prediction is judged against the gold candidate set of its (tweet,
subtask) pair: decision 1 on a gold candidate is a TP, decision 1 elsewhere
an FP, decision 0 on a gold candidate an FN. Per-subtask F1 is
2TP/(2TP+FP+FN); the pooled micro-F1 applies the same formula to counts
summed across all subtasks (pooling counts, not averaging F1s). Zero
denominators score 0 and are flagged rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import (
    EVENT_ORDER,
    AnnotatedTweet,
    CorpusError,
    SubtaskId,
    SubtaskRegistry,
    json_document,
    json_field,
    json_nonnegative_int,
    parse_json_object,
    read_utf8,
    write_file,
)
from .multitask import PredictionRecord, micro_f1_counts


class MetricsError(ValueError):
    """Predictions that do not join the gold corpus, or report misuse."""


@dataclass
class SubtaskCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def zero_denominator(self) -> bool:
        return 2 * self.tp + self.fp + self.fn == 0

    @property
    def f1(self) -> float:
        return micro_f1_counts(self.tp, self.fp, self.fn)


@dataclass
class MetricsReport:
    counts: dict[SubtaskId, SubtaskCounts]
    model_id: str = ""
    corpus_id: str = ""
    filtered: bool = False

    @property
    def micro_f1(self) -> float:
        return micro_f1_counts(
            sum(c.tp for c in self.counts.values()),
            sum(c.fp for c in self.counts.values()),
            sum(c.fn for c in self.counts.values()),
        )


def score(
    predictions: Sequence[PredictionRecord],
    tweets: Sequence[AnnotatedTweet],
    registry: SubtaskRegistry | None = None,
    model_id: str = "",
    corpus_id: str = "",
    filtered: bool = False,
) -> MetricsReport:
    """Count TP/FP/FN per subtask over the predicted triples.

    Every registered subtask appears in the report (zero counts when it never
    occurs). A prediction that references an unknown tweet, a subtask foreign
    to that tweet's event, an out-of-range candidate, or a duplicate triple
    is an error.
    """
    registry = registry or SubtaskRegistry.default()
    by_id: dict[str, AnnotatedTweet] = {}
    for tweet in tweets:
        if tweet.id in by_id:
            raise MetricsError(f"duplicate tweet id {tweet.id!r} in gold corpus")
        by_id[tweet.id] = tweet
    counts = {subtask: SubtaskCounts() for subtask in sorted(registry.all_subtasks())}
    seen: set[tuple] = set()
    for rec in predictions:
        tweet = by_id.get(rec.tweet_id)
        if tweet is None:
            raise MetricsError(f"prediction references unknown tweet {rec.tweet_id!r}")
        if rec.subtask not in counts:
            raise MetricsError(f"prediction references unregistered subtask {rec.subtask}")
        if rec.subtask.event is not tweet.event:
            raise MetricsError(
                f"tweet {rec.tweet_id!r} is a {tweet.event.value} tweet; "
                f"prediction for {rec.subtask} cannot join it"
            )
        if not 0 <= rec.candidate_index < len(tweet.candidates):
            raise MetricsError(
                f"tweet {rec.tweet_id!r}: candidate index {rec.candidate_index} out of range"
            )
        key = (rec.tweet_id, rec.subtask.key, rec.candidate_index)
        if key in seen:
            raise MetricsError(f"duplicate prediction for {key}")
        seen.add(key)
        positive = rec.candidate_index in tweet.gold.get(rec.subtask.name, frozenset())
        cell = counts[rec.subtask]
        if rec.decision == 1 and positive:
            cell.tp += 1
        elif rec.decision == 1:
            cell.fp += 1
        elif positive:
            cell.fn += 1
    return MetricsReport(counts=counts, model_id=model_id, corpus_id=corpus_id, filtered=filtered)


@dataclass
class ComparisonRow:
    subtask: SubtaskId
    f1_a: float
    f1_b: float

    @property
    def delta(self) -> float:
        return self.f1_b - self.f1_a


@dataclass
class Comparison:
    label_a: str
    label_b: str
    rows: list[ComparisonRow]
    micro_a: float
    micro_b: float
    corpus_id: str = ""

    @property
    def micro_delta(self) -> float:
        return self.micro_b - self.micro_a


def compare(report_a: MetricsReport, report_b: MetricsReport, label_a: str = "a", label_b: str = "b") -> Comparison:
    """Side-by-side per-subtask F1 with deltas (b minus a)."""
    if report_a.corpus_id != report_b.corpus_id:
        raise MetricsError(
            f"reports cover different corpora: {report_a.corpus_id!r} vs {report_b.corpus_id!r}"
        )
    if set(report_a.counts) != set(report_b.counts):
        raise MetricsError("reports cover different subtask sets")
    rows = [
        ComparisonRow(subtask=s, f1_a=report_a.counts[s].f1, f1_b=report_b.counts[s].f1)
        for s in sorted(report_a.counts)
    ]
    return Comparison(
        label_a=label_a,
        label_b=label_b,
        rows=rows,
        micro_a=report_a.micro_f1,
        micro_b=report_b.micro_f1,
        corpus_id=report_a.corpus_id,
    )


def _ordered_subtasks(counts: Mapping[SubtaskId, SubtaskCounts]) -> list[tuple]:
    """(event, [subtasks]) pairs in canonical event order, names sorted."""
    out = []
    for event in EVENT_ORDER:
        members = sorted(s for s in counts if s.event is event)
        if members:
            out.append((event, members))
    return out


def render_table(report: MetricsReport) -> str:
    """Fixed-width text table: event sections, subtask rows, micro summary."""
    lines = [f"{'subtask':<24} {'TP':>6} {'FP':>6} {'FN':>6} {'F1':>7}"]
    for event, members in _ordered_subtasks(report.counts):
        lines.append(event.value.replace("_", " ").upper())
        for subtask in members:
            c = report.counts[subtask]
            flag = " *" if c.zero_denominator else ""
            lines.append(
                f"  {subtask.name:<22} {c.tp:>6} {c.fp:>6} {c.fn:>6} {c.f1:>7.3f}{flag}"
            )
    lines.append(f"{'micro avg. F1':<24} {'':>6} {'':>6} {'':>6} {report.micro_f1:>7.3f}")
    return "\n".join(lines) + "\n"


def render_comparison(cmp: Comparison) -> str:
    """Ablation table: per-subtask F1 under both settings plus deltas."""
    width = max(24, len(cmp.label_a) + 2, len(cmp.label_b) + 2)
    name_w = max([24] + [len(str(row.subtask)) for row in cmp.rows])
    lines = [f"{'subtask':<{name_w}} {cmp.label_a:>{width}} {cmp.label_b:>{width}} {'delta':>8}"]
    for row in cmp.rows:
        lines.append(
            f"{str(row.subtask):<{name_w}} {row.f1_a:>{width}.3f} {row.f1_b:>{width}.3f} {row.delta:>+8.3f}"
        )
    lines.append(
        f"{'micro avg. F1':<{name_w}} {cmp.micro_a:>{width}.3f} {cmp.micro_b:>{width}.3f} {cmp.micro_delta:>+8.3f}"
    )
    return "\n".join(lines) + "\n"


def comparison_to_obj(cmp: Comparison) -> dict:
    return {
        "label_a": cmp.label_a,
        "label_b": cmp.label_b,
        "corpus_id": cmp.corpus_id,
        "micro_f1_a": cmp.micro_a,
        "micro_f1_b": cmp.micro_b,
        "micro_delta": cmp.micro_delta,
        "subtasks": {
            str(r.subtask): {"f1_a": r.f1_a, "f1_b": r.f1_b, "delta": r.delta} for r in cmp.rows
        },
    }


def save_comparison(cmp: Comparison, path: str | Path) -> None:
    write_file(path, [json_document(comparison_to_obj(cmp))])


def report_to_obj(report: MetricsReport) -> dict:
    return {
        "model_id": report.model_id,
        "corpus_id": report.corpus_id,
        "filtered": report.filtered,
        "micro_f1": report.micro_f1,
        "subtasks": {
            str(s): {
                "tp": c.tp,
                "fp": c.fp,
                "fn": c.fn,
                "f1": c.f1,
                "zero_denominator": c.zero_denominator,
            }
            for s, c in sorted(report.counts.items())
        },
    }


def save_report(report: MetricsReport, path: str | Path) -> None:
    write_file(path, [json_document(report_to_obj(report))])


def load_report(path: str | Path) -> MetricsReport:
    where = str(path)
    obj = parse_json_object(read_utf8(path, MetricsError), where, MetricsError)
    subtasks = json_field(obj, "subtasks", dict, where, MetricsError)
    counts = {}
    for key in subtasks:
        cell = json_field(subtasks, key, dict, f"{where}, subtasks", MetricsError)
        try:
            subtask = SubtaskId.parse(key)
        except CorpusError as exc:
            raise MetricsError(f"{where}: {exc}") from None
        cell_where = f"{where}, subtask {key}"
        counts[subtask] = SubtaskCounts(
            tp=json_nonnegative_int(cell, "tp", cell_where, MetricsError),
            fp=json_nonnegative_int(cell, "fp", cell_where, MetricsError),
            fn=json_nonnegative_int(cell, "fn", cell_where, MetricsError),
        )
    return MetricsReport(
        counts=counts,
        model_id=json_field(obj, "model_id", str, where, MetricsError),
        corpus_id=json_field(obj, "corpus_id", str, where, MetricsError),
        filtered=json_field(obj, "filtered", bool, where, MetricsError),
    )
