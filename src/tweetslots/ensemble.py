"""Top-k model selection and majority-vote decision combination.

A pool of trained models (different feature strategies and seeds) is ranked
by validation micro-F1; the top k (odd, default 5) become ensemble members.
Votes are cast on thresholded binary decisions, not probabilities; the mean
member probability is carried along for reporting only.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .multitask import PredictionRecord

T = TypeVar("T")


class EnsembleError(ValueError):
    """Invalid ensemble configuration or member set."""


def select_top(scored_models: Sequence[tuple[T, float]], k: int) -> list[tuple[T, float]]:
    """The k highest-scoring entries, descending; ties keep pool order."""
    if k < 1:
        raise EnsembleError(f"k must be positive, got {k}")
    if len(scored_models) < k:
        raise EnsembleError(f"need at least {k} scored models, got {len(scored_models)}")
    ranked = sorted(range(len(scored_models)), key=lambda i: (-scored_models[i][1], i))
    return [scored_models[i] for i in ranked[:k]]


def majority_vote(decisions: Sequence[int]) -> int:
    """1 iff more than half the (odd count of) members voted 1."""
    if len(decisions) % 2 == 0:
        raise EnsembleError(f"vote needs an odd member count, got {len(decisions)}")
    return 1 if sum(1 for d in decisions if d) > len(decisions) // 2 else 0


def _record_key(rec: PredictionRecord) -> tuple:
    return (rec.tweet_id, rec.subtask.key, rec.candidate_index)


def ensemble_predict(member_records: Sequence[Sequence[PredictionRecord]]) -> list[PredictionRecord]:
    """Combine aligned member predictions by majority vote.

    Members must cover the same (tweet, subtask, candidate) triples, each
    once; output follows the first member's order.
    """
    if len(member_records) % 2 == 0:
        raise EnsembleError(f"vote needs an odd member count, got {len(member_records)}")
    indexed: list[dict[tuple, PredictionRecord]] = []
    for mi, records in enumerate(member_records, 1):
        by_key = {_record_key(r): r for r in records}
        if len(by_key) != len(records):
            raise EnsembleError(f"member {mi} lists a (tweet, subtask, candidate) triple twice")
        if indexed and by_key.keys() != indexed[0].keys():
            raise EnsembleError(f"member {mi} predicts a different instance set than member 1")
        indexed.append(by_key)
    out = []
    for rec in member_records[0]:
        key = _record_key(rec)
        members = [m[key] for m in indexed]
        decisions = [m.decision for m in members]
        out.append(
            PredictionRecord(
                tweet_id=rec.tweet_id,
                subtask=rec.subtask,
                candidate_index=rec.candidate_index,
                chunk_text=rec.chunk_text,
                probability=sum(m.probability for m in members) / len(members),
                decision=majority_vote(decisions),
                filtered=False,
            )
        )
    return out
