"""Top-k model selection and majority-vote decision combination.

A pool of trained models (different feature strategies and seeds) is ranked
by validation micro-F1; the top k (odd, default 5) become ensemble members.
Every member scores the same instance table, so the vote runs on the k
members' probability arrays: each member's decision is its probability
thresholded, a triple's decision is the majority of those, and the mean
member probability is carried along for reporting only. One record per
(tweet, subtask, candidate) triple is built, after the vote.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from .corpus import DataError
from .multitask import PredictionRecord, prediction_records
from .preprocess import MaskedInstance

T = TypeVar("T")


class EnsembleError(DataError):
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


def ensemble_predict(
    member_probs: Sequence[Sequence[float]], instances: Sequence[MaskedInstance], threshold: float
) -> list[PredictionRecord]:
    """Majority-vote the members' probabilities over the triples of ``instances`` (see ``as_table``).

    ``member_probs[m][i]`` is member m's probability for triple i; member m
    votes 1 iff it is >= ``threshold``, and a triple's decision is
    ``majority_vote`` of its members' votes, counted for all triples at once.
    The reported probability is the members' sum, taken in member order,
    divided by their count. Output follows triple order.
    """
    if len(member_probs) % 2 == 0:
        raise EnsembleError(f"vote needs an odd member count, got {len(member_probs)}")
    probs = [np.asarray(p, dtype=np.float64) for p in member_probs]
    for mi, p in enumerate(probs, 1):
        if p.shape != (len(instances),):
            raise EnsembleError(f"member {mi} gives {p.shape} probabilities for {len(instances)} instances")
    yes = np.count_nonzero(np.stack(probs) >= threshold, axis=0)
    return prediction_records(instances, (sum(probs) / len(probs)).tolist(), (yes > len(probs) // 2).tolist())
