"""Ensemble selection and majority-vote tests against brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from tweetslots.corpus import EventType, SubtaskId
from tweetslots.ensemble import (
    EnsembleError,
    ensemble_predict,
    majority_vote,
    select_top,
)
from tweetslots.multitask import PredictionRecord

NAME = SubtaskId(EventType.DEATH, "name")
AGE = SubtaskId(EventType.DEATH, "age")


def rec(tweet_id, subtask, cand, prob, decision, chunk="c"):
    return PredictionRecord(
        tweet_id=tweet_id, subtask=subtask, candidate_index=cand,
        chunk_text=chunk, probability=prob, decision=decision,
    )


class TestMajorityVote:
    def test_all_patterns_of_five_exhaustively(self):
        # Oracle: popcount beats 2.
        for bits in itertools.product((0, 1), repeat=5):
            want = 1 if sum(bits) >= 3 else 0
            assert majority_vote(bits) == want

    def test_all_patterns_of_three(self):
        for bits in itertools.product((0, 1), repeat=3):
            assert majority_vote(bits) == (1 if sum(bits) >= 2 else 0)

    def test_single_member_identity(self):
        assert majority_vote([1]) == 1
        assert majority_vote([0]) == 0

    def test_even_count_rejected(self):
        with pytest.raises(EnsembleError):
            majority_vote([1, 0])

    def test_empty_rejected(self):
        with pytest.raises(EnsembleError):
            majority_vote([])


class TestSelectTop:
    def test_matches_sort_oracle_on_random_pools(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            scores = [float(rng.choice([0.1, 0.25, 0.5, 0.5, 0.9])) for _ in range(n)]
            pool = [(f"m{i}", scores[i]) for i in range(n)]
            got = select_top(pool, k)
            # Oracle: stable sort by descending score keeps earlier entries
            # ahead on ties.
            want = sorted(pool, key=lambda mv: -mv[1])[:k]
            assert got == want

    def test_tie_prefers_earlier_entry(self):
        pool = [("a", 0.5), ("b", 0.7), ("c", 0.5)]
        assert select_top(pool, 2) == [("b", 0.7), ("a", 0.5)]

    def test_k_equals_pool(self):
        pool = [("a", 0.1), ("b", 0.9)]
        assert select_top(pool, 2) == [("b", 0.9), ("a", 0.1)]

    def test_k_larger_than_pool_rejected(self):
        with pytest.raises(EnsembleError):
            select_top([("a", 0.5)], 2)

    def test_k_nonpositive_rejected(self):
        with pytest.raises(EnsembleError):
            select_top([("a", 0.5)], 0)


class TestEnsemblePredict:
    def members(self, decisions_per_member, probs=None):
        out = []
        for mi, decisions in enumerate(decisions_per_member):
            member = []
            for ri, d in enumerate(decisions):
                p = probs[mi][ri] if probs else (0.8 if d else 0.2)
                member.append(rec("t0", NAME, ri, p, d))
            out.append(member)
        return out

    def test_vote_per_record(self):
        members = self.members([[1, 0], [1, 1], [0, 0]])
        got = ensemble_predict(members)
        assert [r.decision for r in got] == [1, 0]

    def test_probability_is_mean(self):
        members = self.members([[1], [1], [0]], probs=[[0.9], [0.6], [0.3]])
        [r] = ensemble_predict(members)
        assert r.probability == pytest.approx(0.6)

    def test_output_follows_first_member_order(self):
        a = [rec("t0", NAME, 1, 0.9, 1), rec("t0", NAME, 0, 0.8, 1), rec("t1", AGE, 0, 0.1, 0)]
        # Second member, same triples, shuffled.
        b = [a[2], a[0], a[1]]
        c = [a[1], a[2], a[0]]
        got = ensemble_predict([a, b, c])
        assert [(r.tweet_id, r.subtask, r.candidate_index) for r in got] == [
            ("t0", NAME, 1), ("t0", NAME, 0), ("t1", AGE, 0)
        ]

    def test_even_member_count_rejected(self):
        members = self.members([[1], [0]])
        with pytest.raises(EnsembleError):
            ensemble_predict(members)

    def test_mismatched_triples_rejected(self):
        a = [rec("t0", NAME, 0, 0.9, 1)]
        b = [rec("t0", NAME, 1, 0.9, 1)]
        c = [rec("t0", NAME, 0, 0.9, 1)]
        with pytest.raises(EnsembleError):
            ensemble_predict([a, b, c])

    def test_duplicate_triples_rejected(self):
        a = [rec("t0", NAME, 0, 0.9, 1), rec("t0", NAME, 0, 0.8, 1)]
        with pytest.raises(EnsembleError):
            ensemble_predict([a, a, a])

    def test_randomized_vote_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_members = int(rng.choice([1, 3, 5]))
            n_records = int(rng.integers(1, 8))
            decisions = rng.integers(0, 2, size=(n_members, n_records))
            members = self.members(decisions.tolist())
            got = ensemble_predict(members)
            for ri, r in enumerate(got):
                want = 1 if decisions[:, ri].sum() > n_members // 2 else 0
                assert r.decision == want
