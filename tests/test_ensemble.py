"""Ensemble selection and majority-vote tests against brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.corpus import EventType, SubtaskId
from tweetslots.ensemble import (
    EnsembleError,
    ensemble_predict,
    majority_vote,
    select_top,
)
from tweetslots.multitask import PredictionRecord
from tweetslots.preprocess import MaskedInstance

NAME = SubtaskId(EventType.DEATH, "name")
AGE = SubtaskId(EventType.DEATH, "age")


def inst(tweet_id, subtask, cand, chunk="c"):
    return MaskedInstance(
        token_ids=np.zeros(4, dtype=np.int64), length=1, marker_pos=0, subtask=subtask,
        label=0, chunk_text=chunk, tweet_id=tweet_id, candidate_index=cand,
    )


def triples(records):
    return [(r.tweet_id, r.subtask, r.candidate_index, r.chunk_text, r.filtered) for r in records]


def per_record_vote(member_probs, instances, threshold):
    """The per-record path: each member builds its own record list, the
    records are re-keyed by (tweet, subtask, candidate) and voted per key
    in the first member's order. The mean is a left fold in member order
    (what ``sum`` gives for floats before Python 3.12)."""
    member_records = [
        [PredictionRecord(tweet_id=i.tweet_id, subtask=i.subtask, candidate_index=i.candidate_index,
                          chunk_text=i.chunk_text, probability=float(p), decision=int(p >= threshold))
         for i, p in zip(instances, probs)]
        for probs in member_probs
    ]
    indexed = [{(r.tweet_id, r.subtask.key, r.candidate_index): r for r in m} for m in member_records]
    out = []
    for rec in member_records[0]:
        members = [m[(rec.tweet_id, rec.subtask.key, rec.candidate_index)] for m in indexed]
        total = 0
        for m in members:
            total += m.probability
        out.append(PredictionRecord(
            tweet_id=rec.tweet_id, subtask=rec.subtask, candidate_index=rec.candidate_index,
            chunk_text=rec.chunk_text, probability=total / len(members),
            decision=majority_vote([m.decision for m in members]), filtered=False,
        ))
    return out


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
    def instances(self, n):
        return [inst("t0", NAME, i) for i in range(n)]

    def probs(self, decisions_per_member):
        return [np.where(np.asarray(d) == 1, 0.8, 0.2) for d in decisions_per_member]

    def test_vote_per_record(self):
        # A probability equal to the threshold votes 1.
        members = [[0.5, 0.2], [0.8, 0.5], [0.2, 0.2]]
        got = ensemble_predict(members, self.instances(2), 0.5)
        assert [r.decision for r in got] == [1, 0]

    def test_probability_is_mean(self):
        [r] = ensemble_predict([[0.9], [0.6], [0.3]], self.instances(1), 0.5)
        assert r.probability == pytest.approx(0.6)
        assert r.probability == (0.9 + 0.6 + 0.3) / 3

    def test_output_follows_instance_order(self):
        instances = [inst("t0", NAME, 1, "b"), inst("t0", NAME, 0, "a"), inst("t1", AGE, 0, "z")]
        got = ensemble_predict([[0.9, 0.8, 0.1]] * 3, instances, 0.5)
        assert triples(got) == [
            ("t0", NAME, 1, "b", False), ("t0", NAME, 0, "a", False), ("t1", AGE, 0, "z", False)
        ]
        assert [r.decision for r in got] == [1, 1, 0]

    def test_even_member_count_rejected(self):
        with pytest.raises(EnsembleError, match="odd"):
            ensemble_predict(self.probs([[1], [0]]), self.instances(1), 0.5)
        with pytest.raises(EnsembleError, match="odd"):
            ensemble_predict([], self.instances(1), 0.5)

    def test_member_array_of_wrong_length_rejected(self):
        members = [np.full(3, 0.9), np.full(2, 0.9), np.full(3, 0.9)]
        with pytest.raises(EnsembleError, match=r"member 2 gives \(2,\) probabilities for 3 instances"):
            ensemble_predict(members, self.instances(3), 0.5)

    def test_randomized_vote_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_members = int(rng.choice([1, 3, 5]))
            n_records = int(rng.integers(1, 8))
            decisions = rng.integers(0, 2, size=(n_members, n_records))
            got = ensemble_predict(self.probs(decisions), self.instances(n_records), 0.5)
            for ri, r in enumerate(got):
                want = 1 if decisions[:, ri].sum() > n_members // 2 else 0
                assert r.decision == want

    @given(data=st.data(), k=st.sampled_from([1, 3, 5]), n=st.integers(0, 20),
           threshold=st.sampled_from([0.5, 0.3, 0.7, 0.1 + 0.2]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_record_path(self, data, k, n, threshold):
        # Probabilities at, just below and just above the threshold included.
        prob = st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)]),
        )
        member_probs = [np.asarray(data.draw(st.lists(prob, min_size=n, max_size=n)), dtype=np.float64)
                        for _ in range(k)]
        instances = [inst(f"t{i // 4}", (NAME, AGE)[i % 2], i // 2, f"chunk {i}") for i in range(n)]
        got = ensemble_predict(member_probs, instances, threshold)
        want = per_record_vote(member_probs, instances, threshold)
        assert triples(got) == triples(want)
        assert [r.decision for r in got] == [r.decision for r in want]
        assert [r.probability.hex() for r in got] == [r.probability.hex() for r in want]
        # Written rows must read 1 and 0.5, never true or a NumPy scalar.
        assert all(type(r.decision) is int and type(r.probability) is float for r in got)
