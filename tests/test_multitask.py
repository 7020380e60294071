"""Joint multi-task trainer tests: loss values, gradients, AdamW, training."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tweetslots.corpus import EventType, SubtaskId, SubtaskRegistry
from tweetslots.encoder import EncoderConfig
from tweetslots.features import StrategyKind
from tweetslots.multitask import (
    AdamW,
    DivergenceError,
    TrainConfig,
    TrainError,
    init_model,
    loss,
    loss_and_grads,
    micro_f1_counts,
    predict,
    train,
    validation_micro_f1,
)
from tweetslots.preprocess import E_CLOSE_ID, E_OPEN_ID, PAD_ID, Vocab, MaskedInstance

REG = SubtaskRegistry(
    {
        EventType.DEATH: ("age", "name"),
        EventType.CURE_AND_PREVENTION: ("opinion",),
    }
)
AGE = SubtaskId(EventType.DEATH, "age")
NAME = SubtaskId(EventType.DEATH, "name")
OPINION = SubtaskId(EventType.CURE_AND_PREVENTION, "opinion")

VOCAB = Vocab(32)
MAX_LEN = 10


def enc_cfg(**kw) -> EncoderConfig:
    base = dict(num_layers=4, hidden_size=8, vocab_size=32, max_len=MAX_LEN,
                context_window=1, seed=0)
    base.update(kw)
    return EncoderConfig(**base)


def make_instance(words, chunk_word, subtask, label, tweet_id="t0", cand=0):
    """Marker-wrapped instance: words ++ <E> chunk </E>."""
    ids = [VOCAB.token_to_id(w) for w in words]
    marker_pos = len(ids)
    ids = ids + [E_OPEN_ID, VOCAB.token_to_id(chunk_word), E_CLOSE_ID]
    token_ids = np.full(MAX_LEN, PAD_ID, dtype=np.int64)
    token_ids[:len(ids)] = ids
    return MaskedInstance(
        token_ids=token_ids, length=len(ids), marker_pos=marker_pos,
        subtask=subtask, label=label, chunk_text=chunk_word,
        tweet_id=tweet_id, candidate_index=cand,
    )


def tiny_batch():
    return [
        make_instance(["sad"], "uncle", NAME, 1, "t0", 0),
        make_instance(["sad", "news"], "sixty", AGE, 0, "t0", 1),
        make_instance([], "masks", OPINION, 1, "t1", 0),
        make_instance(["very", "long", "story"], "uncle", NAME, 0, "t2", 0),
    ]


def zero_heads(model):
    for head in model.heads.values():
        head.w[:] = 0.0
        head.b[:] = 0.0


class TestLossValues:
    def test_zero_heads_give_ln2_base(self):
        # logit 0 -> p = 0.5; positive costs 10*ln2, negative 1*ln2.
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        zero_heads(model)
        cfg = TrainConfig()
        pos = [make_instance([], "x", NAME, 1)]
        neg = [make_instance([], "x", NAME, 0)]
        ln2 = math.log(2.0)
        assert loss(model, pos, cfg) == pytest.approx(10.0 * ln2, rel=1e-12)
        assert loss(model, neg, cfg) == pytest.approx(1.0 * ln2, rel=1e-12)

    def test_batch_loss_is_mean_of_singles(self):
        model = init_model(enc_cfg(), StrategyKind.CONCAT4, REG, seed=1)
        cfg = TrainConfig()
        batch = tiny_batch()
        singles = [loss(model, [inst], cfg) for inst in batch]
        assert loss(model, batch, cfg) == pytest.approx(np.mean(singles), rel=1e-12)

    def test_pos_weight_scales_positive_loss(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        zero_heads(model)
        pos = [make_instance([], "x", NAME, 1)]
        base = loss(model, pos, TrainConfig(pos_weight=10.0))
        doubled = loss(model, pos, TrainConfig(pos_weight=20.0))
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_empty_batch_rejected(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        with pytest.raises(TrainError):
            loss(model, [], TrainConfig())

    def test_unknown_subtask_rejected(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        stray = make_instance([], "x", SubtaskId(EventType.DEATH, "where"), 1)
        with pytest.raises(TrainError):
            loss(model, [stray], TrainConfig())


class TestGradients:
    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_full_model_finite_difference(self, kind):
        model = init_model(enc_cfg(), kind, REG, seed=2)
        cfg = TrainConfig()
        batch = tiny_batch()
        value, grads = loss_and_grads(model, batch, cfg)
        named = dict(model.named_arrays())
        assert set(grads) <= set(named)
        eps = 1e-6
        rng = np.random.default_rng(0)
        for name, g in grads.items():
            arr = named[name]
            assert g.shape == arr.shape
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            # Exhaustive on small arrays, sampled on embeddings.
            idxs = (range(flat.size) if flat.size <= 80
                    else rng.choice(flat.size, size=40, replace=False))
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                up = loss(model, batch, cfg)
                flat[i] = orig - eps
                down = loss(model, batch, cfg)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                assert abs(gflat[i] - fd) / max(abs(fd), 1.0) < 1e-5, (name, i)

    def test_absent_heads_get_no_gradient(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        batch = [make_instance([], "x", NAME, 1)]
        _, grads = loss_and_grads(model, batch, TrainConfig())
        assert f"head.{NAME}.w" in grads
        assert f"head.{AGE}.w" not in grads
        assert f"head.{OPINION}.w" not in grads

    def test_proj_grads_only_for_proj4(self):
        batch = tiny_batch()
        m1 = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        _, g1 = loss_and_grads(m1, batch, TrainConfig())
        assert "proj.w" not in g1
        m2 = init_model(enc_cfg(), StrategyKind.PROJ4, REG, seed=0)
        _, g2 = loss_and_grads(m2, batch, TrainConfig())
        assert "proj.w" in g2 and "proj.b" in g2


class TestAdamW:
    def reference_step(self, p, g, m, v, t, cfg):
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * (g * g)
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        p = p - cfg.learning_rate * (m_hat / (np.sqrt(v_hat) + cfg.epsilon) + cfg.weight_decay * p)
        return p, m, v

    def test_matches_reference_trajectory(self):
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1, clip_norm=0.0)
        rng = np.random.default_rng(4)
        p = {"a": rng.standard_normal(5), "b": rng.standard_normal((2, 3))}
        ref = {k: v.copy() for k, v in p.items()}
        state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in p.items()}
        opt = AdamW(cfg)
        for t in range(1, 6):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
            opt.step(p, grads)
            for k in ref:
                m, v = state[k]
                ref[k], m, v = self.reference_step(ref[k], grads[k], m, v, t, cfg)
                state[k] = (m, v)
        for k in ref:
            np.testing.assert_allclose(p[k], ref[k], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("clip_norm", [0.0, 1.0, 1e6])
    def test_bitwise_reference_trajectory(self, clip_norm):
        # clip_norm 1.0 fires on every step, 1e6 never does. "late" gets its
        # first gradient at step 3, so its step count lags the others.
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1, clip_norm=clip_norm)
        rng = np.random.default_rng(5)
        p = {"a": rng.standard_normal(7), "b": rng.standard_normal((3, 4)), "late": rng.standard_normal(2)}
        ref = {k: v.copy() for k, v in p.items()}
        state = {k: (np.zeros_like(v), np.zeros_like(v), 0) for k, v in p.items()}
        opt = AdamW(cfg)
        fired = []
        for step in range(1, 7):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.items() if k != "late" or step >= 3}
            opt.step(p, grads)
            total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            fired.append(clip_norm > 0 and total > clip_norm)
            for k, g in grads.items():
                m, v, t = state[k]
                if fired[-1]:
                    g = g * (clip_norm / total)
                ref[k], m, v = self.reference_step(ref[k], g, m, v, t + 1, cfg)
                state[k] = (m, v, t + 1)
        assert all(fired) if clip_norm == 1.0 else not any(fired)
        assert opt._t == {"a": 6, "b": 6, "late": 4}
        for k in ref:
            assert np.array_equal(p[k], ref[k]), k
            assert np.array_equal(opt._m[k], state[k][0]), k
            assert np.array_equal(opt._v[k], state[k][1]), k

    def test_step_leaves_grads_unchanged(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.1, clip_norm=0.5)
        rng = np.random.default_rng(6)
        p = {"a": rng.standard_normal(5), "b": rng.standard_normal((2, 3))}
        grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
        before = {k: g.copy() for k, g in grads.items()}
        opt = AdamW(cfg)
        for _ in range(3):
            opt.step(p, grads)
        for k in grads:
            assert np.array_equal(grads[k], before[k]), k

    def test_decay_is_decoupled(self):
        # Zero gradient with nonzero decay still shrinks the parameter.
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, clip_norm=0.0)
        p = {"a": np.array([2.0])}
        AdamW(cfg).step(p, {"a": np.array([0.0])})
        assert p["a"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_global_norm_clipping(self):
        cfg = TrainConfig(learning_rate=1.0, weight_decay=0.0, clip_norm=1.0,
                          beta1=0.0, beta2=0.0, epsilon=1e-12)
        # Two grads of norm 3 and 4: global norm 5 -> scaled by 1/5.
        p = {"a": np.zeros(1), "b": np.zeros(1)}
        opt = AdamW(cfg)
        opt.step(p, {"a": np.array([3.0]), "b": np.array([4.0])})
        # With beta1=beta2=0: m_hat = g_scaled, v_hat = g_scaled^2,
        # update = -lr * sign(g_scaled) -> direction only; verify via m.
        np.testing.assert_allclose(opt._m["a"], [0.6])
        np.testing.assert_allclose(opt._m["b"], [0.8])

    def test_no_clipping_below_threshold(self):
        cfg = TrainConfig(learning_rate=1.0, weight_decay=0.0, clip_norm=10.0,
                          beta1=0.0, beta2=0.0)
        p = {"a": np.zeros(1)}
        opt = AdamW(cfg)
        opt.step(p, {"a": np.array([3.0])})
        np.testing.assert_allclose(opt._m["a"], [3.0])

    def test_per_parameter_step_counts(self):
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.0, clip_norm=0.0)
        p = {"early": np.ones(1), "late": np.ones(1)}
        opt = AdamW(cfg)
        opt.step(p, {"early": np.array([1.0])})
        opt.step(p, {"early": np.array([1.0]), "late": np.array([1.0])})
        assert opt._t == {"early": 2, "late": 1}

    def test_absent_grad_means_untouched(self):
        cfg = TrainConfig(learning_rate=0.5, weight_decay=0.9, clip_norm=0.0)
        p = {"a": np.array([1.0]), "b": np.array([1.0])}
        AdamW(cfg).step(p, {"a": np.array([0.1])})
        assert p["b"][0] == 1.0


class TestTraining:
    def small_sets(self):
        rng = np.random.default_rng(9)
        words = ["cough", "fever", "mask", "ward", "city"]
        insts = []
        for i in range(24):
            w = [words[rng.integers(0, len(words))]]
            subtask = (NAME, AGE, OPINION)[i % 3]
            # Cue rule: 'uncle' chunks are positive for name, others negative.
            chunk = "uncle" if i % 2 == 0 else "sixty"
            label = 1 if (subtask is NAME and chunk == "uncle") else 0
            insts.append(make_instance(w, chunk, subtask, label, f"t{i}", 0))
        return insts[:18], insts[18:]

    def test_deterministic(self):
        cfg = TrainConfig(batch_size=6, epochs=3, seed=5)
        train_set, val_set = self.small_sets()
        m1 = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        m2 = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        best1, logs1 = train(m1, train_set, val_set, cfg)
        best2, logs2 = train(m2, train_set, val_set, cfg)
        assert logs1 == logs2
        for (n1, a1), (n2, a2) in zip(best1.named_arrays(), best2.named_arrays()):
            assert n1 == n2 and np.array_equal(a1, a2), n1

    def test_seed_changes_trajectory(self):
        train_set, val_set = self.small_sets()
        m1 = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        m2 = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        _, logs1 = train(m1, train_set, val_set, TrainConfig(batch_size=6, epochs=2, seed=0))
        _, logs2 = train(m2, train_set, val_set, TrainConfig(batch_size=6, epochs=2, seed=1))
        assert [e.train_loss for e in logs1] != [e.train_loss for e in logs2]

    def test_returns_best_epoch_params(self):
        cfg = TrainConfig(batch_size=6, epochs=4, seed=0)
        train_set, val_set = self.small_sets()
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        best, logs = train(model, train_set, val_set, cfg)
        best_logged = max(e.val_micro_f1 for e in logs)
        assert validation_micro_f1(best, val_set, cfg) == pytest.approx(best_logged)

    def test_loss_decreases_on_learnable_data(self):
        cfg = TrainConfig(batch_size=6, epochs=8, seed=0, learning_rate=3e-3)
        train_set, val_set = self.small_sets()
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        _, logs = train(model, train_set, val_set, cfg)
        assert logs[-1].train_loss < logs[0].train_loss

    def test_unused_heads_frozen(self):
        # No OPINION instances anywhere: that head must stay bitwise intact.
        cfg = TrainConfig(batch_size=4, epochs=2, seed=0)
        train_set, val_set = self.small_sets()
        train_set = [i for i in train_set if i.subtask is not OPINION]
        val_set = [i for i in val_set if i.subtask is not OPINION]
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        w_before = model.heads[OPINION].w.copy()
        best, _ = train(model, train_set, val_set, cfg)
        assert np.array_equal(best.heads[OPINION].w, w_before)
        assert np.array_equal(model.heads[OPINION].w, w_before)

    def test_divergence_detected(self):
        cfg = TrainConfig(batch_size=6, epochs=5, seed=0, learning_rate=1e200)
        train_set, val_set = self.small_sets()
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        with pytest.raises(DivergenceError) as exc_info:
            with np.errstate(over="ignore", invalid="ignore"):
                train(model, train_set, val_set, cfg)
        assert exc_info.value.epoch >= 1
        assert exc_info.value.batch >= 0

    def test_empty_sets_rejected(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        insts = [make_instance([], "x", NAME, 1)]
        with pytest.raises(TrainError):
            train(model, [], insts, TrainConfig())
        with pytest.raises(TrainError):
            train(model, insts, [], TrainConfig())


class TestPredict:
    def test_record_fields_mirror_instance(self):
        model = init_model(enc_cfg(), StrategyKind.LAST, REG, seed=0)
        inst = make_instance(["a"], "uncle", NAME, 1, tweet_id="tw7", cand=3)
        [rec] = predict(model, [inst])
        assert rec.tweet_id == "tw7"
        assert rec.subtask == NAME
        assert rec.candidate_index == 3
        assert rec.chunk_text == "uncle"
        assert 0.0 <= rec.probability <= 1.0
        assert rec.decision in (0, 1)
        assert rec.filtered is False

    def test_threshold_applied(self):
        model = init_model(enc_cfg(), StrategyKind.LAST, REG, seed=0)
        zero_heads(model)  # p = 0.5 exactly
        inst = make_instance([], "x", NAME, 0)
        [at_half] = predict(model, [inst], TrainConfig(threshold=0.5))
        assert at_half.probability == pytest.approx(0.5)
        assert at_half.decision == 1  # p >= threshold
        [strict] = predict(model, [inst], TrainConfig(threshold=0.51))
        assert strict.decision == 0

    def test_empty_input(self):
        model = init_model(enc_cfg(), StrategyKind.LAST, REG, seed=0)
        assert predict(model, []) == []

    def test_batching_invariance(self):
        # Batch composition changes BLAS summation paths, so equality holds
        # to rounding, not bitwise.
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=3)
        insts = [make_instance(["w%d" % i], "uncle", NAME, 1, f"t{i}") for i in range(7)]
        whole = predict(model, insts)
        singles = [predict(model, [i])[0] for i in insts]
        for a, b in zip(whole, singles):
            assert a.probability == pytest.approx(b.probability, rel=1e-12, abs=1e-15)


class TestSharedEncoderInput:
    """Forward-only scoring encodes each distinct encoder input once."""

    @staticmethod
    def fanned_out():
        # Each unit is built once per subtask, so equal inputs are equal by
        # content only, never by array identity.
        units = [(["sad"], "uncle"), (["sad", "news"], "sixty"), ([], "masks"), (["w"], "uncle")]
        insts = []
        for k, (words, chunk) in enumerate(units):
            for subtask in (AGE, NAME):
                insts.append(make_instance(words, chunk, subtask, k % 2, f"t{k}", k))
        insts.append(make_instance([], "masks", OPINION, 1, "t2", 2))
        return insts, len(units)

    @staticmethod
    def count_rows(monkeypatch):
        from tweetslots import encoder

        rows = []
        original = encoder.forward_batch

        def counting(params, ids):
            rows.append(len(ids))
            return original(params, ids)

        monkeypatch.setattr(encoder, "forward_batch", counting)
        return rows

    def test_predict_encodes_each_input_once(self, monkeypatch):
        model = init_model(enc_cfg(), StrategyKind.PROJ4, REG, seed=4)
        insts, n_units = self.fanned_out()
        singles = [predict(model, [i])[0] for i in insts]
        rows = self.count_rows(monkeypatch)
        whole = predict(model, insts, TrainConfig(threshold=0.5))
        assert sum(rows) == n_units
        assert [(r.tweet_id, r.subtask, r.candidate_index, r.chunk_text, r.decision) for r in whole] == [
            (r.tweet_id, r.subtask, r.candidate_index, r.chunk_text, r.decision) for r in singles]
        for a, b in zip(whole, singles):
            assert a.probability == pytest.approx(b.probability, rel=1e-12, abs=1e-15)

    def test_validation_encodes_each_input_once(self, monkeypatch):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=5)
        insts, n_units = self.fanned_out()
        cfg = TrainConfig()
        recs = predict(model, insts, cfg)
        rows = self.count_rows(monkeypatch)
        got = validation_micro_f1(model, insts, cfg)
        assert sum(rows) == n_units
        tp = sum(1 for r, i in zip(recs, insts) if r.decision == 1 and i.label == 1)
        fp = sum(1 for r, i in zip(recs, insts) if r.decision == 1 and i.label == 0)
        fn = sum(1 for r, i in zip(recs, insts) if r.decision == 0 and i.label == 1)
        assert got == micro_f1_counts(tp, fp, fn)

    def test_same_candidate_different_input_not_merged(self, monkeypatch):
        model = init_model(enc_cfg(), StrategyKind.LAST, REG, seed=6)
        a = make_instance(["sad"], "uncle", NAME, 1, "t0", 0)
        b = make_instance(["glad"], "uncle", AGE, 1, "t0", 0)
        singles = [predict(model, [i])[0].probability for i in (a, b)]
        rows = self.count_rows(monkeypatch)
        got = [r.probability for r in predict(model, [a, b])]
        assert sum(rows) == 2
        assert got == pytest.approx(singles, rel=1e-12, abs=1e-15)

    def test_batches_count_distinct_inputs(self, monkeypatch):
        from tweetslots.multitask import _predict_probs

        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=7)
        by_id = {VOCAB.token_to_id(f"w{i}"): f"w{i}" for i in range(200)}
        words = sorted(by_id.values())[:20]  # 20 words with distinct hashed ids
        insts = [make_instance([w], "uncle", s, 0, w) for w in words for s in (NAME, AGE)]
        singles = [_predict_probs(model, [i])[0] for i in insts]
        rows = self.count_rows(monkeypatch)
        got = _predict_probs(model, insts, batch_size=8)
        assert rows == [8, 8, 4]
        assert list(got) == pytest.approx(singles, rel=1e-12, abs=1e-15)


class TestMicroF1:
    def test_hand_values(self):
        assert micro_f1_counts(1, 1, 1) == pytest.approx(0.5)
        assert micro_f1_counts(0, 0, 0) == 0.0
        assert micro_f1_counts(3, 0, 0) == 1.0
        assert micro_f1_counts(0, 2, 5) == 0.0

    def test_validation_micro_f1_missing_head(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        stray = make_instance([], "x", SubtaskId(EventType.TESTED_POSITIVE, "who"), 1)
        with pytest.raises(TrainError, match=r"^no head for subtask\(s\): tested_positive/who$"):
            validation_micro_f1(model, [stray], TrainConfig())

    def test_validation_micro_f1_matches_counting_oracle(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=1)
        rng = np.random.default_rng(2)
        insts = []
        for i in range(30):
            subtask = (NAME, AGE, OPINION)[i % 3]
            label = int(rng.integers(0, 2))
            chunk = ["uncle", "sixty", "masks"][rng.integers(0, 3)]
            insts.append(make_instance([], chunk, subtask, label, f"t{i}"))
        cfg = TrainConfig()
        got = validation_micro_f1(model, insts, cfg)
        recs = predict(model, insts, cfg)
        tp = sum(1 for r, i in zip(recs, insts) if r.decision == 1 and i.label == 1)
        fp = sum(1 for r, i in zip(recs, insts) if r.decision == 1 and i.label == 0)
        fn = sum(1 for r, i in zip(recs, insts) if r.decision == 0 and i.label == 1)
        denom = 2 * tp + fp + fn
        want = 0.0 if denom == 0 else 2 * tp / denom
        assert got == pytest.approx(want)


class TestTrainConfigValidation:
    def test_rejects_bad_values(self):
        for kw in (
            dict(batch_size=0),
            dict(pos_weight=0.0),
            dict(neg_weight=-1.0),
            dict(threshold=0.0),
            dict(threshold=1.0),
            dict(epochs=0),
            dict(learning_rate=0.0),
            dict(beta1=1.0),
            dict(beta2=-0.1),
            dict(clip_norm=-1.0),
        ):
            with pytest.raises(TrainError):
                TrainConfig(**kw)
