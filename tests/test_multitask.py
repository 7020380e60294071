"""Joint multi-task trainer tests: loss values, gradients, AdamW, training."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots import multitask
from tweetslots.corpus import EventType, SubtaskId, SubtaskRegistry
from tweetslots.encoder import EncoderConfig, EncoderError
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
    predict_probs,
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
    model.head_w[:] = 0.0
    model.head_b[:] = 0.0


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
        # Every entry point refuses the same way, naming each missing head once, sorted.
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        where = make_instance([], "x", SubtaskId(EventType.DEATH, "where"), 1)
        when = make_instance([], "x", SubtaskId(EventType.DEATH, "when"), 0)
        known = make_instance([], "x", NAME, 1)
        batch = [where, known, when, where]
        cfg = TrainConfig(epochs=1)
        calls = {
            "loss": lambda: loss(model, batch, cfg),
            "loss_and_grads": lambda: loss_and_grads(model, batch, cfg),
            "predict_probs": lambda: predict_probs(model, batch),
            "validation_micro_f1": lambda: validation_micro_f1(model, batch, cfg),
            "train, validation set only": lambda: train(model, [known], batch, cfg),
        }
        for name, call in calls.items():
            with pytest.raises(TrainError, match=r"^no head for subtask\(s\): death/when, death/where$"):
                call()
                pytest.fail(name)


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
        # The head gradients are whole arrays; the rows of subtasks absent from the batch are
        # zero and not listed in `rows`, so the optimizer leaves them alone.
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        batch = [make_instance([], "x", NAME, 1)]
        _, grads = loss_and_grads(model, batch, TrainConfig())
        row, others = model.subtasks.index(NAME), [model.subtasks.index(AGE), model.subtasks.index(OPINION)]
        assert grads["head.w"].shape == model.head_w.shape and grads["head.b"].shape == model.head_b.shape
        assert grads.rows["head.w"].tolist() == [row]
        assert grads["head.w"][row].all() and grads["head.b"][row] != 0.0
        assert same_bits(grads["head.w"][others], np.zeros((2, 8))) and same_bits(grads["head.b"][others], np.zeros(2))

    def test_proj_grads_only_for_proj4(self):
        batch = tiny_batch()
        m1 = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        _, g1 = loss_and_grads(m1, batch, TrainConfig())
        assert "proj.w" not in g1
        m2 = init_model(enc_cfg(), StrategyKind.PROJ4, REG, seed=0)
        _, g2 = loss_and_grads(m2, batch, TrainConfig())
        assert "proj.w" in g2 and "proj.b" in g2

    def test_embedding_rows_are_the_rows_the_batch_read(self):
        # The embeddings' dense gradients are zero outside the rows that the real tokens of
        # each marker window read, and loss_and_grads hands those ids to the optimizer. The
        # windows (5 rows on each side of the marker) cover these short tweets whole.
        model = init_model(enc_cfg(), StrategyKind.PROJ4, REG, seed=0)
        batch = tiny_batch()
        _, grads = loss_and_grads(model, batch, TrainConfig())
        ids = sorted({t for inst in batch for t in inst.token_ids.tolist() if t != PAD_ID})
        assert sorted(grads.rows) == ["enc.pos_emb", "enc.token_emb", "head.w"]
        # The head rows come in order of first appearance (NAME, AGE, OPINION), not sorted.
        assert grads.rows["head.w"].tolist() == [model.subtasks.index(s) for s in (NAME, AGE, OPINION)] == [2, 1, 0]
        assert grads.rows["enc.token_emb"].tolist() == ids
        assert grads.rows["enc.pos_emb"].tolist() == list(range(max(len(i.token_ids[i.token_ids != PAD_ID])
                                                                     for i in batch)))
        for name, rows in grads.rows.items():
            outside = np.ones(len(grads[name]), dtype=bool)
            outside[rows] = False
            assert not grads[name][outside].any() and grads[name][rows].any(axis=1).all(), name


class TestHeadMatrix:
    def test_named_heads_are_the_matrix(self):
        # The heads are two whole parameters; only the model file names them per subtask.
        model = init_model(enc_cfg(), StrategyKind.PROJ4, REG, seed=0)
        named = dict(model.named_arrays())
        assert model.subtasks == (OPINION, AGE, NAME)  # sorted by (event, name); row i is subtasks[i]
        assert model.head_w.shape == (3, 8) and model.head_b.shape == (3,)
        assert named["head.w"] is model.head_w and named["head.b"] is model.head_b
        assert list(named)[-2:] == ["head.w", "head.b"]
        assert [name for name in named if name.startswith("head.")] == ["head.w", "head.b"]


class DenseAdamW:
    """The AdamW step as it was before the live-row path: every parameter
    runs the full formula on every element. The oracle for ``AdamW``. Its
    clip norm sums the squares of a 2-D gradient named in ``row_ids`` over
    the rows that hold a nonzero entry, in row order, as ``AdamW`` does, and
    those of any other gradient over the whole array."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, named_params, grads, row_ids=()) -> None:
        cfg = self.cfg
        buf = np.empty((2, max((g.size for g in grads.values()), default=0)))
        scratch = {name: (buf[0, :g.size].reshape(g.shape), buf[1, :g.size].reshape(g.shape))
                   for name, g in grads.items()}
        scale = None
        if cfg.clip_norm > 0:
            squares = (float(np.multiply(g, g, scratch[name][0]).sum()) if name not in row_ids
                       else float(np.square(g[(g != 0).any(axis=1)]).sum()) for name, g in grads.items())
            total = math.sqrt(sum(squares))
            if total > cfg.clip_norm:
                scale = cfg.clip_norm / total
        for name, g in grads.items():
            p = named_params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
                self._t[name] = 0
            self._t[name] += 1
            t = self._t[name]
            m = self._m[name]
            v = self._v[name]
            s0, s1 = scratch[name]
            if scale is not None:
                g = np.multiply(g, scale, s0)
            m *= cfg.beta1
            m += np.multiply(g, 1.0 - cfg.beta1, s1)
            v *= cfg.beta2
            gg = np.multiply(g, g, s1)
            gg *= 1.0 - cfg.beta2
            v += gg
            m_hat = np.divide(m, 1.0 - cfg.beta1 ** t, s0)
            denom = np.sqrt(np.divide(v, 1.0 - cfg.beta2 ** t, s1), s1)
            denom += cfg.epsilon
            update = np.divide(m_hat, denom, s0)
            update += np.multiply(p, cfg.weight_decay, s1)
            update *= cfg.learning_rate
            p -= update


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality; unlike ``array_equal`` it tells -0.0 from +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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

    @pytest.mark.parametrize("clip_norm", [1.0, 1e6])
    @pytest.mark.parametrize("rows_from", ["ids", "dense"])
    def test_bitwise_reference_trajectory_of_touched_rows(self, clip_norm, rows_from):
        # A 2-D parameter whose touched rows come as ids (as loss_and_grads passes the
        # embeddings'), or without ids, which takes the dense path. Row 0 is first touched at
        # step 3. Row 1 is touched at every step, and its gradient is all zero at steps 1 and 4:
        # a row that is not yet live, then a live one. Rows 2-5 are touched on random steps, row
        # 6 never. The clip norm (1.0 fires on every step, 1e6 never does) adds the squares of
        # the rows that hold a nonzero entry, in row order, with ids, and of the whole array
        # without.
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1, clip_norm=clip_norm)
        rng = np.random.default_rng(8)
        p = {"emb": rng.standard_normal((7, 3)), "bias": rng.standard_normal(4)}
        ref = {k: v.copy() for k, v in p.items()}
        state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in p.items()}
        opt = AdamW(cfg)
        fired = []
        for t in range(1, 7):
            touched = sorted({1, *(r for r in range(2, 6) if rng.random() < 0.5), *((0,) if t >= 3 else ())})
            g = np.zeros_like(p["emb"])
            g[touched] = rng.standard_normal((len(touched), 3))
            if t in (1, 4):
                g[1] = np.copysign(0.0, g[1])
            grads = {"emb": g, "bias": rng.standard_normal(4)}
            before = {k: x.copy() for k, x in grads.items()}
            ids = np.array(touched)
            opt.step(p, grads, {"emb": ids} if rows_from == "ids" else None)
            assert all(same_bits(grads[k], before[k]) for k in grads) and ids.tolist() == touched
            summed = g[(g != 0).any(axis=1)] if rows_from == "ids" else g
            total = math.sqrt(float(np.sum(summed * summed)) + float(np.sum(grads["bias"] * grads["bias"])))
            fired.append(total > clip_norm)
            for k, gk in grads.items():
                m, v = state[k]
                if fired[-1]:
                    gk = gk * (clip_norm / total)
                ref[k], m, v = self.reference_step(ref[k], gk, m, v, t, cfg)
                state[k] = (m, v)
        assert all(fired) if clip_norm == 1.0 else not any(fired)
        assert opt._live["emb"].tolist() == [True] * 6 + [False] if rows_from == "ids" else "emb" not in opt._live
        for k in ref:
            assert same_bits(p[k], ref[k]), k
            assert same_bits(opt._m[k], state[k][0]), k
            assert same_bits(opt._v[k], state[k][1]), k

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_live_rows_match_dense_oracle(self, data):
        # A 2-D parameter whose rows get gradients on random subsets of steps,
        # next to a 1-D one that shares the clip norm. Row 0's first gradient
        # arrives at step `late`; row 1 is live from step 1 and has a zero
        # gradient at step 2. Zero rows hold signed zeros, and some nonzero
        # rows are so small that their squares underflow to 0. Weights start
        # from standard normals, so none is exactly -0.0: the decay-only step
        # turns -0.0 into +0.0, and neither init nor any update makes one.
        # One optimizer is handed the nonzero rows as ids, another the nonzero
        # rows plus some zero ones, which must change no bit. A third gets no
        # ids and takes the dense path, against an oracle whose clip norm adds
        # the whole array's squares.
        steps = data.draw(st.integers(4, 8), label="steps")
        late = data.draw(st.integers(2, steps), label="late")
        wd = data.draw(st.sampled_from([0.0, 0.1]), label="weight_decay")
        clip = data.draw(st.sampled_from([0.0, 0.5, 1e6]), label="clip_norm")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cfg = TrainConfig(learning_rate=0.01, weight_decay=wd, clip_norm=clip)
        rows, cols = 6, data.draw(st.sampled_from([3, 5]), label="cols")
        fast = {"emb": rng.standard_normal((rows, cols)), "bias": rng.standard_normal(cols)}
        dense = {k: v.copy() for k, v in fast.items()}
        by_ids = {k: v.copy() for k, v in fast.items()}
        no_ids, dense_no_ids = ({k: v.copy() for k, v in fast.items()} for _ in range(2))
        opt, oracle, opt_ids = AdamW(cfg), DenseAdamW(cfg), AdamW(cfg)
        opt_no_ids, oracle_no_ids = AdamW(cfg), DenseAdamW(cfg)
        fired = []
        for step in range(1, steps + 1):
            nonzero = set(data.draw(st.sets(st.integers(2, rows - 1)), label=f"rows at step {step}"))
            if step == late:
                nonzero.add(0)
            if step != 2:
                nonzero.add(1)
            g = np.copysign(0.0, rng.standard_normal((rows, cols)))
            for r in sorted(nonzero):
                g[r] = rng.standard_normal(cols) * (1e-170 if rng.random() < 0.2 else 1.0)
            grads = {"emb": g, "bias": rng.standard_normal(cols)}
            touched = nonzero | data.draw(st.sets(st.integers(0, rows - 1)), label=f"zero rows touched at step {step}")
            opt.step(fast, grads, {"emb": np.array(sorted(nonzero), dtype=np.int64)})
            oracle.step(dense, grads, {"emb"})
            opt_ids.step(by_ids, grads, {"emb": np.array(sorted(touched), dtype=np.int64)})
            opt_no_ids.step(no_ids, grads)
            oracle_no_ids.step(dense_no_ids, grads)
            total = math.sqrt(sum(float(np.sum(x * x)) for x in grads.values()))
            fired.append(clip > 0 and total > clip)
        assert any(fired) or clip != 0.5
        assert not any(fired) or clip == 0.5
        assert opt._t == oracle._t == opt_ids._t == opt_no_ids._t
        assert "emb" in opt._live and "emb" in opt_ids._live and "emb" not in opt_no_ids._live
        for k in fast:
            for got, state, want, ref in ((fast, opt, dense, oracle), (by_ids, opt_ids, dense, oracle),
                                          (no_ids, opt_no_ids, dense_no_ids, oracle_no_ids)):
                assert same_bits(got[k], want[k]), k
                assert same_bits(state._m[k], ref._m[k]), k
                assert same_bits(state._v[k], ref._v[k]), k

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_head_rows_match_dense_oracle(self, data):
        # The head parameters `head.w` (S, dim) and `head.b` (S,), stepped by the rows the ids
        # name, against the oracle stepping each listed row's w and b as named arrays, next to
        # two trunk arrays that share the clip norm. The dims straddle NumPy's pairwise-sum
        # blocks (8-wide unrolled, 128-element blocks), so a per-row square sum that took
        # another path would change the norm's last bits. Each step lists a random subset of
        # rows in random first-appearance order, and the clip norm adds their squares in that
        # order; the other rows of the gradients are zero, and row `never` is listed at no step.
        S = data.draw(st.integers(1, 8), label="S")
        dim = data.draw(st.sampled_from([1, 7, 8, 9, 127, 128, 129, 256]), label="dim")
        never = data.draw(st.integers(0, S - 1), label="never") if S > 1 else None
        steps = data.draw(st.integers(2, 5), label="steps")
        wd = data.draw(st.sampled_from([0.0, 0.1]), label="weight_decay")
        clip = data.draw(st.sampled_from([0.0, 0.5, 1e6]), label="clip_norm")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        cfg = TrainConfig(learning_rate=0.01, weight_decay=wd, clip_norm=clip)
        fast = {"head.w": rng.standard_normal((S, dim)), "head.b": rng.standard_normal(S),
                "emb": rng.standard_normal((3, 4)), "bias": rng.standard_normal(5)}
        w0, b0 = fast["head.w"].copy(), fast["head.b"].copy()
        dense = {k: v.copy() for k, v in fast.items() if not k.startswith("head.")}
        ref_w, ref_b = w0.copy(), b0.copy()
        for i in range(S):
            dense[f"head.s{i}.w"], dense[f"head.s{i}.b"] = ref_w[i], ref_b[i:i + 1]
        opt, oracle = AdamW(cfg), DenseAdamW(cfg)
        fired = []
        for step in range(1, steps + 1):
            order = data.draw(st.permutations([i for i in range(S) if i != never]), label=f"order at step {step}")
            present = order[:data.draw(st.integers(0, len(order)), label=f"rows at step {step}")]
            grads = {"head.w": np.zeros((S, dim)), "head.b": np.zeros(S)}
            per_row = {}
            for i in present:
                grads["head.w"][i], grads["head.b"][i] = rng.standard_normal(dim), rng.standard_normal()
                per_row[f"head.s{i}.w"], per_row[f"head.s{i}.b"] = grads["head.w"][i], grads["head.b"][i:i + 1]
            trunk = {k: rng.standard_normal(v.shape) for k, v in fast.items() if not k.startswith("head.")}
            grads.update(trunk)
            opt.step(fast, grads, {"head.w": np.array(present, dtype=np.int64)})
            oracle.step(dense, {**per_row, **trunk})
            total = math.sqrt(sum(float(np.sum(x * x)) for x in grads.values()))
            fired.append(clip > 0 and total > clip)
        assert any(fired) or clip != 0.5
        assert not any(fired) or clip == 0.5
        assert same_bits(fast["head.w"], ref_w) and same_bits(fast["head.b"], ref_b)
        for i in range(S):
            w, b = f"head.s{i}.w", f"head.s{i}.b"
            assert opt._head_t[i] == oracle._t.get(w, 0) == oracle._t.get(b, 0), i
            m_w, m_b = oracle._m.get(w, np.zeros(dim)), oracle._m.get(b, np.zeros(1))
            v_w, v_b = oracle._v.get(w, np.zeros(dim)), oracle._v.get(b, np.zeros(1))
            assert same_bits(opt._head_m[i], np.concatenate((m_w, m_b))), i
            assert same_bits(opt._head_v[i], np.concatenate((v_w, v_b))), i
        if never is not None:
            assert opt._head_t[never] == 0
            assert same_bits(fast["head.w"][never], w0[never]) and same_bits(fast["head.b"][never], b0[never])
        assert opt._t == {k: oracle._t[k] for k in ("emb", "bias")}
        for k in ("emb", "bias"):
            assert same_bits(fast[k], dense[k]), k
            assert same_bits(opt._m[k], oracle._m[k]), k
            assert same_bits(opt._v[k], oracle._v[k]), k

    def test_live_rows_are_the_rows_with_a_gradient(self):
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, clip_norm=0.0)
        p, ids = {"emb": np.ones((4, 2))}, {"emb": np.arange(4)}
        opt = AdamW(cfg)
        opt.step(p, {"emb": np.array([[0.0, 0.0], [0.0, 1e-300], [-0.0, 0.0], [2.0, 0.0]])}, ids)
        opt.step(p, {"emb": np.zeros((4, 2))}, ids)
        assert list(opt._live["emb"]) == [False, True, False, True]
        # A row that never had a gradient gets the decay-only step, twice.
        decayed = 1.0
        for _ in range(2):
            decayed -= (decayed * 0.5) * 0.1
        assert p["emb"][0, 0] == p["emb"][2, 1] == decayed

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
        row = model.subtasks.index(OPINION)
        w_before, b_before = model.head_w[row].copy(), model.head_b[row]
        best, _ = train(model, train_set, val_set, cfg)
        for m in (best, model):
            assert np.array_equal(m.head_w[row], w_before) and m.head_b[row] == b_before

    def test_one_loss_and_grads_and_one_step_per_batch_through_their_bindings(self, monkeypatch):
        # The benchmark traces `multitask.loss_and_grads` and `AdamW.step` by
        # rebinding the module function and the class method; a train loop
        # that bypassed either binding would read 0 calls there.
        cfg = TrainConfig(batch_size=4, epochs=2, seed=0)
        train_set, val_set = self.small_sets()
        model = init_model(enc_cfg(), StrategyKind.PROJ4, REG, seed=0)
        calls = {"loss_and_grads": [], "step": 0}
        real_loss_and_grads, real_step = multitask.loss_and_grads, AdamW.step

        def counted_loss_and_grads(params, batch, cfg, *args, **kwargs):
            value, grads = real_loss_and_grads(params, batch, cfg, *args, **kwargs)
            calls["loss_and_grads"].append(([i.subtask for i in batch], list(grads), grads.rows["head.w"].tolist()))
            return value, grads

        def counted_step(self, named_params, grads, *rows):
            calls["step"] += 1
            real_step(self, named_params, grads, *rows)

        monkeypatch.setattr(multitask, "loss_and_grads", counted_loss_and_grads)
        monkeypatch.setattr(AdamW, "step", counted_step)
        train(model, train_set, val_set, cfg)
        batches = cfg.epochs * math.ceil(len(train_set) / cfg.batch_size)
        assert len(calls["loss_and_grads"]) == calls["step"] == batches
        trunk = [name for name, _ in model.named_arrays() if not name.startswith("head.")]
        for subtasks, names, head_rows in calls["loss_and_grads"]:
            assert names == ["head.w", "head.b"] + trunk
            assert head_rows == [model.subtasks.index(s) for s in dict.fromkeys(subtasks)]
        assert trunk[0] == "enc.token_emb" and trunk[-2:] == ["proj.w", "proj.b"]

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


class TestMarkerOutsideItsTweet:
    """A marker past its own tweet is refused, whatever the other units of its batch."""

    @staticmethod
    def stray_marker():
        inst = make_instance(["sad"], "uncle", NAME, 1, "short", 0)  # length 4
        return MaskedInstance(
            token_ids=inst.token_ids, length=inst.length, marker_pos=7, subtask=NAME, label=1,
            chunk_text="uncle", tweet_id="short", candidate_index=0,
        )

    def test_refused_alone_and_beside_a_longer_tweet(self):
        model = init_model(enc_cfg(), StrategyKind.LAST, REG, seed=0)
        long = make_instance(["w%d" % i for i in range(7)], "uncle", NAME, 0, "long", 0)  # length 10
        for batch, row in (([self.stray_marker()], 0), ([long, self.stray_marker()], 1)):
            with pytest.raises(EncoderError, match=rf"batch row {row}: marker position 7 outside \[0, 4\)"):
                predict_probs(model, batch)
            with pytest.raises(EncoderError, match=rf"batch row {row}:"):
                loss_and_grads(model, batch, TrainConfig())


class TestLengthPastItsIds:
    """A unit whose length exceeds its id row is refused by batch row, not read past its ids."""

    def test_refused_by_batch_row(self):
        model = init_model(enc_cfg(), StrategyKind.LAST, REG, seed=0)
        ids = np.array([E_OPEN_ID, VOCAB.token_to_id("uncle"), E_CLOSE_ID], dtype=np.int64)
        ok = MaskedInstance(token_ids=ids, length=3, marker_pos=0, subtask=NAME, label=1,
                            chunk_text="uncle", tweet_id="ok", candidate_index=0)
        long = MaskedInstance(token_ids=ids.copy(), length=4, marker_pos=0, subtask=NAME, label=1,
                              chunk_text="uncle", tweet_id="long", candidate_index=0)
        for batch, row in (([long], 0), ([ok, long], 1)):
            with pytest.raises(EncoderError, match=rf"^batch row {row}: length 4 outside \[1, 3\]$"):
                predict_probs(model, batch)
            with pytest.raises(EncoderError, match=rf"^batch row {row}: length 4 outside \[1, 3\]$"):
                loss_and_grads(model, batch, TrainConfig())


class TestWindowRows:
    def test_rows_per_layer_do_not_depend_on_tweet_length(self):
        # L = 4 layers of half-width 2: 17 rows of ids, then 13, 9, 5 and 1 rows.
        from tweetslots import multitask as mt

        model = init_model(enc_cfg(context_window=2), StrategyKind.SUM4, REG, seed=0)
        for words in ([], ["a"] * 3, ["a"] * 7):
            table = mt.as_table([make_instance(words, "uncle", NAME, 1), make_instance([], "x", AGE, 0, "t1")])
            cache, feats = mt._batch_features(model, table, np.arange(2))
            assert cache.ids.shape == (2, 17)
            assert [x.shape for x in cache.xs] == [(2, n, 8) for n in (17, 13, 9, 5, 1)]
            assert [h.shape for h in cache.hs] == [(2, n, 8) for n in (13, 9, 5, 1)]
            assert feats.shape == (2, 8)


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

        def counting(params, token_ids, lengths, marker_pos):
            rows.append(len(token_ids))
            return original(params, token_ids, lengths, marker_pos)

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
        # Scoring encodes distinct inputs in batches of the training default.
        assert TrainConfig().batch_size == 32
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=7)
        by_id = {VOCAB.token_to_id(f"w{i}"): f"w{i}" for i in range(200)}
        words = sorted(by_id.values())[:9]  # 9 words with distinct hashed ids
        inputs = [[a, b] for a in words for b in words][:70]  # 70 distinct two-word inputs
        insts = [make_instance(ws, "uncle", s, 0, f"t{k}") for k, ws in enumerate(inputs) for s in (NAME, AGE)]
        singles = [predict_probs(model, [i])[0] for i in insts]
        rows = self.count_rows(monkeypatch)
        got = predict_probs(model, insts)
        assert rows == [32, 32, 6]
        assert list(got) == pytest.approx(singles, rel=1e-12, abs=1e-15)


class TestSubtaskCodeSpace:
    """A table codes each subtask by its sorted position, and training and scoring map a table
    to a model's head rows once; the bits do not depend on how a table numbers its subtasks."""

    @staticmethod
    def renumbered(table, perm):
        """``table`` with subtask code c renumbered ``perm[c]``."""
        ids = [None] * len(perm)
        for code, new in enumerate(perm):
            ids[new] = table.subtask_ids[code]
        return replace(table, subtask=np.asarray(perm, dtype=np.int64)[table.subtask], subtask_ids=tuple(ids))

    @given(data=st.data(), kind=st.sampled_from(list(StrategyKind)), seed=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_bits_do_not_depend_on_the_code_space(self, data, kind, seed):
        units = data.draw(st.lists(st.tuples(st.lists(st.sampled_from(["sad", "news", "w"]), max_size=3),
                                             st.sampled_from(["uncle", "sixty", "masks"])), min_size=1, max_size=4))
        triples = data.draw(st.lists(st.tuples(st.integers(0, len(units) - 1), st.sampled_from([NAME, AGE, OPINION]),
                                               st.integers(0, 1)), min_size=1, max_size=12))
        insts = [make_instance(*units[u], s, y, f"t{u}", u) for u, s, y in triples]
        table = multitask.as_table(insts)
        assert table.subtask_ids == tuple(sorted({s for _, s, _ in triples}))
        perm = data.draw(st.permutations(range(len(table.subtask_ids))))
        tables = [table, self.renumbered(table, perm), multitask.as_table(list(table)), insts]
        model = init_model(enc_cfg(), kind, REG, seed=seed)
        cfg = TrainConfig(clip_norm=data.draw(st.sampled_from([0.0, 1e-3, 5.0])))

        want_value, want_grads = loss_and_grads(model, table, cfg)
        want_probs = predict_probs(model, table)
        for other in tables[1:]:
            value, grads = loss_and_grads(model, other, cfg)
            assert value.hex() == want_value.hex()
            assert list(grads) == list(want_grads) and list(grads.rows) == list(want_grads.rows)
            assert all(same_bits(grads[name], want_grads[name]) for name in grads)
            assert all(same_bits(grads.rows[name], want_grads.rows[name]) for name in grads.rows)
            assert same_bits(predict_probs(model, other), want_probs)
        head_rows = want_grads.rows["head.w"].tolist()
        assert head_rows == [model.subtasks.index(s) for s in dict.fromkeys(s for _, s, _ in triples)]

        # Mapped once, a table and every batch taken from it are already in the model's rows.
        mapped = multitask._to_head_rows(model, tables[1])
        assert [model.subtasks[row] for row in mapped.subtask.tolist()] == [s for _, s, _ in triples]
        batch = mapped.take(np.arange(len(mapped))[::-1])
        assert multitask._to_head_rows(model, batch) is batch

        # A model with a head more scores the shared subtasks the same.
        more = SubtaskRegistry({EventType.DEATH: ("age", "name", "when"), EventType.CURE_AND_PREVENTION: ("opinion",)})
        wide = init_model(enc_cfg(), kind, more, seed=seed + 1)
        for (name, a), (_, b) in zip(model.named_arrays(), wide.named_arrays()):
            if not name.startswith("head."):
                b[...] = a
        rows = [wide.subtasks.index(s) for s in model.subtasks]
        wide.head_w[rows], wide.head_b[rows] = model.head_w, model.head_b
        assert same_bits(predict_probs(wide, tables[1]), want_probs)
        assert loss_and_grads(wide, tables[1], cfg)[0].hex() == want_value.hex()

    @pytest.mark.parametrize("lacking", ["train", "validation"])
    def test_a_missing_head_is_refused_before_the_first_step(self, lacking, monkeypatch):
        death_only = init_model(enc_cfg(), StrategyKind.SUM4, SubtaskRegistry({EventType.DEATH: ("age", "name")}))
        known = [make_instance(["sad"], "uncle", NAME, 1), make_instance(["sad"], "uncle", AGE, 0)]
        sets = {"train": known, "validation": known}
        sets[lacking] = [*known, make_instance([], "masks", OPINION, 1, "t1")]
        steps = []
        monkeypatch.setattr(multitask, "loss_and_grads", lambda *args: steps.append(args))
        with pytest.raises(TrainError, match=r"^no head for subtask\(s\): cure_and_prevention/opinion$"):
            train(death_only, sets["train"], sets["validation"], TrainConfig(epochs=1))
        assert steps == []


class TestMicroF1:
    def test_hand_values(self):
        assert micro_f1_counts(1, 1, 1) == pytest.approx(0.5)
        assert micro_f1_counts(0, 0, 0) == 0.0
        assert micro_f1_counts(3, 0, 0) == 1.0
        assert micro_f1_counts(0, 2, 5) == 0.0

    def test_validation_micro_f1_missing_head(self):
        model = init_model(enc_cfg(), StrategyKind.SUM4, REG, seed=0)
        who = make_instance([], "x", SubtaskId(EventType.TESTED_POSITIVE, "who"), 1)
        age = make_instance([], "x", SubtaskId(EventType.TESTED_POSITIVE, "age"), 0)
        insts = [who, make_instance([], "x", AGE, 1), who, age]
        with pytest.raises(TrainError, match=r"^no head for subtask\(s\): tested_positive/age, tested_positive/who$"):
            validation_micro_f1(model, insts, TrainConfig())

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
            dict(weight_decay=-0.1),
            dict(epsilon=0.0),
            dict(epsilon=-1.0),
        ):
            with pytest.raises(TrainError):
                TrainConfig(**kw)
