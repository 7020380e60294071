"""Encoder forward/backward tests.

Two independent oracles guard the encoder: a per-position loop
re-implementation of the forward contract, and central finite differences
for every gradient entry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.encoder import (
    EncoderCache,
    EncoderConfig,
    EncoderError,
    EncoderParams,
    _shift,
    backward_batch,
    forward,
    forward_batch,
    init_params,
    zero_grads,
)
from tweetslots.preprocess import PAD_ID


def small_cfg(**kw) -> EncoderConfig:
    base = dict(num_layers=4, hidden_size=8, vocab_size=32, max_len=8,
                context_window=1, seed=0)
    base.update(kw)
    return EncoderConfig(**base)


def random_ids(cfg, b, t, rng, ragged=True) -> np.ndarray:
    ids = rng.integers(1, cfg.vocab_size, size=(b, t))
    if ragged:
        for i in range(b):
            ids[i, t - rng.integers(0, t // 2 + 1):] = PAD_ID
    return ids.astype(np.int64)


def naive_forward(params: EncoderParams, ids: np.ndarray) -> list:
    """Per-position loop re-statement of the forward contract."""
    cfg = params.config
    b, t = ids.shape
    w = cfg.context_window
    x = np.zeros((b, t, cfg.hidden_size))
    for bi in range(b):
        for ti in range(t):
            if ids[bi, ti] != PAD_ID:
                x[bi, ti] = params.token_emb[ids[bi, ti]] + params.pos_emb[ti]
    states = []
    for layer in params.layers:
        nx = np.zeros_like(x)
        for bi in range(b):
            for ti in range(t):
                if ids[bi, ti] == PAD_ID:
                    continue
                pre = layer.b.copy()
                for k in range(cfg.num_taps):
                    src = ti + (k - w)
                    if 0 <= src < t:
                        pre = pre + x[bi, src] @ layer.w[k]
                nx[bi, ti] = x[bi, ti] + np.tanh(pre)
        x = nx
        states.append(x.copy())
    return states


class TestConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert cfg.num_layers == 4
        assert cfg.hidden_size == 32
        assert cfg.context_window == 2
        assert cfg.num_taps == 5

    def test_validation(self):
        with pytest.raises(EncoderError):
            EncoderConfig(num_layers=3)
        with pytest.raises(EncoderError):
            EncoderConfig(hidden_size=30)
        with pytest.raises(EncoderError):
            EncoderConfig(hidden_size=0)
        with pytest.raises(EncoderError):
            EncoderConfig(context_window=-1)
        with pytest.raises(EncoderError):
            EncoderConfig(vocab_size=4)


class TestInit:
    def test_deterministic(self):
        cfg = small_cfg(seed=3)
        a, b = init_params(cfg), init_params(cfg)
        for (n1, x), (n2, y) in zip(a.named_arrays(), b.named_arrays()):
            assert n1 == n2
            assert np.array_equal(x, y)

    def test_seed_changes_weights(self):
        a = init_params(small_cfg(seed=0))
        b = init_params(small_cfg(seed=1))
        assert not np.array_equal(a.token_emb, b.token_emb)

    def test_scale_and_zero_biases(self):
        cfg = small_cfg()
        p = init_params(cfg)
        bound = 1.0 / np.sqrt(cfg.hidden_size)
        assert np.abs(p.token_emb).max() <= bound
        for layer in p.layers:
            assert np.abs(layer.w).max() <= bound
            assert np.array_equal(layer.b, np.zeros(cfg.hidden_size))

    def test_named_arrays_order(self):
        p = init_params(small_cfg())
        names = [n for n, _ in p.named_arrays()]
        assert names == (
            ["enc.token_emb", "enc.pos_emb"]
            + [f"enc.layer{i}.{s}" for i in range(4) for s in ("w", "b")]
        )


class TestShift:
    def test_hand_example(self):
        x = np.arange(8, dtype=float).reshape(1, 4, 2)
        fwd = _shift(x, 1)
        assert np.array_equal(fwd[0], [[2, 3], [4, 5], [6, 7], [0, 0]])
        back = _shift(x, -1)
        assert np.array_equal(back[0], [[0, 0], [0, 1], [2, 3], [4, 5]])
        assert _shift(x, 0) is x

    def test_shift_past_length_is_zero(self):
        x = np.ones((2, 3, 2))
        assert np.array_equal(_shift(x, 5), np.zeros_like(x))
        assert np.array_equal(_shift(x, -5), np.zeros_like(x))


class TestForward:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for w in (0, 1, 2):
            cfg = small_cfg(context_window=w)
            params = init_params(cfg)
            ids = random_ids(cfg, 3, 7, rng)
            got = forward_batch(params, ids).hidden
            want = naive_forward(params, ids)
            for g, v in zip(got, want):
                np.testing.assert_allclose(g, v, rtol=1e-12, atol=1e-14)

    def test_zero_weights_keep_embeddings(self):
        # tanh(0) = 0, so every layer output equals the embedding layer.
        cfg = small_cfg()
        params = init_params(cfg)
        for layer in params.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        ids = np.array([[4, 5, 6, PAD_ID]], dtype=np.int64)
        cache = forward_batch(params, ids)
        for x in cache.hidden:
            assert np.array_equal(x, cache.xs[0])

    def test_pad_rows_are_zero_at_every_layer(self):
        cfg = small_cfg()
        params = init_params(cfg)
        ids = np.array([[3, 4, PAD_ID, PAD_ID], [5, 6, 7, PAD_ID]], dtype=np.int64)
        cache = forward_batch(params, ids)
        for x in [cache.xs[0]] + cache.hidden:
            assert np.array_equal(x[0, 2:], np.zeros((2, cfg.hidden_size)))
            assert np.array_equal(x[1, 3:], np.zeros((1, cfg.hidden_size)))

    def test_pad_tail_extension_is_exact(self):
        # Appending PAD columns must leave real positions bitwise unchanged.
        cfg = small_cfg()
        params = init_params(cfg)
        ids = np.array([[3, 4, 5]], dtype=np.int64)
        short = forward_batch(params, ids)
        padded = forward_batch(params, np.hstack([ids, np.zeros((1, 4), dtype=np.int64)]))
        for a, b in zip(short.hidden, padded.hidden):
            assert np.array_equal(a[0], b[0, :3])

    def test_batch_rows_independent(self):
        cfg = small_cfg()
        params = init_params(cfg)
        rng = np.random.default_rng(1)
        ids = random_ids(cfg, 4, 6, rng)
        batch = forward_batch(params, ids)
        for i in range(4):
            solo = forward_batch(params, ids[i:i + 1])
            for a, b in zip(batch.hidden, solo.hidden):
                assert np.array_equal(a[i], b[0])

    def test_single_sequence_wrapper(self):
        cfg = small_cfg()
        params = init_params(cfg)
        states = forward(params, [3, 4, 5])
        assert len(states) == cfg.num_layers
        assert states[0].shape == (3, cfg.hidden_size)

    def test_receptive_field_respects_window(self):
        # With window w and L layers, position j reaches at most j +- w*L.
        cfg = small_cfg(context_window=1, max_len=16)
        params = init_params(cfg)
        base = np.full((1, 12), 3, dtype=np.int64)
        edit = base.copy()
        edit[0, 0] = 9
        a = forward_batch(params, base).hidden[-1]
        b = forward_batch(params, edit).hidden[-1]
        reach = cfg.context_window * cfg.num_layers
        changed = np.where(np.any(a[0] != b[0], axis=1))[0]
        assert changed.max() <= reach

    def test_window_zero_is_per_position(self):
        cfg = small_cfg(context_window=0)
        params = init_params(cfg)
        base = np.array([[3, 4, 5, 6]], dtype=np.int64)
        edit = np.array([[3, 9, 5, 6]], dtype=np.int64)
        a = forward_batch(params, base).hidden[-1]
        b = forward_batch(params, edit).hidden[-1]
        changed = np.where(np.any(a[0] != b[0], axis=1))[0]
        assert list(changed) == [1]

    def test_input_validation(self):
        cfg = small_cfg()
        params = init_params(cfg)
        with pytest.raises(EncoderError, match="2-d"):
            forward_batch(params, np.zeros(4, dtype=np.int64))
        with pytest.raises(EncoderError, match="max_len"):
            forward_batch(params, np.zeros((1, cfg.max_len + 1), dtype=np.int64))
        with pytest.raises(EncoderError, match="outside"):
            forward_batch(params, np.array([[cfg.vocab_size]], dtype=np.int64))
        with pytest.raises(EncoderError, match="outside"):
            forward_batch(params, np.array([[-1]], dtype=np.int64))


def scalar_loss(params: EncoderParams, ids: np.ndarray, upstream: list) -> float:
    cache = forward_batch(params, ids)
    return float(sum((u * x).sum() for u, x in zip(upstream, cache.hidden)))


def analytic_grads(params: EncoderParams, ids: np.ndarray, upstream: list) -> EncoderParams:
    cache = forward_batch(params, ids)
    return backward_batch(params, cache, upstream)


def fd_grad(params: EncoderParams, arr: np.ndarray, ids, upstream, eps=1e-5) -> np.ndarray:
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    fout = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = scalar_loss(params, ids, upstream)
        flat[i] = orig - eps
        down = scalar_loss(params, ids, upstream)
        flat[i] = orig
        fout[i] = (up - down) / (2 * eps)
    return out


def assert_close(analytic: np.ndarray, numeric: np.ndarray, name: str, tol=1e-6):
    denom = np.maximum(np.abs(numeric), 1.0)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"{name}: max rel err {rel.max():.3g}"


def einsum_weight_grads(params: EncoderParams, cache: EncoderCache, upstream) -> tuple[list, list]:
    """Layer weight gradients by an explicit per-tap einsum over (b, t).

    Restates the adjoint recursion of ``backward_batch``; returns, per layer,
    the (taps, H, H) gradient and the same sum over absolute terms, the
    scale of the rounding error any reordering of that sum can make.
    """
    cfg = params.config
    w = cfg.context_window
    grads, scales = [None] * cfg.num_layers, [None] * cfg.num_layers
    g = np.zeros_like(upstream[0])
    for li in range(cfg.num_layers - 1, -1, -1):
        g = g + upstream[li]
        a = g * cache.mask
        dpre = a * (1.0 - cache.hs[li] ** 2)
        x_prev = cache.xs[li]
        g = a.copy()
        grads[li] = np.stack([np.einsum("bti,btj->ij", _shift(x_prev, k - w), dpre)
                              for k in range(cfg.num_taps)])
        scales[li] = np.stack([np.einsum("bti,btj->ij", np.abs(_shift(x_prev, k - w)), np.abs(dpre))
                               for k in range(cfg.num_taps)])
        for k in range(cfg.num_taps):
            g += _shift(dpre @ params.layers[li].w[k].T, -(k - w))
    return grads, scales


class TestBackward:
    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_finite_difference_all_groups(self, window):
        cfg = small_cfg(context_window=window, vocab_size=16, max_len=6)
        params = init_params(cfg)
        rng = np.random.default_rng(7)
        # Repeated ids and PAD tails on purpose: exercises the scatter-add
        # and mask paths.
        ids = np.array([[3, 4, 3, 5, PAD_ID, PAD_ID], [5, 5, 6, 7, 8, PAD_ID]], dtype=np.int64)
        upstream = [rng.standard_normal((2, 6, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        grads = analytic_grads(params, ids, upstream)
        assert_close(grads.token_emb, fd_grad(params, params.token_emb, ids, upstream), "token_emb")
        assert_close(grads.pos_emb, fd_grad(params, params.pos_emb, ids, upstream), "pos_emb")
        for i, layer in enumerate(params.layers):
            assert_close(grads.layers[i].w, fd_grad(params, layer.w, ids, upstream), f"layer{i}.w")
            assert_close(grads.layers[i].b, fd_grad(params, layer.b, ids, upstream), f"layer{i}.b")

    def test_pad_and_unused_rows_get_zero_grads(self):
        cfg = small_cfg(vocab_size=16, max_len=8)
        params = init_params(cfg)
        rng = np.random.default_rng(3)
        ids = np.array([[3, 4, PAD_ID, PAD_ID]], dtype=np.int64)
        upstream = [rng.standard_normal((1, 4, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        grads = analytic_grads(params, ids, upstream)
        # PAD embedding row and untouched vocab rows get nothing.
        assert np.array_equal(grads.token_emb[PAD_ID], np.zeros(cfg.hidden_size))
        assert np.array_equal(grads.token_emb[9], np.zeros(cfg.hidden_size))
        # Positions beyond t get nothing.
        assert np.array_equal(grads.pos_emb[4:], np.zeros((4, cfg.hidden_size)))

    def test_upstream_only_last_layer(self):
        # Zeros elsewhere: gradient must still match FD.
        cfg = small_cfg(vocab_size=16, max_len=6)
        params = init_params(cfg)
        rng = np.random.default_rng(5)
        ids = np.array([[3, 4, 5, PAD_ID]], dtype=np.int64)
        upstream = [np.zeros((1, 4, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        upstream[-1] = rng.standard_normal((1, 4, cfg.hidden_size))
        grads = analytic_grads(params, ids, upstream)
        assert_close(grads.token_emb, fd_grad(params, params.token_emb, ids, upstream), "token_emb")
        assert_close(grads.layers[0].w, fd_grad(params, params.layers[0].w, ids, upstream), "layer0.w")

    def test_linearity_in_upstream(self):
        cfg = small_cfg(vocab_size=16, max_len=6)
        params = init_params(cfg)
        rng = np.random.default_rng(9)
        ids = np.array([[3, 4, 5, 6]], dtype=np.int64)
        cache = forward_batch(params, ids)
        u1 = [rng.standard_normal((1, 4, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        u2 = [rng.standard_normal((1, 4, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        g1 = backward_batch(params, cache, u1)
        g2 = backward_batch(params, cache, u2)
        g12 = backward_batch(params, cache, [a + b for a, b in zip(u1, u2)])
        np.testing.assert_allclose(
            g12.token_emb, g1.token_emb + g2.token_emb, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            g12.layers[2].w, g1.layers[2].w + g2.layers[2].w, rtol=1e-12, atol=1e-12
        )

    def test_shape_validation(self):
        cfg = small_cfg()
        params = init_params(cfg)
        ids = np.array([[3, 4]], dtype=np.int64)
        cache = forward_batch(params, ids)
        with pytest.raises(EncoderError, match="upstream"):
            backward_batch(params, cache, [np.zeros((1, 2, cfg.hidden_size))])
        bad = [np.zeros((1, 3, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        with pytest.raises(EncoderError, match="shape"):
            backward_batch(params, cache, bad)

    @given(b=st.integers(1, 4), t=st.integers(1, 6), window=st.integers(0, 3),
           hidden=st.sampled_from([4, 8]), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_weight_grads_match_einsum_oracle(self, b, t, window, hidden, seed):
        # t <= window makes whole shifted copies fall off the sequence.
        cfg = small_cfg(hidden_size=hidden, context_window=window, vocab_size=12, max_len=6, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed)
        for layer in params.layers:
            layer.b[:] = rng.standard_normal(hidden)
        ids = random_ids(cfg, b, t, rng)
        cache = forward_batch(params, ids)
        upstream = [rng.standard_normal((b, t, hidden)) for _ in range(cfg.num_layers)]
        got = backward_batch(params, cache, upstream)
        want, scale = einsum_weight_grads(params, cache, upstream)
        for li in range(cfg.num_layers):
            # rtol 1e-12 of the summed magnitudes: only the summation order
            # may differ, and all-zero terms (fallen-off shifts) must give 0.
            assert np.all(np.abs(got.layers[li].w - want[li]) <= 1e-12 * scale[li]), li

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_fd_spot_checks_property(self, seed):
        # Random tiny instances; spot-check a handful of coordinates.
        cfg = small_cfg(vocab_size=12, max_len=5)
        params = init_params(EncoderConfig(**{**cfg.__dict__, "seed": seed % 7}))
        rng = np.random.default_rng(seed)
        ids = random_ids(cfg, 2, 5, rng)
        upstream = [rng.standard_normal((2, 5, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        grads = analytic_grads(params, ids, upstream)
        eps = 1e-5
        for arr, garr in ((params.layers[1].w, grads.layers[1].w),
                          (params.pos_emb, grads.pos_emb)):
            flat, gflat = arr.reshape(-1), garr.reshape(-1)
            for i in rng.choice(flat.size, size=3, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = scalar_loss(params, ids, upstream)
                flat[i] = orig - eps
                down = scalar_loss(params, ids, upstream)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                assert abs(gflat[i] - fd) / max(abs(fd), 1.0) < 1e-6
