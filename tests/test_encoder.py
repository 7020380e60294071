"""Encoder forward/backward tests.

Four independent oracles guard the marker-window encoder: a per-position
loop re-implementation of the forward contract, a copy of the full-length
forward and backward that computed every position of the tweet, a copy of
the forward that was handed its windows ready-gathered, and central finite
differences for every gradient entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.encoder import (
    EncoderCache,
    EncoderConfig,
    EncoderError,
    EncoderParams,
    backward_batch,
    centre,
    forward_batch,
    init_params,
    window_radius,
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


def lengths_of(token_ids: np.ndarray) -> np.ndarray:
    """Real tokens per row; the rows hold no PAD before their tail."""
    return (token_ids != PAD_ID).sum(axis=1)


def random_markers(token_ids: np.ndarray, rng) -> np.ndarray:
    return np.array([rng.integers(0, n) for n in lengths_of(token_ids)])


def encode(params: EncoderParams, token_ids: np.ndarray, marker) -> EncoderCache:
    """Forward over the windows centred on ``marker`` of PAD-tailed id rows."""
    return forward_batch(params, token_ids, lengths_of(token_ids), np.asarray(marker))


def positions(cfg: EncoderConfig, cache: EncoderCache, layer: int) -> np.ndarray:
    """(B, rows) tweet position of each row of ``cache.xs[layer]``."""
    rows = cache.xs[layer].shape[1]
    return cache.start[:, None] + layer * cfg.context_window + np.arange(rows)


def at_window(cfg: EncoderConfig, cache: EncoderCache, layer: int, states: np.ndarray) -> np.ndarray:
    """The rows of ``states`` (B, T, H), one per tweet position, at the positions of
    ``cache.xs[layer]``'s rows; zero outside [0, T)."""
    r = window_radius(cfg)
    b, t, h = states.shape
    padded = np.zeros((b, t + 2 * r, h))
    padded[:, r:r + t] = states
    return padded[np.arange(b)[:, None], positions(cfg, cache, layer) + r]


def tap_product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The encoder's rule for a tap product over row blocks ``a`` (B, rows, H), restated: a
    1-row block is the middle row of a 3-row block padded with zero rows, so no product
    takes OpenBLAS's 1-row GEMV path."""
    if a.shape[1] == 1:
        return (np.pad(a, ((0, 0), (1, 1), (0, 0))) @ m)[:, 1:2]
    return a @ m


def naive_forward(params: EncoderParams, ids: np.ndarray) -> list:
    """Per-position loop re-statement of the forward contract over whole rows."""
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


@dataclass
class FullCache:
    ids: np.ndarray  # (B, T)
    mask: np.ndarray  # (B, T, 1)
    xs: list  # L+1 arrays (B, T, H)
    hs: list  # L arrays (B, T, H)


def full_forward(params: EncoderParams, ids: np.ndarray) -> FullCache:
    """The encoder's earlier forward: every position of (B, T) id rows, T <= max_len."""
    cfg = params.config
    b, t = ids.shape
    mask = (ids != PAD_ID).astype(np.float64)[:, :, None]
    x = (params.token_emb[ids] + params.pos_emb[:t]) * mask
    xs = [x]
    hs = []
    w = cfg.context_window
    xp = np.zeros((b, t + 2 * w, cfg.hidden_size))
    for layer in params.layers:
        pre = np.broadcast_to(layer.b, x.shape).copy()
        xp[:, w:w + t] = x
        for k in range(cfg.num_taps):
            pre += xp[:, k:k + t] @ layer.w[k]
        h = np.tanh(pre, out=pre)
        x = x + h
        x *= mask
        xs.append(x)
        hs.append(h)
    return FullCache(ids=ids, mask=mask, xs=xs, hs=hs)


def full_backward(params: EncoderParams, cache: FullCache, upstream) -> EncoderParams:
    """The encoder's earlier backward: the adjoint of ``full_forward``."""
    cfg = params.config
    b, t = cache.ids.shape
    h = cfg.hidden_size
    grads = zero_grads(cfg)
    mask = cache.mask
    w = cfg.context_window
    xp = np.zeros((b, t + 2 * w, h))
    gp = np.zeros((b, t + 2 * w, h))
    g = gp[:, w:w + t]
    for li in range(cfg.num_layers - 1, -1, -1):
        g += upstream[li]
        g *= mask
        dpre = g * (1.0 - cache.hs[li] ** 2)
        grads.layers[li].b += dpre.sum(axis=(0, 1))
        xp[:, w:w + t] = cache.xs[li]
        dpre_rows = dpre.reshape(-1, h)
        for k in range(cfg.num_taps):
            grads.layers[li].w[k] += xp[:, k:k + t].reshape(-1, h).T @ dpre_rows
            gp[:, k:k + t] += dpre @ params.layers[li].w[k].T
    demb = g * mask
    np.add.at(grads.token_emb, cache.ids, demb)
    grads.pos_emb[:t] += demb.sum(axis=0)
    return grads


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
    """Tap k of a layer reads the layer input at offset k - context_window."""

    @staticmethod
    def one_tap(cfg, k):
        # Embeddings 0.05 * (4 * id + column), no positional part; layer 0
        # has identity weights at tap k only, so hs[0] = tanh(tap k's read).
        params = init_params(cfg)
        params.token_emb[:] = 0.05 * np.arange(params.token_emb.size).reshape(params.token_emb.shape)
        params.pos_emb[:] = 0.0
        params.layers[0].w[:] = 0.0
        params.layers[0].w[k] = np.eye(cfg.hidden_size)
        params.layers[0].b[:] = 0.0
        return params

    def test_hand_example(self):
        cfg = small_cfg(hidden_size=4, context_window=1, vocab_size=8, max_len=4)
        ids = np.array([[1, 2, 3, 4]], dtype=np.int64)
        x = 0.05 * np.arange(4, 20, dtype=float).reshape(4, 4)  # rows of ids 1..4
        zero = np.zeros(4)
        for marker in (0, 1, 3):
            for k, want in ((2, [x[1], x[2], x[3], zero]), (0, [zero, x[0], x[1], x[2]]), (1, x)):
                cache = encode(self.one_tap(cfg, k), ids, [marker])
                rows = positions(cfg, cache, 1)[0]
                got = cache.hs[0][0, (rows >= 0) & (rows < 4)]
                np.testing.assert_allclose(np.arctanh(got), want, rtol=1e-12, atol=1e-15)

    def test_shift_past_length_is_zero(self):
        # Offsets -5 and +5 over 3 positions read only padding: the layer's
        # pre-activation at every real position and those taps' weight
        # gradients are exactly 0.
        cfg = small_cfg(context_window=5, max_len=8)
        ids = np.array([[3, 4, 5], [6, 7, PAD_ID]], dtype=np.int64)
        for k in (0, 10):
            params = self.one_tap(cfg, k)
            cache = encode(params, ids, [2, 0])
            assert np.array_equal(cache.hs[0] * centre(cache.mask, cache.hs[0].shape[1]), np.zeros_like(cache.hs[0]))
            upstream = [np.ones_like(x) for x in cache.hidden]
            grads = backward_batch(params, cache, upstream)
            assert np.array_equal(grads.layers[1].w[k], np.zeros((cfg.hidden_size, cfg.hidden_size)))
            assert np.any(grads.layers[1].w[5] != 0.0)


class TestForward:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for w in (0, 1, 2):
            cfg = small_cfg(context_window=w)
            params = init_params(cfg)
            ids = random_ids(cfg, 3, 7, rng)
            cache = encode(params, ids, random_markers(ids, rng))
            want = naive_forward(params, ids)
            for layer, v in enumerate(want, start=1):
                np.testing.assert_allclose(cache.xs[layer], at_window(cfg, cache, layer, v), rtol=1e-12, atol=1e-14)

    def test_zero_weights_keep_embeddings(self):
        # tanh(0) = 0, so every layer output is the centre of the embedding layer.
        cfg = small_cfg()
        params = init_params(cfg)
        for layer in params.layers:
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        ids = np.array([[4, 5, 6, PAD_ID]], dtype=np.int64)
        cache = encode(params, ids, [1])
        w = cfg.context_window
        for layer, x in enumerate(cache.hidden, start=1):
            assert np.array_equal(x, cache.xs[0][:, layer * w:layer * w + x.shape[1]])

    def test_pad_rows_are_zero_at_every_layer(self):
        cfg = small_cfg()
        params = init_params(cfg)
        ids = np.array([[3, 4, PAD_ID, PAD_ID], [5, 6, 7, PAD_ID]], dtype=np.int64)
        cache = encode(params, ids, [1, 2])
        for layer, x in enumerate(cache.xs):
            pos = positions(cfg, cache, layer)
            outside = (pos < 0) | (pos >= np.array([[2], [3]]))
            # Every layer below the top has rows outside the tweet; the top holds the markers alone.
            assert outside.any() == (layer < cfg.num_layers) and not outside.all()
            assert np.array_equal(x[outside], np.zeros((int(outside.sum()), cfg.hidden_size)))

    def test_pad_tail_extension_is_exact(self):
        # The window reads only the tweet: a longer PAD tail, or ids past the
        # tweet's length, leave every row bitwise unchanged.
        cfg = small_cfg()
        params = init_params(cfg)
        ids = np.array([[3, 4, 5]], dtype=np.int64)
        short = forward_batch(params, ids, [3], [1])
        for tail in ([0, 0, 0, 0], [9, 9, 9, 9]):
            longer = np.hstack([ids, np.array([tail], dtype=np.int64)])
            padded = forward_batch(params, longer, [3], [1])
            assert np.array_equal(short.ids, padded.ids)
            for a, b in zip(short.xs, padded.xs):
                assert np.array_equal(a, b)

    def test_batch_rows_independent(self):
        cfg = small_cfg()
        params = init_params(cfg)
        rng = np.random.default_rng(1)
        ids = random_ids(cfg, 4, 6, rng)
        marker = random_markers(ids, rng)
        batch = encode(params, ids, marker)
        for i in range(4):
            solo = encode(params, ids[i:i + 1], marker[i:i + 1])
            for a, b in zip(batch.xs, solo.xs):
                assert np.array_equal(a[i], b[0])

    def test_single_sequence_batch(self):
        cfg = small_cfg()
        params = init_params(cfg)
        states = encode(params, np.array([[3, 4, 5]], dtype=np.int64), [0]).hidden
        assert len(states) == cfg.num_layers
        # Layer 1 holds (L - 1) * w rows on each side of the marker, and the top layer the marker alone.
        assert states[0][0].shape == (2 * (cfg.num_layers - 1) * cfg.context_window + 1, cfg.hidden_size)
        assert states[-1][0].shape == (1, cfg.hidden_size)

    def test_receptive_field_respects_window(self):
        # With window w and L layers, the marker row reaches at most w*L
        # positions away; the top layer holds the marker row alone.
        cfg = small_cfg(context_window=1, max_len=16)
        params = init_params(cfg)
        base = np.full((1, 12), 3, dtype=np.int64)
        edit = base.copy()
        edit[0, 0] = 9
        reach = cfg.context_window * cfg.num_layers
        changed = [m for m in range(12)
                   if not np.array_equal(encode(params, base, [m]).hidden[-1][0, 0],
                                         encode(params, edit, [m]).hidden[-1][0, 0])]
        assert max(changed) <= reach

    def test_window_zero_is_per_position(self):
        cfg = small_cfg(context_window=0)
        params = init_params(cfg)
        base = np.array([[3, 4, 5, 6]], dtype=np.int64)
        edit = np.array([[3, 9, 5, 6]], dtype=np.int64)
        changed = [m for m in range(4)
                   if not np.array_equal(encode(params, base, [m]).hidden[-1][0, 0],
                                         encode(params, edit, [m]).hidden[-1][0, 0])]
        assert changed == [1]

    def test_input_validation(self):
        # A row's length must fit both its id row and max_len, and its marker must lie inside it.
        cfg = small_cfg()
        params = init_params(cfg)
        ids = np.full((2, cfg.max_len + 2), 3, dtype=np.int64)
        forward_batch(params, ids, [cfg.max_len, 1], [cfg.max_len - 1, 0])
        for lengths, marker, message in (
            ([0, 4], [0, 0], r"batch row 0: length 0 outside \[1, 8\]"),
            ([4, 9], [0, 0], r"batch row 1: length 9 outside \[1, 8\]"),
            ([4, 4], [-1, 0], r"batch row 0: marker position -1 outside \[0, 4\)"),
            ([4, 4], [0, 4], r"batch row 1: marker position 4 outside \[0, 4\)"),
        ):
            with pytest.raises(EncoderError, match=message):
                forward_batch(params, ids, lengths, marker)
        with pytest.raises(EncoderError, match=r"batch row 0: length 4 outside \[1, 3\]"):
            forward_batch(params, ids[:, :3], [4, 3], [0, 0])
        for bad in (cfg.vocab_size, -1):
            with pytest.raises(EncoderError, match=rf"token id {bad} outside \[0, {cfg.vocab_size}\)"):
                forward_batch(params, np.full((1, 4), bad), [4], [0])
        # Ids past a row's length are never read, so they are not checked either.
        forward_batch(params, np.array([[3, 4, cfg.vocab_size, -1]]), [2], [1])

    def test_marker_out_of_range(self):
        # Each row is checked against its own length, not the widest row of the batch.
        params = init_params(small_cfg(max_len=10))
        token_ids = np.array([[5, 6, 7, 8, 0, 0, 0, 0, 0, 0], [5] * 10], dtype=np.int64)
        lengths = np.array([4, 10])
        for marker in ([7, 0], [-1, 0], [4, 0]):
            with pytest.raises(EncoderError, match=r"batch row 0: marker position -?\d+ outside \[0, 4\)"):
                forward_batch(params, token_ids, lengths, marker)
        with pytest.raises(EncoderError, match="batch row 1"):
            forward_batch(params, token_ids, lengths, [3, 10])

    def test_window_is_centred_and_pad_outside_the_tweet(self):
        # Four layers of half-width 1: the window holds L·w = 4 rows on each side of the marker.
        # The id past row 0's length is PAD in its window.
        token_ids = np.array([[5, 6, 7, 8, 9, 9], [1, 2, 3, 0, 0, 0]], dtype=np.int64)
        cache = forward_batch(init_params(small_cfg(context_window=1)), token_ids, [5, 3], [0, 2])
        assert cache.start.tolist() == [-4, -2]
        assert cache.ids.tolist() == [[PAD_ID] * 4 + [5, 6, 7, 8, 9], [PAD_ID] * 2 + [1, 2, 3] + [PAD_ID] * 4]
        # Half-width 0: the window is the marker alone.
        cache = forward_batch(init_params(small_cfg(context_window=0)), token_ids, [5, 3], [0, 2])
        assert cache.start.tolist() == [0, 2]
        assert cache.ids.tolist() == [[5], [3]]


def gathered_forward(params: EncoderParams, token_ids: np.ndarray, lengths, marker_pos) -> EncoderCache:
    """The earlier two-step path, for rows the rules accept: gather each row's window of ids and
    its start position, then run the forward that was handed the pair (its checks left out).
    Its tap products follow the encoder's 3-row rule (``tap_product``)."""
    cfg = params.config
    radius = window_radius(cfg)
    lengths, marker_pos = np.asarray(lengths, dtype=np.int64), np.asarray(marker_pos, dtype=np.int64)
    start = marker_pos - radius
    pos = start[:, None] + np.arange(2 * radius + 1)
    inside = (pos >= 0) & (pos < lengths[:, None])
    ids = np.take_along_axis(token_ids, np.where(inside, pos, 0), axis=1)
    ids[~inside] = PAD_ID

    ids = np.asarray(ids, dtype=np.int64)
    width = ids.shape[1]
    pos = start[:, None] + np.arange(width)
    mask = (ids != PAD_ID).astype(np.float64)[:, :, None]
    x = (params.token_emb[ids] + params.pos_emb[np.clip(pos, 0, cfg.max_len - 1)]) * mask
    xs = [x]
    hs = []
    w = cfg.context_window
    for layer in params.layers:
        rows = x.shape[1] - 2 * w
        pre = np.broadcast_to(layer.b, (len(ids), rows, cfg.hidden_size)).copy()
        for k in range(cfg.num_taps):
            pre += tap_product(x[:, k:k + rows], layer.w[k])
        h = np.tanh(pre, out=pre)
        x = centre(x, rows) + h
        x *= centre(mask, rows)
        xs.append(x)
        hs.append(h)
    return EncoderCache(ids=ids, start=start, mask=mask, xs=xs, hs=hs)


class TestRowRules:
    """forward_batch refuses exactly the rows whose length or marker breaks the rules, naming the
    first; on every other batch its cache is bitwise the earlier gather-then-forward path's."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_refusals_and_cache_match_the_gathered_path(self, data):
        max_len = data.draw(st.integers(3, 12), label="max_len")
        width = data.draw(st.integers(1, 14), label="id width")
        b = data.draw(st.integers(1, 4), label="B")
        cfg = small_cfg(max_len=max_len, context_window=data.draw(st.integers(0, 2), label="context_window"),
                        hidden_size=4, vocab_size=16)
        limit = min(width, max_len)
        lengths = data.draw(st.lists(st.integers(-1, width + 2), min_size=b, max_size=b), label="lengths")
        marker = [data.draw(st.integers(-2, max(n, 0) + 1), label="marker") for n in lengths]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = init_params(cfg)
        token_ids = rng.integers(0, cfg.vocab_size, size=(b, width))

        bad = [not (1 <= n <= limit and 0 <= m < n) for n, m in zip(lengths, marker)]
        if any(bad):
            first = bad.index(True)
            n, m = lengths[first], marker[first]
            message = (f"batch row {first}: length {n} outside [1, {limit}]" if not 1 <= n <= limit
                       else f"batch row {first}: marker position {m} outside [0, {n})")
            with pytest.raises(EncoderError, match=f"^{re.escape(message)}$"):
                forward_batch(params, token_ids, lengths, marker)
        good = [k for k in range(b) if not bad[k]]
        if not good:
            return
        args = (token_ids[good], np.asarray(lengths)[good], np.asarray(marker)[good])
        got, want = forward_batch(params, *args), gathered_forward(params, *args)
        for name in ("ids", "start", "mask"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for li, (g, v) in enumerate(zip(got.xs + got.hs, want.xs + want.hs)):
            assert g.shape == v.shape and g.tobytes() == v.tobytes(), li


class TestFullLengthOracle:
    """The window path against the earlier forward and backward over every position."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_window_matches_full_length(self, data):
        window = data.draw(st.integers(0, 3), label="context_window")
        num_layers = data.draw(st.integers(4, 6), label="num_layers")
        max_len = data.draw(st.integers(3, 14), label="max_len")
        b = data.draw(st.integers(1, 3), label="B")
        cfg = small_cfg(context_window=window, num_layers=num_layers, max_len=max_len,
                        hidden_size=data.draw(st.sampled_from([4, 8, 32]), label="H"), vocab_size=16)
        lengths = np.array(data.draw(st.lists(st.integers(1, max_len), min_size=b, max_size=b), label="lengths"))
        marker = np.array([data.draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)), label="marker")
                           for n in lengths])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = init_params(cfg)
        for layer in params.layers:
            layer.b[:] = rng.standard_normal(cfg.hidden_size) * 0.1
        ids = rng.integers(1, cfg.vocab_size, size=(b, max_len))
        ids[np.arange(max_len) >= lengths[:, None]] = PAD_ID

        cache = encode(params, ids, marker)
        full = full_forward(params, ids)
        r = window_radius(cfg)
        assert [x.shape[1] for x in cache.xs] == [2 * (r - li * window) + 1 for li in range(num_layers + 1)]
        assert cache.xs[-1].shape[1] == 1
        rows = np.arange(b)
        for li in range(num_layers + 1):
            assert np.array_equal(cache.xs[li][:, cache.xs[li].shape[1] // 2], full.xs[li][rows, marker]), li
            assert np.array_equal(cache.xs[li], at_window(cfg, cache, li, full.xs[li])), li

        # Upstream on every window row; the full-length upstream holds the
        # same values at the same positions.
        upstream = [rng.standard_normal(x.shape) for x in cache.hidden]
        full_up = [np.zeros_like(x) for x in full.xs[1:]]
        for li, (u, fu) in enumerate(zip(upstream, full_up), start=1):
            pos = positions(cfg, cache, li)
            inside = (pos >= 0) & (pos < max_len)
            fu[np.nonzero(inside)[0], pos[inside]] = u[inside]
        got = backward_batch(params, cache, upstream)
        want = full_backward(params, full, full_up)
        for (name, g), (_, v) in zip(got.named_arrays(), want.named_arrays()):
            assert np.all(np.abs(g - v) <= 1e-12 * max(np.abs(v).max(), 1e-300)), name


class TestBatchOfOne:
    """A unit encoded alone has the bits of its row in a batch, forward and backward. The top
    layer holds one row per unit; a product over one row takes OpenBLAS's GEMV path and rounds
    otherwise than a row of a larger product, so a top-layer product over the batch's stacked
    rows, (B, H) @ (H, H), gives a unit alone other bits than the same unit in a batch."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_unit_alone_matches_its_batch_row(self, data):
        hidden = data.draw(st.sampled_from([8, 32, 64]), label="H")
        max_len = data.draw(st.integers(3, 12), label="max_len")
        cfg = small_cfg(hidden_size=hidden, max_len=max_len, vocab_size=16,
                        context_window=data.draw(st.integers(0, 2), label="context_window"))
        b = data.draw(st.integers(2, 5), label="B")
        lengths = np.array(data.draw(st.lists(st.integers(1, max_len), min_size=b, max_size=b), label="lengths"))
        marker = np.array([data.draw(st.integers(0, n - 1), label="marker") for n in lengths])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = init_params(cfg)
        for layer in params.layers:
            layer.b[:] = rng.standard_normal(hidden) * 0.1
        token_ids = rng.integers(1, cfg.vocab_size, size=(b, max_len))
        batch = forward_batch(params, token_ids, lengths, marker)
        upstream = [rng.standard_normal(x.shape) for x in batch.hidden]
        for i in range(b):
            solo = forward_batch(params, token_ids[i:i + 1], lengths[i:i + 1], marker[i:i + 1])
            for li, (x, y) in enumerate(zip(batch.xs + batch.hs, solo.xs + solo.hs)):
                assert x[i:i + 1].tobytes() == y.tobytes(), li
            # Only unit i passes a gradient down, so the batch's gradients are unit i's alone.
            alone = [np.where(np.arange(b)[:, None, None] == i, u, 0.0) for u in upstream]
            got = backward_batch(params, batch, alone)
            want = backward_batch(params, solo, [u[i:i + 1] for u in upstream])
            for (name, g), (_, v) in zip(got.named_arrays(), want.named_arrays()):
                assert g.tobytes() == v.tobytes(), name


def scalar_loss(params: EncoderParams, ids: np.ndarray, marker, upstream: list) -> float:
    cache = encode(params, ids, marker)
    return float(sum((u * x).sum() for u, x in zip(upstream, cache.hidden)))


def analytic_grads(params: EncoderParams, ids: np.ndarray, marker, upstream: list) -> EncoderParams:
    return backward_batch(params, encode(params, ids, marker), upstream)


def window_upstream(params: EncoderParams, ids: np.ndarray, marker, rng) -> list:
    """A random gradient for every row of every layer window."""
    return [rng.standard_normal(x.shape) for x in encode(params, ids, marker).hidden]


def fd_grad(params: EncoderParams, arr: np.ndarray, ids, marker, upstream, eps=1e-5) -> np.ndarray:
    out = np.zeros_like(arr)
    flat = arr.reshape(-1)
    fout = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = scalar_loss(params, ids, marker, upstream)
        flat[i] = orig - eps
        down = scalar_loss(params, ids, marker, upstream)
        flat[i] = orig
        fout[i] = (up - down) / (2 * eps)
    return out


def assert_close(analytic: np.ndarray, numeric: np.ndarray, name: str, tol=1e-6):
    denom = np.maximum(np.abs(numeric), 1.0)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"{name}: max rel err {rel.max():.3g}"


def einsum_weight_grads(params: EncoderParams, cache: EncoderCache, upstream) -> tuple[list, list]:
    """Layer weight gradients by an explicit per-tap einsum over (b, row).

    Restates the adjoint recursion of ``backward_batch``; returns, per layer,
    the (taps, H, H) gradient and the same sum over absolute terms, the
    scale of the rounding error any reordering of that sum can make.
    """
    cfg = params.config
    w = cfg.context_window
    grads, scales = [None] * cfg.num_layers, [None] * cfg.num_layers
    g = np.zeros_like(upstream[-1])
    for li in range(cfg.num_layers - 1, -1, -1):
        g = g + upstream[li]
        a = g * centre(cache.mask, g.shape[1])
        dpre = a * (1.0 - cache.hs[li] ** 2)
        x_prev = cache.xs[li]
        rows = dpre.shape[1]
        grads[li] = np.stack([np.einsum("bti,btj->ij", x_prev[:, k:k + rows], dpre)
                              for k in range(cfg.num_taps)])
        scales[li] = np.stack([np.einsum("bti,btj->ij", np.abs(x_prev[:, k:k + rows]), np.abs(dpre))
                               for k in range(cfg.num_taps)])
        g = np.zeros_like(x_prev)
        g[:, w:w + rows] = a
        for k in range(cfg.num_taps):
            g[:, k:k + rows] += dpre @ params.layers[li].w[k].T
    return grads, scales


class TestBackward:
    @pytest.mark.parametrize("window", [0, 1, 2])
    def test_finite_difference_all_groups(self, window):
        cfg = small_cfg(context_window=window, vocab_size=16, max_len=6)
        params = init_params(cfg)
        rng = np.random.default_rng(7)
        # Repeated ids and PAD tails on purpose: exercises the scatter-add
        # and mask paths. Window rows past the tweet get upstream too.
        ids = np.array([[3, 4, 3, 5, PAD_ID, PAD_ID], [5, 5, 6, 7, 8, PAD_ID]], dtype=np.int64)
        marker = [2, 1]
        upstream = window_upstream(params, ids, marker, rng)
        grads = analytic_grads(params, ids, marker, upstream)
        assert_close(grads.token_emb, fd_grad(params, params.token_emb, ids, marker, upstream), "token_emb")
        assert_close(grads.pos_emb, fd_grad(params, params.pos_emb, ids, marker, upstream), "pos_emb")
        for i, layer in enumerate(params.layers):
            assert_close(grads.layers[i].w, fd_grad(params, layer.w, ids, marker, upstream), f"layer{i}.w")
            assert_close(grads.layers[i].b, fd_grad(params, layer.b, ids, marker, upstream), f"layer{i}.b")

    def test_pad_and_unused_rows_get_zero_grads(self):
        cfg = small_cfg(vocab_size=16, max_len=8)
        params = init_params(cfg)
        rng = np.random.default_rng(3)
        ids = np.array([[3, 4, PAD_ID, PAD_ID]], dtype=np.int64)
        upstream = window_upstream(params, ids, [1], rng)
        grads = analytic_grads(params, ids, [1], upstream)
        # PAD embedding row and untouched vocab rows get nothing.
        assert np.array_equal(grads.token_emb[PAD_ID], np.zeros(cfg.hidden_size))
        assert np.array_equal(grads.token_emb[9], np.zeros(cfg.hidden_size))
        # Positions past the tweet get nothing.
        assert np.array_equal(grads.pos_emb[2:], np.zeros((6, cfg.hidden_size)))
        assert np.all(grads.pos_emb[:2] != 0.0)

    def test_upstream_only_last_layer(self):
        # Zeros elsewhere: gradient must still match FD.
        cfg = small_cfg(vocab_size=16, max_len=6)
        params = init_params(cfg)
        rng = np.random.default_rng(5)
        ids = np.array([[3, 4, 5, PAD_ID]], dtype=np.int64)
        upstream = [np.zeros_like(u) for u in window_upstream(params, ids, [2], rng)]
        upstream[-1] = rng.standard_normal(upstream[-1].shape)
        grads = analytic_grads(params, ids, [2], upstream)
        assert_close(grads.token_emb, fd_grad(params, params.token_emb, ids, [2], upstream), "token_emb")
        assert_close(grads.layers[0].w, fd_grad(params, params.layers[0].w, ids, [2], upstream), "layer0.w")

    def test_linearity_in_upstream(self):
        cfg = small_cfg(vocab_size=16, max_len=6)
        params = init_params(cfg)
        rng = np.random.default_rng(9)
        ids = np.array([[3, 4, 5, 6]], dtype=np.int64)
        cache = encode(params, ids, [1])
        u1 = window_upstream(params, ids, [1], rng)
        u2 = window_upstream(params, ids, [1], rng)
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
        cache = encode(params, ids, [0])
        with pytest.raises(EncoderError, match="upstream"):
            backward_batch(params, cache, [np.zeros_like(cache.hidden[0])])
        bad = [np.zeros((1, 3, cfg.hidden_size)) for _ in range(cfg.num_layers)]
        with pytest.raises(EncoderError, match="shape"):
            backward_batch(params, cache, bad)

    @given(b=st.integers(1, 4), t=st.integers(1, 6), window=st.integers(0, 3),
           hidden=st.sampled_from([4, 8]), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_weight_grads_match_einsum_oracle(self, b, t, window, hidden, seed):
        # t <= window makes whole shifted copies fall off the tweet.
        cfg = small_cfg(hidden_size=hidden, context_window=window, vocab_size=12, max_len=6, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed)
        for layer in params.layers:
            layer.b[:] = rng.standard_normal(hidden)
        ids = random_ids(cfg, b, t, rng)
        marker = random_markers(ids, rng)
        cache = encode(params, ids, marker)
        upstream = [rng.standard_normal(x.shape) for x in cache.hidden]
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
        marker = random_markers(ids, rng)
        upstream = window_upstream(params, ids, marker, rng)
        grads = analytic_grads(params, ids, marker, upstream)
        eps = 1e-5
        for arr, garr in ((params.layers[1].w, grads.layers[1].w),
                          (params.pos_emb, grads.pos_emb)):
            flat, gflat = arr.reshape(-1), garr.reshape(-1)
            for i in rng.choice(flat.size, size=3, replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = scalar_loss(params, ids, marker, upstream)
                flat[i] = orig - eps
                down = scalar_loss(params, ids, marker, upstream)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                assert abs(gflat[i] - fd) / max(abs(fd), 1.0) < 1e-6


def embedding_layer_grad(params: EncoderParams, cache: EncoderCache, upstream) -> np.ndarray:
    """The gradient that reaches the embedding layer's window: the adjoint recursion of
    ``backward_batch`` with the same operations in the same order, and its products by the
    same 3-row rule (``tap_product``), so it has the same bits."""
    cfg = params.config
    w = cfg.context_window
    g = np.zeros_like(upstream[-1])
    for li in range(cfg.num_layers - 1, -1, -1):
        rows = g.shape[1]
        g = (g + upstream[li]) * centre(cache.mask, rows)
        dpre = g * (1.0 - cache.hs[li] ** 2)
        gp = np.zeros((len(g), rows + 2 * w, cfg.hidden_size))
        centre(gp, rows)[...] = g
        for k in range(cfg.num_taps):
            gp[:, k:k + rows] += tap_product(dpre, params.layers[li].w[k].T)
        g = gp
    return g


class TestEmbeddingScatter:
    """The row-sparse embedding gradients against ``np.add.at`` of the whole window into dense zeros."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_rows_match_a_dense_scatter_bitwise(self, data):
        # A small vocabulary repeats ids, and PAD (id 0) may sit inside a tweet. Markers sit at
        # either end of the tweet or anywhere in it; a wide stack makes windows wider than the
        # tweet, and a tweet of max_len puts window rows at positions past max_len.
        max_len = data.draw(st.integers(3, 10), label="max_len")
        cfg = small_cfg(max_len=max_len, vocab_size=data.draw(st.integers(8, 12), label="V"),
                        context_window=data.draw(st.integers(0, 3), label="context_window"),
                        num_layers=data.draw(st.integers(4, 5), label="num_layers"),
                        hidden_size=data.draw(st.sampled_from([4, 8]), label="H"))
        b = data.draw(st.integers(1, 5), label="B")
        lengths = np.array(data.draw(st.lists(st.one_of(st.just(max_len), st.integers(1, max_len)),
                                              min_size=b, max_size=b), label="lengths"))
        marker = np.array([data.draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)), label="marker")
                           for n in lengths])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        token_ids = rng.integers(0, cfg.vocab_size, size=(b, max_len))
        params = init_params(cfg)
        cache = forward_batch(params, token_ids, lengths, marker)
        # Some layers pass down signed zeros only.
        upstream = [rng.standard_normal(x.shape) for x in cache.hidden]
        for li in data.draw(st.sets(st.integers(0, cfg.num_layers - 1)), label="zero layers"):
            upstream[li] = np.copysign(0.0, upstream[li])

        got = backward_batch(params, cache, upstream)
        demb = embedding_layer_grad(params, cache, upstream) * cache.mask
        pos = cache.start[:, None] + np.arange(cache.ids.shape[1])
        inside = (pos >= 0) & (pos < cfg.max_len)
        token_emb, pos_emb = np.zeros_like(params.token_emb), np.zeros_like(params.pos_emb)
        np.add.at(token_emb, cache.ids[inside], demb[inside])
        np.add.at(pos_emb, pos[inside], demb[inside])
        assert got.token_emb.tobytes() == token_emb.tobytes()
        assert got.pos_emb.tobytes() == pos_emb.tobytes()
        # The ids are the sorted rows that real tokens read; no other row can be nonzero.
        real = cache.ids != PAD_ID
        assert got.token_ids.tolist() == sorted(set(cache.ids[real].tolist()))
        assert got.pos_ids.tolist() == sorted(set(pos[real].tolist()))
        assert not np.delete(token_emb, got.token_ids, axis=0).any()
        assert not np.delete(pos_emb, got.pos_ids, axis=0).any()
