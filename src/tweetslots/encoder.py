"""Layered token encoder with exact analytic gradients.

The architecture is a residual tanh stack: layer 0 is token embedding +
positional embedding, and each subsequent layer adds tanh of an affine
transform over a small window of neighboring positions (offsets
-context_window..+context_window, one weight matrix per offset). Residual
connections keep layer outputs comparable across depth so the last-four-layer
feature extractors see compatible spaces. PAD positions are masked to zero at
every layer: padding never influences real positions, and permuting or
rewriting a PAD tail leaves all real hidden states bitwise unchanged.

Everything runs in float64. ``backward_batch`` is the hand-derived adjoint of
``forward_batch`` and is validated against central finite differences in the
test suite. Its weight gradient is one GEMM per tap: the shifted layer input
and the pre-activation gradient are flattened to (B*T, H), so BLAS reduces
over batch and time in a single (H, B*T) @ (B*T, H) product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .preprocess import PAD_ID


class EncoderError(ValueError):
    """Invalid encoder configuration or input."""


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int = 4
    hidden_size: int = 32
    vocab_size: int = 4096
    max_len: int = 96
    context_window: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_layers < 4:
            raise EncoderError(f"num_layers must be >= 4, got {self.num_layers}")
        if self.hidden_size < 4 or self.hidden_size % 4 != 0:
            raise EncoderError(f"hidden_size must be a positive multiple of 4, got {self.hidden_size}")
        if self.vocab_size < 8:
            raise EncoderError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if self.max_len < 3:
            raise EncoderError(f"max_len must be >= 3, got {self.max_len}")
        if self.context_window < 0:
            raise EncoderError(f"context_window must be >= 0, got {self.context_window}")

    @property
    def num_taps(self) -> int:
        return 2 * self.context_window + 1


@dataclass
class LayerParams:
    w: np.ndarray  # (num_taps, H, H), tap k reads offset k - context_window
    b: np.ndarray  # (H,)


@dataclass
class EncoderParams:
    config: EncoderConfig
    token_emb: np.ndarray  # (V, H)
    pos_emb: np.ndarray  # (max_len, H)
    layers: list[LayerParams]

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Parameter arrays in canonical (serialization) order."""
        yield "enc.token_emb", self.token_emb
        yield "enc.pos_emb", self.pos_emb
        for i, layer in enumerate(self.layers):
            yield f"enc.layer{i}.w", layer.w
            yield f"enc.layer{i}.b", layer.b

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            config=self.config,
            token_emb=self.token_emb.copy(),
            pos_emb=self.pos_emb.copy(),
            layers=[LayerParams(l.w.copy(), l.b.copy()) for l in self.layers],
        )


def init_params(cfg: EncoderConfig) -> EncoderParams:
    """Seeded init: weights uniform in +-1/sqrt(H), biases zero.

    Draw order is fixed (token_emb, pos_emb, then each layer's tap weights)
    so identical configs give bitwise-identical parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    scale = 1.0 / np.sqrt(cfg.hidden_size)
    h = cfg.hidden_size
    token_emb = rng.uniform(-scale, scale, size=(cfg.vocab_size, h))
    pos_emb = rng.uniform(-scale, scale, size=(cfg.max_len, h))
    layers = []
    for _ in range(cfg.num_layers):
        w = rng.uniform(-scale, scale, size=(cfg.num_taps, h, h))
        layers.append(LayerParams(w=w, b=np.zeros(h)))
    return EncoderParams(cfg, token_emb, pos_emb, layers)


def zero_grads(cfg: EncoderConfig) -> EncoderParams:
    h = cfg.hidden_size
    return EncoderParams(
        config=cfg,
        token_emb=np.zeros((cfg.vocab_size, h)),
        pos_emb=np.zeros((cfg.max_len, h)),
        layers=[LayerParams(np.zeros((cfg.num_taps, h, h)), np.zeros(h)) for _ in range(cfg.num_layers)],
    )


@dataclass
class EncoderCache:
    """Forward intermediates needed by the backward pass."""

    ids: np.ndarray  # (B, T)
    mask: np.ndarray  # (B, T, 1) float64, 1.0 at real tokens
    xs: list  # L+1 arrays (B, T, H); xs[0] is the embedding layer
    hs: list  # L arrays (B, T, H); post-tanh activations

    @property
    def hidden(self) -> list:
        """The L layer outputs (embedding layer excluded)."""
        return self.xs[1:]


def _shift(x: np.ndarray, d: int) -> np.ndarray:
    """Rows t of the result hold x[:, t + d]; out-of-range rows are zero."""
    if d == 0:
        return x
    out = np.zeros_like(x)
    t = x.shape[1]
    if d > 0:
        if d < t:
            out[:, : t - d] = x[:, d:]
    else:
        if -d < t:
            out[:, -d:] = x[:, :t + d]
    return out


def forward_batch(params: EncoderParams, ids: np.ndarray) -> EncoderCache:
    """Run the stack over a batch of id rows; returns all layer states.

    ``ids`` is (B, T) int64 with T <= max_len; PAD rows are zeroed at every
    layer so each real position depends only on real tokens within its
    receptive field.
    """
    cfg = params.config
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise EncoderError(f"ids must be 2-d (batch, time), got shape {ids.shape}")
    b, t = ids.shape
    if t > cfg.max_len:
        raise EncoderError(f"sequence length {t} exceeds max_len {cfg.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise EncoderError(f"token id {bad} outside [0, {cfg.vocab_size})")
    mask = (ids != PAD_ID).astype(np.float64)[:, :, None]
    x = (params.token_emb[ids] + params.pos_emb[:t]) * mask
    xs = [x]
    hs = []
    w = cfg.context_window
    for layer in params.layers:
        pre = np.broadcast_to(layer.b, x.shape).copy()
        for k in range(cfg.num_taps):
            pre += _shift(x, k - w) @ layer.w[k]
        h = np.tanh(pre)
        x = (x + h) * mask
        xs.append(x)
        hs.append(h)
    return EncoderCache(ids=ids, mask=mask, xs=xs, hs=hs)


def forward(params: EncoderParams, token_ids: Sequence[int]) -> list[np.ndarray]:
    """Single-sequence convenience wrapper; returns the L layer states (T, H)."""
    cache = forward_batch(params, np.asarray(token_ids, dtype=np.int64)[None, :])
    return [layer[0] for layer in cache.hidden]


def backward_batch(
    params: EncoderParams, cache: EncoderCache, upstream: Sequence[np.ndarray]
) -> EncoderParams:
    """Exact adjoint of forward_batch.

    ``upstream`` holds one (B, T, H) gradient per layer output (zeros where a
    layer is unused). Returns gradients in an EncoderParams-shaped container.
    """
    cfg = params.config
    l = cfg.num_layers
    if len(upstream) != l:
        raise EncoderError(f"expected {l} upstream gradients, got {len(upstream)}")
    b, t = cache.ids.shape
    h = cfg.hidden_size
    for g in upstream:
        if g.shape != (b, t, h):
            raise EncoderError(f"upstream gradient shape {g.shape} != {(b, t, h)}")
    grads = zero_grads(cfg)
    mask = cache.mask
    w = cfg.context_window
    g = np.zeros((b, t, h))
    for li in range(l - 1, -1, -1):
        g = g + upstream[li]
        a = g * mask  # grad wrt (x_prev + h) before the output masking
        dpre = a * (1.0 - cache.hs[li] ** 2)
        grads.layers[li].b += dpre.sum(axis=(0, 1))
        x_prev = cache.xs[li]
        dpre_rows = dpre.reshape(-1, h)
        g = a.copy()
        for k in range(cfg.num_taps):
            d = k - w
            grads.layers[li].w[k] += _shift(x_prev, d).reshape(-1, h).T @ dpre_rows
            g += _shift(dpre @ params.layers[li].w[k].T, -d)
    demb = g * mask
    np.add.at(grads.token_emb, cache.ids, demb)
    grads.pos_emb[:t] += demb.sum(axis=0)
    return grads
