"""Layered token encoder over a window around each unit's marker, with exact analytic gradients.

The architecture is a residual tanh stack: layer 0 is token embedding +
positional embedding, and each subsequent layer adds tanh of an affine
transform over a small window of neighboring positions (offsets
-context_window..+context_window, one weight matrix per offset). Residual
connections keep layer outputs comparable across depth so the last-four-layer
feature extractors see compatible spaces. PAD positions are masked to zero at
every layer: padding never influences real positions.

The features read only each layer's row at the ``<E>`` marker, and a stack
of L convolutions of half-width w gives that row a receptive field of L·w
positions on each side. So the encoder computes only that field:
``forward_batch`` takes each unit's padded token row, length and marker,
and gathers into layer 0 the ``2 * window_radius + 1`` positions centred on
the marker (``window_radius`` is L·w; ids outside the tweet are PAD). Layer
l is a valid convolution of layer l - 1 over ``2 * (L - l) * w + 1`` rows,
so every layer's centre row is the marker and the top layer holds the
marker row alone. At the default L = 4, w = 2 the layers hold 17, 13, 9, 5
and 1 rows, whatever the tweet length; a large L·w against short tweets can
make the window wider than the tweet. A 1-row product would go through
OpenBLAS's GEMV path, which rounds differently from the same row of a larger
product. So where a layer's output is a single row (the top layer, or every
layer at w = 0), each tap product runs as a 3-row product: the row with a
zero row on each side, keeping the centre. With that, each row is bitwise
the value a forward over the whole tweet gives that position, and a unit's
bits do not depend on the batch it is encoded in.

Everything runs in float64. ``backward_batch`` is the hand-derived adjoint of
``forward_batch`` and is validated against central finite differences and
against a full-length forward in the test suite. Its input-gradient products
follow the forward's 3-row rule. Its weight gradient is one GEMM per tap: the
shifted layer input and the pre-activation gradient are flattened to
(B * rows, H), so BLAS reduces over batch and window in a single
(H, B * rows) @ (B * rows, H) product. Its embedding gradients are row-sparse:
a batch touches few of the vocabulary's rows, so it sums only the rows that
the window's real tokens read and returns their sorted ids with the dense
arrays. The sums add in (unit, row) order, the order of ``np.add.at`` into
dense zeros, and give its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .corpus import DataError
from .preprocess import PAD_ID


class EncoderError(DataError):
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


def window_radius(cfg: EncoderConfig) -> int:
    """Rows on each side of the marker that layer 0 holds: L·w, the marker row's receptive field."""
    return cfg.num_layers * cfg.context_window


@dataclass
class EncoderCache:
    """Forward intermediates needed by the backward pass.

    Layer l holds ``2 * (window_radius - l * w) + 1`` rows centred on each
    unit's marker, so the top layer holds the marker row alone; row j of
    layer 0 is tweet position ``start + j``.
    """

    ids: np.ndarray  # (B, 2 * window_radius + 1) the gathered window, PAD outside the tweet
    start: np.ndarray  # (B,) tweet position of layer 0's first row
    mask: np.ndarray  # (B, 2 * window_radius + 1, 1) float64, 1.0 at real tokens
    xs: list  # L+1 arrays (B, rows of layer l, H); xs[0] is the embedding layer
    hs: list  # L arrays, xs[l + 1]'s post-tanh activations

    @property
    def hidden(self) -> list:
        """The L layer outputs (embedding layer excluded)."""
        return self.xs[1:]


def centre(a: np.ndarray, rows: int) -> np.ndarray:
    """The middle ``rows`` rows of each window of ``a`` (B, width, ...): every layer's window
    shares its centre with layer 0's, so this maps a layer-0 array onto layer l's rows."""
    offset = (a.shape[1] - rows) // 2
    return a[:, offset:offset + rows]


def _product(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``a @ m`` for a stack of row blocks ``a`` (B, rows, H). A 1-row block would take
    OpenBLAS's GEMV path, which rounds differently from a row of a larger product, so it
    runs as the middle row of a 3-row block with a zero row on each side."""
    if a.shape[1] > 1:
        return a @ m
    block = np.zeros((a.shape[0], 3, a.shape[2]))
    block[:, 1:2] = a
    return (block @ m)[:, 1:2]


def forward_batch(
    params: EncoderParams, token_ids: np.ndarray, lengths: np.ndarray, marker_pos: np.ndarray
) -> EncoderCache:
    """Run the stack over the marker window of each unit; returns all layer states.

    Row b's tweet is ``token_ids[b, :lengths[b]]`` with its marker at
    ``marker_pos[b]``: the unit arrays of an ``InstanceTable``. Layer 0 reads
    the ``2 * window_radius + 1`` positions centred on the marker, PAD outside
    the tweet. A row whose length is outside ``[1, min(id width, max_len)]``
    or whose marker is outside ``[0, length)`` is refused by batch row. PAD
    rows are zeroed at every layer, so each real position depends only on
    real tokens within its receptive field. Every tap product has at least 3
    rows (``_product``), so no product takes the GEMV path: each row has the
    bits of a forward over the whole tweet, whatever the batch.
    """
    cfg = params.config
    token_ids, lengths, marker_pos = (np.asarray(a, dtype=np.int64) for a in (token_ids, lengths, marker_pos))
    limit = min(token_ids.shape[1], cfg.max_len)
    # A length below 1 leaves no marker position in [0, length), so the marker test refuses it.
    refused = np.flatnonzero((lengths > limit) | (marker_pos < 0) | (marker_pos >= lengths))
    if refused.size:
        b = int(refused[0])
        if not 1 <= lengths[b] <= limit:
            raise EncoderError(f"batch row {b}: length {lengths[b]} outside [1, {limit}]")
        raise EncoderError(f"batch row {b}: marker position {marker_pos[b]} outside [0, {lengths[b]})")
    radius = window_radius(cfg)
    start = marker_pos - radius
    pos = start[:, None] + np.arange(2 * radius + 1)
    inside = (pos >= 0) & (pos < lengths[:, None])
    ids = np.take_along_axis(token_ids, np.where(inside, pos, 0), axis=1)
    ids[~inside] = PAD_ID
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise EncoderError(f"token id {bad} outside [0, {cfg.vocab_size})")
    real = ids != PAD_ID
    mask = real.astype(np.float64)[:, :, None]
    x = (params.token_emb[ids] + params.pos_emb[np.clip(pos, 0, cfg.max_len - 1)]) * mask
    xs = [x]
    hs = []
    w = cfg.context_window
    for layer in params.layers:
        # Output row j reads input rows j..j + 2w, centred on input row j + w.
        rows = x.shape[1] - 2 * w
        pre = np.broadcast_to(layer.b, (len(ids), rows, cfg.hidden_size)).copy()
        for k in range(cfg.num_taps):
            pre += _product(x[:, k:k + rows], layer.w[k])
        h = np.tanh(pre, out=pre)
        x = centre(x, rows) + h
        x *= centre(mask, rows)
        xs.append(x)
        hs.append(h)
    return EncoderCache(ids=ids, start=start, mask=mask, xs=xs, hs=hs)


@dataclass
class EncoderGrads(EncoderParams):
    """Gradients of ``backward_batch``, with dense embedding arrays. A batch touches few
    embedding rows: ``token_ids`` and ``pos_ids`` are the sorted ids of the only rows of
    ``token_emb`` and ``pos_emb`` that can be nonzero."""

    token_ids: np.ndarray  # (n,) int64
    pos_ids: np.ndarray  # (m,) int64

    def touched_rows(self) -> dict[str, np.ndarray]:
        """The ids of each embedding array, keyed by its name in ``named_arrays``."""
        return {"enc.token_emb": self.token_ids, "enc.pos_emb": self.pos_ids}


def _row_sums(ids: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique ``ids`` (each in [0, n)) and, per id, the sum of the rows of ``values`` at
    that id. ``np.bincount`` adds each (id, column) cell's terms in row order, as ``np.add.at``
    does, starting from 0.0, so each sum has the bits of a scatter into dense zeros."""
    present = np.zeros(n, dtype=bool)
    present[ids] = True
    unique = np.flatnonzero(present)
    slot = (np.cumsum(present) - 1)[ids]
    h = values.shape[1]
    cells = (slot[:, None] * h + np.arange(h)).ravel()
    sums = np.bincount(cells, weights=values.ravel(), minlength=len(unique) * h)
    return unique, sums.reshape(len(unique), h)


def backward_batch(
    params: EncoderParams, cache: EncoderCache, upstream: Sequence[np.ndarray]
) -> EncoderGrads:
    """Exact adjoint of forward_batch.

    ``upstream`` holds one gradient per layer output, shaped as that output
    (zeros where a layer is unused). Each embedding row's gradient is the sum
    of the embedding layer's gradient over the window's real tokens that read
    it, in (unit, row) order. The masked positions are left out: for a finite
    upstream their gradient is ±0.0, and adding ±0.0 to a sum that starts at
    +0.0 changes no bit. So the result equals a dense scatter of the whole
    window bitwise. The input-gradient products follow the forward's 3-row
    rule (``_product``), so a unit's share of the gradient does not depend
    on its batch either.
    """
    cfg = params.config
    l = cfg.num_layers
    if len(upstream) != l:
        raise EncoderError(f"expected {l} upstream gradients, got {len(upstream)}")
    for g, x in zip(upstream, cache.hidden):
        if g.shape != x.shape:
            raise EncoderError(f"upstream gradient shape {g.shape} != {x.shape}")
    grads = zero_grads(cfg)
    b, h = len(cache.ids), cfg.hidden_size
    w = cfg.context_window
    # At the top of the loop, g holds what the layers above pass down to
    # layer li + 1's output. Tap k read input rows k..k + rows, so its input
    # gradient lands there; the residual lands on the centre rows
    # w..w + rows. Taps add in k order.
    g = np.zeros_like(cache.xs[-1])
    for li in range(l - 1, -1, -1):
        rows = g.shape[1]
        g += upstream[li]
        g *= centre(cache.mask, rows)
        dpre = g * (1.0 - cache.hs[li] ** 2)
        grads.layers[li].b += dpre.sum(axis=(0, 1))
        x_prev = cache.xs[li]
        dpre_rows = dpre.reshape(-1, h)
        gp = np.zeros((b, rows + 2 * w, h))
        centre(gp, rows)[...] = g
        for k in range(cfg.num_taps):
            grads.layers[li].w[k] += x_prev[:, k:k + rows].reshape(-1, h).T @ dpre_rows
            gp[:, k:k + rows] += _product(dpre, params.layers[li].w[k].T)
        g = gp
    # Real tokens lie inside the tweet, so their positions lie in [0, max_len); the mask is 1.0 there.
    real = cache.ids != PAD_ID
    demb = g[real]
    pos = cache.start[:, None] + np.arange(cache.ids.shape[1])
    token_ids, token_rows = _row_sums(cache.ids[real], demb, cfg.vocab_size)
    pos_ids, pos_rows = _row_sums(pos[real], demb, cfg.max_len)
    grads.token_emb[token_ids] = token_rows
    grads.pos_emb[pos_ids] = pos_rows
    return EncoderGrads(cfg, grads.token_emb, grads.pos_emb, grads.layers, token_ids, pos_ids)
