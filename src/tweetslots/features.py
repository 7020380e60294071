"""Feature extraction: marker hidden states -> classifier input vector.

Four strategies over the last four encoder layers, all reading the hidden
row at the ``<E>`` marker position:

- LAST: the final layer's row (dim H).
- SUM4: elementwise sum of the last four layers' rows (dim H).
- CONCAT4: the four rows concatenated oldest-to-newest (dim 4H).
- PROJ4: each of the four rows through its own affine projection to H/4,
  concatenated oldest-to-newest (dim H). The projections are trainable and
  live alongside the encoder parameters.

The encoder computes a window of rows centred on each unit's marker, so
every layer's marker row is its centre row. ``_marker_rows`` is the one
place that reads them; ``extract_backward_batch`` returns the gradient of
every layer state, so the encoder's backward pass takes it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .corpus import DataError


class FeatureError(DataError):
    """Invalid strategy configuration or extraction input."""


class StrategyKind(Enum):
    LAST = "last"
    SUM4 = "sum4"
    CONCAT4 = "concat4"
    PROJ4 = "proj4"

    @classmethod
    def parse(cls, text: str) -> "StrategyKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise FeatureError(f"unknown feature strategy {text!r} (expected one of: {valid})") from None


@dataclass
class Proj4Params:
    w: np.ndarray  # (4, H, H // 4)
    b: np.ndarray  # (4, H // 4)


@dataclass
class FeatureStrategy:
    kind: StrategyKind
    proj: Proj4Params | None = None

    def __post_init__(self):
        if self.kind is StrategyKind.PROJ4 and self.proj is None:
            raise FeatureError("proj4 strategy requires projection parameters")
        if self.kind is not StrategyKind.PROJ4 and self.proj is not None:
            raise FeatureError(f"{self.kind.value} strategy carries no projections")

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        if self.proj is not None:
            yield "proj.w", self.proj.w
            yield "proj.b", self.proj.b


def init_proj4(hidden_size: int, rng: np.random.Generator) -> Proj4Params:
    """Uniform +-1/sqrt(H) weights, zero biases; one projection per layer."""
    q = hidden_size // 4
    scale = 1.0 / np.sqrt(hidden_size)
    return Proj4Params(
        w=rng.uniform(-scale, scale, size=(4, hidden_size, q)),
        b=np.zeros((4, q)),
    )


def init_strategy(kind: StrategyKind, hidden_size: int, rng: np.random.Generator) -> FeatureStrategy:
    proj = init_proj4(hidden_size, rng) if kind is StrategyKind.PROJ4 else None
    return FeatureStrategy(kind, proj)


def feature_dim(kind: StrategyKind, hidden_size: int) -> int:
    if kind is StrategyKind.CONCAT4:
        return 4 * hidden_size
    return hidden_size


def _marker_rows(hidden: Sequence[np.ndarray]) -> np.ndarray:
    """Stack the last four layers' centre rows, oldest first: (4, B, H)."""
    if len(hidden) < 4:
        raise FeatureError(f"need >= 4 encoder layers, got {len(hidden)}")
    widths = [layer.shape[1] for layer in hidden[-4:]]
    if any(t % 2 == 0 for t in widths):
        raise FeatureError(f"layer windows must have a centre row, got widths {widths}")
    return np.stack([layer[:, layer.shape[1] // 2] for layer in hidden[-4:]])


def extract_batch(strategy: FeatureStrategy, hidden: Sequence[np.ndarray]) -> np.ndarray:
    """Feature matrix (B, dim) from batched layer windows (each (B, rows, H), marker at the centre)."""
    rows = _marker_rows(hidden)  # (4, B, H)
    kind = strategy.kind
    if kind is StrategyKind.LAST:
        return rows[3].copy()
    if kind is StrategyKind.SUM4:
        return rows.sum(axis=0)
    if kind is StrategyKind.CONCAT4:
        return np.concatenate([rows[j] for j in range(4)], axis=1)
    pieces = [rows[j] @ strategy.proj.w[j] + strategy.proj.b[j] for j in range(4)]
    return np.concatenate(pieces, axis=1)


def extract(strategy: FeatureStrategy, hidden: Sequence[np.ndarray]) -> np.ndarray:
    """Single-instance convenience wrapper over (rows, H) layer windows."""
    return extract_batch(strategy, [layer[None, :, :] for layer in hidden])[0]


def extract_backward_batch(
    strategy: FeatureStrategy,
    hidden: Sequence[np.ndarray],
    upstream: np.ndarray,
) -> tuple[list[np.ndarray], Proj4Params | None]:
    """Adjoint of extract_batch with respect to ``hidden``.

    Returns (dhidden, proj_grads): dhidden holds one gradient per array of
    ``hidden``, zero everywhere except the centre rows of the last four
    layers, and proj_grads carries PROJ4 parameter gradients (None otherwise).
    """
    rows = _marker_rows(hidden)  # (4, B, H)
    b, h = rows.shape[1:]
    kind = strategy.kind
    if upstream.shape != (b, feature_dim(kind, h)):
        raise FeatureError(f"upstream shape {upstream.shape} != {(b, feature_dim(kind, h))}")
    row_grads = np.zeros((4, b, h))
    proj_grads = None
    if kind is StrategyKind.LAST:
        row_grads[3] = upstream
    elif kind is StrategyKind.SUM4:
        row_grads[:] = upstream
    elif kind is StrategyKind.CONCAT4:
        for j in range(4):
            row_grads[j] = upstream[:, j * h:(j + 1) * h]
    else:
        q = h // 4
        proj_grads = Proj4Params(w=np.zeros_like(strategy.proj.w), b=np.zeros_like(strategy.proj.b))
        for j in range(4):
            g = upstream[:, j * q:(j + 1) * q]  # (B, q)
            row_grads[j] = g @ strategy.proj.w[j].T
            proj_grads.w[j] = rows[j].T @ g
            proj_grads.b[j] = g.sum(axis=0)
    dhidden = [np.zeros_like(layer) for layer in hidden]
    for layer_grad, g in zip(dhidden[-4:], row_grads):
        layer_grad[:, layer_grad.shape[1] // 2] = g
    return dhidden, proj_grads
