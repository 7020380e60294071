"""Joint multi-task model: shared encoder, shared extractor, per-subtask heads.

Every instance from every event flows through the same encoder and feature
extractor; only the binary head of the instance's own subtask reads the
feature vector. Forward-only scoring (validation and prediction) runs the
encoder once per candidate: instances with the same encoder input, the
subtask fan-out of one candidate, share one feature row that each of their
heads reads. Training still encodes every instance on its own and shuffles
instances of all events together, so each batch's gradient updates the
shared trunk plus exactly the heads present in the batch. The loss is
class-weighted binary cross-entropy (positives up-weighted for the heavy
negative skew of exploded candidates), optimized with AdamW under a global
gradient-norm clip, and the returned model is the epoch snapshot with the
best validation micro-F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import encoder as enc
from . import features as feat
from .corpus import SubtaskId, SubtaskRegistry
from .preprocess import MaskedInstance


class TrainError(ValueError):
    """Invalid training configuration or data."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class Head:
    w: np.ndarray  # (feature_dim,)
    b: np.ndarray  # (1,)


@dataclass
class ModelParams:
    encoder: enc.EncoderParams
    strategy: feat.FeatureStrategy
    heads: dict[SubtaskId, Head]

    def named_arrays(self):
        yield from self.encoder.named_arrays()
        yield from self.strategy.named_arrays()
        for subtask in sorted(self.heads):
            head = self.heads[subtask]
            yield f"head.{subtask}.w", head.w
            yield f"head.{subtask}.b", head.b

    def copy(self) -> "ModelParams":
        return ModelParams(
            encoder=self.encoder.copy(),
            strategy=self.strategy.copy(),
            heads={s: Head(h.w.copy(), h.b.copy()) for s, h in self.heads.items()},
        )


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3  # 2e-5 is the reference value for a large pretrained encoder
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    pos_weight: float = 10.0
    neg_weight: float = 1.0
    epochs: int = 30
    seed: int = 0
    threshold: float = 0.5
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.pos_weight <= 0 or self.neg_weight <= 0:
            raise TrainError("class weights must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise TrainError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.epochs < 1:
            raise TrainError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise TrainError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise TrainError("betas must lie in [0, 1)")
        if self.clip_norm < 0:
            raise TrainError(f"clip_norm must be >= 0, got {self.clip_norm}")


@dataclass
class PredictionRecord:
    tweet_id: str
    subtask: SubtaskId
    candidate_index: int
    chunk_text: str
    probability: float
    decision: int
    filtered: bool = False


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_micro_f1: float


def init_model(
    cfg: enc.EncoderConfig,
    kind: feat.StrategyKind,
    registry: SubtaskRegistry | None = None,
    seed: int | None = None,
) -> ModelParams:
    """Seeded model init; heads drawn uniform +-1/sqrt(dim), biases zero.

    ``seed`` overrides cfg.seed for the whole model. The encoder stream and
    the strategy/head stream are decorrelated via distinct seed sequences.
    """
    registry = registry or SubtaskRegistry.default()
    seed = cfg.seed if seed is None else seed
    cfg = replace(cfg, seed=seed)
    encoder_params = enc.init_params(cfg)
    rng = np.random.default_rng([seed, 1])
    strategy = feat.init_strategy(kind, cfg.hidden_size, rng)
    dim = feat.feature_dim(kind, cfg.hidden_size)
    scale = 1.0 / np.sqrt(dim)
    heads = {}
    for subtask in sorted(registry.all_subtasks()):
        heads[subtask] = Head(w=rng.uniform(-scale, scale, size=dim), b=np.zeros(1))
    return ModelParams(encoder=encoder_params, strategy=strategy, heads=heads)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _batch_arrays(instances: Sequence[MaskedInstance]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack ids/markers/labels, cropping the shared PAD tail.

    Cropping is exact: PAD states are zeroed at every layer, so dropping
    all-PAD columns changes no real position's value or gradient.
    """
    t = max(i.length for i in instances)
    ids = np.stack([i.token_ids[:t] for i in instances])
    marker = np.asarray([i.marker_pos for i in instances], dtype=np.int64)
    labels = np.asarray([i.label for i in instances], dtype=np.float64)
    return ids, marker, labels


def _group_by_subtask(instances: Sequence[MaskedInstance]) -> dict[SubtaskId, np.ndarray]:
    groups: dict[SubtaskId, list[int]] = {}
    for row, inst in enumerate(instances):
        groups.setdefault(inst.subtask, []).append(row)
    return {s: np.asarray(rows, dtype=np.int64) for s, rows in groups.items()}


def _check_heads(params: ModelParams, instances: Iterable[MaskedInstance]) -> None:
    missing = {str(i.subtask) for i in instances if i.subtask not in params.heads}
    if missing:
        raise TrainError(f"no head for subtask(s): {', '.join(sorted(missing))}")


def _forward(params: ModelParams, instances: Sequence[MaskedInstance]):
    ids, marker, labels = _batch_arrays(instances)
    cache = enc.forward_batch(params.encoder, ids)
    feats = feat.extract_batch(params.strategy, cache.hidden, marker)
    logits = np.empty(len(instances))
    groups = _group_by_subtask(instances)
    for subtask, rows in groups.items():
        head = params.heads[subtask]
        logits[rows] = feats[rows] @ head.w + head.b[0]
    return cache, feats, marker, labels, logits, groups


def loss(params: ModelParams, batch: Sequence[MaskedInstance], cfg: TrainConfig) -> float:
    """Mean class-weighted BCE over the batch."""
    value, _ = loss_and_grads(params, batch, cfg, want_grads=False)
    return value


def loss_and_grads(
    params: ModelParams,
    batch: Sequence[MaskedInstance],
    cfg: TrainConfig,
    want_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss plus gradients for every parameter touched by the batch.

    The gradient dict is keyed by parameter name; heads of subtasks absent
    from the batch are absent from the dict (and therefore untouched by the
    optimizer, weight decay included).
    """
    if not batch:
        raise TrainError("batch must be nonempty")
    _check_heads(params, batch)
    cache, feats, marker, labels, logits, groups = _forward(params, batch)
    probs = _sigmoid(logits)
    clamped = np.clip(probs, 1e-12, 1.0 - 1e-12)
    weights = np.where(labels == 1.0, cfg.pos_weight, cfg.neg_weight)
    bce = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    value = float(np.mean(weights * bce))
    if not want_grads:
        return value, {}

    n = len(batch)
    dlogit = weights * (probs - labels) / n
    grads: dict[str, np.ndarray] = {}
    dfeats = np.zeros_like(feats)
    for subtask, rows in groups.items():
        head = params.heads[subtask]
        grads[f"head.{subtask}.w"] = feats[rows].T @ dlogit[rows]
        grads[f"head.{subtask}.b"] = np.asarray([dlogit[rows].sum()])
        dfeats[rows] = np.outer(dlogit[rows], head.w)
    row_grads, proj_grads = feat.extract_backward_batch(params.strategy, cache.hidden, marker, dfeats)
    num_layers = params.encoder.config.num_layers
    b, t = cache.ids.shape
    h = params.encoder.config.hidden_size
    upstream = [np.zeros((b, t, h)) for _ in range(num_layers)]
    rows = np.arange(b)
    for j in range(4):
        upstream[num_layers - 4 + j][rows, marker] = row_grads[j]
    enc_grads = enc.backward_batch(params.encoder, cache, upstream)
    for name, arr in enc_grads.named_arrays():
        grads[name] = arr
    if proj_grads is not None:
        grads["proj.w"] = proj_grads.w
        grads["proj.b"] = proj_grads.b
    return value, grads


class AdamW:
    """Decoupled-weight-decay Adam over named parameter arrays.

    Each parameter keeps its own step count, advanced only when a gradient
    for it arrives; parameters without a gradient in a step are untouched
    (no decay either), so unused heads keep their initial weights exactly.

    A step works in place: the clipped gradient, the bias-corrected moments
    and the update go through two scratch rows sized to the largest
    gradient, allocated once per step. Each element sees the operations of
    ``v += (1 - beta2) * (g * g)`` and
    ``p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)`` in that order, so
    trained model bytes match the plain formula exactly. The caller's
    gradient arrays are only read.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, named_params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        cfg = self.cfg
        buf = np.empty((2, max((g.size for g in grads.values()), default=0)))
        scratch = {name: (buf[0, :g.size].reshape(g.shape), buf[1, :g.size].reshape(g.shape))
                   for name, g in grads.items()}
        scale = None
        if cfg.clip_norm > 0:
            squares = (float(np.multiply(g, g, scratch[name][0]).sum()) for name, g in grads.items())
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


def micro_f1_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def _decisions_micro_f1(labels: np.ndarray, decisions: np.ndarray) -> float:
    tp = int(np.sum((decisions == 1) & (labels == 1)))
    fp = int(np.sum((decisions == 1) & (labels == 0)))
    fn = int(np.sum((decisions == 0) & (labels == 1)))
    return micro_f1_counts(tp, fp, fn)


def _unit_features(params: ModelParams, units: Sequence[MaskedInstance]) -> np.ndarray:
    """Feature rows for one batch; its encoder cache is freed on return."""
    ids, marker, _ = _batch_arrays(units)
    cache = enc.forward_batch(params.encoder, ids)
    return feat.extract_batch(params.strategy, cache.hidden, marker)


def _predict_probs(params: ModelParams, instances: Sequence[MaskedInstance], batch_size: int = 256) -> np.ndarray:
    """Probabilities in input order, from one forward pass per distinct encoder input.

    The subtask fan-out of a candidate repeats one encoder input; instances
    are grouped by that input's content (not by tweet id and candidate
    index), encoded once in batches of ``batch_size`` distinct inputs, and
    each instance's own head reads its group's feature row.
    """
    if not instances:
        return np.empty(0)
    _check_heads(params, instances)
    unit_of: dict[tuple[int, int, bytes], int] = {}
    units: list[MaskedInstance] = []
    rows = np.empty(len(instances), dtype=np.int64)
    for k, inst in enumerate(instances):
        row = unit_of.setdefault((inst.length, inst.marker_pos, inst.token_ids.tobytes()), len(units))
        if row == len(units):
            units.append(inst)
        rows[k] = row
    feats = np.concatenate([
        _unit_features(params, units[start:start + batch_size])
        for start in range(0, len(units), batch_size)
    ])
    logits = np.empty(len(instances))
    for subtask, group in _group_by_subtask(instances).items():
        head = params.heads[subtask]
        logits[group] = feats[rows[group]] @ head.w + head.b[0]
    return _sigmoid(logits)


def validation_micro_f1(params: ModelParams, instances: Sequence[MaskedInstance], cfg: TrainConfig) -> float:
    labels = np.asarray([i.label for i in instances], dtype=np.int64)
    decisions = (_predict_probs(params, instances) >= cfg.threshold).astype(np.int64)
    return _decisions_micro_f1(labels, decisions)


def train(
    params: ModelParams,
    train_set: Sequence[MaskedInstance],
    val_set: Sequence[MaskedInstance],
    cfg: TrainConfig,
) -> tuple[ModelParams, list[TrainLogEntry]]:
    """Joint training loop; returns the best-validation-epoch snapshot.

    All events' instances are shuffled together each epoch (seeded), so
    batches mix subtasks and the shared trunk sees every event. Best epoch
    is chosen by validation micro-F1, ties broken by the earlier epoch.
    """
    if not train_set or not val_set:
        raise TrainError("train and validation sets must both be nonempty")
    _check_heads(params, train_set)
    _check_heads(params, val_set)
    rng = np.random.default_rng([cfg.seed, 2])
    optimizer = AdamW(cfg)
    named = dict(params.named_arrays())
    n = len(train_set)
    best_score = -1.0
    best_params = params.copy()
    logs: list[TrainLogEntry] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            batch = [train_set[i] for i in order[start:start + cfg.batch_size]]
            value, grads = loss_and_grads(params, batch, cfg)
            if not math.isfinite(value):
                raise DivergenceError(epoch, bi)
            optimizer.step(named, grads)
            batch_losses.append(value)
        score = validation_micro_f1(params, val_set, cfg)
        logs.append(TrainLogEntry(epoch=epoch, train_loss=float(np.mean(batch_losses)), val_micro_f1=score))
        if score > best_score:
            best_score = score
            best_params = params.copy()
    return best_params, logs


def predict(
    params: ModelParams,
    instances: Sequence[MaskedInstance],
    cfg: TrainConfig | None = None,
) -> list[PredictionRecord]:
    """One record per instance; decision = [probability >= threshold]."""
    cfg = cfg or TrainConfig()
    if not instances:
        return []
    probs = _predict_probs(params, instances)
    records = []
    for inst, p in zip(instances, probs):
        records.append(
            PredictionRecord(
                tweet_id=inst.tweet_id,
                subtask=inst.subtask,
                candidate_index=inst.candidate_index,
                chunk_text=inst.chunk_text,
                probability=float(p),
                decision=int(p >= cfg.threshold),
                filtered=False,
            )
        )
    return records
