"""Joint multi-task model: shared encoder, shared extractor, one head matrix.

Every instance from every event flows through the same encoder and feature
extractor. The heads are the rows of one matrix, one per subtask in sorted
order, and only the row of the instance's own subtask reads its feature
vector. Training and scoring build every batch the same way: one function
hands the encoder each unit's token row, length and marker, and extracts the
feature rows from the window the encoder computes around the marker; another
applies each instance's head row. The window's width depends only on the
encoder config, so the rows the encoder computes per unit do not grow with
tweet or batch length. Each entry point reads an ``InstanceTable``
(``as_table`` groups a list), whose subtask codes are sorted positions, and
maps it to the model's head rows once per table, so a batch taken from it
carries head rows as codes; its head groups keep first-appearance order.
Forward-only scoring (validation and prediction) encodes each unit once:
the subtask fan-out of one (tweet, candidate) shares one feature row that
each of its head rows reads. Training encodes every triple on its own and
shuffles triples of all events together, so each batch's gradient updates
the shared trunk plus exactly the head rows present in the batch. The heads
are the whole parameters ``head.w`` and ``head.b`` from ``named_arrays``
through the gradient to the optimizer; only the model file names them per subtask.
The loss is class-weighted binary cross-entropy (positives up-weighted for
the heavy negative skew of exploded candidates), optimized with AdamW under a
global gradient-norm clip, and the returned model is the epoch snapshot with
the best validation micro-F1.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import encoder as enc
from . import features as feat
from .corpus import DataError, SubtaskId, SubtaskRegistry
from .preprocess import InstanceTable, MaskedInstance, as_table


class TrainError(DataError):
    """Invalid training configuration or data."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class ModelParams:
    encoder: enc.EncoderParams
    strategy: feat.FeatureStrategy
    subtasks: tuple[SubtaskId, ...]  # sorted; row i of head_w and head_b is the head of subtasks[i]
    head_w: np.ndarray  # (len(subtasks), feature_dim)
    head_b: np.ndarray  # (len(subtasks),)

    def named_arrays(self):
        yield from self.encoder.named_arrays()
        yield from self.strategy.named_arrays()
        yield "head.w", self.head_w
        yield "head.b", self.head_b


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise TrainError(f"{f.name} must be finite, got {value}")
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
        if self.weight_decay < 0:
            raise TrainError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epsilon <= 0:
            raise TrainError(f"epsilon must be positive, got {self.epsilon}")
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
    subtasks = tuple(sorted(registry.all_subtasks()))
    head_w = rng.uniform(-scale, scale, size=(len(subtasks), dim))
    return ModelParams(encoder_params, strategy, subtasks, head_w, np.zeros(len(subtasks)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _to_head_rows(params: ModelParams, table: InstanceTable) -> InstanceTable:
    """``table`` with ``params``' head rows as codes (itself if they already are); refuses a subtask with no head."""
    if table.subtask_ids == params.subtasks:
        return table
    row_of = {subtask: row for row, subtask in enumerate(params.subtasks)}
    missing = sorted(str(s) for s in map(table.subtask_ids.__getitem__, np.unique(table.subtask)) if s not in row_of)
    if missing:
        raise TrainError(f"no head for subtask(s): {', '.join(missing)}")
    rows = np.asarray([row_of.get(s, -1) for s in table.subtask_ids], dtype=np.int64)
    return replace(table, subtask=rows[table.subtask], subtask_ids=params.subtasks)


def _head_groups(table: InstanceTable) -> list[tuple[int, np.ndarray]]:
    """(head row, triple positions) per code of a mapped table, in first-appearance order, the clip norm's."""
    rows = table.subtask[np.sort(np.unique(table.subtask, return_index=True)[1])]
    return [(row, np.flatnonzero(table.subtask == row)) for row in rows.tolist()]


def _batch_features(params: ModelParams, table: InstanceTable, units: np.ndarray):
    """Encoder cache and feature rows of the batch of units ``units``: the encoder reads the
    window centred on each unit's marker, and the features read each layer's centre row."""
    cache = enc.forward_batch(params.encoder, table.token_ids[units], table.lengths[units], table.marker_pos[units])
    return cache, feat.extract_batch(params.strategy, cache.hidden)


def _head_logits(
    params: ModelParams, groups: Sequence[tuple[int, np.ndarray]], feats: np.ndarray, feat_rows: np.ndarray
) -> np.ndarray:
    """Logit of instance k: its subtask's head over feature row ``feat_rows[k]``, one GEMV per
    head (a row-wise dot with the gathered head rows rounds differently and changes model bytes)."""
    logits = np.empty(len(feat_rows))
    for row, ks in groups:
        logits[ks] = feats[feat_rows[ks]] @ params.head_w[row] + params.head_b[row]
    return logits


class Gradients(dict):
    """Gradients keyed by parameter name. ``rows`` maps the name of a 2-D parameter to the unique
    ids of the rows its gradient may be nonzero in; every other row of it is zero. The embedding
    ids are sorted. The ids of ``head.w`` are the batch's head rows in first-appearance order, and
    they are also the only entries of ``head.b`` that may be nonzero."""

    def __init__(self):
        super().__init__()
        self.rows: dict[str, np.ndarray] = {}


def loss(params: ModelParams, batch: Sequence[MaskedInstance], cfg: TrainConfig) -> float:
    """Mean class-weighted BCE over the batch."""
    value, _ = loss_and_grads(params, batch, cfg, want_grads=False)
    return value


def loss_and_grads(
    params: ModelParams,
    batch: Sequence[MaskedInstance],
    cfg: TrainConfig,
    want_grads: bool = True,
) -> tuple[float, Gradients]:
    """Loss plus gradients for every parameter touched by the batch.

    The gradient dict is keyed by parameter name. The head gradients
    ``head.w`` and ``head.b`` are dense: heads of subtasks absent from the
    batch are zero rows, not listed in ``rows`` (and therefore untouched by
    the optimizer, weight decay included). The embedding gradients are dense
    arrays too, and the dict's ``rows`` holds the ids of the rows the batch
    touched, for ``AdamW.step``.
    """
    if not batch:
        raise TrainError("batch must be nonempty")
    batch = _to_head_rows(params, as_table(batch))
    groups = _head_groups(batch)
    cache, feats = _batch_features(params, batch, batch.unit)
    probs = _sigmoid(_head_logits(params, groups, feats, np.arange(len(batch))))
    labels = batch.label.astype(np.float64)
    clamped = np.clip(probs, 1e-12, 1.0 - 1e-12)
    weights = np.where(labels == 1.0, cfg.pos_weight, cfg.neg_weight)
    bce = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    value = float(np.mean(weights * bce))
    grads = Gradients()
    if not want_grads:
        return value, grads

    dlogit = weights * (probs - labels) / len(batch)
    head_w, head_b = np.zeros_like(params.head_w), np.zeros_like(params.head_b)
    for row, ks in groups:
        head_w[row] = feats[ks].T @ dlogit[ks]
        head_b[row] = dlogit[ks].sum()
    grads["head.w"], grads["head.b"] = head_w, head_b
    dfeats = dlogit[:, None] * params.head_w[batch.subtask]  # elementwise the per-group np.outer(dlogit[ks], w)
    dhidden, proj_grads = feat.extract_backward_batch(params.strategy, cache.hidden, dfeats)
    enc_grads = enc.backward_batch(params.encoder, cache, dhidden)
    grads.update(enc_grads.named_arrays())
    grads.rows = {"head.w": np.array([row for row, _ in groups]), **enc_grads.touched_rows()}
    if proj_grads is not None:
        grads["proj.w"], grads["proj.b"] = proj_grads.w, proj_grads.b
    return value, grads


class AdamW:
    """Decoupled-weight-decay Adam over named parameter arrays.

    Each parameter keeps its own step count, advanced only when a gradient
    for it arrives; parameters without a gradient in a step are untouched
    (no decay either). The caller's gradient arrays are only read.

    The heads ``head.w`` (S, dim) and ``head.b`` (S,) are stepped by row:
    only the rows ``row_ids["head.w"]`` names, each with its own step count,
    so unused heads keep their initial weights exactly. Their moments are
    the first ``dim`` columns and the last column of one ``(S, dim + 1)``
    pair. A step gathers the ``[w | b]`` rows, runs the formula once on the
    block with the bias corrections ``1 - beta**t`` as a column, and
    scatters the rows back. The clip norm adds the squares of the heads
    first, ``w`` then ``b`` per row in the order of the ids (first
    appearance, from ``loss_and_grads``), then the other arrays in dict
    order.

    A 2-D parameter with ``row_ids`` (the embeddings) runs the formula only
    on its live rows: a row turns live at its first gradient with a nonzero
    entry among the rows the ids name, and stays live. The clip norm adds
    the squares of the block of rows that hold a nonzero entry, in row
    order; the zero rows add nothing, so only the order of the sum differs
    from a sum over the whole array. A row that has never been live has
    ``m = v = 0`` and ``g = 0``, so the formula's Adam term is
    ``0 / (sqrt(0) + eps) = 0`` and ``0 + p * wd`` is ``p * wd``: its update
    is exactly the decay-only step ``p -= (p * wd) * lr``, which the whole
    array gets before the live rows are written back. The one exception is
    a weight of exactly -0.0, which keeps its sign under the formula but
    turns +0.0 here; neither init nor any update can make one. Every other
    parameter, a 2-D one without ids (``proj4``'s bias) included, is dense.
    """

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}
        self._live: dict[str, np.ndarray] = {}  # per-row mask of each 2-D parameter stepped by ids
        self._head_m = self._head_v = self._head_t = None  # allocated at the first head step

    def step(
        self,
        named_params: Mapping[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        row_ids: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """One step over the parameters in ``grads``. ``row_ids`` (``Gradients.rows``) maps the name
        of a 2-D gradient to unique ids of the only rows it may be nonzero in: the head rows of the
        step for ``head.w``, sorted ids of the rows to test for a nonzero entry for any other."""
        cfg = self.cfg
        row_ids = row_ids or {}
        trunk = {name: g for name, g in grads.items() if name not in ("head.w", "head.b")}
        head_g = np.empty((0, 1))
        if "head.w" in grads:
            rows = row_ids["head.w"]
            # Row k of head_g is [grad of w | grad of b] of head row rows[k].
            head_g = np.hstack((grads["head.w"][rows], grads["head.b"][rows, None]))
        touched = {name: _nonzero_rows(g, row_ids[name]) for name, g in trunk.items() if name in row_ids}
        scale = None
        if cfg.clip_norm > 0:
            sq = head_g * head_g
            squares = np.stack((sq[:, :-1].sum(axis=1), sq[:, -1]), axis=1).ravel().tolist()
            blocks = [touched[name][1] if name in touched else g for name, g in trunk.items()]
            squares += [float((x * x).sum()) for x in blocks]
            total = math.sqrt(sum(squares))
            if total > cfg.clip_norm:
                scale = cfg.clip_norm / total
        if "head.w" in grads:
            self._step_heads(named_params["head.w"], named_params["head.b"], rows, head_g, scale)
        for name, g in trunk.items():
            p = named_params[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
                self._t[name] = 0
                if name in touched:
                    self._live[name] = np.zeros(len(p), dtype=bool)
            self._t[name] += 1
            t = self._t[name]
            corrections = (1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t)
            m, v = self._m[name], self._v[name]
            live = self._live.get(name)
            if live is None:
                self._update(p, g, m, v, corrections, scale)
                continue
            live[touched[name][0]] = True
            live_rows = np.flatnonzero(live)
            p_rows, m_rows, v_rows = p[live_rows], m[live_rows], v[live_rows]
            self._update(p_rows, g[live_rows], m_rows, v_rows, corrections, scale)
            p -= (p * cfg.weight_decay) * cfg.learning_rate
            p[live_rows], m[live_rows], v[live_rows] = p_rows, m_rows, v_rows

    def _step_heads(self, head_w: np.ndarray, head_b: np.ndarray, rows: np.ndarray, g: np.ndarray, scale) -> None:
        """One step of the head rows ``rows`` of ``head_w`` and ``head_b``, in place; row k of ``g`` is
        ``[grad of w | grad of b]`` of ``rows[k]``. Rows absent from ``rows`` get no step and no decay."""
        cfg = self.cfg
        if self._head_t is None:
            self._head_m = np.zeros((len(head_w), head_w.shape[1] + 1))
            self._head_v = np.zeros_like(self._head_m)
            self._head_t = np.zeros(len(head_w), dtype=np.int64)
        t = self._head_t[rows] + 1
        self._head_t[rows] = t
        corrections = tuple(np.array([1.0 - beta ** k for k in t.tolist()])[:, None] for beta in (cfg.beta1, cfg.beta2))
        p = np.hstack((head_w[rows], head_b[rows, None]))
        m, v = self._head_m[rows], self._head_v[rows]
        self._update(p, g, m, v, corrections, scale)
        head_w[rows], head_b[rows] = p[:, :-1], p[:, -1]
        self._head_m[rows], self._head_v[rows] = m, v

    def _update(self, p, g, m, v, corrections, scale) -> None:
        """One AdamW step in place on ``p``, ``m`` and ``v``, given the bias corrections
        ``1 - beta1**t`` and ``1 - beta2**t``."""
        cfg = self.cfg
        if scale is not None:
            g = g * scale
        m *= cfg.beta1
        m += g * (1.0 - cfg.beta1)
        v *= cfg.beta2
        v += (g * g) * (1.0 - cfg.beta2)
        update = (m / corrections[0]) / (np.sqrt(v / corrections[1]) + cfg.epsilon)
        update += p * cfg.weight_decay
        update *= cfg.learning_rate
        p -= update


def _nonzero_rows(g: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of 2-D ``g`` among the sorted ``ids`` that hold a nonzero (or NaN) entry, and
    ``g``'s block of those rows; ``ids`` hold every row of ``g`` that may be nonzero."""
    block = g[ids]
    # Summed |g| is nonzero (or NaN) exactly where a row has a nonzero entry.
    keep = np.abs(block) @ np.ones(g.shape[1]) != 0
    return ids[keep], block[keep]


def micro_f1_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def predict_probs(params: ModelParams, instances: Sequence[MaskedInstance]) -> np.ndarray:
    """Probabilities in triple order. The table's units are encoded in order, in batches of the
    default ``TrainConfig.batch_size``, and each triple's own head reads its unit's feature row."""
    if not instances:
        return np.empty(0)
    table = _to_head_rows(params, as_table(instances))
    units, size = np.arange(len(table.lengths)), TrainConfig.batch_size
    feats = np.concatenate([
        _batch_features(params, table, units[start:start + size])[1] for start in range(0, len(units), size)
    ])
    return _sigmoid(_head_logits(params, _head_groups(table), feats, table.unit))


def validation_micro_f1(params: ModelParams, instances: Sequence[MaskedInstance], cfg: TrainConfig) -> float:
    table = as_table(instances)
    decided, labels = predict_probs(params, table) >= cfg.threshold, table.label
    tp, fp, fn = (int(np.sum(d & (labels == y))) for d, y in ((decided, 1), (decided, 0), (~decided, 1)))
    return micro_f1_counts(tp, fp, fn)


def train(
    params: ModelParams,
    train_set: Sequence[MaskedInstance],
    val_set: Sequence[MaskedInstance],
    cfg: TrainConfig,
) -> tuple[ModelParams, list[TrainLogEntry]]:
    """Joint training loop; returns the best-validation-epoch snapshot.

    All events' triples are shuffled together each epoch (seeded), so
    batches mix subtasks and the shared trunk sees every event. Best epoch
    is chosen by validation micro-F1, ties broken by the earlier epoch.
    """
    if not train_set or not val_set:
        raise TrainError("train and validation sets must both be nonempty")
    train_set, val_set = (_to_head_rows(params, as_table(s)) for s in (train_set, val_set))
    rng = np.random.default_rng([cfg.seed, 2])
    optimizer = AdamW(cfg)
    named = dict(params.named_arrays())
    best_score, best_params, logs = -1.0, copy.deepcopy(params), []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_set))
        batch_losses = []
        for bi, start in enumerate(range(0, len(train_set), cfg.batch_size)):
            batch = train_set.take(order[start:start + cfg.batch_size])
            value, grads = loss_and_grads(params, batch, cfg)
            if not math.isfinite(value):
                raise DivergenceError(epoch, bi)
            optimizer.step(named, grads, grads.rows)
            batch_losses.append(value)
        score = validation_micro_f1(params, val_set, cfg)
        logs.append(TrainLogEntry(epoch=epoch, train_loss=float(np.mean(batch_losses)), val_micro_f1=score))
        if score > best_score:
            best_score, best_params = score, copy.deepcopy(params)
    return best_params, logs


def prediction_records(
    instances: Sequence[MaskedInstance], probs: Sequence[float], decisions: Sequence[int]
) -> list[PredictionRecord]:
    """One record per triple, in triple order, from its probability and decision."""
    table = as_table(instances)
    return [
        PredictionRecord(tweet_id=table.tweet_ids[u], subtask=table.subtask_ids[s],
                         candidate_index=table.candidate_indexes[u], chunk_text=table.chunk_texts[u],
                         probability=float(p), decision=int(d))
        for u, s, p, d in zip(table.unit.tolist(), table.subtask.tolist(), probs, decisions)
    ]


def predict(
    params: ModelParams,
    instances: Sequence[MaskedInstance],
    cfg: TrainConfig | None = None,
) -> list[PredictionRecord]:
    """One record per instance; decision = [probability >= threshold]."""
    cfg = cfg or TrainConfig()
    table = as_table(instances)
    probs = predict_probs(params, table)
    return prediction_records(table, probs, probs >= cfg.threshold)
