"""Config parsing and end-to-end pipeline orchestration.

The config is a flat key-value text file with dotted section prefixes
(``train.batch_size = 32``). Every stage writes its artifacts under one
output directory; a run manifest records the resolved config hash, the seed,
and a SHA-256 per artifact, so identical configs reproduce identical trees.
A lock file guards the output directory against concurrent runs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from . import corpus as corpus_mod
from . import ensemble as ensemble_mod
from . import metrics as metrics_mod
from . import multitask, nerfilter, serialize
from .corpus import SplitConfig, SubtaskRegistry
from .encoder import EncoderConfig
from .features import StrategyKind
from .multitask import TrainConfig
from .preprocess import CleanConfig, Vocab, load_covid_tags, load_emoji_map, mask_corpus

log = logging.getLogger("tweetslots")


class ConfigError(ValueError):
    """Invalid pipeline configuration."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


def parse_config_text(text: str, path: str = "<config>") -> dict[str, str]:
    """Flat ``key = value`` lines; '#' lines are comments; keys are unique."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_KNOWN_KEYS = {
    "data.corpus", "data.gazetteer_dir", "data.type_map", "data.emoji_map",
    "data.covid_tags", "data.subtasks",
    "clean.enabled",
    "vocab.size",
    "split.train_fraction",
    "seed",
    "encoder.num_layers", "encoder.hidden_size", "encoder.max_len", "encoder.context_window",
    "feature_strategy",
    "train.batch_size", "train.learning_rate", "train.weight_decay", "train.beta1",
    "train.beta2", "train.epsilon", "train.pos_weight", "train.neg_weight",
    "train.epochs", "train.threshold", "train.clip_norm",
    "ensemble.k", "ensemble.strategies", "ensemble.seeds",
}


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: Path
    gazetteer_dir: Path | None
    type_map_path: Path | None
    emoji_map_path: Path | None
    covid_tags_path: Path | None
    subtasks_path: Path | None
    clean_enabled: bool
    vocab_size: int
    train_fraction: float
    seed: int
    encoder: EncoderConfig
    feature_strategy: StrategyKind
    train: TrainConfig
    ensemble_k: int
    ensemble_strategies: tuple[StrategyKind, ...]
    ensemble_seeds: tuple[int, ...]

    @property
    def pool(self) -> tuple[tuple[StrategyKind, int], ...]:
        return tuple((kind, seed) for kind in self.ensemble_strategies for seed in self.ensemble_seeds)


def _typed(raw: dict[str, str], key: str, parse: Callable, default):
    if key not in raw:
        return default
    try:
        return parse(raw[key])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    no_clean: bool = False,
) -> PipelineConfig:
    """Parse, validate, and resolve a config file.

    ``seed_override`` and ``no_clean`` mirror the CLI flags; they take
    precedence over the file's values.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = parse_config_text(path.read_text(encoding="utf-8"), str(path))
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    if "data.corpus" not in raw:
        raise ConfigError(f"{path}: missing required key 'data.corpus'")

    base = path.parent

    def resolve(key: str, required: bool = False) -> Path | None:
        if key not in raw:
            return None
        p = Path(raw[key])
        if not p.is_absolute():
            p = base / p
        if not p.exists():
            raise ConfigError(f"config key {key!r}: path does not exist: {p}")
        return p

    seed = seed_override if seed_override is not None else _typed(raw, "seed", int, 0)
    clean_enabled = False if no_clean else _typed(raw, "clean.enabled", _parse_bool, True)
    try:
        encoder = EncoderConfig(
            num_layers=_typed(raw, "encoder.num_layers", int, 4),
            hidden_size=_typed(raw, "encoder.hidden_size", int, 32),
            vocab_size=_typed(raw, "vocab.size", int, 4096),
            max_len=_typed(raw, "encoder.max_len", int, 96),
            context_window=_typed(raw, "encoder.context_window", int, 2),
            seed=seed,
        )
        train = TrainConfig(
            batch_size=_typed(raw, "train.batch_size", int, 32),
            learning_rate=_typed(raw, "train.learning_rate", float, 1e-3),
            weight_decay=_typed(raw, "train.weight_decay", float, 0.01),
            beta1=_typed(raw, "train.beta1", float, 0.9),
            beta2=_typed(raw, "train.beta2", float, 0.999),
            epsilon=_typed(raw, "train.epsilon", float, 1e-8),
            pos_weight=_typed(raw, "train.pos_weight", float, 10.0),
            neg_weight=_typed(raw, "train.neg_weight", float, 1.0),
            epochs=_typed(raw, "train.epochs", int, 30),
            seed=seed,
            threshold=_typed(raw, "train.threshold", float, 0.5),
            clip_norm=_typed(raw, "train.clip_norm", float, 5.0),
        )
        strategies = tuple(
            StrategyKind.parse(part)
            for part in raw.get("ensemble.strategies", "last,sum4,concat4,proj4").split(",")
        )
        seeds = tuple(int(part.strip()) for part in raw.get("ensemble.seeds", "0,1,2").split(","))
        cfg = PipelineConfig(
            corpus_path=resolve("data.corpus"),
            gazetteer_dir=resolve("data.gazetteer_dir"),
            type_map_path=resolve("data.type_map"),
            emoji_map_path=resolve("data.emoji_map"),
            covid_tags_path=resolve("data.covid_tags"),
            subtasks_path=resolve("data.subtasks"),
            clean_enabled=clean_enabled,
            vocab_size=_typed(raw, "vocab.size", int, 4096),
            train_fraction=_typed(raw, "split.train_fraction", float, 0.8),
            seed=seed,
            encoder=encoder,
            feature_strategy=StrategyKind.parse(_typed(raw, "feature_strategy", str, "last")),
            train=train,
            ensemble_k=_typed(raw, "ensemble.k", int, 5),
            ensemble_strategies=strategies,
            ensemble_seeds=seeds,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not 0.0 < cfg.train_fraction < 1.0:
        raise ConfigError(f"split.train_fraction must lie in (0, 1), got {cfg.train_fraction}")
    if cfg.ensemble_k < 1 or cfg.ensemble_k % 2 == 0:
        raise ConfigError(f"ensemble.k must be odd and positive, got {cfg.ensemble_k}")
    if len(cfg.pool) < cfg.ensemble_k:
        raise ConfigError(
            f"ensemble pool of {len(cfg.pool)} runs cannot fill k={cfg.ensemble_k} members"
        )
    return cfg


def config_fingerprint(cfg: PipelineConfig) -> str:
    """SHA-256 over the resolved config; stable across equivalent files."""
    payload = repr(cfg).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# -- resolved helpers --------------------------------------------------------


def make_registry(cfg: PipelineConfig) -> SubtaskRegistry:
    if cfg.subtasks_path is not None:
        return SubtaskRegistry.load(cfg.subtasks_path)
    return SubtaskRegistry.default()


def make_clean_config(cfg: PipelineConfig) -> CleanConfig:
    kwargs = {}
    if cfg.emoji_map_path is not None:
        kwargs["emoji_map"] = load_emoji_map(cfg.emoji_map_path)
    if cfg.covid_tags_path is not None:
        kwargs["covid_tags"] = load_covid_tags(cfg.covid_tags_path)
    return CleanConfig(enabled=cfg.clean_enabled, **kwargs)


def make_gazetteer(cfg: PipelineConfig) -> nerfilter.Gazetteer:
    if cfg.gazetteer_dir is not None:
        return nerfilter.load_gazetteer(cfg.gazetteer_dir)
    return nerfilter.default_gazetteer()


def make_type_map(cfg: PipelineConfig) -> nerfilter.TypeMap:
    if cfg.type_map_path is not None:
        return nerfilter.load_type_map(cfg.type_map_path)
    return nerfilter.default_type_map()


# -- stages ------------------------------------------------------------------


@dataclass
class SplitArtifacts:
    train_tweets: list
    val_tweets: list
    digest: str


def load_and_split(cfg: PipelineConfig, registry: SubtaskRegistry) -> SplitArtifacts:
    tweets = corpus_mod.load_corpus(cfg.corpus_path, registry)
    if len(tweets) < 2:
        raise corpus_mod.CorpusError(f"{cfg.corpus_path}: need at least 2 tweets to split")
    digest = corpus_mod.corpus_digest(tweets)
    train_tweets, val_tweets = corpus_mod.split(
        tweets, SplitConfig(train_fraction=cfg.train_fraction, seed=cfg.seed)
    )
    return SplitArtifacts(train_tweets=train_tweets, val_tweets=val_tweets, digest=digest)


def stage_preprocess(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    """Split the corpus and write masked instance files plus a split manifest."""
    registry = make_registry(cfg)
    clean_cfg = make_clean_config(cfg)
    vocab = Vocab(size=cfg.vocab_size)
    split = load_and_split(cfg, registry)
    artifacts = {}
    manifest = {
        "corpus_digest": split.digest,
        "seed": cfg.seed,
        "train_fraction": cfg.train_fraction,
        "train_ids": [t.id for t in split.train_tweets],
        "val_ids": [t.id for t in split.val_tweets],
    }
    path = out_dir / "split_manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    artifacts["split_manifest"] = path
    for name, tweets in (("train", split.train_tweets), ("val", split.val_tweets)):
        instances = mask_corpus(tweets, vocab, clean_cfg, cfg.encoder.max_len, registry)
        path = out_dir / f"{name}_instances.jsonl"
        serialize.save_instances(instances, path)
        artifacts[f"{name}_instances"] = path
        log.info("preprocess: %s split -> %d instances", name, len(instances))
    return artifacts


def best_val_score(logs: Sequence[multitask.TrainLogEntry]) -> float:
    return max(e.val_micro_f1 for e in logs)


def stage_train_pool(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    """Train every (strategy, seed) pool member; write models, logs, manifest."""
    registry = make_registry(cfg)
    train_instances = serialize.load_instances(out_dir / "train_instances.jsonl")
    val_instances = serialize.load_instances(out_dir / "val_instances.jsonl")
    models_dir = out_dir / "models"
    logs_dir = out_dir / "logs"
    models_dir.mkdir(exist_ok=True)
    logs_dir.mkdir(exist_ok=True)
    artifacts = {}
    members = []
    for kind, seed in cfg.pool:
        tag = f"{kind.value}-s{seed}"
        params, logs = multitask.train(
            multitask.init_model(cfg.encoder, kind, registry, seed=seed),
            train_instances,
            val_instances,
            replace(cfg.train, seed=seed),
        )
        model_path = models_dir / f"{tag}.bin"
        serialize.save_model(params, model_path)
        log_path = logs_dir / f"{tag}.csv"
        serialize.save_train_log(logs, log_path)
        score = best_val_score(logs)
        members.append((str(model_path.relative_to(out_dir)), score))
        artifacts[f"model_{tag}"] = model_path
        artifacts[f"log_{tag}"] = log_path
        log.info("train: %s best val micro-F1 %.4f", tag, score)
    manifest_path = out_dir / "ensemble_manifest.jsonl"
    serialize.save_ensemble_manifest(members, manifest_path)
    artifacts["ensemble_manifest"] = manifest_path
    return artifacts


def ensemble_from_manifest(
    manifest_path: Path, instances: Sequence, k: int, threshold: float
) -> list[multitask.PredictionRecord]:
    members = serialize.load_ensemble_manifest(manifest_path)
    top = ensemble_mod.select_top(members, k)
    base = manifest_path.parent
    member_records = []
    predict_cfg = TrainConfig(threshold=threshold)
    for rel_path, score in top:
        model_path = Path(rel_path)
        if not model_path.is_absolute():
            model_path = base / model_path
        params = serialize.load_model(model_path)
        member_records.append(multitask.predict(params, instances, predict_cfg))
        log.info("ensemble: member %s (val micro-F1 %.4f)", rel_path, score)
    return ensemble_mod.ensemble_predict(member_records)


def stage_ensemble(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    instances = serialize.load_instances(out_dir / "val_instances.jsonl")
    records = ensemble_from_manifest(
        out_dir / "ensemble_manifest.jsonl", instances, cfg.ensemble_k, cfg.train.threshold
    )
    path = out_dir / "predictions.jsonl"
    serialize.save_predictions(records, path)
    return {"predictions": path}


def stage_postprocess(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    records = serialize.load_predictions(out_dir / "predictions.jsonl")
    filtered = nerfilter.filter_predictions(records, make_type_map(cfg), make_gazetteer(cfg))
    path = out_dir / "predictions_filtered.jsonl"
    serialize.save_predictions(filtered, path, include_filtered=True)
    removed = sum(1 for r in filtered if r.filtered)
    log.info("postprocess: nullified %d positive prediction(s)", removed)
    return {"predictions_filtered": path}


def _evaluate(
    cfg: PipelineConfig, out_dir: Path, predictions_name: str, label: str, filtered: bool
) -> dict[str, Path]:
    registry = make_registry(cfg)
    split = load_and_split(cfg, registry)
    records = serialize.load_predictions(out_dir / predictions_name)
    report = metrics_mod.score(
        records,
        split.val_tweets,
        registry,
        model_id=f"ensemble-top{cfg.ensemble_k}",
        corpus_id=f"{split.digest}/val",
        filtered=filtered,
    )
    report_path = out_dir / f"report_{label}.json"
    metrics_mod.save_report(report, report_path)
    table_path = out_dir / f"table_{label}.txt"
    table_path.write_text(metrics_mod.render_table(report), encoding="utf-8")
    log.info("evaluate(%s): micro-F1 %.4f", label, report.micro_f1)
    return {f"report_{label}": report_path, f"table_{label}": table_path}


def stage_evaluate(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    return _evaluate(cfg, out_dir, "predictions.jsonl", "unfiltered", False)


def stage_evaluate_filtered(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    return _evaluate(cfg, out_dir, "predictions_filtered.jsonl", "filtered", True)


def stage_ablate(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    report_a = metrics_mod.load_report(out_dir / "report_unfiltered.json")
    report_b = metrics_mod.load_report(out_dir / "report_filtered.json")
    cmp = metrics_mod.compare(report_a, report_b, label_a="unfiltered", label_b="filtered")
    text_path = out_dir / "ablation.txt"
    text_path.write_text(metrics_mod.render_comparison(cmp), encoding="utf-8")
    json_path = out_dir / "ablation.json"
    metrics_mod.save_comparison(cmp, json_path)
    log.info("ablate: micro-F1 %.4f -> %.4f (delta %+.4f)", cmp.micro_a, cmp.micro_b, cmp.micro_delta)
    return {"ablation_table": text_path, "ablation": json_path}


_STAGES: tuple[tuple[str, Callable], ...] = (
    ("preprocess", stage_preprocess),
    ("train", stage_train_pool),
    ("ensemble", stage_ensemble),
    ("postprocess", stage_postprocess),
    ("evaluate", stage_evaluate),
    ("evaluate_filtered", stage_evaluate_filtered),
    ("ablate", stage_ablate),
)


class _OutputLock:
    """Exclusive ownership of an output directory via an O_EXCL lock file."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self._fd = None

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise PipelineError(
                f"output directory is locked by {self.path}; "
                "another run may be active (remove the file if not)"
            ) from None
        os.write(self._fd, f"{os.getpid()}\n".encode())
        return self

    def __exit__(self, *exc_info):
        if self._fd is not None:
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        return False


def _write_run_manifest(
    out_dir: Path, cfg: PipelineConfig, artifacts: dict[str, Path], status: str, failed_stage: str | None
) -> None:
    obj = {
        "status": status,
        "config_sha256": config_fingerprint(cfg),
        "seed": cfg.seed,
        "artifacts": {
            name: {
                "path": str(path.relative_to(out_dir)),
                "sha256": serialize.file_sha256(path),
            }
            for name, path in sorted(artifacts.items())
        },
    }
    if failed_stage is not None:
        obj["failed_stage"] = failed_stage
        obj["partial"] = True
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path) -> Path:
    """Execute every stage in order; returns the run manifest path.

    Any stage failure writes a manifest flagging the partial artifacts and
    re-raises as PipelineError naming the stage.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    with _OutputLock(out_dir):
        for name, stage in _STAGES:
            log.info("stage %s: start", name)
            try:
                artifacts.update(stage(cfg, out_dir))
            except Exception as exc:
                _write_run_manifest(out_dir, cfg, artifacts, "failed", name)
                if isinstance(exc, (PipelineError, multitask.DivergenceError)):
                    raise
                raise PipelineError(f"stage {name}: {exc}") from exc
        _write_run_manifest(out_dir, cfg, artifacts, "ok", None)
    return out_dir / "run_manifest.json"
