"""Config parsing and end-to-end pipeline orchestration.

The config is a flat key-value text file with dotted section prefixes
(``train.batch_size = 32``). Each ``encoder.*``, ``train.*`` and ``split.*``
key is a field of its section's dataclass, and a value that class refuses is
reported as ``<file>:<line>: config key '<key>': <rule>``. Every stage writes
its artifacts under one output directory; a run manifest records the resolved
config hash, the seed, and a SHA-256 per artifact, so identical configs
reproduce identical trees. An ``flock`` on ``<output>/.lock`` keeps
concurrent commands apart.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import Field, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from . import corpus as corpus_mod
from . import ensemble as ensemble_mod
from . import metrics as metrics_mod
from . import multitask, nerfilter, serialize
from .corpus import DataError, SplitConfig, SubtaskRegistry, table_lines
from .encoder import EncoderConfig
from .features import StrategyKind
from .multitask import TrainConfig
from .preprocess import CleanConfig, Vocab, load_covid_tags, load_emoji_map, mask_corpus

log = logging.getLogger("tweetslots")


class ConfigError(DataError):
    """Invalid pipeline configuration."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


class ConfigText(dict):
    """``key -> value`` of one config file, plus the line of each key."""

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self.lines: dict[str, int] = {}

    def where(self, key: str) -> str:
        """``<file>:<line>`` of ``key``, or ``<file>`` when the file does not set it."""
        return f"{self.path}:{self.lines[key]}" if key in self.lines else self.path


def parse_config_text(text: str, path: str = "<config>") -> ConfigText:
    """Flat ``key = value`` lines; '#' lines are comments; keys are unique."""
    out = ConfigText(path)
    for lineno, line in table_lines(text):
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key {key!r} listed twice (first on line {out.lines[key]})")
        out[key] = value
        out.lines[key] = lineno
    return out


# Each `encoder.*`, `train.*` and `split.*` key is a field of its section's dataclass,
# except `vocab_size`, set from `vocab.size`, and `seed`, which the split takes from the
# top-level `seed` and each pool member from its `ensemble.seeds` entry.
_SECTIONS = (("encoder", EncoderConfig), ("train", TrainConfig), ("split", SplitConfig))
_SET_ELSEWHERE = ("vocab_size", "seed")


def _section_fields(cls) -> list[Field]:
    return [f for f in fields(cls) if f.name not in _SET_ELSEWHERE]


_KNOWN_KEYS = {
    "data.corpus", "data.gazetteer_dir", "data.type_map", "data.emoji_map",
    "data.covid_tags", "data.subtasks",
    "clean.enabled", "vocab.size", "seed", "feature_strategy",
    "ensemble.k", "ensemble.strategies", "ensemble.seeds",
} | {f"{prefix}.{f.name}" for prefix, cls in _SECTIONS for f in _section_fields(cls)}


@dataclass(frozen=True)
class PipelineConfig:
    corpus_path: Path
    gazetteer_dir: Path | None
    type_map_path: Path | None
    emoji_map_path: Path | None
    covid_tags_path: Path | None
    subtasks_path: Path | None
    clean_enabled: bool
    split: SplitConfig
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


def _typed(raw: ConfigText, key: str, parse: Callable, default):
    if key not in raw:
        return default
    try:
        return parse(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{raw.where(key)}: config key {key!r}: {exc}") from None


def _field(raw: ConfigText, key: str, cls, name: str):
    """Field ``name`` of ``cls`` from ``key``, typed as its default and checked by ``cls`` built with it alone."""
    default = getattr(cls, name)
    return _typed(raw, key, lambda text: getattr(cls(**{name: type(default)(text)}), name), default)


def _section(raw: ConfigText, prefix: str, cls, **elsewhere):
    """``cls`` from its ``prefix.<field>`` keys, each checked alone: no rule of a section class spans two fields."""
    values = {f.name: _field(raw, f"{prefix}.{f.name}", cls, f.name) for f in _section_fields(cls)}
    return cls(**values, **elsewhere)


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _comma_list(parse: Callable) -> Callable:
    """Parser of a comma-separated list, ``parse`` applied to each stripped entry."""
    return lambda text: tuple(parse(part.strip()) for part in text.split(","))


def load_config(path: str | Path) -> PipelineConfig:
    """Parse, validate, and resolve a config file; the file is the whole
    record of a run, so no setting enters from anywhere else."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = parse_config_text(corpus_mod.read_utf8(path, ConfigError), str(path))
    unknown = [key for key in raw if key not in _KNOWN_KEYS]
    if unknown:
        raise ConfigError(f"{raw.where(unknown[0])}: unknown config key {unknown[0]!r}")
    if "data.corpus" not in raw:
        raise ConfigError(f"{path}: missing required key 'data.corpus'")

    base = path.parent

    def resolve(key: str) -> Path | None:
        if key not in raw:
            return None
        p = Path(raw[key])
        if not p.is_absolute():
            p = base / p
        if not p.exists():
            raise ConfigError(f"{raw.where(key)}: config key {key!r}: path does not exist: {p}")
        kind, ok = ("directory", p.is_dir()) if key == "data.gazetteer_dir" else ("file", p.is_file())
        if not ok:
            raise ConfigError(f"{raw.where(key)}: config key {key!r}: path is not a {kind}: {p}")
        # One file reached by any spelling of the config path gives one path, so one fingerprint.
        return p.resolve()

    seed = _typed(raw, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"{raw.where('seed')}: seed must be >= 0, got {seed}")
    vocab_size = _field(raw, "vocab.size", EncoderConfig, "vocab_size")
    cfg = PipelineConfig(
        corpus_path=resolve("data.corpus"),
        gazetteer_dir=resolve("data.gazetteer_dir"),
        type_map_path=resolve("data.type_map"),
        emoji_map_path=resolve("data.emoji_map"),
        covid_tags_path=resolve("data.covid_tags"),
        subtasks_path=resolve("data.subtasks"),
        clean_enabled=_typed(raw, "clean.enabled", _parse_bool, CleanConfig.enabled),
        split=_section(raw, "split", SplitConfig, seed=seed),
        seed=seed,
        encoder=_section(raw, "encoder", EncoderConfig, vocab_size=vocab_size),
        feature_strategy=_typed(raw, "feature_strategy", StrategyKind.parse, StrategyKind.LAST),
        train=_section(raw, "train", TrainConfig),
        ensemble_k=_typed(raw, "ensemble.k", int, 5),
        ensemble_strategies=_typed(raw, "ensemble.strategies", _comma_list(StrategyKind.parse), tuple(StrategyKind)),
        ensemble_seeds=_typed(raw, "ensemble.seeds", _comma_list(int), (0, 1, 2)),
    )
    if cfg.ensemble_k < 1 or cfg.ensemble_k % 2 == 0:
        raise ConfigError(f"{raw.where('ensemble.k')}: ensemble.k must be odd and positive, got {cfg.ensemble_k}")
    negative = [s for s in cfg.ensemble_seeds if s < 0]
    if negative:
        raise ConfigError(f"{raw.where('ensemble.seeds')}: ensemble.seeds entries must be >= 0, got {negative[0]}")
    # A repeated entry would train one (strategy, seed) twice into one model
    # file, which the top-k vote could then count twice.
    for key, entries in (
        ("ensemble.strategies", [kind.value for kind in cfg.ensemble_strategies]),
        ("ensemble.seeds", list(cfg.ensemble_seeds)),
    ):
        repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
        if repeated:
            raise ConfigError(f"{raw.where(key)}: {key} lists {repeated[0]!r} more than once")
    if len(cfg.pool) < cfg.ensemble_k:
        raise ConfigError(f"{raw.where('ensemble.k')}: ensemble pool of {len(cfg.pool)} runs "
                          f"cannot fill k={cfg.ensemble_k} members")
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
    train_tweets, val_tweets = corpus_mod.split(tweets, cfg.split)
    for side, part in (("train", train_tweets), ("validation", val_tweets)):
        if not part:
            raise corpus_mod.CorpusError(
                f"{cfg.corpus_path}: split.train_fraction = {cfg.split.train_fraction} leaves the {side} side "
                f"of {len(tweets)} tweets empty"
            )
    return SplitArtifacts(train_tweets=train_tweets, val_tweets=val_tweets, digest=digest)


def stage_preprocess(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    """Split the corpus and write masked instance files plus a split manifest."""
    registry = make_registry(cfg)
    clean_cfg = make_clean_config(cfg)
    vocab = Vocab(size=cfg.encoder.vocab_size)
    split = load_and_split(cfg, registry)
    artifacts = {}
    manifest = {
        "corpus_digest": split.digest,
        "seed": cfg.seed,
        "train_fraction": cfg.split.train_fraction,
        "train_ids": [t.id for t in split.train_tweets],
        "val_ids": [t.id for t in split.val_tweets],
    }
    path = out_dir / "split_manifest.json"
    corpus_mod.write_file(path, [corpus_mod.json_document(manifest)])
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


def member_tag(kind: StrategyKind, seed: int) -> str:
    """The name of a pool member's ``models/<tag>.bin`` and ``logs/<tag>.jsonl``."""
    return f"{kind.value}-s{seed}"


def stage_train_pool(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    """Train every (strategy, seed) pool member; write its model and training log."""
    registry = make_registry(cfg)
    train_instances = serialize.load_instances(out_dir / "train_instances.jsonl", cfg.encoder)
    val_instances = serialize.load_instances(out_dir / "val_instances.jsonl", cfg.encoder)
    models_dir = out_dir / "models"
    logs_dir = out_dir / "logs"
    models_dir.mkdir(exist_ok=True)
    logs_dir.mkdir(exist_ok=True)
    artifacts = {}
    for kind, seed in cfg.pool:
        tag = member_tag(kind, seed)
        params, logs = multitask.train(
            multitask.init_model(cfg.encoder, kind, registry, seed=seed),
            train_instances,
            val_instances,
            replace(cfg.train, seed=seed),
        )
        model_path = models_dir / f"{tag}.bin"
        serialize.save_model(params, model_path)
        log_path = logs_dir / f"{tag}.jsonl"
        serialize.save_train_log(logs, log_path)
        artifacts[f"model_{tag}"] = model_path
        artifacts[f"log_{tag}"] = log_path
        log.info("train: %s best val micro-F1 %.4f", tag, best_val_score(logs))
    return artifacts


def ensemble_from_manifest(
    members: Sequence[tuple[Path, float]], instances: Sequence, k: int, threshold: float
) -> list[multitask.PredictionRecord]:
    """Majority-vote the top ``k`` of ``members``, (model path, validation
    micro-F1) pairs in pool order, over ``instances``."""
    member_probs = []
    for model_path, score in ensemble_mod.select_top(members, k):
        member_probs.append(multitask.predict_probs(serialize.load_model(model_path), instances))
        log.info("ensemble: member %s (val micro-F1 %.4f)", model_path.name, score)
    return ensemble_mod.ensemble_predict(member_probs, instances, threshold)


def stage_ensemble(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    """Rank the config's pool by the best validation micro-F1 in each
    member's training log and vote its top ``ensemble.k``."""
    instances = serialize.load_instances(out_dir / "val_instances.jsonl", cfg.encoder)
    members = []
    for kind, seed in cfg.pool:
        tag = member_tag(kind, seed)
        logs = serialize.load_train_log(out_dir / "logs" / f"{tag}.jsonl")
        members.append((out_dir / "models" / f"{tag}.bin", best_val_score(logs)))
    records = ensemble_from_manifest(members, instances, cfg.ensemble_k, cfg.train.threshold)
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


def _evaluate(cfg: PipelineConfig, out_dir: Path, filtered: bool) -> dict[str, Path]:
    label = "filtered" if filtered else "unfiltered"
    registry = make_registry(cfg)
    split = load_and_split(cfg, registry)
    path = out_dir / ("predictions_filtered.jsonl" if filtered else "predictions.jsonl")
    records = serialize.load_predictions(path)
    try:
        report = metrics_mod.score(
            records,
            split.val_tweets,
            registry,
            model_id=f"ensemble-top{cfg.ensemble_k}",
            corpus_id=f"{split.digest}/val",
            filtered=filtered,
        )
    except metrics_mod.MetricsError as exc:  # the gold tweets' ids are distinct, so a row is at fault
        raise metrics_mod.MetricsError(f"{path}: {exc}") from None
    # score refuses every row that is not one distinct validation triple, so fewer rows
    # than triples means a triple without a row: a gold positive there counts as no FN.
    expected = sum(len(registry.names_for(t.event)) * len(t.candidates) for t in split.val_tweets)
    if len(records) < expected:
        have = {(r.tweet_id, r.subtask, r.candidate_index) for r in records}
        tweet_id, subtask, cand = next(row[:3] for row in corpus_mod.explode_instances(split.val_tweets, registry)
                                       if row[:3] not in have)
        raise PipelineError(f"{path}: {len(records)} predictions for {expected} validation triples; first missing: "
                            f"tweet {tweet_id!r}, subtask {subtask}, candidate {cand}")
    report_path = out_dir / f"report_{label}.json"
    metrics_mod.save_report(report, report_path)
    table_path = out_dir / f"table_{label}.txt"
    corpus_mod.write_file(table_path, [metrics_mod.render_table(report)])
    log.info("evaluate(%s): micro-F1 %.4f", label, report.micro_f1)
    return {f"report_{label}": report_path, f"table_{label}": table_path}


def stage_evaluate(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    return _evaluate(cfg, out_dir, False)


def stage_evaluate_filtered(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    return _evaluate(cfg, out_dir, True)


def stage_ablate(cfg: PipelineConfig, out_dir: Path) -> dict[str, Path]:
    report_a = metrics_mod.load_report(out_dir / "report_unfiltered.json")
    report_b = metrics_mod.load_report(out_dir / "report_filtered.json")
    cmp = metrics_mod.compare(report_a, report_b, label_a="unfiltered", label_b="filtered")
    text_path = out_dir / "ablation.txt"
    corpus_mod.write_file(text_path, [metrics_mod.render_comparison(cmp)])
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
    """Exclusive ownership of an output directory, created if absent: an
    exclusive ``flock`` on ``<output>/.lock``, which the kernel drops when
    its holder exits, however it exits. The file's content is never read, so
    a file a crashed command left is free. Release unlinks the file while
    still holding it; a taker that locked a file the path no longer names
    reopens, so one release never seats two holders. Without ``flock``
    support it raises ``OSError`` naming the lock file."""

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self._fd = None

    def __enter__(self):
        import fcntl  # POSIX only; imported here so the package imports wherever it did

        self.path.parent.mkdir(parents=True, exist_ok=True)
        while self._fd is None:
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    self._fd = fd
            except BlockingIOError:
                raise PipelineError(f"output directory is locked by {self.path}: another command holds it") from None
            except FileNotFoundError:
                pass  # released and unlinked after our open: lock the file now at the path
            except OSError as exc:  # no flock on this filesystem: say which file
                raise OSError(exc.errno, exc.strerror, str(self.path)) from None
            finally:
                if self._fd != fd:
                    os.close(fd)
        return self

    def __exit__(self, *exc_info):
        self.path.unlink(missing_ok=True)
        os.close(self._fd)
        self._fd = None


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
    corpus_mod.write_file(out_dir / "run_manifest.json", [corpus_mod.json_document(obj)])


def run_pipeline(cfg: PipelineConfig, out_dir: str | Path) -> Path:
    """Execute every stage in order; returns the run manifest path.

    Any stage failure writes a manifest flagging the partial artifacts and
    re-raises as PipelineError naming the stage.
    """
    out_dir = Path(out_dir)
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
