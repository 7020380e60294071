"""Shared fixtures: a small on-disk workspace for pipeline and CLI tests."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tweetslots.corpus import EventType, SubtaskRegistry, save_corpus
from tweetslots.preprocess import Vocab
from tweetslots.synthetic import CueCorpusSpec, make_cue_corpus

CONFIG_TEXT = textwrap.dedent(
    """\
    # small but complete run: 2 events, 3 subtasks, 6-member pool
    data.corpus = corpus.jsonl
    data.subtasks = subtasks.txt
    vocab.size = 512
    encoder.num_layers = 4
    encoder.hidden_size = 8
    encoder.max_len = 16
    encoder.context_window = 1
    train.epochs = 2
    train.batch_size = 16
    ensemble.strategies = last,sum4
    ensemble.seeds = 0,1,2
    ensemble.k = 3
    seed = 1
    """
)

# Every float `train.*` key; each must hold a finite value.
FLOAT_TRAIN_KEYS = (
    "train.learning_rate", "train.weight_decay", "train.beta1", "train.beta2", "train.epsilon",
    "train.pos_weight", "train.neg_weight", "train.threshold", "train.clip_norm",
)


@pytest.fixture(scope="session")
def ws(tmp_path_factory) -> Path:
    """Workspace directory holding corpus.jsonl, subtasks.txt, config.ini."""
    root = tmp_path_factory.mktemp("ws")
    (root / "subtasks.txt").write_text(
        "death = age, name\ncure_and_prevention = opinion\n", encoding="utf-8"
    )
    registry = SubtaskRegistry(
        {
            EventType.DEATH: ("age", "name"),
            EventType.CURE_AND_PREVENTION: ("opinion",),
        }
    )
    tweets, _ = make_cue_corpus(
        CueCorpusSpec(n_tweets=16, seed=3), registry=registry, vocab=Vocab(size=512)
    )
    save_corpus(tweets, root / "corpus.jsonl")
    (root / "config.ini").write_text(CONFIG_TEXT, encoding="utf-8")
    return root


def cut_short(items, n: int):
    """Yield the first ``n`` of ``items``, then raise, as a writer's input
    does when the process fails half-way through a save."""
    yield from items[:n]
    raise RuntimeError("cut short")


def tree_bytes(out_dir: Path, skip: frozenset[str] = frozenset({".lock"})) -> dict[str, bytes]:
    """Map of relative path -> file bytes for every artifact under out_dir."""
    out = {}
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(out_dir))] = p.read_bytes()
    return out
