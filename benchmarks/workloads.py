"""Seeded workload inputs: a corpus JSONL, a config file, and (for the
single-slot control) a subtask registry file.

Every input is a pure function of (workload, seed): the same seed writes the
same bytes. The program under test only ever sees these files.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tweetslots.corpus import EVENT_ORDER, EventType, SubtaskRegistry, save_corpus
from tweetslots.preprocess import default_covid_tags, default_emoji_map
from tweetslots.synthetic import CueCorpusSpec, make_cue_corpus

# One slot per event, each with a typed phrase pool in the cue generator.
SINGLE_SLOT = {
    EventType.TESTED_POSITIVE: "name",
    EventType.TESTED_NEGATIVE: "where",
    EventType.CAN_NOT_TEST: "when",
    EventType.DEATH: "age",
    EventType.CURE_AND_PREVENTION: "who_cure",
}


# Candidates per tweet. The cue generator draws 2 or 3 unless told
# otherwise; a fixed count gives every seed the same number of training and
# validation triples (events cycle by tweet index and the split depends only
# on the config seed), so seeds change the text and labels but not the
# amount of work.
CANDIDATES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n_tweets: int
    config: dict[str, str]
    floor_f1: float  # micro_f1_filtered must reach this on every run
    single_slot: bool = False
    noisy: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's joint configuration: 33 slots, fan-out ~6.6 triples per
        # candidate, a pool of three feature strategies voted at k=3.
        Workload(
            name="joint-33",
            n_tweets=200,
            config={
                "split.train_fraction": "0.5",
                "train.epochs": "2",
                "train.learning_rate": "0.01",
                "ensemble.strategies": "last,sum4,proj4",
                "ensemble.seeds": "0",
                "ensemble.k": "3",
            },
            floor_f1=0.35,
        ),
        # Text normalization, instance I/O, forward-only prediction, tagging
        # and scoring: 90% of a noisy corpus is validation, the model is tiny.
        Workload(
            name="ingest-noisy",
            n_tweets=875,
            config={
                "encoder.hidden_size": "8",
                "encoder.max_len": "48",
                "split.train_fraction": "0.1",
                "train.epochs": "1",
                "train.learning_rate": "0.01",
                "ensemble.strategies": "last,sum4,proj4",
                "ensemble.seeds": "0",
                "ensemble.k": "3",
            },
            floor_f1=0.15,
            noisy=True,
        ),
        # The control: one slot per event (fan-out 1), a pool of one, and a
        # wider encoder so BLAS kernels carry more of the training time.
        Workload(
            name="single-slot",
            n_tweets=750,
            config={
                "data.subtasks": "subtasks.txt",
                "split.train_fraction": "0.5",
                "encoder.hidden_size": "64",
                "feature_strategy": "concat4",
                "train.epochs": "2",
                "ensemble.strategies": "concat4",
                "ensemble.seeds": "0",
                "ensemble.k": "1",
            },
            floor_f1=0.5,
            single_slot=True,
        ),
    )
}


def registry_for(workload: Workload) -> SubtaskRegistry:
    if workload.single_slot:
        return SubtaskRegistry({event: (name,) for event, name in SINGLE_SLOT.items()})
    return SubtaskRegistry.default()


def _decorations(rng: np.random.Generator, n: int) -> list[str]:
    """Trailing noise carrying every target of ``clean()``: a mention, a URL,
    a packaged COVID hashtag, a packaged emoji, curly quotes, an ellipsis and
    an NBSP."""
    tags = sorted(default_covid_tags())
    emoji = sorted(default_emoji_map())
    out = []
    for _ in range(n):
        user = f"@user{int(rng.integers(0, 10_000))}"
        url = f"https://t.co/{int(rng.integers(0, 16 ** 8)):08x}"
        tag = tags[int(rng.integers(0, len(tags)))]
        mark = emoji[int(rng.integers(0, len(emoji)))]
        out.append(f" {user} “so true”… {tag.upper()} {mark} via {url}")
    return out


def make_corpus(workload: Workload, seed: int) -> list:
    spec = CueCorpusSpec(
        n_tweets=workload.n_tweets, seed=seed, candidates_min=CANDIDATES, candidates_max=CANDIDATES,
        typed_chunks=True, trap_rate=0.3,
    )
    tweets, _ = make_cue_corpus(spec, registry=registry_for(workload))
    if workload.noisy:
        # Appended after the last candidate span, so every span stays valid.
        rng = np.random.default_rng([seed, 17])
        tweets = [
            dataclasses.replace(t, text=t.text + deco)
            for t, deco in zip(tweets, _decorations(rng, len(tweets)))
        ]
    return tweets


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, list]:
    """Write the corpus and config (plus registry if needed); returns the
    config path and the generated tweets."""
    directory.mkdir(parents=True, exist_ok=True)
    tweets = make_corpus(workload, seed)
    save_corpus(tweets, directory / "corpus.jsonl")
    if workload.single_slot:
        lines = [f"{event.value} = {SINGLE_SLOT[event]}\n" for event in EVENT_ORDER]
        (directory / "subtasks.txt").write_text("".join(lines), encoding="utf-8")
    keys = {"data.corpus": "corpus.jsonl", "seed": "0", **workload.config}
    config_path = directory / "config.ini"
    config_path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return config_path, tweets
