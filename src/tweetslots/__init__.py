"""Structured slot extraction from annotated tweets.

A desk-scale pipeline: clean and tokenize tweets, wrap candidate chunks in
marker tokens, encode them with a small trainable layered encoder, classify
every (subtask, candidate) pair with jointly trained binary heads, combine
models by majority vote, filter predictions against expected entity types,
and score everything with per-subtask and pooled micro F1.
"""

from .corpus import SubtaskRegistry
from .pipeline import load_config, run_pipeline
from .synthetic import CueCorpusSpec, make_cue_corpus

__version__ = "0.1.0"

__all__ = ["CueCorpusSpec", "SubtaskRegistry", "load_config", "make_cue_corpus", "run_pipeline"]
