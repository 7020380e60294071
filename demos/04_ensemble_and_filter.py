"""
Ensembling and type-aware filtering
===================================

Trains a small pool of models, majority-votes the top scorers, then runs
the entity-type filter over predictions from a corpus with planted
type-mismatched candidates. The filter nullifies positives whose chunk
type conflicts with the slot (a location answering a person slot) and
replaces the answer with "Not Specified".
"""

from tweetslots.corpus import SplitConfig, SubtaskRegistry, split
from tweetslots.encoder import EncoderConfig
from tweetslots.ensemble import ensemble_predict, majority_vote, select_top
from tweetslots.features import StrategyKind
from tweetslots.metrics import score
from tweetslots.multitask import TrainConfig, init_model, predict_probs, train
from tweetslots.nerfilter import default_gazetteer, default_type_map, filter_predictions, tag
from tweetslots.preprocess import CleanConfig, Vocab, mask_corpus
from tweetslots.synthetic import CueCorpusSpec, make_cue_corpus

registry = SubtaskRegistry.default()
vocab = Vocab(size=2048)

# Typed chunks: person slots get person phrases, where-slots locations,
# and so on. trap_rate plants location-phrased negatives that still
# carry the cue, so a cue-keyed model produces false positives.
spec = CueCorpusSpec(n_tweets=200, seed=13, typed_chunks=True, trap_rate=0.4)
tweets, _ = make_cue_corpus(spec, registry=registry, vocab=vocab)
train_tweets, val_tweets = split(tweets, SplitConfig(train_fraction=0.8, seed=0))
clean_cfg = CleanConfig()
enc = EncoderConfig(
    num_layers=4, hidden_size=16, vocab_size=2048, max_len=48, context_window=1, seed=0
)
train_set = mask_corpus(train_tweets, vocab, clean_cfg, enc.max_len, registry)
val_set = mask_corpus(val_tweets, vocab, clean_cfg, enc.max_len, registry)

# A 3-member pool: two strategies x seeds, scored on validation. Every
# member scores the same validation list; the vote runs on those arrays.
pool = []
member_probs = []
for kind, seed in ((StrategyKind.LAST, 0), (StrategyKind.SUM4, 0), (StrategyKind.SUM4, 1)):
    model, logs = train(init_model(enc, kind, registry, seed=seed), train_set, val_set,
                        TrainConfig(epochs=10, seed=seed))
    best = max(e.val_micro_f1 for e in logs)
    pool.append((f"{kind.value}-s{seed}", best))
    member_probs.append(predict_probs(model, val_set))
    print(f"member {kind.value}-s{seed}: best val micro-F1 {best:.4f}")

top = select_top(pool, k=3)
print("\ntop-3 members:", [name for name, _ in top])
print("majority_vote([1, 0, 1]) =", majority_vote([1, 0, 1]))

voted = ensemble_predict(member_probs, val_set, threshold=0.5)
print(f"ensemble records: {len(voted)}")

# Filter: positives whose tagged type conflicts with the slot are
# nullified; everything else passes through untouched.
for chunk in ("my mother", "new york", "34 years old"):
    print(f"tag({chunk!r}) = {tag(chunk, default_gazetteer()).value}")

filtered = filter_predictions(voted, default_type_map(), default_gazetteer())
nullified = [r for r in filtered if r.filtered]
print(f"\nnullified {len(nullified)} conflicting positives, e.g.:")
for r in nullified[:4]:
    print(f"  {r.subtask}  answer -> '{r.chunk_text}'")

rep_u = score(voted, val_tweets, registry, model_id="vote", corpus_id="demo")
rep_f = score(filtered, val_tweets, registry, model_id="vote", corpus_id="demo", filtered=True)
print(f"\nmicro-F1 unfiltered {rep_u.micro_f1:.4f} -> filtered {rep_f.micro_f1:.4f}")
