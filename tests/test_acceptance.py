"""Acceptance gate: nine checks, one pass/fail line each, pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is one test so ``-v`` also gives one verdict per row.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from tweetslots import metrics, pipeline, serialize
from tweetslots.corpus import (
    EVENT_ORDER,
    AnnotatedTweet,
    SplitConfig,
    SubtaskRegistry,
    split,
)
from tweetslots.encoder import EncoderConfig
from tweetslots.ensemble import majority_vote, select_top
from tweetslots.features import (
    FeatureStrategy,
    Proj4Params,
    StrategyKind,
    extract,
)
from tweetslots.multitask import (
    PredictionRecord,
    TrainConfig,
    init_model,
    loss,
    loss_and_grads,
    predict,
    train,
)
from tweetslots.nerfilter import (
    NOT_SPECIFIED,
    default_gazetteer,
    default_type_map,
    filter_predictions,
)
from tweetslots.preprocess import (
    E_CLOSE_ID,
    E_OPEN_ID,
    NUM_RESERVED,
    PAD_ID,
    CleanConfig,
    MaskedInstance,
    Vocab,
    clean,
    mask_corpus,
    tokenize,
)
from tweetslots.synthetic import CueCorpusSpec, make_cue_corpus

from conftest import tree_bytes


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# -- 1: scope ----------------------------------------------------------------


def test_criterion_1_scope():
    """Full-scale benchmark figures are out of scope; properties stand in."""
    covered = {2, 3, 4, 5, 6, 7, 8, 9}
    names = set(globals())
    missing = {n for n in covered if not any(f"test_criterion_{n}_" in g for g in names)}
    report(
        1,
        not missing,
        "benchmark-scale scores need pretrained language models and a gated "
        "dataset; acceptance is property-based and directional (criteria 2-9)",
    )


# -- 2: gradient correctness -------------------------------------------------

GRAD_REG = SubtaskRegistry.default()


def random_instances(rng, vocab_size: int, max_len: int, registry, n: int):
    subs = registry.all_subtasks()
    out = []
    for i in range(n):
        length = int(rng.integers(6, max_len + 1))
        chunk_len = int(rng.integers(1, 4))
        chunk_len = min(chunk_len, length - 2)
        marker = int(rng.integers(0, length - chunk_len - 1))
        ids = rng.integers(NUM_RESERVED, vocab_size, size=max_len)
        ids[length:] = PAD_ID
        ids[marker] = E_OPEN_ID
        ids[marker + 1 + chunk_len] = E_CLOSE_ID
        out.append(
            MaskedInstance(
                token_ids=ids.astype(np.int64),
                length=length,
                marker_pos=marker,
                subtask=subs[int(rng.integers(0, len(subs)))],
                label=int(rng.integers(0, 2)),
                chunk_text="x",
                tweet_id=f"g{i}",
                candidate_index=0,
            )
        )
    return out


def test_criterion_2_gradient_check():
    t0 = time.time()
    registry = SubtaskRegistry(
        {EVENT_ORDER[3]: ("age", "name"), EVENT_ORDER[4]: ("opinion", "what_cure")}
    )
    enc = EncoderConfig(
        num_layers=4, hidden_size=8, vocab_size=64, max_len=12, context_window=2, seed=0
    )
    model = init_model(enc, StrategyKind.PROJ4, registry, seed=3)
    rng = np.random.default_rng(5)
    batch = random_instances(rng, enc.vocab_size, enc.max_len, registry, n=4)
    cfg = TrainConfig()
    _, grads = loss_and_grads(model, batch, cfg)
    named = dict(model.named_arrays())
    eps = 1e-4
    worst = 0.0
    checked = 0
    for name, arr in named.items():
        g = grads.get(name)
        flat = arr.reshape(-1)
        gflat = None if g is None else g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss(model, batch, cfg)
            flat[i] = orig - eps
            down = loss(model, batch, cfg)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            analytic = 0.0 if gflat is None else gflat[i]
            rel = abs(analytic - fd) / max(abs(fd), 1.0)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.time() - t0
    report(
        2,
        worst < 1e-4 and elapsed < 30.0,
        f"{checked} parameters, max relative error {worst:.2e} "
        f"(tolerance 1e-4, eps {eps:g}) in {elapsed:.1f}s (limit 30s)",
    )


# -- 3: oracle equivalence ---------------------------------------------------


def _oracle_extract(kind: StrategyKind, layers, pos: int, proj=None):
    rows = [np.array([layer[pos, j] for j in range(layer.shape[1])]) for layer in layers[-4:]]
    h = len(rows[0])
    if kind is StrategyKind.LAST:
        return rows[-1]
    if kind is StrategyKind.SUM4:
        acc = rows[0].copy()
        for r in rows[1:]:
            acc = acc + r
        return acc
    if kind is StrategyKind.CONCAT4:
        return np.concatenate(rows)
    pieces = []
    for i, r in enumerate(rows):
        q = proj.w.shape[2]
        piece = np.zeros(q)
        for j in range(q):
            s = 0.0
            for k in range(h):
                s += r[k] * proj.w[i, k, j]
            piece[j] = s + proj.b[i, j]
        pieces.append(piece)
    return np.concatenate(pieces)


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    parts = []

    # micro-F1 against an exact rational oracle
    for _ in range(200):
        counts = {}
        for s in GRAD_REG.all_subtasks():
            counts[s] = metrics.SubtaskCounts(
                tp=int(rng.integers(0, 20)), fp=int(rng.integers(0, 20)), fn=int(rng.integers(0, 20))
            )
        rep = metrics.MetricsReport(counts=counts)
        tp = sum(c.tp for c in counts.values())
        fp = sum(c.fp for c in counts.values())
        fn = sum(c.fn for c in counts.values())
        denom = 2 * tp + fp + fn
        expected = 0.0 if denom == 0 else float(Fraction(2 * tp, denom))
        assert rep.micro_f1 == expected
    parts.append("micro-F1 200/200")

    # majority vote: every pattern of 5 and of 3 votes
    for width in (5, 3):
        for pattern in range(2**width):
            votes = [(pattern >> i) & 1 for i in range(width)]
            assert majority_vote(votes) == int(sum(votes) * 2 > width)
    parts.append("vote 40/40 patterns")

    # top-k selection against a stable-sort oracle, 100 random pools
    for _ in range(100):
        size = int(rng.integers(3, 16))
        pool = [(f"m{i}", float(rng.integers(1, 6)) / 5.0) for i in range(size)]
        k = int(rng.integers(1, size + 1))
        if k % 2 == 0:
            k = max(1, k - 1)
        oracle = [p for _, p in sorted(enumerate(pool), key=lambda t: (-t[1][1], t[0]))[:k]]
        assert select_top(pool, k) == oracle
    parts.append("top-k 100/100 pools")

    # feature extractors on integer-valued inputs: exact equality
    h = 8
    for kind in StrategyKind:
        for _ in range(25):
            t = int(rng.integers(2, 7))
            depth = int(rng.integers(4, 7))
            layers = [rng.integers(-8, 9, size=(t, h)).astype(float) for _ in range(depth)]
            pos = int(rng.integers(0, t))
            proj = None
            if kind is StrategyKind.PROJ4:
                proj = Proj4Params(
                    w=rng.integers(-3, 4, size=(4, h, h // 4)).astype(float),
                    b=rng.integers(-3, 4, size=(4, h // 4)).astype(float),
                )
            strategy = FeatureStrategy(kind, proj)
            r = min(pos, t - 1 - pos)  # the widest window of the layers centred on pos
            got = extract(strategy, [x[pos - r:pos + r + 1] for x in layers])
            want = _oracle_extract(kind, layers, pos, proj)
            assert np.array_equal(got, want), kind
    parts.append("extractors 100/100 draws")

    elapsed = time.time() - t0
    report(3, elapsed < 10.0, f"{'; '.join(parts)}; all exact in {elapsed:.1f}s (limit 10s)")


# -- 4: masking round-trip ---------------------------------------------------

_WORD_POOL = (
    "covid test positive results hospital breaking news my uncle grandmother "
    "nurse doctor café naïve résumé can't we're it's 35 years old boston "
    "quarantine waiting update számláló straße"
).split() + ["@user1", "@dr_smith", "http://t.co/abc", "https://news.example.com/x", "#covid19", "#StayHome", "\U0001f637", "❤️", "COVID-19", "so!!!", "sad..."]


def _random_round_trip_corpus(rng, n_tweets: int) -> list[AnnotatedTweet]:
    tweets = []
    for i in range(n_tweets):
        n_words = int(rng.integers(8, 31))
        words = [_WORD_POOL[int(rng.integers(0, len(_WORD_POOL)))] for _ in range(n_words)]
        text = ""
        offsets = []
        for w in words:
            if text:
                text += " "
            offsets.append((len(text), len(text) + len(w)))
            text += w
        n_cands = int(rng.integers(1, 4))
        candidates = []
        used = set()
        for _ in range(n_cands):
            start_w = int(rng.integers(0, n_words))
            span_w = int(rng.integers(1, 4))
            end_w = min(n_words - 1, start_w + span_w - 1)
            key = (start_w, end_w)
            if key in used or any(s <= start_w <= e or s <= end_w <= e for s, e in used):
                continue
            used.add(key)
            candidates.append((offsets[start_w][0], offsets[end_w][1]))
        if not candidates:
            candidates = [(offsets[0][0], offsets[0][1])]
        event = EVENT_ORDER[int(rng.integers(0, len(EVENT_ORDER)))]
        tweets.append(
            AnnotatedTweet(
                id=f"rt-{i}", text=text, event=event,
                candidates=tuple(sorted(candidates)), gold={},
            )
        )
    return tweets


def test_criterion_4_masking_round_trip():
    rng = np.random.default_rng(17)
    registry = SubtaskRegistry.default()
    vocab = Vocab(size=2048)
    clean_cfg = CleanConfig()
    max_len = 20
    tweets = _random_round_trip_corpus(rng, 90)
    instances = mask_corpus(tweets, vocab, clean_cfg, max_len, registry)
    assert len(instances) >= 1000
    by_id = {t.id: t for t in tweets}
    exact = truncated = 0
    for inst in instances:
        tweet = by_id[inst.tweet_id]
        start, end = tweet.candidates[inst.candidate_index]
        chunk = tweet.text[start:end]
        want = tokenize(clean(chunk, clean_cfg), vocab)
        interior = inst.token_ids[inst.marker_pos + 1 : inst.close_marker_pos()].tolist()
        if interior == want:
            exact += 1
        prefix_toks = tokenize(clean(tweet.text[:start], clean_cfg), vocab)
        suffix_toks = tokenize(clean(tweet.text[end:], clean_cfg), vocab)
        if len(prefix_toks) + len(suffix_toks) + len(want) + 2 > max_len:
            truncated += 1
    ok = exact == len(instances) and truncated >= 100
    report(
        4,
        ok,
        f"{exact}/{len(instances)} instances round-trip exactly "
        f"({truncated} forced-truncation cases included)",
    )


# -- 5: end-to-end learning --------------------------------------------------


def test_criterion_5_end_to_end_learning():
    t0 = time.time()
    registry = SubtaskRegistry.default()
    vocab = Vocab(size=4096)
    tweets, _ = make_cue_corpus(CueCorpusSpec(n_tweets=500, seed=7), registry=registry, vocab=vocab)
    assert {t.event for t in tweets} == set(EVENT_ORDER)
    train_tweets, val_tweets = split(tweets, SplitConfig(train_fraction=0.8, seed=0))
    clean_cfg = CleanConfig()
    enc = EncoderConfig(
        num_layers=4, hidden_size=32, vocab_size=4096, max_len=96, context_window=2, seed=0
    )
    tr = mask_corpus(train_tweets, vocab, clean_cfg, enc.max_len, registry)
    va = mask_corpus(val_tweets, vocab, clean_cfg, enc.max_len, registry)
    cfg = TrainConfig(epochs=6, seed=0)
    model = init_model(enc, StrategyKind.LAST, registry, seed=0)
    _, logs = train(model, tr, va, cfg)
    best = max(e.val_micro_f1 for e in logs)
    best_epoch = min(e.epoch for e in logs if e.val_micro_f1 == best)
    elapsed = time.time() - t0
    report(
        5,
        best >= 0.90 and best_epoch <= 100 and elapsed < 300.0,
        f"500 tweets, all 5 events ({len(tr)} train instances): "
        f"val micro-F1 {best:.4f} >= 0.90 by epoch {best_epoch} (limit 100) "
        f"in {elapsed:.0f}s (limit 300s)",
    )


# -- 6: joint vs separate ----------------------------------------------------


def _prediction_counts(records, instances):
    labels = {(i.tweet_id, str(i.subtask), i.candidate_index): i.label for i in instances}
    tp = fp = fn = 0
    for r in records:
        label = labels[(r.tweet_id, str(r.subtask), r.candidate_index)]
        if r.decision == 1 and label == 1:
            tp += 1
        elif r.decision == 1:
            fp += 1
        elif label == 1:
            fn += 1
    return tp, fp, fn


def test_criterion_6_joint_vs_separate():
    registry = SubtaskRegistry.default()
    vocab = Vocab(size=2048)
    spec = CueCorpusSpec(n_tweets=300, seed=21, shared_cues=True, max_positives_per_subtask=30)
    tweets, _ = make_cue_corpus(spec, registry=registry, vocab=vocab)
    per_subtask: dict[tuple, int] = {}
    for t in tweets:
        for name, idxs in t.gold.items():
            key = (t.event, name)
            per_subtask[key] = per_subtask.get(key, 0) + len(idxs)
    assert max(per_subtask.values()) <= 30

    train_tweets, val_tweets = split(tweets, SplitConfig(train_fraction=0.8, seed=0))
    clean_cfg = CleanConfig()
    enc = EncoderConfig(
        num_layers=4, hidden_size=16, vocab_size=2048, max_len=48, context_window=1, seed=0
    )
    tr = mask_corpus(train_tweets, vocab, clean_cfg, enc.max_len, registry)
    va = mask_corpus(val_tweets, vocab, clean_cfg, enc.max_len, registry)
    cfg = TrainConfig(epochs=8, seed=0)

    joint, _ = train(init_model(enc, StrategyKind.LAST, registry, seed=0), tr, va, cfg)
    jtp, jfp, jfn = _prediction_counts(predict(joint, va, cfg), va)
    joint_f1 = metrics.SubtaskCounts(jtp, jfp, jfn).f1

    tp = fp = fn = 0
    for event in EVENT_ORDER:
        event_registry = SubtaskRegistry({event: registry.names_for(event)})
        tr_e = [i for i in tr if i.subtask.event is event]
        va_e = [i for i in va if i.subtask.event is event]
        model, _ = train(init_model(enc, StrategyKind.LAST, event_registry, seed=0), tr_e, va_e, cfg)
        a, b, c = _prediction_counts(predict(model, va_e, cfg), va_e)
        tp, fp, fn = tp + a, fp + b, fn + c
    separate_f1 = metrics.SubtaskCounts(tp, fp, fn).f1

    report(
        6,
        joint_f1 >= separate_f1 - 0.01,
        f"shared cues, <=30 positives/subtask: joint micro-F1 {joint_f1:.4f} vs "
        f"separate {separate_f1:.4f} (tolerance: joint >= separate - 0.01)",
    )


# -- 7: filter ablation direction --------------------------------------------


def test_criterion_7_filter_ablation_direction():
    registry = SubtaskRegistry.default()
    vocab = Vocab(size=2048)
    spec = CueCorpusSpec(n_tweets=300, seed=13, typed_chunks=True, trap_rate=0.35)
    tweets, _ = make_cue_corpus(spec, registry=registry, vocab=vocab)
    train_tweets, val_tweets = split(tweets, SplitConfig(train_fraction=0.8, seed=0))
    clean_cfg = CleanConfig()
    enc = EncoderConfig(
        num_layers=4, hidden_size=16, vocab_size=2048, max_len=48, context_window=1, seed=0
    )
    tr = mask_corpus(train_tweets, vocab, clean_cfg, enc.max_len, registry)
    va = mask_corpus(val_tweets, vocab, clean_cfg, enc.max_len, registry)
    cfg = TrainConfig(epochs=10, seed=0)
    model, _ = train(init_model(enc, StrategyKind.LAST, registry, seed=0), tr, va, cfg)
    records = predict(model, va, cfg)
    unfiltered = metrics.score(records, val_tweets, registry, model_id="m", corpus_id="c")
    filtered_records = filter_predictions(records, default_type_map(), default_gazetteer())
    filtered = metrics.score(
        filtered_records, val_tweets, registry, model_id="m", corpus_id="c", filtered=True
    )
    nullified = sum(1 for r in filtered_records if r.filtered)
    report(
        7,
        filtered.micro_f1 > unfiltered.micro_f1,
        f"planted type-mismatched false positives: micro-F1 {unfiltered.micro_f1:.4f} "
        f"unfiltered -> {filtered.micro_f1:.4f} filtered "
        f"({nullified} nullified), strictly greater",
    )


# -- 8: filter safety --------------------------------------------------------

_CHUNK_POOL = (
    "my mother", "new york", "34 years old", "yesterday", "three days",
    "amazon", "the cdc", "his wife", "nursing home", "last week", "aged 67",
    "random words", "zzcue thing", "waiting update", "he sadly", "boston",
    "for two weeks", "", "x",
)


def test_criterion_8_filter_safety():
    rng = np.random.default_rng(23)
    registry = SubtaskRegistry.default()
    subtasks = registry.all_subtasks()
    type_map = default_type_map()
    gazetteer = default_gazetteer()
    sets = 10_000
    flips = 0
    for trial in range(sets):
        n = int(rng.integers(1, 9))
        records = []
        for j in range(n):
            records.append(
                PredictionRecord(
                    tweet_id=f"t{trial}",
                    subtask=subtasks[int(rng.integers(0, len(subtasks)))],
                    candidate_index=j,
                    chunk_text=_CHUNK_POOL[int(rng.integers(0, len(_CHUNK_POOL)))],
                    probability=float(rng.random()),
                    decision=int(rng.integers(0, 2)),
                )
            )
        out = filter_predictions(records, type_map, gazetteer)
        assert len(out) == len(records)
        for before, after in zip(records, out):
            # a flip can only ever nullify a positive
            assert after.decision <= before.decision
            if before.decision == 0:
                assert after == before
            elif after.decision == 0:
                assert after.filtered and after.chunk_text == NOT_SPECIFIED
                flips += 1
            else:
                assert after == before
    report(
        8,
        True,
        f"{sets} randomized prediction sets: no FP increase, no negative flipped "
        f"({flips} positives nullified along the way)",
    )


# -- 9: determinism ----------------------------------------------------------


def test_criterion_9_determinism(ws, tmp_path):
    cfg = pipeline.load_config(ws / "config.ini")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    pipeline.run_pipeline(cfg, out_a)
    pipeline.run_pipeline(cfg, out_b)
    a, b = tree_bytes(out_a), tree_bytes(out_b)
    assert set(a) == set(b)
    diff = [rel for rel in a if a[rel] != b[rel]]
    models = [rel for rel in a if rel.endswith(".bin")]
    reports = [rel for rel in a if rel.startswith("report_")]
    report(
        9,
        not diff and len(models) == 6 and len(reports) == 2,
        f"two identical-config runs: {len(models)} model files, {len(reports)} reports, "
        f"{len(a)} artifacts total, all byte-identical"
        + (f"; DIFFERING: {diff}" if diff else ""),
    )
