"""
Cleaning, tokenization, and candidate masking
=============================================

Walks one raw tweet through the preprocessing path: normalize the text,
hash tokens into a fixed vocabulary, and wrap one candidate span in
marker tokens so a classifier can attend to it in context.
"""

from tweetslots.corpus import AnnotatedTweet, EventType, SubtaskId
from tweetslots.preprocess import (
    CleanConfig,
    Vocab,
    clean,
    mask_candidate,
    tokenize_words,
)

# A raw tweet the way the annotation tools hand it over: user mentions,
# a link, a hashtag, and an emoji.
raw = "RT @user1: My grandmother tested positive 😢 details here https://t.co/xyz #COVID19"
print("raw tweet:")
print(" ", raw)

cfg = CleanConfig()
cleaned = clean(raw, cfg)
print("\ncleaned (mentions/urls/tags replaced, emoji mapped, lowercased):")
print(" ", cleaned)

print("\ntokens:")
print(" ", tokenize_words(cleaned))

# Hashed vocabulary: every token maps to a stable id, no fitting step.
vocab = Vocab(size=2048)
for tok in ("grandmother", "positive", "<USER>"):
    print(f"  id({tok!r}) = {vocab.token_to_id(tok)}")

# Candidate chunks arrive as character spans. Build the tweet record and
# mask candidate 0 ("My grandmother").
start = raw.index("My grandmother")
end = start + len("My grandmother")
tweet = AnnotatedTweet(
    id="demo-1",
    text=raw,
    event=EventType.TESTED_POSITIVE,
    candidates=((start, end),),
    gold={"relation": frozenset({0})},
)

subtask = SubtaskId(EventType.TESTED_POSITIVE, "relation")
inst = mask_candidate(tweet, 0, subtask, 1, vocab, cfg, max_len=16)
print("\nmasked instance (max_len=16):")
print("  token ids:", inst.token_ids.tolist())
print("  length:", inst.length, " marker at:", inst.marker_pos)
print("  chunk text:", inst.chunk_text)

# The ids between <E> and </E> are exactly the cleaned, tokenized chunk.
interior = inst.token_ids[inst.marker_pos + 1 : inst.close_marker_pos()]
from tweetslots.preprocess import tokenize

assert interior.tolist() == tokenize(clean(inst.chunk_text, cfg), vocab)
print("\nround-trip check: interior ids == tokenize(clean(chunk))  OK")

# Only masking writes the marker ids. Marker text typed into a tweet is
# ordinary punctuation and words, so it cannot forge a second marker.
quoted = tokenize_words("my </E> uncle <E> tested positive")
assert "<E>" not in quoted and "</E>" not in quoted
print("marker text in a tweet:", quoted)
