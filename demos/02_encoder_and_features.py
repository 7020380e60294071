"""
Encoder forward pass and the four feature strategies
====================================================

Runs the layered encoder over the window of ids around a masked
instance's marker, which the encoder gathers itself, and shows how each feature strategy turns the
per-layer hidden states at the marker (each layer's centre row) into a
classifier input. Ends with a finite-difference check of one encoder
gradient entry.
"""

import numpy as np

from tweetslots.encoder import EncoderConfig, backward_batch, forward_batch, init_params, window_radius
from tweetslots.features import FeatureStrategy, StrategyKind, extract_batch, feature_dim, init_proj4

cfg = EncoderConfig(
    num_layers=4, hidden_size=8, vocab_size=64, max_len=10, context_window=1, seed=0
)
params = init_params(cfg)

# One tweet: ids 7 8 <E>=2 9 </E>=3 then PAD=0, marker at position 2.
token_ids = np.array([[7, 8, 2, 9, 3, 0, 0, 0, 0, 0]])
lengths, marker = np.array([5]), np.array([2])

# L layers of half-width w give the marker a reach of L*w positions; the
# window holds just that field, so the last layer holds the marker row alone.
cache = forward_batch(params, token_ids, lengths, marker)
start = cache.start
print(f"window radius {window_radius(cfg)}: ids {cache.ids[0].tolist()} from position {start[0]}")
print("layer outputs:", len(cache.hidden))
for i, h in enumerate(cache.hidden, start=1):
    # Rows past the tweet are PAD, zero at every layer, so padding never
    # leaks into real positions.
    pos = start[0] + i * cfg.context_window + np.arange(h.shape[1])
    outside = (pos < 0) | (pos >= lengths[0])
    print(f"  layer {i}: shape {h.shape}  rows outside the tweet all zero: {not h[0, outside].any()}")

rng = np.random.default_rng(1)
for kind in StrategyKind:
    proj = init_proj4(cfg.hidden_size, rng) if kind is StrategyKind.PROJ4 else None
    strategy = FeatureStrategy(kind, proj)
    # One feature row per batch row; this batch holds one tweet.
    [feat] = extract_batch(strategy, cache.hidden)
    print(f"{kind.value:>8}: dim {feature_dim(kind, cfg.hidden_size):>2}  first values {np.round(feat[:4], 4)}")

# Gradient sanity through a scalar readout sum(last layer's window): the
# adjoint slope must match a central finite difference.
upstream = [np.zeros_like(h) for h in cache.hidden]
upstream[-1] = np.ones_like(cache.hidden[-1])
grads = backward_batch(params, cache, upstream)
g = grads.layers[0].w[0][0, 0]

eps = 1e-6
arr = params.layers[0].w[0]
orig = arr[0, 0]
arr[0, 0] = orig + eps
up = forward_batch(params, token_ids, lengths, marker).hidden[-1].sum()
arr[0, 0] = orig - eps
down = forward_batch(params, token_ids, lengths, marker).hidden[-1].sum()
arr[0, 0] = orig
fd = (up - down) / (2 * eps)
print(f"\ngradient check on layer 1 tap 0 weight [0,0]: analytic {g:.8f} vs central FD {fd:.8f}")
assert abs(g - fd) < 1e-6
print("difference below 1e-6  OK")
