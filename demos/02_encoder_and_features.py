"""
Encoder forward pass and the four feature strategies
====================================================

Runs the layered encoder over a masked instance and shows how each
feature strategy turns the per-layer hidden states at the marker
position into a classifier input. Ends with a finite-difference check
of one encoder gradient entry.
"""

import numpy as np

from tweetslots.encoder import EncoderConfig, backward_batch, forward_batch, init_params
from tweetslots.features import FeatureStrategy, StrategyKind, extract_batch, feature_dim, init_proj4

cfg = EncoderConfig(
    num_layers=4, hidden_size=8, vocab_size=64, max_len=10, context_window=1, seed=0
)
params = init_params(cfg)

# One sequence: ids 7 8 <E>=2 9 </E>=3 then PAD=0. PAD positions stay
# zero at every layer, so padding never leaks into real positions.
ids = np.array([[7, 8, 2, 9, 3, 0, 0, 0, 0, 0]])
marker = 2  # position of <E>

cache = forward_batch(params, ids)
print("layer outputs:", len(cache.hidden))
for i, h in enumerate(cache.hidden):
    print(f"  layer {i + 1}: shape {h.shape}  pad rows all zero: {not h[0, 5:].any()}")

rng = np.random.default_rng(1)
for kind in StrategyKind:
    proj = init_proj4(cfg.hidden_size, rng) if kind is StrategyKind.PROJ4 else None
    strategy = FeatureStrategy(kind, proj)
    # One feature row per batch row; this batch holds one sequence.
    [feat] = extract_batch(strategy, cache.hidden, np.array([marker]))
    print(f"{kind.value:>8}: dim {feature_dim(kind, cfg.hidden_size):>2}  first values {np.round(feat[:4], 4)}")

# Gradient sanity through a scalar readout sum(last layer): the adjoint
# slope must match a central finite difference.
upstream = [np.zeros_like(h) for h in cache.hidden]
upstream[-1] = np.ones_like(cache.hidden[-1])
grads = backward_batch(params, cache, upstream)
g = grads.layers[0].w[0][0, 0]

eps = 1e-6
arr = params.layers[0].w[0]
orig = arr[0, 0]
arr[0, 0] = orig + eps
up = forward_batch(params, ids).hidden[-1].sum()
arr[0, 0] = orig - eps
down = forward_batch(params, ids).hidden[-1].sum()
arr[0, 0] = orig
fd = (up - down) / (2 * eps)
print(f"\ngradient check on layer 1 tap 0 weight [0,0]: analytic {g:.8f} vs central FD {fd:.8f}")
assert abs(g - fd) < 1e-6
print("difference below 1e-6  OK")
