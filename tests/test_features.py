"""Feature-extraction strategy tests with hand-computed examples."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetslots.encoder import EncoderConfig, forward_batch, init_params
from tweetslots.features import (
    FeatureError,
    FeatureStrategy,
    Proj4Params,
    StrategyKind,
    extract,
    extract_backward_batch,
    extract_batch,
    feature_dim,
    init_strategy,
)

H = 4


def hidden_stack(rows_per_layer):
    """Build L single-sequence 3-row layer windows (3, H) with the centre (marker) row set."""
    layers = []
    for row in rows_per_layer:
        x = np.zeros((3, len(row)))
        x[1] = row
        layers.append(x)
    return layers


def hidden_batch(rows_per_layer):
    """Batch-of-one variant: (1, T, H) per layer."""
    return [x[None] for x in hidden_stack(rows_per_layer)]


def strat(kind, h=H, seed=0):
    return init_strategy(kind, h, np.random.default_rng(seed))


def marker_grads(dhidden):
    """The last four layers' gradient rows at the centre (marker) rows, oldest first: (4, B, H)."""
    return np.stack([layer[:, layer.shape[1] // 2] for layer in dhidden[-4:]])


class TestKinds:
    def test_parse(self):
        assert StrategyKind.parse("last") is StrategyKind.LAST
        assert StrategyKind.parse("sum4") is StrategyKind.SUM4
        assert StrategyKind.parse("concat4") is StrategyKind.CONCAT4
        assert StrategyKind.parse("proj4") is StrategyKind.PROJ4

    def test_parse_rejects_unknown(self):
        with pytest.raises(FeatureError):
            StrategyKind.parse("sum3")

    def test_feature_dims(self):
        assert feature_dim(StrategyKind.LAST, 32) == 32
        assert feature_dim(StrategyKind.SUM4, 32) == 32
        assert feature_dim(StrategyKind.CONCAT4, 32) == 128
        assert feature_dim(StrategyKind.PROJ4, 32) == 32

    def test_proj4_requires_params(self):
        with pytest.raises(FeatureError):
            FeatureStrategy(kind=StrategyKind.PROJ4, proj=None)

    def test_non_proj4_rejects_params(self):
        p = strat(StrategyKind.PROJ4).proj
        with pytest.raises(FeatureError):
            FeatureStrategy(kind=StrategyKind.LAST, proj=p)


class TestHandExamples:
    # Last four marker rows, oldest first.
    ROWS = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0])

    def test_sum4(self):
        hidden = hidden_stack(self.ROWS)
        out = extract(strat(StrategyKind.SUM4, 2), hidden)
        assert np.array_equal(out, [4.0, 4.0])

    def test_concat4_oldest_first(self):
        hidden = hidden_stack(self.ROWS)
        out = extract(strat(StrategyKind.CONCAT4, 2), hidden)
        assert np.array_equal(out, [1, 0, 0, 1, 1, 1, 2, 2])

    def test_last(self):
        hidden = hidden_stack(self.ROWS)
        out = extract(strat(StrategyKind.LAST, 2), hidden)
        assert np.array_equal(out, [2.0, 2.0])

    def test_proj4_all_ones_dot(self):
        # H=4 -> each piece is H/4 = 1 wide; all-ones weights, zero bias:
        # the newest row [1,2,3,4] contributes the piece [10].
        proj = Proj4Params(w=np.ones((4, 4, 1)), b=np.zeros((4, 1)))
        strategy = FeatureStrategy(kind=StrategyKind.PROJ4, proj=proj)
        hidden = hidden_stack(
            ([0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1.0, 2.0, 3.0, 4.0])
        )
        out = extract(strategy, hidden)
        assert np.array_equal(out, [0.0, 0.0, 0.0, 10.0])

    def test_uses_e_open_position_only(self):
        # Rewriting other time steps must not change the feature.
        hidden = hidden_stack(self.ROWS)
        for x in hidden:
            x[0] = 99.0
            x[2] = -99.0
        out = extract(strat(StrategyKind.SUM4, 2), hidden)
        assert np.array_equal(out, [4.0, 4.0])

    def test_last_four_of_deeper_stack(self):
        rows = ([9.0, 9.0], [8.0, 8.0]) + self.ROWS
        hidden = hidden_stack(rows)
        out = extract(strat(StrategyKind.SUM4, 2), hidden)
        assert np.array_equal(out, [4.0, 4.0])


class TestInvariants:
    def test_sum4_layer_permutation_invariant(self):
        rows = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0])
        out_a = extract(strat(StrategyKind.SUM4, 2), hidden_stack(rows))
        out_b = extract(strat(StrategyKind.SUM4, 2), hidden_stack(rows[::-1]))
        assert np.array_equal(out_a, out_b)

    def test_concat4_layer_permutation_sensitive(self):
        rows = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0])
        out_a = extract(strat(StrategyKind.CONCAT4, 2), hidden_stack(rows))
        out_b = extract(strat(StrategyKind.CONCAT4, 2), hidden_stack(rows[::-1]))
        assert not np.array_equal(out_a, out_b)

    def test_linear_in_hidden(self):
        rng = np.random.default_rng(0)
        h1 = [rng.standard_normal((3, H)) for _ in range(4)]
        h2 = [rng.standard_normal((3, H)) for _ in range(4)]
        for kind in (StrategyKind.LAST, StrategyKind.SUM4, StrategyKind.CONCAT4):
            s = strat(kind)
            a = extract(s, h1) + extract(s, h2)
            b = extract(s, [x + y for x, y in zip(h1, h2)])
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_proj4_affine_in_hidden(self):
        s = strat(StrategyKind.PROJ4)
        rng = np.random.default_rng(1)
        h1 = [rng.standard_normal((3, H)) for _ in range(4)]
        h2 = [rng.standard_normal((3, H)) for _ in range(4)]
        zero = [np.zeros((3, H)) for _ in range(4)]
        bias = extract(s, zero)
        a = extract(s, h1) + extract(s, h2) - bias
        b = extract(s, [x + y for x, y in zip(h1, h2)])
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestBatch:
    def test_batch_matches_single(self):
        cfg = EncoderConfig(num_layers=5, hidden_size=8, vocab_size=32, max_len=8, seed=0)
        params = init_params(cfg)
        token_ids = np.array([[3, 4, 5, 6], [7, 8, 9, 10]], dtype=np.int64)
        cache = forward_batch(params, token_ids, np.array([4, 4]), np.array([1, 2]))
        for kind in StrategyKind:
            s = strat(kind, 8)
            batch = extract_batch(s, cache.hidden)
            for i in range(2):
                single = extract(s, [x[i] for x in cache.hidden])
                np.testing.assert_allclose(batch[i], single, rtol=1e-14)

    def test_too_few_layers(self):
        hidden = [np.zeros((1, 3, H)) for _ in range(3)]
        with pytest.raises(FeatureError):
            extract_batch(strat(StrategyKind.SUM4), hidden)

    def test_even_window_has_no_centre_row(self):
        hidden = [np.zeros((1, 4, H)) for _ in range(4)]
        with pytest.raises(FeatureError, match="centre"):
            extract_batch(strat(StrategyKind.LAST), hidden)


class TestBackward:
    def fd_feature_loss(self, s, hidden, u):
        return float((extract_batch(s, hidden) * u).sum())

    def test_sum4_adjoint_copies_gradient(self):
        s = strat(StrategyKind.SUM4, 2)
        hidden = hidden_batch(([1.0, 0], [0, 1.0], [1.0, 1.0], [2.0, 2.0]))
        g = np.array([[3.0, 5.0]])
        dhidden, proj = extract_backward_batch(s, hidden, g)
        assert proj is None
        assert [layer.shape for layer in dhidden] == [(1, 3, 2)] * 4
        rows = marker_grads(dhidden)
        for j in range(4):
            assert np.array_equal(rows[j, 0], [3.0, 5.0])

    def test_concat4_adjoint_slices_gradient(self):
        s = strat(StrategyKind.CONCAT4, 2)
        hidden = hidden_batch(([1.0, 0], [0, 1.0], [1.0, 1.0], [2.0, 2.0]))
        g = np.arange(8, dtype=float)[None, :]
        rows = marker_grads(extract_backward_batch(s, hidden, g)[0])
        for j in range(4):
            assert np.array_equal(rows[j, 0], g[0, 2 * j:2 * j + 2])

    def test_last_adjoint(self):
        s = strat(StrategyKind.LAST, 2)
        hidden = hidden_batch(([1.0, 0], [0, 1.0], [1.0, 1.0], [2.0, 2.0]))
        g = np.array([[2.0, 7.0]])
        rows = marker_grads(extract_backward_batch(s, hidden, g)[0])
        assert np.array_equal(rows[3, 0], [2.0, 7.0])
        for j in range(3):
            assert np.array_equal(rows[j, 0], [0.0, 0.0])

    @pytest.mark.parametrize("kind", list(StrategyKind))
    def test_finite_difference_rows(self, kind):
        rng = np.random.default_rng(11)
        s = strat(kind)
        hidden = [rng.standard_normal((2, 3, H)) for _ in range(4)]
        u = rng.standard_normal((2, feature_dim(kind, H)))
        rows = marker_grads(extract_backward_batch(s, hidden, u)[0])
        eps = 1e-6
        for j in range(4):
            for bi in range(2):
                for hi in range(H):
                    orig = hidden[j][bi, 1, hi]
                    hidden[j][bi, 1, hi] = orig + eps
                    up = self.fd_feature_loss(s, hidden, u)
                    hidden[j][bi, 1, hi] = orig - eps
                    down = self.fd_feature_loss(s, hidden, u)
                    hidden[j][bi, 1, hi] = orig
                    fd = (up - down) / (2 * eps)
                    assert abs(rows[j, bi, hi] - fd) < 1e-6

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_adjoint_of_extract_batch(self, data):
        # extract_batch is affine in the layer states, so its adjoint must give
        # <f(h) - f(0), u> = sum over layers of <h_l, dh_l> (to 1e-12 of the
        # summed term magnitudes), and a gradient that is exactly zero off the
        # centre rows of the last four layers.
        kind = data.draw(st.sampled_from(list(StrategyKind)), label="kind")
        num_layers = data.draw(st.integers(4, 6), label="layers")
        b = data.draw(st.integers(1, 4), label="B")
        widths = [2 * r + 1 for r in data.draw(
            st.lists(st.integers(0, 3), min_size=num_layers, max_size=num_layers), label="radii")]
        h = data.draw(st.sampled_from([4, 8]), label="H")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        s = strat(kind, h, seed=int(rng.integers(1 << 30)))
        if s.proj is not None:
            s.proj.b[:] = rng.standard_normal(s.proj.b.shape)
        hidden = [rng.standard_normal((b, t, h)) for t in widths]
        u = rng.standard_normal((b, feature_dim(kind, h)))
        dhidden, _ = extract_backward_batch(s, hidden, u)
        assert [d.shape for d in dhidden] == [x.shape for x in hidden]
        f0 = extract_batch(s, [np.zeros_like(x) for x in hidden])
        lhs = float(((extract_batch(s, hidden) - f0) * u).sum())
        terms = [x * d for x, d in zip(hidden, dhidden)]
        rhs = sum(float(term.sum()) for term in terms)
        assert abs(lhs - rhs) <= 1e-12 * sum(float(np.abs(term).sum()) for term in terms)
        for li, (layer_grad, t) in enumerate(zip(dhidden, widths)):
            off_centre = np.ones((b, t), dtype=bool)
            if li >= num_layers - 4:
                off_centre[:, t // 2] = False
            assert not layer_grad[off_centre].any()

    def test_finite_difference_proj_params(self):
        rng = np.random.default_rng(13)
        s = strat(StrategyKind.PROJ4)
        hidden = [rng.standard_normal((2, 3, H)) for _ in range(4)]
        u = rng.standard_normal((2, H))
        _, proj_g = extract_backward_batch(s, hidden, u)
        eps = 1e-6
        for arr, garr in ((s.proj.w, proj_g.w), (s.proj.b, proj_g.b)):
            flat, gflat = arr.reshape(-1), garr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = self.fd_feature_loss(s, hidden, u)
                flat[i] = orig - eps
                down = self.fd_feature_loss(s, hidden, u)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                assert abs(gflat[i] - fd) < 1e-5

    def test_dimension_mismatch(self):
        s = strat(StrategyKind.LAST)
        hidden = [np.zeros((1, 3, H)) for _ in range(4)]
        with pytest.raises(FeatureError):
            extract_backward_batch(s, hidden, np.zeros((1, H + 1)))
