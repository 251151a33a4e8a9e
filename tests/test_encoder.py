import numpy as np
import pytest

from atscalm import audio_io as aio
from atscalm.augment import AugmentConfig
from atscalm.encoder import (AcousticEncoder, EncoderConfig, contrastive_loss,
                             count_flops, count_parameters, embed_corpus, load_encoder, mean_cosine_similarity,
                             prepare_input, save_encoder, train_encoder)
from atscalm.features import FeatureParams, TimeFreqGrid
from atscalm.nn import Adam, Tensor
from atscalm.nn.ops import split
from atscalm.util import PipelineError, keyed_rng


def layer_count_oracle(widths, blocks, proj_dim):
    """Independent per-layer spreadsheet: conv sizes + bn affine pairs + head."""
    total = widths[0] * 1 * 7 * 7 + 2 * widths[0]    # stem conv + bn
    c_in = widths[0]
    for si, (c_out, n_blocks) in enumerate(zip(widths, blocks)):
        for bi in range(n_blocks):
            stride = 2 if (si > 0 and bi == 0) else 1
            total += c_out * c_in * 9 + 2 * c_out     # conv1 + bn1
            total += c_out * c_out * 9 + 2 * c_out    # conv2 + bn2
            if stride != 1 or c_in != c_out:
                total += c_out * c_in + 2 * c_out     # 1x1 downsample + bn
            c_in = c_out
    total += c_in * proj_dim + proj_dim               # projection head
    return total


class TestParameterCount:
    def test_full_size_exact(self):
        model = AcousticEncoder(EncoderConfig(), seed=0)
        assert count_parameters(model) == 11_235_904

    def test_width_scaled_matches_oracle(self):
        cfg = EncoderConfig(width_scale=1 / 8)
        model = AcousticEncoder(cfg, seed=0)
        assert count_parameters(model) == layer_count_oracle(
            cfg.scaled_widths(), cfg.blocks, cfg.proj_dim)

    def test_backbone_plus_head_decomposition(self):
        model = AcousticEncoder(EncoderConfig(), seed=0)
        head = model.params["proj.w"].data.size + model.params["proj.b"].data.size
        assert head == 512 * 128 + 128 == 65_664
        assert count_parameters(model) - head == 11_170_240

    def test_same_seed_identical_init(self):
        a = AcousticEncoder(EncoderConfig(width_scale=1 / 8), seed=5)
        b = AcousticEncoder(EncoderConfig(width_scale=1 / 8), seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_invalid_config(self):
        with pytest.raises(PipelineError):
            EncoderConfig(widths=(64, 32, 128, 256))
        with pytest.raises(PipelineError):
            EncoderConfig(proj_dim=1)


class TestFlops:
    def test_linear_only_contribution(self):
        cfg = EncoderConfig()
        a = count_flops(AcousticEncoder(cfg, 0), (64, 256))
        assert a > 0
        # 512 -> 128 projection on one vector costs 2*512*128 = 131072
        model = AcousticEncoder(cfg, 0)
        no_head = count_flops(model, (64, 256)) - 2 * 512 * 128
        assert no_head > 0

    def test_stem_weight_size(self):
        model = AcousticEncoder(EncoderConfig(), 0)
        assert model.params["stem.conv"].data.size == 64 * 1 * 7 * 7 == 3136
        assert (model.params["stem.bn.gamma"].data.size
                + model.params["stem.bn.beta"].data.size) == 128


class TestContrastiveLoss:
    def test_identical_batches_zero(self):
        p = Tensor(keyed_rng("cl", 0).normal(0, 1, (4, 8)))
        assert contrastive_loss(p, Tensor(p.data.copy())).item() == 0.0

    def test_hand_value(self):
        p1 = Tensor(np.array([[1.0, 0.0]]))
        p2 = Tensor(np.array([[0.0, 1.0]]))
        assert contrastive_loss(p1, p2).item() == pytest.approx(2.0)

    def test_symmetry(self):
        a = Tensor(keyed_rng("cl", 1).normal(0, 1, (3, 5)))
        b = Tensor(keyed_rng("cl", 2).normal(0, 1, (3, 5)))
        assert contrastive_loss(a, b).item() == pytest.approx(contrastive_loss(b, a).item())

    def test_nonnegative_and_zero_iff_equal(self):
        a = Tensor(keyed_rng("cl", 3).normal(0, 1, (4, 6)))
        b = Tensor(a.data + 1e-7)
        loss = contrastive_loss(a, b).item()
        assert loss > 0
        assert contrastive_loss(a, Tensor(a.data.copy())).item() <= 1e-12

    def test_one_adam_step_decreases_pair_loss(self):
        # frozen-stats forward: batch-2 train-mode batchnorm has knife-edge
        # curvature that defeats any fixed step size
        cfg = EncoderConfig(width_scale=1 / 16, proj_dim=4, frames=8)
        for seed in range(20):
            model = AcousticEncoder(cfg, seed=seed)
            x = Tensor(keyed_rng("pair", seed).normal(0, 1, (2, 1, 8, 8)))

            def pair_loss():
                emb = model.forward(x, train=False)
                p1, p2 = split(emb, [1, 1], axis=0)
                return contrastive_loss(p1, p2)

            before = pair_loss()
            opt = Adam(model.params, lr=1e-3)
            opt.zero_grad()
            before.backward()
            opt.step()
            after = pair_loss()
            assert after.item() < before.item(), f"seed {seed}"


class TestPrepareInput:
    def _grid(self, frames):
        vals = keyed_rng("grid", frames).normal(0, 1, (8, frames))
        return TimeFreqGrid(vals, "log-mel", 16000, 0.01)

    def test_exact(self):
        g = self._grid(16)
        assert np.array_equal(prepare_input(g, 16), g.values)

    def test_crop_centered(self):
        g = self._grid(20)
        out = prepare_input(g, 16)
        assert np.array_equal(out, g.values[:, 2:18])

    def test_pad_with_floor(self):
        g = self._grid(10)
        out = prepare_input(g, 16)
        assert out.shape == (8, 16)
        assert np.all(out[:, :3] == g.values.min())
        assert np.array_equal(out[:, 3:13], g.values)


class TestTrainEmbed:
    @pytest.fixture(scope="class")
    @classmethod
    def corpus(cls, tmp_path_factory):
        root = tmp_path_factory.mktemp("enc-corpus")
        return aio.synth_corpus(str(root), aio.SynthConfig(n_per_class=2, duration_s=1.0, seed=4))

    def _cfg(self):
        return EncoderConfig(width_scale=1 / 16, proj_dim=8, frames=32)

    def _feat(self):
        return FeatureParams(n_mels=16)

    def _aug(self):
        return AugmentConfig(noise_sigma_rel=0.005, stretch_range=(0.95, 1.05),
                             pitch_range_semitones=0.25, freq_mask_max=2,
                             time_mask_max=4, seed=4)

    def test_lr_zero_leaves_parameters(self, corpus):
        model, _ = train_encoder(corpus, self._cfg(), self._aug(), self._feat(),
                                 epochs=2, lr=0.0, seed=4, batch_pairs=3)
        fresh = AcousticEncoder(self._cfg(), seed=4)
        for name in fresh.params:
            assert np.array_equal(model.params[name].data, fresh.params[name].data)

    def test_same_seed_identical_history(self, corpus):
        _, h1 = train_encoder(corpus, self._cfg(), self._aug(), self._feat(),
                              epochs=2, lr=1e-3, seed=4, batch_pairs=3)
        _, h2 = train_encoder(corpus, self._cfg(), self._aug(), self._feat(),
                              epochs=2, lr=1e-3, seed=4, batch_pairs=3)
        assert h1 == h2

    def test_embed_corpus_shapes_and_determinism(self, corpus, tmp_path):
        model, _ = train_encoder(corpus, self._cfg(), self._aug(), self._feat(),
                                 epochs=1, lr=1e-3, seed=4, batch_pairs=3)
        embs = embed_corpus(model, corpus, self._feat())
        assert len(embs) == len(corpus.entries)
        assert all(e.vec.shape == (8,) for e in embs)
        again = embed_corpus(model, corpus, self._feat())
        for e1, e2 in zip(embs, again):
            assert np.array_equal(e1.vec, e2.vec)
        path = str(tmp_path / "enc.ckpt")
        save_encoder(model, path, self._feat())
        back, meta = load_encoder(path)
        embs2 = embed_corpus(back, corpus, self._feat())
        for e1, e2 in zip(embs, embs2):
            assert np.array_equal(e1.vec, e2.vec)

    def test_needs_two_clips(self):
        man = aio.CorpusManifest(entries=[])
        with pytest.raises(PipelineError):
            train_encoder(man, self._cfg(), self._aug(), self._feat(), epochs=1,
                          lr=1e-3, seed=0)


class TestCosine:
    def test_identical_vectors(self):
        a = keyed_rng("cos", 0).normal(0, 1, (5, 8))
        assert mean_cosine_similarity(a, a.copy()) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert mean_cosine_similarity(a, b) == pytest.approx(0.0, abs=1e-12)
