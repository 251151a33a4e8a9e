import logging
import math
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from atscalm import audio_io as aio
from atscalm import augment, dsp
from atscalm import encoder as encoder_mod
from atscalm.augment import VOCODER_WIN, AugmentConfig
from atscalm.config import RunConfig
from atscalm.encoder import (AcousticEncoder, EncoderConfig, EncoderSection, _augmented_view,
                             _pair_metrics, _view_window, contrastive_loss, count_flops,
                             embed_corpus, embed_input, load_encoder, mean_cosine_similarity,
                             prepare_input, save_encoder, shortest_view_frames, train_encoder)
from atscalm.features import HOP, N_MELS, WIN, mel_spectrogram
from atscalm.nn import Adam, Tensor, seeded_init
from atscalm.nn.checkpoint import state_arrays
from atscalm.nn.ops import conv2d
from atscalm.util import PipelineError, dataclass_from_dict, keyed_rng
from gradcheck import grad_check
from memtrace import traced_peak
from tiny_chain import DURATION_S, TINY_CONFIG


def count_parameters(model) -> int:
    return sum(p.data.size for p in model.params.values())


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
        cfg = EncoderConfig(widths=(8, 16, 32, 64))
        model = AcousticEncoder(cfg, seed=0)
        assert count_parameters(model) == layer_count_oracle(
            cfg.widths, cfg.blocks, cfg.proj_dim)

    def test_backbone_plus_head_decomposition(self):
        model = AcousticEncoder(EncoderConfig(), seed=0)
        head = model.params["proj.w"].data.size + model.params["proj.b"].data.size
        assert head == 512 * 128 + 128 == 65_664
        assert count_parameters(model) - head == 11_170_240

    def test_same_seed_identical_init(self):
        a = AcousticEncoder(EncoderConfig(widths=(8, 16, 32, 64)), seed=5)
        b = AcousticEncoder(EncoderConfig(widths=(8, 16, 32, 64)), seed=5)
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

    @pytest.mark.parametrize("cfg,hw", [
        (EncoderConfig(), (64, 64)),
        (EncoderConfig(widths=(8, 16, 32, 64)), (40, 101)),
        (EncoderConfig(widths=(8, 8, 16), blocks=(1, 3, 2), proj_dim=4), (64, 256)),
    ], ids=["default", "width-0.125", "widths-8-8-16"])
    def test_matches_traced_forward(self, monkeypatch, cfg, hw):
        """count_flops equals the conv FLOPs of one real forward pass, taken
        from the shapes conv2d sees, plus the projection head."""
        model = AcousticEncoder(cfg, 0)
        traced = []

        def counted(x, w, **kw):
            y = conv2d(x, w, **kw)
            traced.append(2 * w.data.size * y.data.shape[2] * y.data.shape[3])
            return y

        monkeypatch.setattr(encoder_mod, "conv2d", counted)
        model.forward(Tensor(np.zeros((1, 1) + hw)), train=False)
        assert count_flops(model, hw) == sum(traced) + 2 * model.proj_w.data.size

    def test_stem_weight_size(self):
        model = AcousticEncoder(EncoderConfig(), 0)
        assert model.params["stem.conv"].data.size == 64 * 1 * 7 * 7 == 3136
        assert (model.params["stem.bn.gamma"].data.size
                + model.params["stem.bn.beta"].data.size) == 128


def pair_batch(key, b=4, dim=6):
    """(2B, D): B view-0 rows, then B view-1 rows."""
    return keyed_rng("cl", key).normal(0, 1, (2 * b, dim))


class TestContrastiveLoss:
    def test_identical_batches_zero(self):
        p = keyed_rng("cl", 0).normal(0, 1, (4, 8))
        assert contrastive_loss(Tensor(np.concatenate([p, p]))).item() == 0.0

    def test_hand_value(self):
        pair = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert contrastive_loss(pair).item() == pytest.approx(2.0)

    def test_symmetry(self):
        e = pair_batch(1, 3, 5)
        swapped = np.concatenate([e[3:], e[:3]])
        assert contrastive_loss(Tensor(e)).item() == pytest.approx(
            contrastive_loss(Tensor(swapped)).item())

    def test_nonnegative_and_zero_iff_equal(self):
        a = keyed_rng("cl", 3).normal(0, 1, (4, 6))
        loss = contrastive_loss(Tensor(np.concatenate([a, a + 1e-7]))).item()
        assert loss > 0
        assert contrastive_loss(Tensor(np.concatenate([a, a.copy()]))).item() <= 1e-12

    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_gradient_is_the_closed_form_bit_for_bit(self, b):
        """[2*(s*d); -2*(s*d)] with d the pair differences and s = 1/B."""
        e = pair_batch(("grad", b), b, 7)
        emb = Tensor(e, requires_grad=True)
        contrastive_loss(emb).backward()
        sd = (1.0 / b) * (e[:b] - e[b:])
        want = np.concatenate([2.0 * sd, -2.0 * sd])
        assert emb.grad.tobytes() == want.tobytes()

    def test_grad_check(self):
        emb = Tensor(pair_batch(4, 3, 4), requires_grad=True)
        assert grad_check(lambda: contrastive_loss(emb), [emb]) < 1e-8

    @pytest.mark.parametrize("shape", [(3, 4), (0, 4), (6,), (2, 2, 2)])
    def test_odd_or_not_2d_batch_named(self, shape):
        with pytest.raises(PipelineError, match=r"contrastive batch must be \(2B, D\)"):
            contrastive_loss(Tensor(np.zeros(shape)))

    def test_one_adam_step_decreases_pair_loss(self):
        # frozen-stats forward: batch-2 train-mode batchnorm has knife-edge
        # curvature that defeats any fixed step size
        cfg = EncoderConfig(widths=(4, 8, 16, 32), proj_dim=4, frames=8)
        for seed in range(20):
            model = AcousticEncoder(cfg, seed=seed)
            x = Tensor(keyed_rng("pair", seed).normal(0, 1, (2, 1, 8, 8)))
            before = contrastive_loss(model.forward(x, train=False))
            opt = Adam(model.params, lr=1e-3)
            before.backward()
            opt.step()
            after = contrastive_loss(model.forward(x, train=False))
            assert after.item() < before.item(), f"seed {seed}"


class TestFloat32:
    """The encoder's float32 compute against float64 compute at the same
    (float32-rounded) weights."""

    @pytest.mark.parametrize("cfg", [EncoderConfig(widths=(8, 16, 32, 64), frames=128),
                                     EncoderConfig()], ids=["narrow", "default"])
    def test_embeddings_and_gradients_match_float64(self, cfg):
        """The embeddings agree to 1e-5 of their largest value and every
        parameter gradient to 1e-2 in relative L2 norm, except ``proj.b``'s:
        a shared bias cancels in each pair difference, so its exact
        gradient is 0 and both runs leave only rounding there."""
        model = AcousticEncoder(cfg, seed=3)
        wide = AcousticEncoder(cfg, seed=3)
        for p in wide.params.values():
            p.data = p.data.astype(np.float64)
        x = keyed_rng("f32", 0).normal(-4.0, 3.0, (4, 1, 64, cfg.frames))
        runs = []
        for m, dtype in ((model, np.float32), (wide, np.float64)):
            emb = m.forward(Tensor(x.astype(dtype)), train=True)
            contrastive_loss(emb).backward()
            assert {p.grad.dtype for p in m.params.values()} == {np.dtype(dtype)}
            runs.append((emb.data.astype(np.float64),
                         {n: p.grad.astype(np.float64) for n, p in m.params.items()},
                         m.embed(list(x[:, 0]))))
        (e32, g32, eval32), (e64, g64, eval64) = runs
        assert np.max(np.abs(e32 - e64)) <= 1e-5 * np.max(np.abs(e64))
        assert eval32.dtype == np.float64
        assert np.max(np.abs(eval32 - eval64)) <= 1e-5 * np.max(np.abs(eval64))
        for name in g64:
            if name != "proj.b":
                rel = np.linalg.norm(g32[name] - g64[name]) / np.linalg.norm(g64[name])
                assert rel <= 1e-2, f"{name}: relative L2 error {rel:.3g}"
        scale = np.linalg.norm(g64["proj.w"])
        assert np.linalg.norm(g32["proj.b"]) <= 1e-6 * scale

    def test_parameters_are_float32_roundings_of_the_draws(self):
        model = AcousticEncoder(EncoderConfig(widths=(4, 8, 16, 32), proj_dim=8), seed=5)
        draw = seeded_init(model.stem_w.data.shape, "kaiming-uniform", (5, "stem.conv"))
        assert {p.data.dtype for p in model.params.values()} == {np.dtype(np.float32)}
        assert {b.data.dtype for b in model.buffers.values()} == {np.dtype(np.float64)}
        assert np.array_equal(model.stem_w.data, draw.data.astype(np.float32))


class TestTrainStepMemory:
    def test_full_width_step_holds_no_columns(self):
        """A default-width forward and backward on one pair of 64x256 views
        peaks within 70 MB above its 89.9 MB of gradients (30 MB here, 49 MB
        with unfused batchnorm tails). If the conv closures held their
        im2col columns, the 67 MB of them would be alive at once at the
        start of backward (83 MB above)."""
        model = AcousticEncoder(EncoderConfig(), seed=0)
        x = Tensor(keyed_rng("step", 0).normal(0, 1, (2, 1, 64, 256)))

        _, peak, _ = traced_peak(lambda: contrastive_loss(model.forward(x, train=True)).backward())
        grads = sum(p.grad.nbytes for p in model.params.values())
        assert peak <= grads + 70e6, f"peak {peak / 1e6:.1f} MB, gradients {grads / 1e6:.1f} MB"

    def test_train_forward_holds_each_activation_once(self):
        """The graph of a default-width train-mode forward on one pair of
        64x256 views holds 27.4 MB: each conv output and each fused
        batchnorm output. With a separate add and relu after each batchnorm,
        and ``xhat`` kept for backward, it held 57.2 MB."""
        model = AcousticEncoder(EncoderConfig(), seed=0)
        x = Tensor(keyed_rng("step", 0).normal(0, 1, (2, 1, 64, 256)))
        emb, _, held = traced_peak(lambda: model.forward(x, train=True))
        assert emb.requires_grad
        assert held <= 40e6, f"the forward graph holds {held / 1e6:.1f} MB"


class TestPrepareInput:
    def _grid(self, frames):
        return dsp.Grid(keyed_rng("grid", frames).normal(0, 1, (8, frames)))

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


class TestEmbedInput:
    """`embed_input` mels only the samples of the kept frames, and gives the
    grid of the whole clip's mel, cropped or padded."""

    @staticmethod
    def _clip(n, rate=16000):
        return (np.sin(2 * np.pi * 220.0 * np.arange(n) / rate)
                + 0.1 * keyed_rng("embed-input", n).normal(0, 1, n))

    @pytest.mark.parametrize("seconds,frames", [(30.0, 256), (10.0, 256), (1.0, 64),
                                                (1.0, 256), (0.05, 8)],
                             ids=["30s", "10s", "1s", "1s-padded", "short-padded"])
    def test_equals_prepare_input_of_the_whole_clip(self, seconds, frames):
        """Bit for bit on a long clip and on the tiny chain's, and on clips
        shorter than ``frames``, which are taken whole."""
        rate = 16000
        x = self._clip(int(seconds * rate), rate)
        got = embed_input(x, rate, frames)
        assert np.array_equal(got, prepare_input(mel_spectrogram(x, rate), frames))
        assert got.shape == (N_MELS, frames)

    @pytest.mark.parametrize("frames", [64, 255, 256])
    def test_within_an_ulp_at_every_length(self, frames):
        """The filterbank product is a GEMM, and a BLAS may round a column
        differently when the product has another width: OpenBLAS does for a
        clip with 2 to 7 frames more than ``frames``, and for a width that
        is not a multiple of 8. Those columns differ by at most an ulp."""
        rate = 16000
        for n_frames in range(frames, frames + 12):
            x = self._clip((n_frames - 1) * HOP + WIN + n_frames % 7, rate)
            want = prepare_input(mel_spectrogram(x, rate), frames)
            got = embed_input(x, rate, frames)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), n_frames

    def test_long_clip_mels_only_the_kept_frames(self, monkeypatch):
        seen = []
        mel = encoder_mod.features.mel_spectrogram

        def record(x, rate):
            seen.append(x.size)
            return mel(x, rate)

        monkeypatch.setattr(encoder_mod.features, "mel_spectrogram", record)
        embed_input(np.ones(16000 * 30), 16000, 256)
        assert seen == [255 * HOP + WIN]


class TestAugmentedView:
    """Crop-first views: a clip longer than the crop window is center-cropped
    before its variant is drawn."""

    FRAMES = 64
    # ((frames - 1) * hop + win) * max stretch + 2 vocoder windows, at the
    # default 160/400 hop and window.
    WINDOW = math.ceil(((FRAMES - 1) * 160 + 400) * 1.25) + 2 * VOCODER_WIN

    @staticmethod
    def _clip(n, rate=16000):
        t = np.arange(n) / rate
        return np.sin(2 * np.pi * 220.0 * t) + 0.1 * keyed_rng("view", n).normal(0, 1, n)

    @staticmethod
    def _record(monkeypatch):
        """Sizes of the clips make_variant receives, and frame counts of the
        grids prepare_input receives."""
        seen = {"samples": [], "frames": []}
        make_variant, prepare = augment.make_variant, encoder_mod.prepare_input

        def variant(x, rate, cfg, rng):
            seen["samples"].append(x.size)
            return make_variant(x, rate, cfg, rng)

        def prep(grid, frames):
            seen["frames"].append(grid.n_frames)
            return prepare(grid, frames)

        monkeypatch.setattr(augment, "make_variant", variant)
        monkeypatch.setattr(encoder_mod, "prepare_input", prep)
        return seen

    @pytest.mark.parametrize("n", [WINDOW + 1, 32000])
    def test_long_clip_keeps_frames_at_largest_stretch_and_pitch(self, monkeypatch, n):
        aug = AugmentConfig(stretch_range=(1.25, 1.25), pitch_range_semitones=2.0)
        shift = augment.pitch_shift
        monkeypatch.setattr(augment, "pitch_shift", lambda x, rate, s, stretch:
                            shift(x, rate, math.copysign(2.0, s), stretch))
        seen = self._record(monkeypatch)
        for view in range(4):
            _augmented_view("c", self._clip(n), 16000, aug, EncoderConfig(frames=self.FRAMES),
                            0, 0, view)
        assert seen["samples"] == [self.WINDOW] * 4
        assert min(seen["frames"]) >= self.FRAMES      # prepare_input never pads
        # every view is stretched by the largest rate: the config check's count
        assert seen["frames"] == [shortest_view_frames(self.FRAMES, 1.25)] * 4

    def test_short_clip_view_is_uncropped(self, monkeypatch):
        x, aug = self._clip(self.WINDOW - 3000), AugmentConfig()
        cid = f"c{x.size}"
        rng = keyed_rng(7, "enc-view", cid, 1, 0)
        grid = mel_spectrogram(augment.make_variant(x, 16000, aug, rng), 16000)
        assert grid.n_frames == 69
        # cut to the kept frames first, then mask
        want = augment.spec_mask(prepare_input(grid, self.FRAMES), aug.freq_mask_max,
                                 aug.time_mask_max, keyed_rng(7, "enc-mask", cid, 1, 0))
        seen = self._record(monkeypatch)
        got = _augmented_view(cid, x, 16000, aug, EncoderConfig(frames=self.FRAMES), 7, 1, 0)
        assert seen["samples"] == [x.size]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [WINDOW + 1, 32000])
    def test_long_clip_mask_drawn_over_kept_frames(self, monkeypatch, n):
        aug = AugmentConfig(time_mask_max=self.FRAMES)
        masked = []
        spec_mask = augment.spec_mask

        def record(values, f_max, t_max, rng):
            masked.append(values.shape[1])
            return spec_mask(values, f_max, t_max, rng)

        monkeypatch.setattr(augment, "spec_mask", record)
        for view in range(4):
            got = _augmented_view("c", self._clip(n), 16000, aug,
                                  EncoderConfig(frames=self.FRAMES), 0, 0, view)
            assert got.shape[1] == self.FRAMES
        assert masked == [self.FRAMES] * 4

    @pytest.mark.parametrize("n,message", [
        (300, r"Music/c1: clip of 300 samples is shorter than one vocoder window \(1024\)"),
        (1500, r"Music/c1: mask maxima \(8 bins, 20 frames\) exceed the grid shape"),
    ])
    def test_view_failure_names_the_clip(self, n, message):
        with pytest.raises(PipelineError, match=f"^{message}"):
            _augmented_view("Music/c1", self._clip(n), 16000, AugmentConfig(),
                            EncoderConfig(frames=self.FRAMES), 0, 0, 0)

    def test_tiny_chain_takes_the_crop_path(self, monkeypatch):
        """So the chain's rerun and --jobs tests cover the crop."""
        cfg = dataclass_from_dict(RunConfig, TINY_CONFIG)
        x = self._clip(int(DURATION_S * cfg.rate), cfg.rate)
        seen = self._record(monkeypatch)
        _augmented_view("c", x, cfg.rate, cfg.augment, cfg.encoder.architecture(), 3, 0, 0)
        assert seen["samples"][0] < x.size
        assert seen["frames"][0] >= cfg.encoder.frames


class TestTrainEmbed:
    @pytest.fixture(scope="class")
    @classmethod
    def corpus(cls, tmp_path_factory):
        root = tmp_path_factory.mktemp("enc-corpus")
        return aio.synth_corpus(str(root), aio.SynthConfig(n_per_class=2, duration_s=1.0),
                                aio.DEFAULT_CLASS_DIRS, 16000, seed=4)

    DATA_KW = {"target_rate": 16000, "jobs": 1}

    def _cfg(self):
        return EncoderConfig(widths=(4, 8, 16, 32), proj_dim=8, frames=32)

    def _section(self, **schedule):
        """`_cfg`'s architecture with the given training schedule."""
        return EncoderSection(**asdict(self._cfg()), val_fraction=0.25, **schedule)

    def _aug(self):
        return AugmentConfig(noise_sigma_rel=0.005, stretch_range=(0.95, 1.05),
                             pitch_range_semitones=0.25, freq_mask_max=2,
                             time_mask_max=4)

    def test_lr_zero_leaves_parameters(self, corpus):
        model, _ = train_encoder(corpus, self._section(epochs=2, lr=0.0, batch_pairs=3),
                                 self._aug(), seed=4, **self.DATA_KW)
        fresh = AcousticEncoder(self._cfg(), seed=4)
        for name in fresh.params:
            assert np.array_equal(model.params[name].data, fresh.params[name].data)

    def test_same_seed_identical_history(self, corpus):
        _, h1 = train_encoder(corpus, self._section(epochs=2, lr=1e-3, batch_pairs=3),
                              self._aug(), seed=4, **self.DATA_KW)
        _, h2 = train_encoder(corpus, self._section(epochs=2, lr=1e-3, batch_pairs=3),
                              self._aug(), seed=4, **self.DATA_KW)
        assert h1 == h2

    def test_logs_one_line_per_epoch(self, corpus, caplog):
        with caplog.at_level(logging.INFO, logger="atscalm.encoder"):
            _, history = train_encoder(corpus,
                                       self._section(epochs=2, lr=1e-3, batch_pairs=3),
                                       self._aug(), seed=4, **self.DATA_KW)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "atscalm.encoder" and r.levelno == logging.INFO]
        assert len(lines) == 2
        assert lines[-1].startswith("encoder epoch 2/2:")
        assert f"{history[-1]['train_loss']:.6g}" in lines[-1]

    def test_embed_corpus_shapes_and_determinism(self, corpus, tmp_path):
        model, _ = train_encoder(corpus, self._section(epochs=1, lr=1e-3, batch_pairs=3),
                                 self._aug(), seed=4, **self.DATA_KW)
        x = embed_corpus(model, corpus, target_rate=16000, jobs=1)
        assert x.shape == (len(corpus.entries), 8)
        assert np.array_equal(x, embed_corpus(model, corpus,
                                              target_rate=16000, jobs=1))
        path = str(tmp_path / "enc.ckpt")
        save_encoder(model, path)
        back, meta = load_encoder(path)
        assert np.array_equal(x, embed_corpus(back, corpus,
                                              target_rate=16000, jobs=1))

    def test_embed_memory_follows_the_batch_not_the_corpus(self, tmp_path):
        """Each batch of 16 is embedded as the walk makes it, so 96 clips
        peak no higher than 24 do, under 1.2x; holding every input until
        the walk ends peaked at 1.42x."""
        model = AcousticEncoder(EncoderConfig(widths=(4, 8, 16, 32), proj_dim=8, frames=64),
                                seed=0)
        mans = [aio.synth_corpus(str(tmp_path / str(n)),
                                 aio.SynthConfig(n_per_class=n, duration_s=0.5),
                                 aio.DEFAULT_CLASS_DIRS, 16000, seed=5)
                for n in (8, 32)]  # 24 and 96 clips
        for jobs in (1, 2):
            peaks = [traced_peak(lambda: embed_corpus(model, man,
                                                      target_rate=16000, jobs=jobs))[1]
                     for man in mans]
            assert peaks[1] <= 1.2 * peaks[0], f"jobs {jobs}: peaked at {peaks} bytes"

    def test_val_loss_is_contrastive_loss_of_the_pair_batch(self, corpus):
        cfg, aug = self._cfg(), self._aug()
        model = AcousticEncoder(cfg, seed=2)
        clips = [(e.clip_id, corpus.load_clip(e, target_rate=16000)) for e in corpus.entries[:4]]
        loss, cos = _pair_metrics(model, clips, 16000, aug, 5, 1, "val")
        p1, p2 = (model.embed([_augmented_view(cid, x, 16000, aug, cfg, (5, "val"), 1, view)
                               for cid, x in clips]) for view in (0, 1))
        assert loss == contrastive_loss(Tensor(np.concatenate([p1, p2]))).item()
        assert cos == mean_cosine_similarity(p1, p2)
        # the per-pair mean it replaced differs by summation order only
        want = float(np.mean(np.sum((p1 - p2) ** 2, axis=1)))
        assert loss == pytest.approx(want, rel=1e-15, abs=0)

    def test_training_holds_each_clip_as_its_view_window(self, tmp_path, monkeypatch):
        """Clips longer than the view window reach the views as copies of
        their centre window, not as views into the whole clip."""
        corpus = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=1, duration_s=3.0),
                                  aio.DEFAULT_CLASS_DIRS, 16000, seed=4)
        cfg, aug = self._cfg(), self._aug()
        window = _view_window(cfg.frames, aug.stretch_range[1])
        seen = []
        view = encoder_mod._augmented_view

        def record(clip_id, x, *rest):
            seen.append((x.size, x.base is None))
            return view(clip_id, x, *rest)

        monkeypatch.setattr(encoder_mod, "_augmented_view", record)
        train_encoder(corpus, self._section(epochs=1, lr=1e-3, batch_pairs=3), aug, seed=4,
                      **self.DATA_KW)
        assert window < 3 * 16000
        assert seen and set(seen) == {(window, True)}

    def test_float64_checkpoint_loads_and_embeds(self, corpus, tmp_path):
        """A checkpoint with every tensor stored as ``<f8`` loads each one as
        float64 and embeds as the float64 model does."""
        model = AcousticEncoder(self._cfg(), seed=4)
        for p in model.params.values():
            p.data = p.data.astype(np.float64)
        path = str(tmp_path / "f8.ckpt")
        save_encoder(model, path)
        with open(path, "rb") as fh:
            assert b'"<f4"' not in fh.read()
        back, _ = load_encoder(path)
        assert {a.dtype for a in state_arrays(back).values()} == {np.dtype(np.float64)}
        x = embed_corpus(back, corpus, target_rate=16000, jobs=1)
        assert x.dtype == np.float64 and np.all(np.isfinite(x))
        assert np.array_equal(x, embed_corpus(model, corpus,
                                              target_rate=16000, jobs=1))

    def test_checkpoint_independent_of_blas_threads(self, tmp_path):
        """`train-encoder` on a narrow config writes the same checkpoint
        bytes at 1 and at 2 OpenBLAS threads: no float32 GEMM result may
        depend on how OpenBLAS splits it."""
        corpus = tmp_path / "corpus"
        aio.synth_corpus(str(corpus), aio.SynthConfig(n_per_class=2, duration_s=1.0),
                         aio.DEFAULT_CLASS_DIRS, 16000, seed=2)
        config = tmp_path / "narrow.json"
        config.write_text('{"encoder": {"widths": [8, 16, 32, 64], "frames": 64, "epochs": 2}}')
        blobs = set()
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", "import sys; from atscalm.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", "--config", str(config),
                            "--seed", "2", "--out", str(out), "train-encoder", str(corpus)],
                           env=env, check=True, capture_output=True)
            blobs.add((out / "encoder.ckpt").read_bytes())
        assert len(blobs) == 1

    def test_needs_two_clips(self):
        man = aio.CorpusManifest(entries=[])
        with pytest.raises(PipelineError):
            train_encoder(man, self._section(epochs=1, lr=1e-3, batch_pairs=8),
                          self._aug(), seed=0, **self.DATA_KW)


class TestCosine:
    def test_identical_vectors(self):
        a = keyed_rng("cos", 0).normal(0, 1, (5, 8))
        assert mean_cosine_similarity(a, a.copy()) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert mean_cosine_similarity(a, b) == pytest.approx(0.0, abs=1e-12)
