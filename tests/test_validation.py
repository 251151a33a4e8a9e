import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frontend_oracle
from atscalm import audio_io as aio
from atscalm import dsp
from atscalm import validation as val
from atscalm.util import PipelineError, keyed_rng
from memtrace import traced_peak


RATE = 16000


def tone_clip(f_hz, duration=2.0, amp=1.0):
    t = np.arange(int(duration * RATE)) / RATE
    return amp * np.cos(2 * np.pi * f_hz * t)


def env(x):
    return dsp.analytic_envelope(x)


class TestRmse:
    def test_identical(self):
        x = keyed_rng("rmse", 0).normal(0, 1, 100)
        assert val.rmse(x, x) == 0.0

    def test_hand_value(self):
        assert val.rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(np.sqrt(4 / 3))

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(0, 2**31))
    def test_symmetry(self, seed):
        rng = keyed_rng("rmse-sym", seed)
        x, y = rng.normal(0, 1, 64), rng.normal(0, 1, 64)
        assert val.rmse(x, y) == pytest.approx(val.rmse(y, x))

    def test_length_mismatch(self):
        with pytest.raises(PipelineError):
            val.rmse([1, 2], [1, 2, 3])


class TestReconstruct:
    def test_matched_tone(self):
        clip = tone_clip(25.0)
        theo = val.reconstruct_theoretical(env(clip), RATE, 25.0)
        k = int(0.05 * clip.size)
        err = np.sqrt(np.mean((theo[k:-k] - clip[k:-k]) ** 2))
        assert err < 1e-2

    def test_zero_clip_fails_nonempty_but_reconstruction_zero(self):
        clip = np.zeros(4096)
        theo = val.reconstruct_theoretical(env(clip), RATE, 25.0)
        assert np.all(theo == 0)

    def test_mismatched_frequency_moves_peak(self):
        clip = tone_clip(25.0)
        theo = val.reconstruct_theoretical(env(clip), RATE, 30.0)
        assert abs(frontend_oracle.peak_frequency(theo, RATE) - 30.0) < 1.0

    def test_above_nyquist_rejected(self):
        clip = tone_clip(25.0, duration=0.1)
        with pytest.raises(PipelineError):
            val.reconstruct_theoretical(env(clip), RATE, 9000.0)


class TestEnvelopeStats:
    def test_unit_tone(self):
        clip = tone_clip(100.0, duration=1.0)
        mean, std, energy = val.envelope_stats(clip, env(clip))
        assert mean == pytest.approx(1.0, abs=1e-3)
        assert std < 1e-3
        assert energy == pytest.approx(8000.0, rel=1e-3)

    def test_zero_clip(self):
        clip = np.zeros(1000)
        mean, std, energy = val.envelope_stats(clip, env(clip))
        assert (mean, std, energy) == (0.0, 0.0, 0.0)

    def test_constant_envelope_iff_zero_std(self):
        clip = tone_clip(440.0, duration=1.0)
        mean, std, _ = val.envelope_stats(clip, env(clip))
        assert std < 1e-9 or std < 1e-3  # interior envelope of a pure tone is constant


class TestValidateCorpus:
    def test_synth_matched_models(self, tmp_path):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=1)
        report = val.validate_corpus(man, target_rate=16000, jobs=1)
        for agg in report["per_class"].values():
            assert agg["rmse_mean"] < 0.02

    def test_single_clip_aggregate_equals_record(self, tmp_path):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=1),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=2)
        report = val.validate_corpus(man, target_rate=16000, jobs=1)
        by_id = {r["clip_id"]: r for r in report["per_clip"]}
        for entry in man.entries:
            agg = report["per_class"][entry.label.value]
            rec = by_id[entry.clip_id]
            assert agg["n"] == 1
            assert agg["rmse_mean"] == pytest.approx(rec["rmse"])
            assert agg["env_mean"] == pytest.approx(rec["env_mean"])

    def test_empty_manifest_rejected(self):
        man = aio.CorpusManifest(entries=[])
        with pytest.raises(PipelineError):
            val.validate_corpus(man, target_rate=16000, jobs=1)

    def test_one_envelope_per_clip(self, tmp_path, monkeypatch):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=4)
        calls = []
        envelope = dsp.analytic_envelope

        def counted(x):
            calls.append(x.size)
            return envelope(x)

        monkeypatch.setattr(dsp, "analytic_envelope", counted)
        val.validate_corpus(man, target_rate=16000, jobs=1)
        assert len(calls) == len(man.entries)

    def test_one_fft_per_clip(self, tmp_path, monkeypatch):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=4)
        calls = []
        fft = dsp.fft

        def counted(x, n_fft):
            calls.append(n_fft)
            return fft(x, n_fft)

        monkeypatch.setattr(dsp, "fft", counted)
        val.validate_corpus(man, target_rate=16000, jobs=1)
        assert calls == [dsp.next_pow2(32000)] * len(man.entries)

    def test_mixed_lengths_read_every_peak_on_the_shared_grid(self, tmp_path):
        # 1.0-s and 0.4-s clips: a short clip alone would pad to 8192 points
        entries = []
        for name, duration in (("long", 1.0), ("short", 0.4)):
            man = aio.synth_corpus(str(tmp_path / name),
                                   aio.SynthConfig(n_per_class=1, duration_s=duration),
                                   aio.DEFAULT_CLASS_DIRS, 16000, seed=6)
            entries += [replace(e, path=f"{name}/{e.path}") for e in man.entries]
        man = aio.CorpusManifest(entries=entries, root=str(tmp_path))
        report = val.validate_corpus(man, target_rate=16000, jobs=1)
        n_fft = 16384
        by_id = {r["clip_id"]: r for r in report["per_clip"]}
        for entry in man.entries:
            samples = man.load_clip(entry, target_rate=16000)
            mag = np.abs(np.fft.rfft(samples, n=n_fft))
            got = by_id[entry.clip_id]["peak_hz"]
            assert got == (1 + np.argmax(mag[1:])) * 16000 / n_fft
            assert (got * n_fft / 16000).is_integer()
        for agg in report["per_class"].values():
            assert (agg["peak_hz"] * n_fft / 16000).is_integer()

    def test_jobs_order_independent(self, tmp_path):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=3)
        r1 = val.validate_corpus(man, target_rate=16000, jobs=1)
        r2 = val.validate_corpus(man, target_rate=16000, jobs=4)
        assert r1 == r2

    def test_memory_follows_the_clip_not_the_corpus(self, tmp_path):
        mans = [aio.synth_corpus(str(tmp_path / str(n)),
                                 aio.SynthConfig(n_per_class=n, duration_s=2.0),
                                 aio.DEFAULT_CLASS_DIRS, 16000, seed=5)
                for n in (2, 8)]  # 6 and 24 clips
        for jobs in (1, 2):
            peaks = [traced_peak(lambda: val.validate_corpus(man, target_rate=16000,
                                                             jobs=jobs))[1] for man in mans]
            assert peaks[1] <= 1.5 * peaks[0], f"jobs {jobs}: peaked at {peaks} bytes"

    def test_one_header_read_per_clip(self, tmp_path, monkeypatch):
        """The FFT size comes from the manifest's entries, so each WAV header
        is parsed once, when its clip is loaded."""
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2, duration_s=0.5),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=1)
        paths = []
        read_header = aio._read_header

        def counted(fh, path):
            paths.append(path)
            return read_header(fh, path)

        monkeypatch.setattr(aio, "_read_header", counted)
        val.validate_corpus(man, target_rate=16000, jobs=1)
        assert sorted(paths) == sorted(os.path.join(man.root, e.path) for e in man.entries)

    @pytest.mark.parametrize("rate", [8000, 16000, 22050])
    def test_fft_size_from_headers_matches_loaded_clips(self, tmp_path, rate):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=1, duration_s=0.7),
                               aio.DEFAULT_CLASS_DIRS, 16000, seed=0)
        for entry in man.entries:
            x = man.load_clip(entry, target_rate=rate)
            assert man.clip_length(entry, target_rate=rate) == x.size


class TestScaleInvariance:
    def test_rmse_scales_linearly_with_amplitude(self):
        clip = tone_clip(25.0, amp=0.4)
        base = val.rmse(clip, val.reconstruct_theoretical(env(clip), RATE, 25.0))
        alpha = 2.5
        scaled = alpha * clip
        got = val.rmse(scaled, val.reconstruct_theoretical(env(scaled), RATE, 25.0))
        assert got == pytest.approx(alpha * base, abs=1e-9)
