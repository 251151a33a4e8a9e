import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atscalm import audio_io as aio
from atscalm import validation as val
from atscalm.util import PipelineError, keyed_rng


def tone_clip(f_hz, duration=2.0, rate=16000, amp=1.0, label=None):
    t = np.arange(int(duration * rate)) / rate
    return aio.AudioClip(amp * np.cos(2 * np.pi * f_hz * t), rate, label, f"tone{f_hz}")


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
        model = val.TheoreticalModel(25.0)
        theo = val.reconstruct_theoretical(clip, model)
        k = int(0.05 * clip.samples.size)
        err = np.sqrt(np.mean((theo[k:-k] - clip.samples[k:-k]) ** 2))
        assert err < 1e-2

    def test_zero_clip_fails_nonempty_but_reconstruction_zero(self):
        clip = aio.AudioClip(np.zeros(4096), 16000)
        theo = val.reconstruct_theoretical(clip, val.TheoreticalModel(25.0))
        assert np.all(theo == 0)

    def test_mismatched_frequency_moves_peak(self):
        clip = tone_clip(25.0)
        theo = val.reconstruct_theoretical(clip, val.TheoreticalModel(30.0))
        assert abs(val.peak_frequency(theo, clip.rate) - 30.0) < 1.0

    def test_above_nyquist_rejected(self):
        clip = tone_clip(25.0, duration=0.1)
        with pytest.raises(PipelineError):
            val.reconstruct_theoretical(clip, val.TheoreticalModel(9000.0))

    def test_phase_search_recovers_shifted_tone(self):
        rate = 16000
        t = np.arange(2 * rate) / rate
        clip = aio.AudioClip(np.cos(2 * np.pi * 25 * t + 1.1), rate)
        plain = val.reconstruct_theoretical(clip, val.TheoreticalModel(25.0))
        searched = val.reconstruct_theoretical(clip, val.TheoreticalModel(25.0),
                                               phase_search=True)
        assert val.rmse(clip.samples, searched) < val.rmse(clip.samples, plain)


class TestEnvelopeStats:
    def test_unit_tone(self):
        mean, std, energy = val.envelope_stats(tone_clip(100.0, duration=1.0))
        assert mean == pytest.approx(1.0, abs=1e-3)
        assert std < 1e-3
        assert energy == pytest.approx(8000.0, rel=1e-3)

    def test_zero_clip(self):
        mean, std, energy = val.envelope_stats(aio.AudioClip(np.zeros(1000), 16000))
        assert (mean, std, energy) == (0.0, 0.0, 0.0)

    def test_constant_envelope_iff_zero_std(self):
        mean, std, _ = val.envelope_stats(tone_clip(440.0, duration=1.0))
        assert std < 1e-9 or std < 1e-3  # interior envelope of a pure tone is constant


class TestValidateCorpus:
    def test_synth_matched_models(self, tmp_path):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2, seed=1))
        report = val.validate_corpus(man)
        for agg in report["per_class"].values():
            assert agg["rmse_mean"] < 0.02

    def test_single_clip_aggregate_equals_record(self, tmp_path):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=1, seed=2))
        report = val.validate_corpus(man)
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
            val.validate_corpus(man)

    def test_jobs_order_independent(self, tmp_path):
        man = aio.synth_corpus(str(tmp_path), aio.SynthConfig(n_per_class=2, seed=3))
        r1 = val.validate_corpus(man, jobs=1)
        r2 = val.validate_corpus(man, jobs=4)
        assert r1 == r2


class TestScaleInvariance:
    def test_rmse_scales_linearly_with_amplitude(self):
        clip = tone_clip(25.0, amp=0.4)
        model = val.TheoreticalModel(25.0)
        base = val.rmse(clip.samples, val.reconstruct_theoretical(clip, model))
        alpha = 2.5
        scaled = aio.AudioClip(alpha * clip.samples, clip.rate)
        got = val.rmse(scaled.samples, val.reconstruct_theoretical(scaled, model))
        assert got == pytest.approx(alpha * base, abs=1e-9)
