import numpy as np
import pytest

from atscalm import dsp, features
from atscalm.audio_io import ClassLabel
from atscalm.util import PipelineError, keyed_rng


RATE = 16000


def tone_clip(f_hz, duration=1.0, amp=1.0):
    t = np.arange(int(duration * RATE)) / RATE
    return amp * np.cos(2 * np.pi * f_hz * t)


class TestMelSpectrogram:
    def test_default_shape(self):
        grid = features.mel_spectrogram(tone_clip(1000.0), RATE)
        assert grid.values.shape == (64, 98)

    def test_silence_floor(self):
        grid = features.mel_spectrogram(np.zeros(16000), RATE)
        assert np.allclose(grid.values, np.log(features.LOG_EPS))

    def test_tone_lands_in_nearest_mel_bin(self):
        grid = features.mel_spectrogram(tone_clip(1000.0), RATE)
        edges_mel = np.linspace(dsp.mel_scale(features.F_LO), dsp.mel_scale(features.F_HI),
                                features.N_MELS + 2)
        energy_by_bin = grid.values.mean(axis=1)
        best = int(np.argmax(energy_by_bin))
        nearest = int(np.argmin(np.abs(dsp.mel_to_hz(edges_mel[1:-1]) - 1000.0)))
        assert abs(best - nearest) <= 1

    def test_monotone_in_power(self):
        quiet = features.mel_spectrogram(tone_clip(500.0, amp=0.1), RATE)
        loud = features.mel_spectrogram(tone_clip(500.0, amp=0.9), RATE)
        assert np.all(loud.values >= quiet.values - 1e-9)


def mfcc_two_loop_oracle(x, n_fft=512, win=400, hop=160, n_mels=64, f_hi=8000.0, eps=1e-10):
    """Independent implementation: explicit mel sums and DCT sums, at the
    front end's sizes written out."""
    grid = dsp.stft(x, win, hop, n_fft=n_fft)
    half = n_fft // 2 + 1
    assert grid.values.shape[0] == half
    power = np.abs(grid.values) ** 2
    fb = dsp.build_mel_filterbank(n_mels, n_fft, RATE, 0.0, f_hi)
    out = np.zeros((13, grid.n_frames))
    for frame in range(grid.n_frames):
        logmel = np.zeros(n_mels)
        for k in range(n_mels):
            acc = 0.0
            for b in range(half):
                acc += fb[k, b] * power[b, frame]
            logmel[k] = np.log(acc + eps)
        for n in range(13):
            acc = 0.0
            for m in range(n_mels):
                acc += logmel[m] * np.cos(np.pi / n_mels * (m + 0.5) * n)
            out[n, frame] = acc
    return out.mean(axis=1)


class TestMfcc:
    def test_silence(self):
        got = features.mfcc13(np.zeros(16000), RATE)
        assert got[0] == pytest.approx(64 * np.log(1e-10), rel=1e-9)
        assert np.max(np.abs(got[1:])) < 1e-9

    def test_length_13(self):
        assert features.mfcc13(tone_clip(440.0), RATE).shape == (13,)

    def test_white_noise_vs_two_loop_oracle(self):
        x = keyed_rng("mfcc", 0).normal(0, 0.3, 4000)
        got = features.mfcc13(x, RATE)
        want = mfcc_two_loop_oracle(x)
        assert np.max(np.abs(got - want)) < 1e-6


class TestZcr:
    def test_all_positive(self):
        assert features.zcr(np.ones(100)) == 0.0

    def test_alternating(self):
        x = np.empty(100)
        x[::2], x[1::2] = 1.0, -1.0
        assert features.zcr(x) == 1.0

    def test_50hz_tone_brute_force(self):
        x = tone_clip(50.0, duration=1.0)
        brute = sum(1 for i in range(1, x.size) if x[i] * x[i - 1] < 0)
        assert brute == 100
        assert features.zcr(x) == pytest.approx(100 / 15999)

    @pytest.mark.parametrize("f_hz", [20.0, 25.0, 50.0])
    def test_crossings_on_zero_samples_give_the_tone_rate(self, f_hz):
        """A 16-bit tone whose every crossing is a sample of exactly 0, over
        one second plus the closing sample: 2 f crossings in RATE pairs."""
        x = np.round(np.sin(2 * np.pi * f_hz * np.arange(RATE + 1) / RATE) * 16384) / 32768
        assert np.count_nonzero(x == 0) == 2 * f_hz + 1
        assert features.zcr(x) == 2 * f_hz / RATE

    def test_bounds(self):
        x = keyed_rng("zcr", 1).normal(0, 1, 500)
        assert 0.0 <= features.zcr(x) <= 1.0


class TestRms:
    def test_constant(self):
        assert features.rms(np.full(50, 0.5)) == pytest.approx(0.5)

    def test_unit_sine(self):
        assert features.rms(tone_clip(100.0, duration=1.0)) == pytest.approx(1 / np.sqrt(2), abs=1e-4)

    def test_zeros(self):
        assert features.rms(np.zeros(10)) == 0.0


def haar_details_oracle(x, levels):
    """Direct recursion with pair sums, no vectorization."""
    details = []
    approx = list(np.asarray(x, float))
    for _ in range(levels):
        if len(approx) % 2 == 1:
            approx = approx + [approx[-1]]
        a2, d2 = [], []
        for i in range(0, len(approx), 2):
            a2.append((approx[i] + approx[i + 1]) / np.sqrt(2))
            d2.append((approx[i] - approx[i + 1]) / np.sqrt(2))
        details.append(np.array(d2))
        approx = a2
    return details


class TestWaveletStats:
    def test_constant_clip_all_zero(self):
        out = features.wavelet_stats(np.full(64, 0.7))
        assert np.max(np.abs(out)) < 1e-12

    def test_impulse_level1_mean(self):
        x = np.zeros(32)
        x[0] = 1.0
        out = features.wavelet_stats(x)
        assert out[0] == pytest.approx((1 / np.sqrt(2)) / 16)

    def test_matches_brute_force_all_levels(self):
        x = keyed_rng("wav", 3).normal(0, 1, 100)
        got = features.wavelet_stats(x)
        want = haar_details_oracle(x, 5)
        for j in range(5):
            assert got[2 * j] == pytest.approx(np.mean(want[j]), abs=1e-12)
            assert got[2 * j + 1] == pytest.approx(np.std(want[j]), abs=1e-12)

    def test_homogeneity(self):
        x = keyed_rng("wav-h", 4).normal(0, 1, 128)
        one = features.wavelet_stats(x)
        two = features.wavelet_stats(2 * x)
        assert np.allclose(two, 2 * one)

    def test_too_short(self):
        with pytest.raises(PipelineError):
            features.wavelet_stats(np.ones(16))


class TestExtractFeatures:
    def test_length_25(self):
        vec = features.extract_features(tone_clip(300.0), RATE)
        assert vec.shape == (25,)

    def test_silence_slots(self):
        vec = features.extract_features(np.zeros(16000), RATE)
        assert vec[13] == 0.0          # zcr
        assert vec[14] == 0.0          # rms
        assert np.all(vec[15:] == 0.0)  # wavelet stats

    def test_compositional(self):
        clip = tone_clip(440.0)
        vec = features.extract_features(clip, RATE)
        assert np.array_equal(vec[:13], features.mfcc13(clip, RATE))
        assert vec[13] == features.zcr(clip)
        assert vec[14] == features.rms(clip)
        assert np.array_equal(vec[15:], features.wavelet_stats(clip))

    def test_scale_behavior(self):
        clip = tone_clip(440.0, amp=0.3)
        scaled = 2.0 * clip
        v1 = features.extract_features(clip, RATE)
        v2 = features.extract_features(scaled, RATE)
        assert v2[14] == pytest.approx(2.0 * v1[14])   # rms covariant
        assert v2[13] == pytest.approx(v1[13])         # zcr invariant


class TestFeaturesCsv:
    def test_roundtrip(self, tmp_path):
        rows = [("a", "Music", np.arange(25.0)),
                ("b", "NormalSilence", np.linspace(-1, 1, 25))]
        path = str(tmp_path / "f.csv")
        features.write_features_csv(path, rows)
        back = features.read_features_csv(path)
        assert [r[0] for r in back] == ["a", "b"]
        assert back[0][1] is ClassLabel.MUSIC and back[1][1] is ClassLabel.NORMAL_SILENCE
        assert np.array_equal(back[0][2], rows[0][2])
        assert np.array_equal(back[1][2], rows[1][2])

    def test_header_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("id,label,not_a_feature\nx,Music,1\n")
        with pytest.raises(PipelineError):
            features.read_features_csv(path)
