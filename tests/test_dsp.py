import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atscalm import dsp
from atscalm.util import PipelineError, keyed_rng


def direct_dft(x):
    """O(N^2) reference transform."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for m in range(n):
            out[k] += x[m] * np.exp(-2j * np.pi * k * m / n)
    return out


class TestFft:
    def test_dc(self):
        spec = dsp.fft([1, 1, 1, 1], 4)
        assert np.allclose(np.abs(spec), [4, 0, 0], atol=1e-12)

    def test_impulse(self):
        spec = dsp.fft([1, 0, 0, 0], 4)
        assert np.allclose(np.abs(spec), np.ones(3), atol=1e-12)

    def test_matches_direct_dft_length_64(self):
        x = keyed_rng("fft", 64).normal(0, 1, 64)
        ref = direct_dft(x)[:33]
        assert np.max(np.abs(dsp.fft(x, 64) - ref)) < 1e-9

    @pytest.mark.parametrize("n", list(range(1, 33)) + [63, 100, 128])
    def test_matches_direct_dft_all_lengths(self, n):
        x = keyed_rng("fft-len", n).normal(0, 1, n)
        n_fft = dsp.next_pow2(n)
        spec = dsp.fft(x, n_fft)
        padded = np.concatenate([x, np.zeros(n_fft - n)])
        ref = direct_dft(padded)[: n_fft // 2 + 1]
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(spec - ref)) / scale < 1e-9

    def test_padding_metadata(self):
        spec = dsp.fft(np.ones(5), 8)
        assert spec.shape == (8 // 2 + 1,)
        assert spec[0] == pytest.approx(5.0)
        with pytest.raises(PipelineError, match="smaller than"):
            dsp.fft(np.ones(5), 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(PipelineError):
            dsp.fft([1.0, np.nan], 2)


class TestMagnitude:
    def test_three_four_five(self):
        # X[1] = x0 - x2 - i (x1 - x3) = 3 - 4i
        assert np.abs(dsp.fft([3.0, 4.0, 0.0, 0.0], 4))[1] == pytest.approx(5.0)

    def test_zero(self):
        assert np.all(np.abs(dsp.fft(np.zeros(8), 8)) == 0)

    def test_random_vs_formula(self):
        x = keyed_rng("mag", 0).normal(0, 1, 32)
        ref = direct_dft(x)[:17]
        assert np.allclose(np.abs(dsp.fft(x, 32)), np.sqrt(ref.real**2 + ref.imag**2))


def direct_dct2(x):
    m = len(x)
    out = np.zeros(m)
    for n in range(m):
        for i in range(m):
            out[n] += x[i] * np.cos(np.pi / m * (i + 0.5) * n)
    return out


class TestDct2:
    def test_constant(self):
        c = dsp.dct2(np.full(16, 3.0))
        assert c[0] == pytest.approx(48.0)
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_single_basis(self):
        m = 32
        x = np.cos(np.pi / m * (np.arange(m) + 0.5) * 3)
        c = dsp.dct2(x)
        assert c[3] == pytest.approx(m / 2, abs=1e-10)
        others = np.delete(c, 3)
        assert np.max(np.abs(others)) < 1e-10

    def test_random_vs_double_loop(self):
        x = keyed_rng("dct", 1).normal(0, 1, 40)
        assert np.max(np.abs(dsp.dct2(x) - direct_dct2(x))) < 1e-10

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**31), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, n, seed, a, b):
        rng = keyed_rng("dct-lin", seed)
        x, y = rng.normal(0, 1, n), rng.normal(0, 1, n)
        lhs = dsp.dct2(a * x + b * y)
        rhs = a * dsp.dct2(x) + b * dsp.dct2(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestAnalyticEnvelope:
    def test_unit_tone(self):
        t = np.arange(16000) / 16000.0
        env = dsp.analytic_envelope(np.cos(2 * np.pi * 100 * t))
        k = 800
        assert np.max(np.abs(env[k:-k] - 1.0)) < 1e-3

    def test_zero_signal(self):
        assert np.all(dsp.analytic_envelope(np.zeros(64)) == 0)

    def test_am_tone(self):
        t = np.arange(16000) / 16000.0
        carrier = np.cos(2 * np.pi * 400 * t)
        mod = 1.0 + 0.5 * np.cos(2 * np.pi * 2 * t)
        env = dsp.analytic_envelope(mod * carrier)
        k = 800
        err = np.sqrt(np.mean((env[k:-k] - mod[k:-k]) ** 2))
        assert err / np.sqrt(np.mean(mod[k:-k] ** 2)) < 0.01

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(st.floats(0.0, 5.0), st.integers(0, 2**31))
    def test_positive_homogeneity(self, alpha, seed):
        x = keyed_rng("env-hom", seed).normal(0, 1, 256)
        lhs = dsp.analytic_envelope(alpha * x)
        rhs = alpha * dsp.analytic_envelope(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, alpha)

    def test_too_short(self):
        with pytest.raises(PipelineError):
            dsp.analytic_envelope(np.ones(4))


class TestStft:
    def test_frame_count(self):
        grid = dsp.stft(np.zeros(16000), 400, 160)
        assert grid.n_frames == 98

    def test_rect_dc(self):
        grid = dsp.stft(np.ones(1024), 128, 64, window_name="rect")
        mags = np.abs(grid.spec[0])
        assert np.allclose(mags, 128.0, atol=1e-9)

    def test_parseval_per_frame(self):
        x = keyed_rng("stft", 2).normal(0, 1, 2000)
        win_len, hop = 256, 100
        grid = dsp.stft(x, win_len, hop)
        assert grid.spec.shape == (grid.n_fft // 2 + 1, grid.n_frames)
        w = dsp.window("hann", win_len)
        # one-sided bins: DC and Nyquist once, every other bin for itself and its mirror
        weights = np.full(grid.n_fft // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        for m in range(grid.n_frames):
            seg = x[m * hop : m * hop + win_len] * w
            lhs = np.sum(weights * np.abs(grid.spec[:, m]) ** 2) / grid.n_fft
            rhs = np.sum(seg**2)
            assert abs(lhs - rhs) / max(rhs, 1e-12) < 1e-6

    def test_rect_tiling_reconstruction(self):
        x = keyed_rng("stft-tile", 3).normal(0, 1, 1024)
        win = 128
        grid = dsp.stft(x, win, win, window_name="rect")
        rec = []
        for m in range(grid.n_frames):
            frame = np.fft.irfft(grid.spec[:, m], n=grid.n_fft)[:win]
            rec.append(frame)
        assert np.max(np.abs(np.concatenate(rec) - x)) < 1e-9

    def test_short_signal_rejected(self):
        with pytest.raises(PipelineError):
            dsp.stft(np.zeros(100), 256, 64)


class TestMel:
    def test_zero(self):
        assert dsp.mel_scale(0.0) == 0.0

    def test_700(self):
        assert dsp.mel_scale(700.0) == pytest.approx(2595.0 * np.log10(2.0), abs=1e-9)

    def test_1000(self):
        assert abs(dsp.mel_scale(1000.0) - 1000.0) < 0.05

    def test_negative_rejected(self):
        with pytest.raises(PipelineError):
            dsp.mel_scale(-1.0)

    def test_filterbank_rows(self):
        fb = dsp.build_mel_filterbank(64, 512, 16000, 0.0, 8000.0)
        assert fb.weights.shape == (64, 257)
        assert np.all(fb.weights >= 0)
        assert np.allclose(fb.weights.max(axis=1), 1.0)
        for row in fb.weights:
            nz = np.flatnonzero(row > 0)
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    def test_centers_increasing_and_equally_spaced(self):
        fb = dsp.build_mel_filterbank(4, 512, 16000, 0.0, 8000.0)
        assert np.all(np.diff(fb.center_hz) > 0)
        mel_centers = dsp.mel_scale(fb.center_hz)
        gaps = np.diff(mel_centers)
        assert np.max(np.abs(gaps - gaps[0])) < 1e-9

    def test_infeasible_spacing(self):
        with pytest.raises(PipelineError):
            dsp.build_mel_filterbank(64, 64, 16000, 0.0, 200.0)
