import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atscalm import dsp
from atscalm.util import PipelineError, keyed_rng
from memtrace import traced_peak


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


def dct2(x):
    return dsp.dct2_matrix(len(x), len(x)) @ np.asarray(x, dtype=np.float64)


def direct_dct2(x):
    m = len(x)
    out = np.zeros(m)
    for n in range(m):
        for i in range(m):
            out[n] += x[i] * np.cos(np.pi / m * (i + 0.5) * n)
    return out


class TestDct2:
    def test_constant(self):
        c = dct2(np.full(16, 3.0))
        assert c[0] == pytest.approx(48.0)
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_single_basis(self):
        m = 32
        x = np.cos(np.pi / m * (np.arange(m) + 0.5) * 3)
        c = dct2(x)
        assert c[3] == pytest.approx(m / 2, abs=1e-10)
        others = np.delete(c, 3)
        assert np.max(np.abs(others)) < 1e-10

    def test_random_vs_double_loop(self):
        x = keyed_rng("dct", 1).normal(0, 1, 40)
        assert np.max(np.abs(dct2(x) - direct_dct2(x))) < 1e-10

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**31), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, n, seed, a, b):
        rng = keyed_rng("dct-lin", seed)
        x, y = rng.normal(0, 1, n), rng.normal(0, 1, n)
        lhs = dct2(a * x + b * y)
        rhs = a * dct2(x) + b * dct2(y)
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

    def test_minute_clip_peaks_at_4x_its_bytes(self):
        # the one-sided bins (1x), ifft's complex result (2x) and the envelope (1x)
        x = keyed_rng("env-peak", 0).normal(0, 1, 60 * 16000)
        env, peak, _ = traced_peak(lambda: dsp.analytic_envelope(x))
        assert peak <= 4.5 * x.nbytes, f"peaked at {peak / x.nbytes:.2f}x"
        assert env.shape == x.shape and env.dtype == np.float64

    @pytest.mark.parametrize("n", [64, 255, 1000, 4097])
    def test_matches_scipy_hilbert(self, n):
        signal = pytest.importorskip("scipy.signal")
        x = keyed_rng("env-scipy", n).normal(0, 1, n)
        assert np.max(np.abs(dsp.analytic_envelope(x) - np.abs(signal.hilbert(x)))) < 1e-13


class TestStft:
    def test_frame_count(self):
        grid = dsp.stft(np.zeros(16000), 400, 160, n_fft=512)
        assert grid.n_frames == 98

    def test_hann_dc(self):
        # the periodic Hann window of length n sums to n/2
        grid = dsp.stft(np.ones(1024), 128, 64, n_fft=128)
        mags = np.abs(grid.values[0])
        assert np.allclose(mags, 64.0, atol=1e-9)

    def test_parseval_per_frame(self):
        x = keyed_rng("stft", 2).normal(0, 1, 2000)
        win_len, hop = 256, 100
        grid = dsp.stft(x, win_len, hop, n_fft=win_len)
        assert grid.values.shape == (win_len // 2 + 1, grid.n_frames)
        w = dsp.hann(win_len)
        # one-sided bins: DC and Nyquist once, every other bin for itself and its mirror
        weights = np.full(win_len // 2 + 1, 2.0)
        weights[0] = weights[-1] = 1.0
        for m in range(grid.n_frames):
            seg = x[m * hop : m * hop + win_len] * w
            lhs = np.sum(weights * np.abs(grid.values[:, m]) ** 2) / win_len
            rhs = np.sum(seg**2)
            assert abs(lhs - rhs) / max(rhs, 1e-12) < 1e-6

    def test_hann_overlap_add_reconstruction(self):
        # periodic Hann frames at half-window hop sum to 1, so overlap-adding
        # the inverted frames returns every sample two frames cover
        x = keyed_rng("stft-tile", 3).normal(0, 1, 1024)
        win, hop = 128, 64
        grid = dsp.stft(x, win, hop, n_fft=win)
        rec = np.zeros(x.size)
        for m in range(grid.n_frames):
            rec[m * hop : m * hop + win] += np.fft.irfft(grid.values[:, m], n=win)[:win]
        assert np.max(np.abs(rec[hop:-hop] - x[hop:-hop])) < 1e-9

    def test_short_signal_rejected(self):
        with pytest.raises(PipelineError):
            dsp.stft(np.zeros(100), 256, 64, n_fft=256)


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
        assert fb.shape == (64, 257)
        assert np.all(fb >= 0)
        assert np.allclose(fb.max(axis=1), 1.0)
        for row in fb:
            nz = np.flatnonzero(row > 0)
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))
        assert not fb.flags.writeable   # the cached filterbank is shared

    def test_centers_increasing_and_equally_spaced(self):
        # filter k peaks at mel corner k + 1: at the bin nearest it
        fb = dsp.build_mel_filterbank(4, 512, 16000, 0.0, 8000.0)
        centers_hz = dsp.mel_to_hz(np.linspace(0.0, dsp.mel_scale(8000.0), 6))[1:-1]
        bin_hz = 16000 / 512
        assert np.all(np.abs(np.argmax(fb, axis=1) * bin_hz - centers_hz) <= bin_hz / 2)
        assert np.all(np.diff(centers_hz) > 0)
        gaps = np.diff(dsp.mel_scale(centers_hz))
        assert np.max(np.abs(gaps - gaps[0])) < 1e-9

    def test_infeasible_spacing(self):
        with pytest.raises(PipelineError):
            dsp.build_mel_filterbank(64, 64, 16000, 0.0, 200.0)
