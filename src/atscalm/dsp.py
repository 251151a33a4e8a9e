"""Deterministic spectral primitives.

One-sided real FFT at a given transform size, un-normalized DCT-II basis,
analytic envelope from the one-sided spectrum, one-sided STFT as a `Grid`,
the Hann window, and the Mel filterbank weights. Every transform size is the
caller's. Everything here is pure and reentrant; a built filterbank is a
read-only array and can be shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import PipelineError


def next_pow2(n: int) -> int:
    if n < 1:
        raise PipelineError(f"length must be >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def fft(x, n_fft: int) -> np.ndarray:
    """One-sided DFT of a real sequence zero-padded to ``n_fft`` samples.

    Returns the n_fft//2 + 1 non-negative frequency bins; at sample rate r
    bin k sits at k * r / n_fft. Matches the direct O(N^2) DFT of the padded
    sequence to better than 1e-9 relative error (exercised by the test-suite
    oracle).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise PipelineError(f"fft expects a non-empty 1-d sequence, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise PipelineError("fft input contains non-finite values")
    if n_fft < x.size:
        raise PipelineError(f"n_fft {n_fft} is smaller than the {x.size}-sample signal")
    return np.fft.rfft(x, n=n_fft)


def dct2_matrix(m: int, n_out: int) -> np.ndarray:
    """The first ``n_out`` rows of the un-normalized DCT-II basis.

    Row n holds cos(pi/M * (m + 0.5) * n); no orthonormalization factors, so
    a constant input c maps to coefficient 0 = M*c and zeros elsewhere.
    """
    if m < 1:
        raise PipelineError("dct2 needs length >= 1")
    ks = np.arange(n_out)[:, None]
    ms = np.arange(m)[None, :] + 0.5
    return np.cos(np.pi / m * ks * ms)


def analytic_envelope(x) -> np.ndarray:
    """Instantaneous amplitude |x + i h|, h the Hilbert transform of x.

    The analytic signal's spectrum is the one-sided one with bins 1 ..
    ceil(n/2) - 1 doubled, DC and an even length's Nyquist bin kept, and
    the negative bins zero: ``ifft`` at length n zero-fills those.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 8:
        raise PipelineError(f"analytic signal needs length >= 8, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise PipelineError("analytic signal input contains non-finite values")
    n = x.size
    spec = np.fft.rfft(x)
    spec[1 : (n + 1) // 2] *= 2.0
    return np.abs(np.fft.ifft(spec, n=n))


def hann(n: int) -> np.ndarray:
    """Periodic Hann window of ``n`` samples."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class Grid:
    """A (bins x frames) time-frequency grid: `stft`'s complex frames or a
    log-mel spectrogram."""

    values: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def stft(x, win_len: int, hop: int, n_fft: int) -> Grid:
    """Short-time Fourier transform, one-sided: (n_fft//2 + 1 bins) x (frames).

    Frame count is 1 + floor((N - win_len)/hop); each frame is Hann-windowed
    then transformed with a real FFT at ``n_fft`` >= win_len, keeping the
    n_fft//2 + 1 non-negative frequency bins. No normalization is applied.
    The values are the transpose of the frame-major ``rfft`` result, so
    ``values.T`` is C-contiguous with one row per frame. Bin k sits at
    k * rate / n_fft; the negative frequencies of a real signal are the
    conjugates of these and are not stored.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < win_len:
        raise PipelineError(f"signal of {x.size} samples is shorter than one window ({win_len})")
    frames = 1 + (x.size - win_len) // hop
    segs = np.lib.stride_tricks.sliding_window_view(x, win_len)[:: hop][:frames]
    return Grid(np.fft.rfft(segs * hann(win_len), n=n_fft, axis=1).T)


def mel_scale(f):
    """m(f) = 2595 log10(1 + f/700), f in Hz (scalar or array)."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise PipelineError("mel_scale requires f >= 0")
    out = 2595.0 * np.log10(1.0 + f / 700.0)
    return float(out) if out.ndim == 0 else out


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    out = 700.0 * (np.power(10.0, m / 2595.0) - 1.0)
    return float(out) if out.ndim == 0 else out


def build_mel_filterbank(n_mels: int, n_fft: int, rate: float,
                         f_lo: float, f_hi: float) -> np.ndarray:
    """Mel filterbank weights, (n_mels, n_fft//2 + 1), read-only.

    Filter k is a triangle from corner k through its peak at corner k + 1
    to corner k + 2, of n_mels + 2 corners equally spaced on the mel axis
    from f_lo to f_hi. Triangles are linear in Hz between the corners and
    are sampled at the one-sided FFT bin frequencies, then each row is
    rescaled so its sampled peak is exactly 1. A filter whose support
    contains no FFT bin is reported as infeasible spacing.
    """
    if not (0.0 <= f_lo < f_hi <= rate / 2.0):
        raise PipelineError(f"need 0 <= f_lo < f_hi <= rate/2, got ({f_lo}, {f_hi}) at {rate} Hz")
    edges_mel = np.linspace(mel_scale(f_lo), mel_scale(f_hi), n_mels + 2)
    edges_hz = mel_to_hz(edges_mel)
    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (rate / n_fft)
    weights = np.zeros((n_mels, n_bins))
    for k in range(n_mels):
        left, center, right = edges_hz[k], edges_hz[k + 1], edges_hz[k + 2]
        rising = (bin_hz - left) / max(center - left, 1e-12)
        falling = (right - bin_hz) / max(right - center, 1e-12)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        peak = tri.max()
        if peak <= 0.0:
            raise PipelineError(
                f"infeasible mel spacing: filter {k} ({left:.1f}-{right:.1f} Hz) covers no "
                f"FFT bin at {rate} Hz")
        weights[k] = tri / peak
    weights.flags.writeable = False
    return weights
