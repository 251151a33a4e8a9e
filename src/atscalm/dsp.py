"""Deterministic spectral primitives.

One-sided real FFT at a given transform size, un-normalized DCT-II,
analytic-signal envelope, one-sided STFT, window functions, and the Mel
filterbank.
Everything here is pure and reentrant; a built filterbank is immutable and
can be shared.
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


def dct2_matrix(m: int, n_out: int | None = None) -> np.ndarray:
    """Basis matrix for the un-normalized DCT-II.

    Row n holds cos(pi/M * (m + 0.5) * n); no orthonormalization factors, so
    a constant input c maps to coefficient 0 = M*c and zeros elsewhere.
    """
    if m < 1:
        raise PipelineError("dct2 needs length >= 1")
    if n_out is None:
        n_out = m
    ks = np.arange(n_out)[:, None]
    ms = np.arange(m)[None, :] + 0.5
    return np.cos(np.pi / m * ks * ms)


def dct2(x) -> np.ndarray:
    """Un-normalized DCT-II: c_n = sum_m x(m) cos(pi/M (m+0.5) n)."""
    x = np.asarray(x, dtype=np.float64)
    return dct2_matrix(x.size) @ x


def analytic_signal(x) -> np.ndarray:
    """Analytic signal via the frequency-domain method at native length.

    Zeroes negative frequencies, doubles positive ones, keeps DC (and the
    Nyquist bin for even lengths) untouched.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 8:
        raise PipelineError(f"analytic signal needs length >= 8, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise PipelineError("analytic signal input contains non-finite values")
    n = x.size
    spec = np.fft.fft(x)
    h = np.zeros(n)
    if n % 2 == 0:
        h[0] = h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[0] = 1.0
        h[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(spec * h)


def analytic_envelope(x) -> np.ndarray:
    """Instantaneous amplitude sqrt(x^2 + h^2), h the quadrature component."""
    return np.abs(analytic_signal(x))


def window(name: str, n: int) -> np.ndarray:
    """'hann' (periodic) or 'rect'."""
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if name == "rect":
        return np.ones(n)
    raise PipelineError(f"unknown window {name!r}")


@dataclass(frozen=True)
class StftGrid:
    """Complex STFT frames, one-sided: (n_fft//2 + 1 bins) x (frames).

    ``spec`` is the transpose of the frame-major ``rfft`` result, so
    ``spec.T`` is C-contiguous with one row per frame. Bin k sits at
    k * rate / n_fft; the negative frequencies of a real signal are the
    conjugates of these and are not stored.
    """

    spec: np.ndarray
    win_len: int
    hop: int
    n_fft: int
    rate: float
    window_name: str

    @property
    def n_frames(self) -> int:
        return self.spec.shape[1]


def stft(x, win_len: int, hop: int, window_name: str = "hann",
         n_fft: int | None = None, rate: float = 1.0) -> StftGrid:
    """Short-time Fourier transform.

    Frame count is 1 + floor((N - win_len)/hop); each frame is windowed then
    transformed with a real FFT at ``n_fft`` (default: next power of two >=
    win_len), keeping the n_fft//2 + 1
    non-negative frequency bins. No normalization is applied; the window
    name and sizes are carried in the result metadata.
    """
    x = np.asarray(x, dtype=np.float64)
    if hop < 1:
        raise PipelineError("hop must be >= 1")
    if x.size < win_len:
        raise PipelineError(f"signal of {x.size} samples is shorter than one window ({win_len})")
    if n_fft is None:
        n_fft = next_pow2(win_len)
    if n_fft < win_len:
        raise PipelineError("n_fft must be >= win_len")
    w = window(window_name, win_len)
    frames = 1 + (x.size - win_len) // hop
    segs = np.lib.stride_tricks.sliding_window_view(x, win_len)[:: hop][:frames]
    return StftGrid(
        spec=np.fft.rfft(segs * w, n=n_fft, axis=1).T,
        win_len=win_len,
        hop=hop,
        n_fft=n_fft,
        rate=float(rate),
        window_name=window_name,
    )


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


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters over one-sided FFT bins; each row peaks at 1."""

    weights: np.ndarray      # (n_mels, n_fft//2 + 1)
    edges_hz: np.ndarray     # n_mels + 2 corner frequencies
    center_hz: np.ndarray    # n_mels peak frequencies
    n_fft: int
    rate: float


def build_mel_filterbank(n_mels: int, n_fft: int, rate: float,
                         f_lo: float, f_hi: float) -> MelFilterbank:
    """Mel filterbank with centers equally spaced on the mel axis.

    Triangles are linear in Hz between mel-spaced corner frequencies and are
    sampled at the one-sided FFT bin frequencies, then each row is rescaled
    so its sampled peak is exactly 1. A filter whose support contains no
    FFT bin is reported as infeasible spacing.
    """
    if n_mels < 2:
        raise PipelineError("need n_mels >= 2")
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
                f"infeasible mel spacing: filter {k} ({left:.1f}-{right:.1f} Hz) covers no FFT bin"
            )
        weights[k] = tri / peak
    return MelFilterbank(
        weights=weights,
        edges_hz=edges_hz,
        center_hz=edges_hz[1:-1].copy(),
        n_fft=n_fft,
        rate=float(rate),
    )
