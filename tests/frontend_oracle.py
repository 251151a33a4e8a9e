"""Reference front end: the loop phase vocoder, the whole-array phase
vocoder and the direct-formula resampler.

These are the straightforward forms the vectorized code in
`atscalm.augment` and `atscalm.audio_io` replaced. The whole-array
vocoder is the vectorized one as it was before it streamed its output
frames in blocks; the streamed one must equal it bit for bit. The two-sided vocoder
runs its own full-length FFT STFT and synthesizes from all win bins, so it
checks the one-sided pipeline end to end. The one-sided loops below take
the same spectra as the vectorized code. The overlap-add sum loop must
agree with it bit for bit. The angle-form spectra loop accumulates phases as
angles and takes cos/sin of them, so it carries that rounding (about
eps * max|phase|); the wrapped loop keeps every angle in [-pi, pi] and is
the accurate reference. The resampler evaluates the windowed sinc itself
at each output's exact tap offsets; the Farrow polynomials in `audio_io`
approximate it. `peak_frequency` reads a signal's spectral peak the way
`validation` does, for tests that check where a tone landed.
"""

from __future__ import annotations

import numpy as np

from atscalm import dsp
from atscalm.audio_io import _RESAMPLE_BETA, _RESAMPLE_HALF
from atscalm.augment import VOCODER_HOP, VOCODER_WIN
from atscalm.validation import peak_hz


def peak_frequency(x: np.ndarray, rate: float) -> float:
    """Frequency of the largest non-DC bin of ``x`` zero-padded to the next
    power of two."""
    n_fft = dsp.next_pow2(np.size(x))
    return peak_hz(np.abs(dsp.fft(x, n_fft)), rate, n_fft)


def resample_kernel(u: np.ndarray, cutoff: float) -> np.ndarray:
    """The resampler's kernel at tap offsets ``u`` (input samples):
    cutoff * sinc(cutoff * u) * kaiser(u / 32), zero beyond 32."""
    t = u / _RESAMPLE_HALF
    win = np.where(np.abs(t) <= 1.0,
                   np.i0(_RESAMPLE_BETA * np.sqrt(np.maximum(0.0, 1.0 - t * t)))
                   / np.i0(_RESAMPLE_BETA), 0.0)
    return cutoff * np.sinc(cutoff * u) * win


def resample_signal(x: np.ndarray, src_rate: float, dst_rate: float) -> np.ndarray:
    """64-tap windowed-sinc resampler: each output weighs its 64 inputs by
    the kernel at their exact offsets from its position."""
    x = np.asarray(x, dtype=np.float64)
    if src_rate == dst_rate:
        return x.copy()
    ratio = dst_rate / src_rate
    n_out = int(round(x.size * ratio))
    half = _RESAMPLE_HALF
    ks = np.arange(2 * half)
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + 1)])
    out = np.empty(n_out)
    for start in range(0, n_out, 8192):
        idx = np.arange(start, min(start + 8192, n_out))
        pos = idx / ratio
        base = np.floor(pos).astype(np.int64)
        # input xp[base + 1 + k] sits at x index base - 31 + k, so its
        # offset from the output is pos - base + 31 - k
        u = (pos - base)[:, None] + (half - 1) - ks[None, :]
        out[idx] = np.sum(resample_kernel(u, min(1.0, ratio)) * xp[base[:, None] + 1 + ks],
                          axis=1)
    return out


def vocoder_spectra_loop(spec: np.ndarray, rate_factor: float, win: int, hop: int) -> np.ndarray:
    """Step-by-step phase accumulation over (bins, frames) spectra; returns (bins, steps)."""
    n_bins, n_frames = spec.shape
    steps = np.arange(0.0, n_frames - 1, rate_factor)
    expected = 2.0 * np.pi * hop * np.arange(n_bins) / win
    mags = np.abs(spec)
    phases = np.angle(spec)
    out = np.empty((n_bins, steps.size), dtype=np.complex128)
    acc = phases[:, 0].copy()
    for k, s in enumerate(steps):
        i0 = int(np.floor(s))
        i1 = min(i0 + 1, n_frames - 1)
        frac = s - i0
        mag = (1.0 - frac) * mags[:, i0] + frac * mags[:, i1]
        out[:, k] = mag * np.exp(1j * acc)
        dphi = phases[:, i1] - phases[:, i0] - expected
        dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
        acc += expected + dphi
    return out


def _wrap(phase: np.ndarray) -> np.ndarray:
    return phase - 2.0 * np.pi * np.round(phase / (2.0 * np.pi))


def vocoder_spectra_wrapped_loop(spec: np.ndarray, rate_factor: float) -> np.ndarray:
    """The angle-form loop with every phase kept in [-pi, pi].

    The expected advance cancels modulo 2*pi, so each step adds the wrapped
    frame-to-frame phase difference and wraps the sum again: cos/sin only
    ever see small arguments, and the result stays within ~1e-13 of the
    peak of an extended-precision evaluation. Same layout as
    `vocoder_spectra_loop`.
    """
    n_bins, n_frames = spec.shape
    steps = np.arange(0.0, n_frames - 1, rate_factor)
    mags = np.abs(spec)
    phases = np.angle(spec)
    out = np.empty((n_bins, steps.size), dtype=np.complex128)
    acc = phases[:, 0].copy()
    for k, s in enumerate(steps):
        i0 = int(np.floor(s))
        i1 = min(i0 + 1, n_frames - 1)
        frac = s - i0
        mag = (1.0 - frac) * mags[:, i0] + frac * mags[:, i1]
        out[:, k] = mag * np.exp(1j * acc)
        acc = _wrap(acc + _wrap(phases[:, i1] - phases[:, i0]))
    return out


def ola_sum_loop(frames: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Frame-by-frame overlap-add of (frames, win) time-domain frames, each
    times the Hann synthesis window."""
    w = dsp.hann(win)
    out = np.zeros((frames.shape[0] - 1) * hop + win)
    for m in range(frames.shape[0]):
        out[m * hop : m * hop + win] += frames[m] * w
    return out


def ola_loop(frames: np.ndarray, win: int, hop: int) -> np.ndarray:
    """`ola_sum_loop` divided by the same sum of the squared window."""
    norm = ola_sum_loop(np.broadcast_to(dsp.hann(win), frames.shape), win, hop)
    return ola_sum_loop(frames, win, hop) / np.maximum(norm, 1e-8)


def phase_vocoder(x: np.ndarray, rate_factor: float, win: int = 1024, hop: int = 256) -> np.ndarray:
    """The loop vocoder on the two-sided STFT, with the same padding and trim."""
    x = np.asarray(x, dtype=np.float64)
    target_len = int(round(x.size / rate_factor))
    if rate_factor == 1.0:
        return x.copy()[:target_len]
    pad = win // 2
    xp = np.pad(x, pad, mode="reflect")
    n_frames = 1 + (xp.size - win) // hop
    segs = np.lib.stride_tricks.sliding_window_view(xp, win)[::hop][:n_frames]
    spec = np.fft.fft(segs * dsp.hann(win), n=win, axis=1).T
    out = vocoder_spectra_loop(spec, rate_factor, win, hop)
    y = ola_loop(np.fft.ifft(out, axis=0).real.T[:, :win], win, hop)
    y = y[int(round(pad / rate_factor)):]
    if y.size >= target_len:
        return y[:target_len]
    return np.concatenate([y, np.zeros(target_len - y.size)])


def whole_istft_ola(spec: np.ndarray, win: int, hop: int) -> np.ndarray:
    """The overlap-add of all frames at once."""
    w = dsp.hann(win)
    n_frames = spec.shape[0]
    n_blocks = -(-win // hop)
    span = n_blocks * hop
    frames = np.zeros((n_frames, span))
    frames[:, :win] = np.fft.irfft(spec, n=win, axis=1) * w
    wsq = np.zeros(span)
    wsq[:win] = w * w
    frames = frames.reshape(n_frames, n_blocks, hop)
    wsq = wsq.reshape(n_blocks, hop)
    out = np.zeros((n_frames + n_blocks - 1, hop))
    norm = np.zeros((n_frames + n_blocks - 1, hop))
    for j in range(n_blocks - 1, -1, -1):
        out[j : j + n_frames] += frames[:, j]
        norm[j : j + n_frames] += wsq[j]
    out_len = (n_frames - 1) * hop + win
    return out.reshape(-1)[:out_len] / np.maximum(norm.reshape(-1)[:out_len], 1e-8)


def whole_vocoder_spectra(spec: np.ndarray, rate_factor: float) -> np.ndarray:
    """The synthesis spectra of all output frames at once. The advance is
    written ``unit[1:] * unit[:-1].conj()``: numpy's temporary elision
    evaluates it as ``conj(unit[:-1]) * unit[1:]`` once the temporary
    reaches 256 KiB (clips of 8,192 samples and more), and as written below
    that."""
    n_frames, n_bins = spec.shape
    steps = np.arange(0.0, n_frames - 1, rate_factor)
    i0 = np.floor(steps).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_frames - 1)
    frac = (steps - i0)[:, None]
    mags = np.abs(spec)
    unit = np.ones(spec.shape, dtype=np.complex128)
    np.divide(spec, mags, out=unit, where=mags > 0)
    advance = unit[1:] * unit[:-1].conj()
    out = np.empty((steps.size, n_bins), dtype=np.complex128)
    out[:1] = unit[:1]
    out[1:] = advance[i0[:-1]]
    np.multiply.accumulate(out, axis=0, out=out)
    out *= (1.0 - frac) * mags[i0] + frac * mags[i1]
    return out


def whole_phase_vocoder(x: np.ndarray, rate_factor: float) -> np.ndarray:
    """The one-sided vocoder on the whole padded signal's STFT at once."""
    win, hop = VOCODER_WIN, VOCODER_HOP
    x = np.asarray(x, dtype=np.float64)
    target_len = int(round(x.size / rate_factor))
    if rate_factor == 1.0:
        return x.copy()[:target_len]
    pad = win // 2
    xp = np.pad(x, pad, mode="reflect")
    grid = dsp.stft(xp, win, hop, n_fft=win)
    y = whole_istft_ola(whole_vocoder_spectra(grid.values.T, rate_factor), win, hop)
    start = int(round(pad / rate_factor))
    y = y[start:]
    if y.size >= target_len:
        return y[:target_len]
    return np.concatenate([y, np.zeros(target_len - y.size)])
