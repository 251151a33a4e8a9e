"""Waveform and spectrogram augmentations.

Three transforms: additive Gaussian noise, a combined time stretch and
pitch shift (one phase-vocoder pass, then one resample), and spectrogram
frequency/time masking, each on a plain array: samples or (bins, frames).
The vocoder works on the one-sided STFT and streams its output frames in
blocks of at most BLOCK_FRAMES: each block takes the STFT of only the
samples it reads, extends the running product of unit phasors from the
previous block's last frame (the carry row), synthesizes by ``irfft`` and
overlap-adds into the one output buffer in ascending frame order. Memory
beyond the clip and the output stays bounded however long the clip is,
and the output equals one block spanning every frame bit for bit.
The pipeline derives every random draw from a counter-based RNG keyed by
(seed, clip id, variant index), so augmented corpora are reproducible and
order-independent; it yields the variants one at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import resample_signal
from .util import PipelineError, even_ranges, keyed_rng

# The vocoder window must cover at least one period of the lowest tone of
# interest, or the vocoder smears it into broadband artifacts.
VOCODER_WIN = 1024
VOCODER_HOP = 256
# Most output frames the vocoder synthesizes per block. The frames are split
# into the fewest blocks as even as can be, so with at least 5 here every
# block has three frames or more. Chosen by the measured time and peak RSS of
# the augment and train-encoder stages; see CHANGES.md.
BLOCK_FRAMES = 64
# Widest pitch draw, in semitones: a shift up by k makes the vocoder's output
# 2^(k/12) times as long as the stretched clip, so one octave at most doubles it.
PITCH_RANGE_LIMIT = 12.0


@dataclass
class AugmentConfig:
    noise_sigma_rel: float = 0.01       # sigma as a fraction of max|x|
    stretch_range: tuple[float, float] = (0.8, 1.25)
    pitch_range_semitones: float = 2.0
    freq_mask_max: int = 8              # mel bins
    time_mask_max: int = 20             # frames
    variants_per_clip: int = 5

    def __post_init__(self):
        a, b = self.stretch_range
        if not (0 < a <= b):
            raise PipelineError(f"invalid stretch range {self.stretch_range}")
        if not 0 <= self.pitch_range_semitones <= PITCH_RANGE_LIMIT:
            raise PipelineError(f"pitch_range_semitones must be in [0, {PITCH_RANGE_LIMIT:g}], "
                                f"got {self.pitch_range_semitones}")
        if self.freq_mask_max < 0 or self.time_mask_max < 0:
            raise PipelineError("mask maxima must be >= 0")
        if self.variants_per_clip < 1:
            raise PipelineError("variants_per_clip must be >= 1")
        if self.noise_sigma_rel < 0:
            raise PipelineError("noise sigma must be >= 0")


def add_gaussian_noise(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """x' = x + N(0, sigma^2), element-wise i.i.d.

    The clip is added into the drawn noise, so the result is the one array
    made; addition commutes, so it equals x + noise bit for bit.
    """
    if sigma < 0:
        raise PipelineError("sigma must be >= 0")
    if sigma == 0:
        return x.copy()      # the result must not alias the input
    y = rng.normal(0.0, sigma, x.size)
    y += x
    return y


def _overlap_add(spec: np.ndarray, out: np.ndarray, first: int) -> None:
    """Add the synthesis-windowed inverse of each one-sided spectrum in
    ``spec`` (frames, VOCODER_WIN//2 + 1) into the sum buffer ``out``.

    ``out`` is the (frames + win/hop - 1, hop) sum buffer of the whole
    signal, and the rows of ``spec`` are its frames ``first``, ``first`` + 1,
    ... Each frame is cut into win/hop hop-long blocks, and block j of every
    frame is added in one strided step. Blocks run from last to first, so
    when the calls come in ascending frame order every output sample sums
    its frames in ascending frame order, as a frame-by-frame loop would.
    """
    win, hop = VOCODER_WIN, VOCODER_HOP
    n_frames = spec.shape[0]
    frames = np.fft.irfft(spec, n=win, axis=1) * dsp.hann(win)
    frames = frames.reshape(n_frames, win // hop, hop)
    for j in range(win // hop - 1, -1, -1):
        out[first + j : first + n_frames + j] += frames[:, j]


def _vocoder_spectra(spec: np.ndarray, steps: np.ndarray, carry: list) -> np.ndarray:
    """Synthesis spectra of the phase vocoder, one row per output frame.

    ``spec`` is the one-sided analysis STFT, one row per frame. Output frame
    k reads analysis position s_k = ``steps[k]``, counted from the first row
    of ``spec``: its magnitude is interpolated between frames floor(s_k) and
    the next one, and its phase is the first frame's phase advanced by the
    per-bin phase advance of each step before it.

    Phases are carried as unit phasors u = spec / |spec|, never as angles.
    The angle form's advance from frame i to i + 1, the expected advance
    plus the wrapped deviation from it, equals the phase difference minus
    a multiple of 2*pi, so its phasor is exactly conj(u[i]) * u[i+1].
    Row k is then u[0] times the running product of the advances of the
    steps before it. No cos/sin runs on an accumulated phase of ~1e5 rad,
    where float64 loses ~1e-11 of the peak. A zero bin gets u = 1, which
    matches the angle form's ``np.angle(0) == 0``.

    The advance is computed as ``conj(u[i]) * u[i+1]``, in that operand
    order, because complex multiplication is not bit-symmetric. It is the
    order in which numpy's temporary elision evaluated the whole-array
    ``u[1:] * u[:-1].conj()`` of earlier versions once that temporary
    reached 256 KiB (clips of 8,192 samples and more); written out, it
    holds for every clip length and every block size.

    ``phase_vocoder`` calls it once per block of output frames, on the
    analysis frames the block reads. ``carry`` is a list holding the
    running phasor of the frame before the block, empty before the first
    block. That phasor is row 0 of the block's running product and is left
    out of the result, and the list then holds the phasor of the block's
    last frame. All output frames at once are one block, with ``steps``
    arange(0, frames - 1, rate) and ``carry`` empty. Blocks have at least
    three frames (see BLOCK_FRAMES): ``np.multiply.accumulate`` takes
    another loop on exactly two rows, which rounds differently.
    """
    n_frames, n_bins = spec.shape
    i0 = np.floor(steps).astype(np.int64)
    # arange may round its last position up to n_frames - 1 itself
    i1 = np.minimum(i0 + 1, n_frames - 1)
    frac = (steps - i0)[:, None]
    mags = np.abs(spec)
    unit = np.ones(spec.shape, dtype=np.complex128)
    np.divide(spec, mags, out=unit, where=mags > 0)
    advance = np.multiply(np.conj(unit[:-1]), unit[1:])
    out = np.empty((steps.size, n_bins), dtype=np.complex128)
    out[0] = carry[0] if carry else unit[i0[0]]
    out[1:] = advance[i0[:-1]]
    np.multiply.accumulate(out, axis=0, out=out)
    head = len(carry)
    carry[:] = [out[-1].copy()]
    out *= (1.0 - frac) * mags[i0] + frac * mags[i1]
    return out[head:]


def _fit(y: np.ndarray, n: int) -> np.ndarray:
    """``y`` cut or zero-padded to ``n`` samples."""
    return y[:n] if y.size >= n else np.concatenate([y, np.zeros(n - y.size)])


def _reflected(x: np.ndarray, start: int, stop: int, pad: int) -> np.ndarray:
    """``np.pad(x, pad, mode="reflect")[start:stop]`` without the padded copy
    (pad < x.size)."""
    last = x.size - 1
    return x[last - np.abs(last - np.abs(np.arange(start - pad, stop - pad)))]


def phase_vocoder(x: np.ndarray, rate_factor: float) -> np.ndarray:
    """Stretch a signal in time by 1/rate_factor without moving its pitch.

    Per-bin phase accumulation with magnitude interpolation between frames,
    on the one-sided STFT. The input is reflect-padded by half a window so
    every true sample has full overlap-add coverage (partially covered edges
    otherwise blow up under the synthesis-window normalization). Output is
    trimmed/padded to exactly round(N / rate_factor) samples.

    The output frames are synthesized at most BLOCK_FRAMES at a time: apart
    from the output's sum buffer, its window-square sum and the normalized
    output made from them, nothing grows with the clip. Each block takes
    ``dsp.stft`` of only the padded samples its analysis frames span (read
    from ``x`` without a padded copy), forms its spectra with the previous
    block's last running phasor as the carry row (see ``_vocoder_spectra``),
    and overlap-adds them into the sum buffer (``_overlap_add``). After the
    last block the sum is divided by the window-square sum once. FFTs are
    row-independent and each output sample still sums its frames in
    ascending order, so the result is the one of a single block spanning
    every frame bit for bit.
    """
    if rate_factor <= 0:
        raise PipelineError("stretch rate must be > 0")
    win, hop = VOCODER_WIN, VOCODER_HOP
    x = np.asarray(x, dtype=np.float64)
    if x.size < win:
        raise PipelineError(f"clip of {x.size} samples is shorter than one vocoder window ({win})")
    target_len = int(round(x.size / rate_factor))
    if rate_factor == 1.0:
        return x.copy()[:target_len]
    pad = win // 2
    n_frames = 1 + x.size // hop    # frames of the padded signal, x.size + win samples
    steps = np.arange(0.0, n_frames - 1, rate_factor)
    i0 = np.floor(steps).astype(np.int64)
    n_blocks = win // hop
    ola = np.zeros((steps.size + n_blocks - 1, hop))
    carry: list = []
    for a, b in even_ranges(steps.size, BLOCK_FRAMES):
        k = a - 1 if a else 0    # a carried block starts at the previous block's last frame
        lo, hi = i0[k], min(i0[b - 1] + 1, n_frames - 1)
        grid = dsp.stft(_reflected(x, lo * hop, hi * hop + win, pad), win, hop, n_fft=win)
        _overlap_add(_vocoder_spectra(grid.values.T, steps[k:b] - lo, carry), ola, a)
    wsq = (dsp.hann(win) ** 2).reshape(n_blocks, hop)
    norm = np.zeros(ola.shape)
    for j in range(n_blocks - 1, -1, -1):
        norm[j : j + steps.size] += wsq[j]
    np.maximum(norm, 1e-8, out=norm)
    # a new array, not ``ola`` divided in place: that shifted glibc's heap
    # layout and cost train-encoder 20 MB of peak RSS (CHANGES.md)
    y = (ola / norm).reshape(-1)
    return _fit(y[int(round(pad / rate_factor)):], target_len)


def pitch_shift(x: np.ndarray, rate: int, semitones: float, stretch: float) -> np.ndarray:
    """Scale all frequencies by f = 2^(semitones/12) and speed the clip up by
    ``stretch``, in one vocoder pass; the output has round(N / stretch) samples.

    The vocoder changes the length by f / stretch (pitch untouched), and
    resampling from rate * f back to rate scales the length by 1/f and
    multiplies every frequency by f.
    """
    factor = 2.0 ** (semitones / 12.0)
    y = resample_signal(phase_vocoder(x, stretch / factor), rate * factor, rate)
    return _fit(y, int(round(x.size / stretch)))


def spec_mask(values: np.ndarray, f_max: int, t_max: int,
              rng: np.random.Generator) -> np.ndarray:
    """Blank one frequency band (width U{0..f_max}) and one time span
    (width U{0..t_max}) of a (bins, frames) spectrogram to its floor value,
    in a copy."""
    n_bins, n_frames = values.shape
    if f_max > n_bins or t_max > n_frames:
        raise PipelineError(f"mask maxima ({f_max} bins, {t_max} frames) exceed the grid shape "
                            f"({n_bins} bins, {n_frames} frames)")
    values = values.copy()
    floor = float(values.min())
    fw = int(rng.integers(0, f_max + 1)) if f_max > 0 else 0
    f0 = int(rng.integers(0, n_bins - fw + 1)) if fw > 0 else 0
    tw = int(rng.integers(0, t_max + 1)) if t_max > 0 else 0
    t0 = int(rng.integers(0, n_frames - tw + 1)) if tw > 0 else 0
    if fw > 0:
        values[f0 : f0 + fw, :] = floor
    if tw > 0:
        values[:, t0 : t0 + tw] = floor
    return values


def make_variant(x: np.ndarray, rate: int, cfg: AugmentConfig,
                 rng: np.random.Generator) -> np.ndarray:
    """One noise + stretch + pitch draw. Masking happens later, on spectrograms."""
    r = float(rng.uniform(*cfg.stretch_range))
    k = cfg.pitch_range_semitones
    s = float(rng.uniform(-k, k)) if k > 0 else 0.0
    sigma = cfg.noise_sigma_rel * float(np.max(np.abs(x)))
    return pitch_shift(add_gaussian_noise(x, sigma, rng), rate, s, r)


def augment_pipeline(x: np.ndarray, rate: int, clip_id: str,
                     cfg: AugmentConfig, seed: int) -> Iterator[np.ndarray]:
    """``variants_per_clip`` independent variants, deterministic per (seed, clip_id).

    They are yielded one at a time, so a caller that writes each one out
    and drops it holds one variant, not a clip's whole set.
    """
    for k in range(cfg.variants_per_clip):
        yield make_variant(x, rate, cfg, keyed_rng(seed, clip_id, k))
