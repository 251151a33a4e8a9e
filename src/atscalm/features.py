"""25-dimensional clip features: 13 MFCCs, ZCR, RMS, 5-level wavelet stats.

The feature order is fixed and shared with the classifier and the group
statistics: [mfcc_0..mfcc_12, zcr, rms, w1_mu, w1_sd, ..., w5_mu, w5_sd].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsp
from .audio_io import AudioClip
from .util import PipelineError, write_csv

FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"mfcc_{i}" for i in range(13)]
    + ["zcr", "rms"]
    + [f"w{j}_{s}" for j in range(1, 6) for s in ("mu", "sd")]
)

N_FEATURES = len(FEATURE_NAMES)  # 25


@dataclass
class FeatureParams:
    n_fft: int = 512
    win: int = 400
    hop: int = 160
    n_mels: int = 64
    f_lo: float = 0.0
    f_hi: float = 8000.0
    window_name: str = "hann"
    log_eps: float = 1e-10
    wavelet: str = "haar"        # or "db4"
    wavelet_levels: int = 5
    n_mfcc: int = 13


@dataclass
class TimeFreqGrid:
    """Real-valued (bins x frames) grid with axis metadata."""

    values: np.ndarray
    kind: str                    # "linear-power" | "log-mel"
    rate: float
    hop_s: float
    bin_centers_hz: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise PipelineError("grid must be 2-d (bins x frames)")
        if not np.all(np.isfinite(self.values)):
            raise PipelineError("grid contains non-finite values")

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


_fb_cache: dict[tuple, dsp.MelFilterbank] = {}


def _filterbank(params: FeatureParams, rate: float) -> dsp.MelFilterbank:
    key = (params.n_mels, params.n_fft, rate, params.f_lo, params.f_hi)
    fb = _fb_cache.get(key)
    if fb is None:
        fb = dsp.build_mel_filterbank(params.n_mels, params.n_fft, rate, params.f_lo, params.f_hi)
        _fb_cache[key] = fb
    return fb


def power_spectrogram(clip: AudioClip, params: FeatureParams) -> TimeFreqGrid:
    grid = dsp.stft(clip.samples, params.win, params.hop,
                    window_name=params.window_name, n_fft=params.n_fft, rate=clip.rate)
    power = grid.spec.real ** 2 + grid.spec.imag ** 2
    return TimeFreqGrid(
        values=power,
        kind="linear-power",
        rate=clip.rate,
        hop_s=params.hop / clip.rate,
        bin_centers_hz=np.arange(power.shape[0]) * clip.rate / params.n_fft,
    )


def mel_spectrogram(clip: AudioClip, params: FeatureParams | None = None) -> TimeFreqGrid:
    """log(mel-filterbank @ |STFT|^2 + eps), shape (n_mels, frames)."""
    if params is None:
        params = FeatureParams()
    power = power_spectrogram(clip, params)
    fb = _filterbank(params, clip.rate)
    mel = fb.weights @ power.values
    return TimeFreqGrid(
        values=np.log(mel + params.log_eps),
        kind="log-mel",
        rate=clip.rate,
        hop_s=params.hop / clip.rate,
        bin_centers_hz=fb.center_hz.copy(),
    )


def mfcc13(clip: AudioClip, params: FeatureParams | None = None) -> np.ndarray:
    """Frame-averaged DCT-II of the log-mel columns, coefficients 0..12."""
    if params is None:
        params = FeatureParams()
    logmel = mel_spectrogram(clip, params)
    basis = dsp.dct2_matrix(params.n_mels, params.n_mfcc)
    return np.mean(basis @ logmel.values, axis=1)


def zcr(clip: AudioClip) -> float:
    """Fraction of adjacent sample pairs with strictly negative product."""
    x = clip.samples
    if x.size < 2:
        raise PipelineError("zcr needs at least 2 samples")
    return float(np.count_nonzero(x[1:] * x[:-1] < 0.0) / (x.size - 1))


def rms(clip: AudioClip) -> float:
    return float(np.sqrt(np.mean(clip.samples ** 2)))


_DB4_LO = np.array([1.0 + np.sqrt(3.0), 3.0 + np.sqrt(3.0),
                    3.0 - np.sqrt(3.0), 1.0 - np.sqrt(3.0)]) / (4.0 * np.sqrt(2.0))
_DB4_HI = np.array([_DB4_LO[3], -_DB4_LO[2], _DB4_LO[1], -_DB4_LO[0]])


def _dwt_step(x: np.ndarray, wavelet: str) -> tuple[np.ndarray, np.ndarray]:
    # symmetric padding to even length: repeat the final sample
    if x.size % 2 == 1:
        x = np.append(x, x[-1])
    if wavelet == "haar":
        approx = (x[0::2] + x[1::2]) / np.sqrt(2.0)
        detail = (x[0::2] - x[1::2]) / np.sqrt(2.0)
        return approx, detail
    if wavelet == "db4":
        xp = np.concatenate([x, x[-2:][::-1]])  # extend so every pair sees 4 taps
        approx = sum(_DB4_LO[k] * xp[k : k + x.size : 2] for k in range(4))
        detail = sum(_DB4_HI[k] * xp[k : k + x.size : 2] for k in range(4))
        return approx, detail
    raise PipelineError(f"unknown wavelet {wavelet!r}")


def wavelet_details(x: np.ndarray, levels: int, wavelet: str = "haar") -> list[np.ndarray]:
    """Detail coefficient vectors d_1..d_levels of a multi-level DWT."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2 ** levels:
        raise PipelineError(f"need at least 2^{levels} samples for a {levels}-level transform")
    details = []
    approx = x
    for _ in range(levels):
        approx, detail = _dwt_step(approx, wavelet)
        details.append(detail)
    return details


def wavelet_stats(clip: AudioClip, levels: int = 5, wavelet: str = "haar") -> np.ndarray:
    """[mean_1, std_1, ..., mean_L, std_L] of detail coefficients (population std)."""
    out = np.empty(2 * levels)
    for j, d in enumerate(wavelet_details(clip.samples, levels, wavelet)):
        out[2 * j] = np.mean(d)
        out[2 * j + 1] = np.std(d)
    return out


def extract_features(clip: AudioClip, params: FeatureParams | None = None) -> np.ndarray:
    """The full 25-vector in the FEATURE_NAMES order."""
    if params is None:
        params = FeatureParams()
    vec = np.concatenate([
        mfcc13(clip, params),
        [zcr(clip), rms(clip)],
        wavelet_stats(clip, params.wavelet_levels, params.wavelet),
    ])
    if vec.size != N_FEATURES:
        raise PipelineError(f"feature vector has {vec.size} entries, expected {N_FEATURES}")
    return vec


def write_features_csv(path: str, rows: list[tuple[str, str, np.ndarray]]) -> None:
    """Rows of (clip_id, label_name, 25-vector)."""
    header = ["id", "label"] + list(FEATURE_NAMES)
    write_csv(path, header, [[cid, lab] + [float(v) for v in vec] for cid, lab, vec in rows])


def read_features_csv(path: str) -> list[tuple[str, str, np.ndarray]]:
    from .util import read_csv

    header, raw = read_csv(path)
    expected = ["id", "label"] + list(FEATURE_NAMES)
    if header != expected:
        raise PipelineError(f"unexpected features header in {path}: {header[:4]}...")
    return [(r[0], r[1], np.array([float(v) for v in r[2:]], dtype=np.float64)) for r in raw]
