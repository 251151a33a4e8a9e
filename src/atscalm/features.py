"""25-dimensional clip features: 13 MFCCs, ZCR, RMS, 5-level wavelet stats.

The feature order is fixed and shared with the classifier and the group
statistics: [mfcc_0..mfcc_12, zcr, rms, w1_mu, w1_sd, ..., w5_mu, w5_sd].
Functions take a clip's samples array, plus its ``rate`` for the mel scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import ClassLabel, parse_label
from .util import PipelineError, read_float_csv, write_csv

N_MFCC = 13
WAVELET_LEVELS = 5

FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"mfcc_{i}" for i in range(N_MFCC)]
    + ["zcr", "rms"]
    + [f"w{j}_{s}" for j in range(1, WAVELET_LEVELS + 1) for s in ("mu", "sd")]
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
    log_eps: float = 1e-10

    def __post_init__(self):
        if self.win < 1 or self.hop < 1:
            raise PipelineError(f"win and hop must be >= 1, got win {self.win}, hop {self.hop}")
        if self.n_fft < self.win:
            raise PipelineError(f"n_fft must be >= win ({self.win}), got {self.n_fft}")
        if self.n_mels < 2:
            raise PipelineError(f"n_mels must be >= 2, got {self.n_mels}")
        if not 0 <= self.f_lo < self.f_hi:
            raise PipelineError(f"f_lo must be >= 0 and below f_hi ({self.f_hi}), got {self.f_lo}")
        if not self.log_eps > 0:
            raise PipelineError(f"log_eps must be > 0, got {self.log_eps}")


# a built filterbank is read-only, so one per parameter set is shared
_filterbank = functools.lru_cache(maxsize=None)(dsp.build_mel_filterbank)


def mel_spectrogram(x: np.ndarray, rate: int, params: FeatureParams) -> dsp.Grid:
    """log(mel-filterbank @ |STFT|^2 + eps), shape (n_mels, frames)."""
    spec = dsp.stft(x, params.win, params.hop, n_fft=params.n_fft).values
    fb = _filterbank(params.n_mels, params.n_fft, rate, params.f_lo, params.f_hi)
    return dsp.Grid(np.log(fb @ (spec.real ** 2 + spec.imag ** 2) + params.log_eps))


def mfcc13(x: np.ndarray, rate: int, params: FeatureParams) -> np.ndarray:
    """Frame-averaged DCT-II of the log-mel columns, coefficients 0..12."""
    logmel = mel_spectrogram(x, rate, params)
    basis = dsp.dct2_matrix(params.n_mels, N_MFCC)
    return np.mean(basis @ logmel.values, axis=1)


def zcr(x: np.ndarray) -> float:
    """Fraction of adjacent sample pairs on opposite sides of zero, with 0
    counted as positive, so a crossing that lands on a sample of exactly 0
    counts once."""
    if x.size < 2:
        raise PipelineError("zcr needs at least 2 samples")
    return float(np.count_nonzero((x[1:] >= 0.0) != (x[:-1] >= 0.0)) / (x.size - 1))


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x ** 2)))


def _haar_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # symmetric padding to even length: repeat the final sample
    if x.size % 2 == 1:
        x = np.append(x, x[-1])
    approx = (x[0::2] + x[1::2]) / np.sqrt(2.0)
    detail = (x[0::2] - x[1::2]) / np.sqrt(2.0)
    return approx, detail


def wavelet_stats(x: np.ndarray) -> np.ndarray:
    """[mean_1, std_1, ..., mean_L, std_L] (population std) of the detail
    coefficients d_1..d_L of an L = WAVELET_LEVELS level Haar transform."""
    approx = x
    if approx.size < 2 ** WAVELET_LEVELS:
        raise PipelineError(f"need at least 2^{WAVELET_LEVELS} samples for a "
                            f"{WAVELET_LEVELS}-level transform")
    out = np.empty(2 * WAVELET_LEVELS)
    for j in range(WAVELET_LEVELS):
        approx, detail = _haar_step(approx)
        out[2 * j] = np.mean(detail)
        out[2 * j + 1] = np.std(detail)
    return out


def extract_features(x: np.ndarray, rate: int, params: FeatureParams) -> np.ndarray:
    """The full 25-vector in the FEATURE_NAMES order."""
    return np.concatenate([mfcc13(x, rate, params), [zcr(x), rms(x)], wavelet_stats(x)])


def write_features_csv(path: str, rows: list[tuple[str, str, np.ndarray]]) -> None:
    """Rows of (clip_id, label_name, 25-vector)."""
    header = ["id", "label"] + list(FEATURE_NAMES)
    write_csv(path, header, [[cid, lab] + [float(v) for v in vec] for cid, lab, vec in rows])


def read_features_csv(path: str) -> list[tuple[str, ClassLabel, np.ndarray]]:
    """Rows of (clip_id, label, 25-vector). A table without rows, a row
    whose label is no class, or an id on two rows raises PipelineError
    naming the file (and the row's id)."""
    header, keys, values = read_float_csv(path, ["id", "label"])
    if header[2:] != list(FEATURE_NAMES):
        raise PipelineError(f"unexpected features header in {path}: {header[:4]}...")
    if not keys:
        raise PipelineError(f"{path}: no feature rows")
    rows = {}
    for (cid, lab), vec in zip(keys, values):
        if cid in rows:
            raise PipelineError(f"{path}: id {cid!r} is on more than one row")
        try:
            rows[cid] = (cid, parse_label(lab), vec)
        except PipelineError as exc:
            raise PipelineError(f"{path}: row {cid!r}: {exc}") from None
    return list(rows.values())
