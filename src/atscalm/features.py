"""25-dimensional clip features: 13 MFCCs, ZCR, RMS, 5-level wavelet stats.

The feature order is fixed and shared with the classifier and the group
statistics: [mfcc_0..mfcc_12, zcr, rms, w1_mu, w1_sd, ..., w5_mu, w5_sd].
Functions take a clip's samples array, plus its ``rate`` for the mel scale.

The log-mel front end is fixed in module constants, not configured: the
CAM's MFCCs and the encoder's input grid both read it, so a change to it would
change every feature table and encoder checkpoint, and no run ever chose
another. An encoder checkpoint records it (`FRONT_END`). Clips are resampled
to the run's ``rate`` on ingest, so a 44.1 kHz recording gets it too.
"""

from __future__ import annotations

import functools

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


# 25-ms Hann windows every 10 ms at 16 kHz, 64 mel bands from 0 to 8 kHz
N_FFT = 512
WIN = 400
HOP = 160
N_MELS = 64
F_LO = 0.0
F_HI = 8000.0
LOG_EPS = 1e-10

FRONT_END = {"n_fft": N_FFT, "win": WIN, "hop": HOP, "n_mels": N_MELS,
             "f_lo": F_LO, "f_hi": F_HI, "log_eps": LOG_EPS}


@functools.lru_cache(maxsize=None)
def mel_filterbank(rate: int) -> np.ndarray:
    """The read-only filterbank at ``rate``, built once. Only 16,000 to 28,895 Hz
    work: below, F_HI is above rate / 2; above, filter 0 covers no FFT bin."""
    return dsp.build_mel_filterbank(N_MELS, N_FFT, rate, F_LO, F_HI)


def mel_spectrogram(x: np.ndarray, rate: int) -> dsp.Grid:
    """log(mel-filterbank @ |STFT|^2 + LOG_EPS), shape (N_MELS, frames)."""
    spec = dsp.stft(x, WIN, HOP, n_fft=N_FFT).values
    return dsp.Grid(np.log(mel_filterbank(rate) @ (spec.real ** 2 + spec.imag ** 2) + LOG_EPS))


def mfcc13(x: np.ndarray, rate: int) -> np.ndarray:
    """Frame-averaged DCT-II of the log-mel columns, coefficients 0..12."""
    logmel = mel_spectrogram(x, rate)
    return np.mean(dsp.dct2_matrix(N_MELS, N_MFCC) @ logmel.values, axis=1)


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


def extract_features(x: np.ndarray, rate: int) -> np.ndarray:
    """The full 25-vector in the FEATURE_NAMES order."""
    return np.concatenate([mfcc13(x, rate), [zcr(x), rms(x)], wavelet_stats(x)])


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
