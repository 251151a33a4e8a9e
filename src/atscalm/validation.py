"""Corpus validation against per-class theoretical tone models.

For each clip: extract the analytic envelope, rebuild the signal as
envelope * cos(2*pi*f_c*t + phi) at the class tone frequency, and score the
match with RMSE. Envelope mean/std (edge-trimmed), total energy, and the
spectral peak round out the record; per-class aggregates mirror the
per-clip fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .audio_io import CLASS_TONE_HZ, LABELS, AudioClip, ClassLabel, CorpusManifest
from .util import PipelineError, parallel_map, write_csv, write_json

EDGE_TRIM = 0.05


@dataclass(frozen=True)
class TheoreticalModel:
    f_c_hz: float
    phase: float = 0.0

    def __post_init__(self):
        if self.f_c_hz <= 0:
            raise PipelineError(f"characteristic frequency must be positive, got {self.f_c_hz}")


def default_models() -> dict[ClassLabel, TheoreticalModel]:
    return {label: TheoreticalModel(f_c) for label, f_c in CLASS_TONE_HZ.items()}


@dataclass
class ValidationRecord:
    clip_id: str
    rmse: float
    env_mean: float
    env_std: float
    energy: float
    peak_hz: float


def rmse(x, y) -> float:
    """sqrt(mean((x - y)^2)); sequences must have equal length."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise PipelineError(f"rmse length mismatch: {x.shape} vs {y.shape}")
    if x.size < 1:
        raise PipelineError("rmse needs at least one sample")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def reconstruct_theoretical(clip: AudioClip, model: TheoreticalModel,
                            phase_search: bool = False) -> np.ndarray:
    """Envelope-modulated cosine at the model's class frequency.

    With ``phase_search`` the phase maximizing correlation with the clip is
    picked from a 32-point grid; the default keeps phi fixed for
    reproducibility.
    """
    if model.f_c_hz >= clip.rate / 2:
        raise PipelineError(
            f"f_c {model.f_c_hz} Hz is not below Nyquist for rate {clip.rate}"
        )
    env = dsp.analytic_envelope(clip.samples)
    t = np.arange(clip.samples.size) / clip.rate
    omega = 2.0 * np.pi * model.f_c_hz
    if not phase_search:
        return env * np.cos(omega * t + model.phase)
    best = None
    best_corr = -np.inf
    for phi in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        cand = env * np.cos(omega * t + phi)
        corr = float(np.dot(cand, clip.samples))
        if corr > best_corr:
            best_corr = corr
            best = cand
    return best


def _interior(x: np.ndarray, trim: float = EDGE_TRIM) -> np.ndarray:
    k = int(np.floor(trim * x.size))
    return x[k : x.size - k] if x.size - 2 * k >= 1 else x


def envelope_stats(clip: AudioClip, trim: float = EDGE_TRIM) -> tuple[float, float, float]:
    """(env_mean, env_std, energy): envelope stats over the trimmed interior,
    energy = sum(x^2) over the full clip."""
    env = _interior(dsp.analytic_envelope(clip.samples), trim)
    energy = float(np.sum(clip.samples ** 2))
    return float(np.mean(env)), float(np.std(env)), energy


def peak_frequency(x: np.ndarray, rate: float) -> float:
    """Frequency of the largest non-DC magnitude bin, the signal zero-padded
    to the next power of two."""
    n_fft = dsp.next_pow2(np.size(x))
    mag = np.abs(dsp.fft(x, n_fft))
    if mag.size < 2:
        return 0.0
    return float((1 + int(np.argmax(mag[1:]))) * rate / n_fft)


def validate_clip(clip: AudioClip, model: TheoreticalModel,
                  phase_search: bool = False) -> ValidationRecord:
    theo = reconstruct_theoretical(clip, model, phase_search=phase_search)
    env_mean, env_std, energy = envelope_stats(clip)
    return ValidationRecord(
        clip_id=clip.id,
        rmse=rmse(clip.samples, theo),
        env_mean=env_mean,
        env_std=env_std,
        energy=energy,
        peak_hz=peak_frequency(clip.samples, clip.rate),
    )


def validate_corpus(manifest: CorpusManifest,
                    phase_search: bool = False,
                    target_rate: int | None = None,
                    jobs: int = 1) -> dict:
    """Per-clip records plus per-class aggregates.

    Aggregation is the mean of the per-clip values; the class spectral peak
    comes from the class-mean magnitude spectrum at a shared FFT size.
    Empty classes are reported, not fatal. Results reduce in manifest order
    regardless of ``jobs``.
    """
    if not manifest.entries:
        raise PipelineError("cannot validate an empty manifest")
    models = default_models()

    max_len = 0
    clips: list[AudioClip] = []
    for entry in manifest.entries:
        clip = manifest.load_clip(entry, target_rate=target_rate)
        clips.append(clip)
        max_len = max(max_len, clip.samples.size)
    n_fft = dsp.next_pow2(max_len)

    def work(clip: AudioClip):
        rec = validate_clip(clip, models[clip.label], phase_search=phase_search)
        return rec, np.abs(dsp.fft(clip.samples, n_fft)), clip.rate

    results = parallel_map(work, clips, jobs)

    per_clip = [r[0] for r in results]
    per_class: dict[str, dict] = {}
    for label in LABELS:
        idx = [i for i, e in enumerate(manifest.entries) if e.label == label]
        if not idx:
            per_class[label.value] = {"n": 0}
            continue
        recs = [per_clip[i] for i in idx]
        mean_mag = np.mean([results[i][1] for i in idx], axis=0)
        rate = results[idx[0]][2]
        peak_bin = 1 + int(np.argmax(mean_mag[1:]))
        per_class[label.value] = {
            "n": len(recs),
            "rmse_mean": float(np.mean([r.rmse for r in recs])),
            "env_mean": float(np.mean([r.env_mean for r in recs])),
            "env_std": float(np.mean([r.env_std for r in recs])),
            "energy_mean": float(np.mean([r.energy for r in recs])),
            "peak_hz": float(peak_bin * rate / n_fft),
        }
    return {
        "per_clip": [vars(r) for r in per_clip],
        "per_class": per_class,
    }


def write_validation_report(report: dict, json_path: str, csv_path: str) -> None:
    write_json(json_path, report)
    header = ["id", "rmse", "env_mean", "env_std", "energy", "peak_hz"]
    rows = [
        [r["clip_id"], r["rmse"], r["env_mean"], r["env_std"], r["energy"], r["peak_hz"]]
        for r in report["per_clip"]
    ]
    write_csv(csv_path, header, rows)
