"""Corpus validation against per-class theoretical tone models.

For each clip, a samples array at the run's ``rate``: extract the analytic
envelope, rebuild the signal as envelope * cos(2*pi*f_c*t) at the class
tone frequency f_c of CLASS_TONE_HZ, and score the match with RMSE.
Envelope mean/std (edge-trimmed), total energy, and the spectral peak round
out the record, a dict keyed as the validation.json document names it;
per-class aggregates mirror the per-clip fields.
"""

from __future__ import annotations

import numpy as np

from . import dsp
from .audio_io import CLASS_TONE_HZ, LABELS, CorpusManifest
from .util import PipelineError

EDGE_TRIM = 0.05


def rmse(x, y) -> float:
    """sqrt(mean((x - y)^2)); sequences must have equal length."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise PipelineError(f"rmse length mismatch: {x.shape} vs {y.shape}")
    if x.size < 1:
        raise PipelineError("rmse needs at least one sample")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def reconstruct_theoretical(env: np.ndarray, rate: int, f_c_hz: float) -> np.ndarray:
    """A clip's analytic envelope ``env`` times a zero-phase cosine at ``f_c_hz``."""
    if f_c_hz >= rate / 2:
        raise PipelineError(
            f"f_c {f_c_hz} Hz is not below Nyquist for rate {rate}"
        )
    t = np.arange(env.size) / rate
    return env * np.cos(2.0 * np.pi * f_c_hz * t)


def envelope_stats(x: np.ndarray, env: np.ndarray) -> tuple[float, float, float]:
    """(env_mean, env_std, energy): stats of the clip's analytic envelope
    ``env`` with EDGE_TRIM of it cut off each end, energy = sum(x^2) over the full clip."""
    k = int(np.floor(EDGE_TRIM * env.size))
    env = env[k : env.size - k]
    energy = float(np.sum(x ** 2))
    return float(np.mean(env)), float(np.std(env)), energy


def peak_hz(mag: np.ndarray, rate: float, n_fft: int) -> float:
    """Frequency of the largest non-DC bin of a one-sided magnitude spectrum
    taken at ``n_fft`` points."""
    if mag.size < 2:
        return 0.0
    return float((1 + int(np.argmax(mag[1:]))) * rate / n_fft)


def validate_clip(clip_id: str, x: np.ndarray, rate: int, f_c_hz: float,
                  mag: np.ndarray, n_fft: int) -> dict:
    """One record; ``mag`` is the clip's magnitude spectrum at ``n_fft``
    points. The analytic envelope (a full-length FFT pair) is computed once
    and feeds both the reconstruction and the envelope stats."""
    env = dsp.analytic_envelope(x)
    theo = reconstruct_theoretical(env, rate, f_c_hz)
    env_mean, env_std, energy = envelope_stats(x, env)
    return {
        "clip_id": clip_id,
        "rmse": rmse(x, theo),
        "env_mean": env_mean,
        "env_std": env_std,
        "energy": energy,
        "peak_hz": peak_hz(mag, rate, n_fft),
    }


def validate_corpus(manifest: CorpusManifest, *, target_rate: int, jobs: int) -> dict:
    """The validation document: per-clip records against each clip's class
    tone, plus per-class aggregates.

    Every clip is loaded at ``target_rate`` and takes one FFT, at the size
    the manifest's entries give for the longest clip, so each WAV header is
    read once, by the load. That spectrum gives both the clip's peak and
    its share of the class-mean magnitude spectrum, whose peak is the
    class's, so every peak sits on the same grid of ``target_rate / n_fft``
    Hz. Aggregation is the mean of the per-clip values. Empty classes are
    reported, not fatal. The clips come from `CorpusManifest.map_clips`,
    and each class's spectrum is a running sum in manifest order, so memory
    follows the clip, not the corpus, and results do not depend on ``jobs``.
    """
    if not manifest.entries:
        raise PipelineError("cannot validate an empty manifest")

    n_fft = dsp.next_pow2(max(manifest.clip_length(e, target_rate=target_rate)
                              for e in manifest.entries))

    def work(entry, x):
        mag = np.abs(dsp.fft(x, n_fft))
        return entry.label, validate_clip(entry.clip_id, x, target_rate,
                                          CLASS_TONE_HZ[entry.label], mag, n_fft), mag

    per_clip, mag_sums = [], {}
    for label, rec, mag in manifest.map_clips(work, target_rate=target_rate, jobs=jobs):
        per_clip.append(rec)
        mag_sums[label] = np.add(mag_sums.get(label, 0.0), mag, out=mag)   # no third array

    per_class: dict[str, dict] = {}
    for label in LABELS:
        recs = [r for r, e in zip(per_clip, manifest.entries) if e.label == label]
        if not recs:
            per_class[label.value] = {"n": 0}
            continue
        per_class[label.value] = {
            "n": len(recs),
            "rmse_mean": float(np.mean([r["rmse"] for r in recs])),
            "env_mean": float(np.mean([r["env_mean"] for r in recs])),
            "env_std": float(np.mean([r["env_std"] for r in recs])),
            "energy_mean": float(np.mean([r["energy"] for r in recs])),
            "peak_hz": peak_hz(mag_sums[label] / len(recs), target_rate, n_fft),
        }
    return {
        "per_clip": per_clip,
        "per_class": per_class,
    }

