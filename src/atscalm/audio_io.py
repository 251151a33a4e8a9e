"""Audio corpus I/O: WAV codec, manifests, resampling, synthetic corpora.

WAV support is deliberately narrow: PCM 16-bit or IEEE float 32-bit input,
1-2 channels; output is always 16-bit PCM mono. The canonical internal rate
is 16 kHz and downstream modules assume clips were resampled on ingest.
"""

from __future__ import annotations

import enum
import functools
import logging
import os
import struct
import wave
from dataclasses import dataclass

import numpy as np

from .util import PipelineError, keyed_rng, read_json, write_json

log = logging.getLogger(__name__)

CANONICAL_RATE = 16000


class ClassLabel(str, enum.Enum):
    SPIRITUAL_MEDITATION = "SpiritualMeditation"
    MUSIC = "Music"
    NORMAL_SILENCE = "NormalSilence"


LABELS = (ClassLabel.SPIRITUAL_MEDITATION, ClassLabel.MUSIC, ClassLabel.NORMAL_SILENCE)

SHORT_CODE = {
    ClassLabel.SPIRITUAL_MEDITATION: "SM",
    ClassLabel.MUSIC: "M",
    ClassLabel.NORMAL_SILENCE: "NS",
}

# Per-class characteristic tone frequency (Hz) used by the synthetic corpus
# and the theoretical reconstruction.
CLASS_TONE_HZ = {
    ClassLabel.SPIRITUAL_MEDITATION: 25.0,
    ClassLabel.MUSIC: 20.0,
    ClassLabel.NORMAL_SILENCE: 30.0,
}

DEFAULT_CLASS_DIRS = {
    ClassLabel.SPIRITUAL_MEDITATION: "Spiritual",
    ClassLabel.MUSIC: "Music",
    ClassLabel.NORMAL_SILENCE: "Normal",
}


def parse_label(name: str) -> ClassLabel:
    try:
        return ClassLabel(name)
    except ValueError:
        raise PipelineError(f"unknown class label {name!r}") from None


@dataclass
class AudioClip:
    samples: np.ndarray
    rate: int
    label: ClassLabel | None = None
    id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.rate <= 0:
            raise PipelineError(f"clip rate must be positive, got {self.rate}")
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise PipelineError("clip must hold a non-empty 1-d sample sequence")
        if not np.all(np.isfinite(self.samples)):
            raise PipelineError(f"clip {self.id!r} contains non-finite samples")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.rate


def _read_header(fh, path: str) -> tuple[int, int, int, int, int, int]:
    """Walk the RIFF chunks of an open WAV file up to its ``fmt `` and ``data``.

    Returns (format, channels, rate, bits, data offset, data size). Only
    chunk headers and the ``fmt `` body are read, and each chunk size is
    checked against the file length, so no sample byte is touched.
    """
    file_len = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise PipelineError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= file_len and (fmt is None or data is None):
        fh.seek(pos)
        cid, size = struct.unpack("<4sI", fh.read(8))
        if pos + 8 + size > file_len:
            raise PipelineError(f"{path}: {cid!r} chunk of {size} bytes runs past the "
                                f"end of the {file_len}-byte file")
        if cid == b"fmt ":
            if size < 16:
                raise PipelineError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack("<HHIIHH", fh.read(16))
        elif cid == b"data":
            data = (pos + 8, size)
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise PipelineError(f"{path}: missing fmt or data chunk")
    audio_format, n_ch, rate, _byte_rate, _block_align, bits = fmt
    if n_ch not in (1, 2):
        raise PipelineError(f"{path}: unsupported channel count {n_ch}")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise PipelineError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits}); "
            "expected PCM 16-bit or IEEE float 32-bit"
        )
    if rate == 0:
        raise PipelineError(f"{path}: cannot determine duration: sample rate is 0")
    if data[1] % (n_ch * bits // 8):
        raise PipelineError(
            f"{path}: data chunk of {data[1]} bytes is not a whole number of "
            f"{n_ch}-channel {bits}-bit frames"
        )
    if data[1] == 0:
        raise PipelineError(f"{path}: zero-length audio")
    return audio_format, n_ch, rate, bits, *data


def load_wav(path: str) -> AudioClip:
    """Read a RIFF/WAVE file (PCM16 or float32, mono/stereo) as mono float."""
    try:
        with open(path, "rb") as fh:
            audio_format, n_ch, rate, _bits, offset, size = _read_header(fh, path)
            fh.seek(offset)
            data = fh.read(size)
    except OSError as exc:
        raise PipelineError(f"cannot read {path}: {exc}") from exc
    if audio_format == 1:
        raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
    if n_ch == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    stem = os.path.splitext(os.path.basename(path))[0]
    return AudioClip(samples=raw, rate=rate, id=stem)


def save_wav(clip: AudioClip, path: str) -> None:
    """Write mono 16-bit PCM; values are clamped to [-1, 1] first."""
    x = np.clip(clip.samples, -1.0, 1.0)
    quant = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    try:
        with wave.open(path, "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(clip.rate)
            wav.writeframes(quant.tobytes())
    except OSError as exc:
        raise PipelineError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    path: str            # relative to the manifest location
    label: ClassLabel
    duration_s: float
    rate: int

    @property
    def clip_id(self) -> str:
        return os.path.splitext(self.path)[0].replace(os.sep, "/")


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]
    root: str = "."      # directory entry paths are relative to

    @property
    def counts(self) -> dict[ClassLabel, int]:
        return {lab: sum(e.label == lab for e in self.entries) for lab in LABELS}

    def load_clip(self, entry: ManifestEntry, target_rate: int | None = None) -> AudioClip:
        clip = load_wav(os.path.join(self.root, entry.path))
        clip.label = entry.label
        clip.id = entry.clip_id
        if target_rate is not None and clip.rate != target_rate:
            clip = resample(clip, target_rate)
        return clip


def _entry_for(root: str, rel_path: str, label: ClassLabel) -> ManifestEntry:
    # header-only probe; full decode happens on demand via load_clip
    full = os.path.join(root, rel_path)
    with open(full, "rb") as fh:
        _, n_ch, rate, bits, _, size = _read_header(fh, full)
    return ManifestEntry(rel_path, label, size // (n_ch * bits // 8) / rate, rate)


def build_manifest(root: str,
                   class_dir_map: dict[ClassLabel, str] = DEFAULT_CLASS_DIRS) -> CorpusManifest:
    """Scan ``root`` for per-class subdirectories of WAV files.

    Entries are sorted lexicographically by relative path so the manifest is
    deterministic across platforms. Subdirectories not named in the map are
    skipped with a warning.
    """
    if not os.path.isdir(root):
        raise PipelineError(f"corpus root {root!r} does not exist")
    dir_to_label = {d: lab for lab, d in class_dir_map.items()}
    for d in class_dir_map.values():
        if not os.path.isdir(os.path.join(root, d)):
            raise PipelineError(f"mapped class directory {d!r} missing under {root!r}")
    entries: list[ManifestEntry] = []
    for sub in sorted(os.listdir(root)):
        full = os.path.join(root, sub)
        if not os.path.isdir(full):
            continue
        label = dir_to_label.get(sub)
        if label is None:
            log.warning("skipping unmapped subdirectory %s", full)
            continue
        for name in sorted(os.listdir(full)):
            if not name.lower().endswith(".wav"):
                continue
            entries.append(_entry_for(root, os.path.join(sub, name), label))
    if not entries:
        raise PipelineError(f"empty corpus under {root!r}")
    entries.sort(key=lambda e: e.path)
    return CorpusManifest(entries=entries, root=root)


def save_manifest(manifest: CorpusManifest, path: str) -> None:
    obj = {
        "entries": [
            {
                "path": e.path.replace(os.sep, "/"),
                "label": e.label.value,
                "duration_s": e.duration_s,
                "rate": e.rate,
            }
            for e in manifest.entries
        ],
        "counts": {lab.value: n for lab, n in manifest.counts.items()},
    }
    write_json(path, obj)


def load_manifest(path: str) -> CorpusManifest:
    obj = read_json(path)
    root = os.path.dirname(os.path.abspath(path))
    entries = [
        ManifestEntry(
            path=item["path"],
            label=parse_label(item["label"]),
            duration_s=float(item["duration_s"]),
            rate=int(item["rate"]),
        )
        for item in obj["entries"]
    ]
    manifest = CorpusManifest(entries=entries, root=root)
    stored = {parse_label(k): int(v) for k, v in obj["counts"].items()}
    if any(stored.get(lab, 0) != n for lab, n in manifest.counts.items()):
        raise PipelineError(f"{path}: stored class counts do not match the entries")
    return manifest


_RESAMPLE_HALF = 32      # 64 taps
_RESAMPLE_BETA = 8.0
_RESAMPLE_PHASES = 512   # kernel table resolution per unit tap offset
_RESAMPLE_BLOCK = 1024   # outputs per tap block: (1024, 64) float64 is 512 KiB


@functools.lru_cache(maxsize=None)
def _resample_kernel_table(cutoff: float) -> np.ndarray:
    """(phases+1, 64) table of the Kaiser-windowed sinc at fractional offsets.

    Row p holds the 64 tap weights for fractional position p/phases; rows
    are linearly interpolated at lookup time (error ~1e-6 of peak).
    """
    half = _RESAMPLE_HALF
    fracs = np.arange(_RESAMPLE_PHASES + 1) / _RESAMPLE_PHASES
    ks = np.arange(2 * half)
    u = fracs[:, None] + (half - 1) - ks[None, :]
    t = u / half
    win = np.where(
        np.abs(t) <= 1.0,
        np.i0(_RESAMPLE_BETA * np.sqrt(np.maximum(0.0, 1.0 - t * t))) / np.i0(_RESAMPLE_BETA),
        0.0,
    )
    return cutoff * np.sinc(cutoff * u) * win


def resample_signal(x: np.ndarray, src_rate: float, dst_rate: float) -> np.ndarray:
    """Band-limited resampling: 64-tap Kaiser(beta=8) windowed sinc.

    Cutoff sits at min(src, dst)/2. Output length is round(N * dst/src).
    Positions and kernel-table coordinates are computed for the whole
    output at once; the taps are then applied _RESAMPLE_BLOCK outputs at a
    time, each output's 64 input samples read as one row of a sliding
    window view, so the per-block temporaries stay cache-sized.
    """
    x = np.asarray(x, dtype=np.float64)
    if not src_rate > 0:
        raise PipelineError(f"source rate must be positive, got {src_rate}")
    if not dst_rate > 0:
        raise PipelineError(f"target rate must be positive, got {dst_rate}")
    if src_rate == dst_rate:
        return x.copy()
    ratio = dst_rate / src_rate
    n_out = int(round(x.size * ratio))
    cutoff = min(1.0, ratio)  # normalized to source Nyquist
    half = _RESAMPLE_HALF
    table = _resample_kernel_table(cutoff)
    pos = np.arange(n_out) / ratio
    base = np.floor(pos).astype(np.int64)
    fi = (pos - base) * _RESAMPLE_PHASES
    fi0 = np.floor(fi).astype(np.int64)
    w = (fi - fi0)[:, None]
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + 1)])
    # taps[b] = xp[b + 1 : b + 65], the inputs of an output whose position
    # floors to b (shifted by the zero-pad margin)
    taps = np.lib.stride_tricks.sliding_window_view(xp, 2 * half)[1:]
    out = np.empty(n_out)
    for s in range(0, n_out, _RESAMPLE_BLOCK):
        e = s + _RESAMPLE_BLOCK
        kern = table[fi0[s:e]] * (1.0 - w[s:e]) + table[fi0[s:e] + 1] * w[s:e]
        out[s:e] = np.sum(kern * taps[base[s:e]], axis=1)
    return out


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    y = resample_signal(clip.samples, clip.rate, target_rate)
    return AudioClip(y, target_rate, clip.label, clip.id)


# lower clamp of the synthetic envelope, keeping the analytic envelope well defined
ENVELOPE_FLOOR = 0.1


@dataclass
class SynthConfig:
    n_per_class: int = 8
    duration_s: float = 2.0
    seed: int = 0
    snr_db: float | None = None   # None = noise-free

    def __post_init__(self):
        if self.n_per_class < 1:
            raise PipelineError("n_per_class must be >= 1")


def synth_signal(label: ClassLabel, index: int, cfg: SynthConfig,
                 rate: int = CANONICAL_RATE) -> np.ndarray:
    """One synthetic clip: slowly modulated tone at the class frequency.

    The envelope is 0.5 plus up to three sinusoids below 2 Hz, clamped to
    ENVELOPE_FLOOR; the carrier starts at phase 0.
    """
    rng = keyed_rng(cfg.seed, "synth", label.value, index)
    n = int(round(cfg.duration_s * rate))
    t = np.arange(n) / rate
    n_comp = int(rng.integers(1, 4))
    freqs = rng.uniform(0.2, 2.0, n_comp)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_comp)
    amps = rng.uniform(0.2, 1.0, n_comp)
    # modest total modulation keeps clip-to-clip RMS nearly constant, so the
    # class tone stays the dominant factor of variation across the corpus
    amps *= rng.uniform(0.1, 0.2) / amps.sum()
    env = 0.5 + sum(a * np.cos(2.0 * np.pi * f * t + p) for a, f, p in zip(amps, freqs, phases))
    env = np.maximum(env, ENVELOPE_FLOOR)
    x = env * np.cos(2.0 * np.pi * CLASS_TONE_HZ[label] * t)
    if cfg.snr_db is not None:
        p_sig = float(np.mean(x * x))
        sigma = np.sqrt(p_sig / (10.0 ** (cfg.snr_db / 10.0)))
        x = x + rng.normal(0.0, sigma, n)
    return x


def synth_corpus(out_dir: str, cfg: SynthConfig,
                 class_dir_map: dict[ClassLabel, str] = DEFAULT_CLASS_DIRS,
                 rate: int = CANONICAL_RATE) -> CorpusManifest:
    """Generate a labeled synthetic corpus on disk plus its manifest.

    Pure function of the config: the same seed yields bit-identical WAV
    files and manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries: list[ManifestEntry] = []
    for label in LABELS:
        sub = class_dir_map[label]
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
        for i in range(cfg.n_per_class):
            x = synth_signal(label, i, cfg, rate)
            rel = os.path.join(sub, f"clip_{i:03d}.wav")
            save_wav(AudioClip(x, rate, label), os.path.join(out_dir, rel))
            entries.append(ManifestEntry(rel, label, len(x) / rate, rate))
    entries.sort(key=lambda e: e.path)
    manifest = CorpusManifest(entries=entries, root=out_dir)
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
