"""Audio corpus I/O: WAV codec, manifests, resampling, synthetic corpora.

WAV support is deliberately narrow: PCM 16-bit or IEEE float 32-bit input,
1-2 channels; output is always 16-bit PCM mono. A clip is its samples
array at the run's ``rate`` (`CorpusManifest.load_clip` resamples on
ingest), and functions downstream take that rate as an argument. The
manifest walks its own clips: `CorpusManifest.map_clips` is the one loop of
every per-clip stage, and it names the clip whose work fails. `manifest_of`
builds every manifest from its files' WAV headers.

Resampling (`resample_signal`, which every pitch shift ends in) applies a
64-tap Kaiser(beta=8) windowed sinc in Farrow form: per cutoff, a cached
(64, 10) table holds each tap's weight as a degree-9 polynomial in the
output's fractional position, within 2.4e-9 of the exact kernel. An output
then costs 64 gathered inputs, one row of a (block, 64) x (64, 10) GEMM
and a 9-step Horner evaluation.
"""

from __future__ import annotations

import concurrent.futures
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


def load_wav(path: str) -> tuple[np.ndarray, int]:
    """Read a RIFF/WAVE file (PCM16 or float32, mono/stereo) as (mono float
    samples, rate). A float file holding a NaN or infinity is rejected."""
    try:
        with open(path, "rb") as fh:
            audio_format, n_ch, rate, _bits, offset, size = _read_header(fh, path)
            fh.seek(offset)
            data = fh.read(size)
    except OSError as exc:
        raise PipelineError(f"cannot read {path}: {exc.strerror}") from exc
    if audio_format == 1:
        raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(raw)):
            raise PipelineError(f"{path}: non-finite sample (NaN or infinity)")
    if n_ch == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    return raw, rate


def save_wav(x: np.ndarray, rate: int, path: str) -> None:
    """Write mono 16-bit PCM; values are clamped to [-1, 1] first."""
    x = np.clip(x, -1.0, 1.0)
    quant = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    try:
        with wave.open(path, "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(rate)
            wav.writeframes(quant.tobytes())
    except OSError as exc:
        raise PipelineError(f"cannot write {path}: {exc.strerror}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    path: str            # relative to the manifest location
    label: ClassLabel
    frames: int          # samples per channel, from the WAV header
    rate: int

    @property
    def duration_s(self) -> float:
        return self.frames / self.rate

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

    def load_clip(self, entry: ManifestEntry, *, target_rate: int) -> np.ndarray:
        x, rate = load_wav(os.path.join(self.root, entry.path))
        return x if rate == target_rate else resample_signal(x, rate, target_rate)

    def map_clips(self, fn, *, target_rate: int, jobs: int):
        """``fn(entry, samples)`` for each entry in order, its clip loaded at ``target_rate``:
        ``jobs`` clips in flight, one per thread (at 1, on the caller's). A PipelineError
        from ``fn`` is raised again with the clip's path in front."""

        def work(entry):
            x = self.load_clip(entry, target_rate=target_rate)   # a load error names the file
            try:
                return fn(entry, x)
            except PipelineError as exc:
                raise type(exc)(f"{entry.path}: {exc}") from None

        if jobs <= 1:
            yield from map(work, self.entries)
            return
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            in_flight = [pool.submit(work, e) for e in self.entries[:jobs]]
            for entry in self.entries[jobs:]:
                yield in_flight.pop(0).result()
                in_flight.append(pool.submit(work, entry))
            yield from (future.result() for future in in_flight)

    def clip_length(self, entry: ManifestEntry, *, target_rate: int) -> int:
        """Samples `load_clip` returns for ``entry``, from the entry alone."""
        if entry.rate == target_rate:
            return entry.frames
        return resampled_length(entry.frames, entry.rate, target_rate)


def _wav_frames(path: str) -> tuple[int, int]:
    """(frames, rate) of a WAV file from its header; no sample byte is read."""
    try:
        with open(path, "rb") as fh:
            _, n_ch, rate, bits, _, size = _read_header(fh, path)
    except OSError as exc:
        raise PipelineError(f"cannot read {path}: {exc.strerror}") from exc
    return size // (n_ch * bits // 8), rate


def manifest_of(root: str, files: list[tuple[str, ClassLabel]]) -> CorpusManifest:
    """The manifest of ``files``, (path relative to ``root``, label) pairs, each
    path kept and sorted after `os.path.normpath` (``./a.wav`` is clip ``a``); an
    empty list, or a path listed twice, is rejected. Each entry's frames and rate
    come from a header-only probe of its file; `load_clip` decodes the samples."""
    if not files:
        raise PipelineError(f"empty corpus under {root!r}")
    files = sorted((os.path.normpath(rel_path), label) for rel_path, label in files)
    if twice := [a for (a, _), (b, _) in zip(files, files[1:]) if a == b]:
        raise PipelineError(f"{twice[0]} is listed more than once")
    entries = [ManifestEntry(rel_path, label, *_wav_frames(os.path.join(root, rel_path)))
               for rel_path, label in files]
    return CorpusManifest(entries=entries, root=root)


def build_manifest(root: str, class_dir_map: dict[ClassLabel, str]) -> CorpusManifest:
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
    files = []
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
            files.append((os.path.join(sub, name), label))
    return manifest_of(root, files)


def save_manifest(manifest: CorpusManifest, path: str) -> None:
    write_json(path, {
        "entries": [{"path": e.path.replace(os.sep, "/"), "label": e.label.value,
                     "duration_s": e.duration_s, "rate": e.rate} for e in manifest.entries],
        "counts": {lab.value: n for lab, n in manifest.counts.items()},
    })


_ENTRY_TYPES = {"path": str, "label": str, "duration_s": (int, float), "rate": int}


def _manifest_file(i: int, item) -> tuple[str, ClassLabel]:
    for key, tp in _ENTRY_TYPES.items():
        value = item.get(key) if isinstance(item, dict) else None
        if not isinstance(value, tp) or isinstance(value, bool):
            raise PipelineError(f"entry {i} has no valid {key!r}: {item!r}")
    return item["path"], parse_label(item["label"])


def load_manifest(path: str) -> CorpusManifest:
    """Read a manifest written by save_manifest, its entries rebuilt by
    `manifest_of` from the WAV headers, in path order; a malformed document
    or header raises PipelineError naming the manifest."""
    try:
        obj = read_json(path)
    except ValueError as exc:
        raise PipelineError(f"{path}: not a JSON manifest: {exc}") from None
    if not (isinstance(obj, dict) and isinstance(obj.get("entries"), list)
            and isinstance(obj.get("counts"), dict)):
        raise PipelineError(f"{path}: a manifest is an object with an 'entries' list "
                            "and a 'counts' object")
    try:
        files = [_manifest_file(i, item) for i, item in enumerate(obj["entries"])]
        stored = {parse_label(k): v for k, v in obj["counts"].items()}
        manifest = manifest_of(os.path.dirname(os.path.abspath(path)), files)
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from None
    if any(stored.get(lab, 0) != n for lab, n in manifest.counts.items()):
        raise PipelineError(f"{path}: stored class counts do not match the entries")
    return manifest


_RESAMPLE_HALF = 32      # 64 taps
_RESAMPLE_BETA = 8.0
_RESAMPLE_DEGREE = 9     # Farrow polynomial degree in the fractional position
_RESAMPLE_BLOCK = 1024   # outputs per tap block: (1024, 64) float64 is 512 KiB


def resampled_length(n: int, src_rate: float, dst_rate: float) -> int:
    """Samples `resample_signal` makes from ``n`` at ``src_rate``: round(n * dst/src)."""
    return int(round(n * (dst_rate / src_rate)))


@functools.cache
def _farrow_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, window, fit) at the Farrow fit's nodes, for every cutoff.

    The nodes are the degree + 1 Chebyshev points phi_i of [0, 1]. ``u``
    holds tap k's offset phi_i + 31 - k from output to input, ``window``
    the Kaiser window there, and ``fit`` the inverse Vandermonde matrix
    that turns values at the nodes into monomial coefficients in phi.
    None depends on the cutoff, so they are built once, on first use
    rather than at import.
    """
    m = _RESAMPLE_DEGREE + 1
    phi = (1.0 - np.cos(np.pi * (np.arange(m) + 0.5) / m)) / 2.0
    u = phi[:, None] + (_RESAMPLE_HALF - 1) - np.arange(2 * _RESAMPLE_HALF)[None, :]
    t = u / _RESAMPLE_HALF
    win = np.i0(_RESAMPLE_BETA * np.sqrt(1.0 - t * t)) / np.i0(_RESAMPLE_BETA)
    fit = np.linalg.inv(phi[:, None] ** np.arange(m)[None, :])
    return u, win, fit


@functools.lru_cache(maxsize=8)
def _farrow_table(cutoff: float) -> np.ndarray:
    """(64, degree + 1) table of the kernel's Farrow coefficients.

    Row k holds the coefficients, lowest power first, of the degree-9
    polynomial in phi in [0, 1) that interpolates tap k's weight
    h(phi + 31 - k), h(u) = cutoff * sinc(cutoff * u) * kaiser(u / 32), at
    the Chebyshev nodes. On a dense phi grid it is within 2.4e-9 of h at
    every cutoff in [0.36, 1], and the 64 taps' errors sum to at most
    3.8e-8 (at cutoff 1). Each pitch shift up draws a new cutoff, so the
    cache is bounded: a table takes well under a ms to fit.
    """
    u, win, fit = _farrow_basis()
    return (fit @ (cutoff * np.sinc(cutoff * u) * win)).T.copy()


def resample_signal(x: np.ndarray, src_rate: float, dst_rate: float) -> np.ndarray:
    """Band-limited resampling: 64-tap Kaiser(beta=8) windowed sinc.

    Cutoff sits at min(src, dst)/2. Output length is `resampled_length`.
    The kernel is evaluated in Farrow form (C. W. Farrow, ISCAS 1988): each
    tap's weight is a degree-9 polynomial in the output's fractional
    position phi (`_farrow_table`), so an output is the Horner evaluation
    in phi of its 64 inputs' products with the table's columns. Outputs
    are made _RESAMPLE_BLOCK at a time: a block computes its own positions,
    gathers each output's 64 inputs as one row of a sliding window view,
    multiplies the (block, 64) rows by the table in one GEMM and runs
    Horner over the (block, 10) result. No temporary grows with the
    signal, and the per-block ones stay cache-sized. Against the exact
    windowed sinc the output is within 6.6e-9 * max|x| on random signals.
    """
    x = np.asarray(x, dtype=np.float64)
    if not src_rate > 0:
        raise PipelineError(f"source rate must be positive, got {src_rate}")
    if not dst_rate > 0:
        raise PipelineError(f"target rate must be positive, got {dst_rate}")
    if src_rate == dst_rate:
        return x.copy()
    ratio = dst_rate / src_rate
    n_out = resampled_length(x.size, src_rate, dst_rate)
    half = _RESAMPLE_HALF
    table = _farrow_table(min(1.0, ratio))  # cutoff normalized to source Nyquist
    xp = np.concatenate([np.zeros(half), x, np.zeros(half + 1)])
    # taps[b] = xp[b + 1 : b + 65], the inputs of an output whose position
    # floors to b (shifted by the zero-pad margin)
    taps = np.lib.stride_tricks.sliding_window_view(xp, 2 * half)[1:]
    out = np.empty(n_out)
    for s in range(0, n_out, _RESAMPLE_BLOCK):
        e = min(s + _RESAMPLE_BLOCK, n_out)
        pos = np.arange(s, e) / ratio
        base = np.floor(pos).astype(np.int64)
        phi = pos - base
        terms = (taps[base] @ table).T
        acc = out[s:e]
        np.multiply(terms[-1], phi, out=acc)
        for j in range(_RESAMPLE_DEGREE - 1, 0, -1):
            acc += terms[j]
            acc *= phi
        acc += terms[0]
    return out


# lower clamp of the synthetic envelope, keeping the analytic envelope well defined
ENVELOPE_FLOOR = 0.1
# largest |snr_db|: 10 ** (snr_db / 10) stays a finite, nonzero float64
SNR_DB_LIMIT = 300.0


@dataclass
class SynthConfig:
    n_per_class: int = 8
    duration_s: float = 2.0
    snr_db: float | None = None   # None = noise-free

    def __post_init__(self):
        if self.n_per_class < 1:
            raise PipelineError("n_per_class must be >= 1")
        if self.duration_s <= 0:
            raise PipelineError("duration_s must be > 0")
        if self.snr_db is not None and not abs(self.snr_db) <= SNR_DB_LIMIT:
            raise PipelineError(f"snr_db must be within [-{SNR_DB_LIMIT:g}, {SNR_DB_LIMIT:g}] dB, "
                                f"got {self.snr_db}")


def synth_signal(label: ClassLabel, index: int, cfg: SynthConfig, rate: int,
                 seed: int) -> np.ndarray:
    """One synthetic clip: slowly modulated tone at the class frequency.

    The envelope is 0.5 plus up to three sinusoids below 2 Hz, clamped to
    ENVELOPE_FLOOR; the carrier starts at phase 0.
    """
    rng = keyed_rng(seed, "synth", label.value, index)
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


def synth_corpus(out_dir: str, cfg: SynthConfig, class_dir_map: dict[ClassLabel, str],
                 rate: int, seed: int) -> CorpusManifest:
    """Generate a labeled synthetic corpus on disk plus its manifest.

    Pure function of the config and ``seed``: the same pair yields
    bit-identical WAV files and manifest. ``class_dir_map`` must name a
    directory for every class.
    """
    unmapped = [lab.value for lab in LABELS if lab not in class_dir_map]
    if unmapped:
        raise PipelineError(f"class_dirs names no directory for {', '.join(unmapped)}; "
                            "synth writes every class")
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for label in LABELS:
        sub = class_dir_map[label]
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
        for i in range(cfg.n_per_class):
            # x stays bound: freed inline before the next clip, glibc trims and refaults the heap
            x = synth_signal(label, i, cfg, rate, seed)
            rel = os.path.join(sub, f"clip_{i:03d}.wav")
            save_wav(x, rate, os.path.join(out_dir, rel))
            files.append((rel, label))
    manifest = manifest_of(out_dir, files)
    save_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest
