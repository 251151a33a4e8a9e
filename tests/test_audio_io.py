import json
import os
import struct
import wave

import numpy as np
import pytest

import frontend_oracle
from atscalm import audio_io as aio
from atscalm.util import PipelineError, keyed_rng
from atscalm.validation import peak_frequency


def write_pcm16(path, samples_int16, rate=16000, channels=1):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


def write_riff(path, data, audio_format, channels, bits, rate=16000):
    """A canonical 44-byte-header WAV around raw ``data`` bytes, taken as given."""
    block = channels * bits // 8
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(data)))
        fh.write(b"WAVEfmt ")
        fh.write(struct.pack("<IHHIIHH", 16, audio_format, channels, rate, rate * block, block, bits))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(data)))
        fh.write(data)


def write_float32(path, samples, rate=16000):
    write_riff(path, np.asarray(samples, dtype="<f4").tobytes(), 3, 1, 32, rate)


class TestLoadWav:
    def test_scaling_identity(self, tmp_path):
        path = tmp_path / "half.wav"
        write_pcm16(path, np.full(100, 16384))
        clip = aio.load_wav(str(path))
        assert np.max(np.abs(clip.samples - 0.5)) <= 1.0 / 32768

    def test_stereo_symmetric_average(self, tmp_path):
        path = tmp_path / "stereo.wav"
        frames = np.zeros((50, 2), dtype="<i2")
        frames[:, 0] = 16384
        frames[:, 1] = -16384
        write_pcm16(path, frames.reshape(-1), channels=2)
        clip = aio.load_wav(str(path))
        assert np.max(np.abs(clip.samples)) == 0.0

    def test_float32_input(self, tmp_path):
        path = tmp_path / "f32.wav"
        x = keyed_rng("f32", 0).uniform(-1, 1, 64).astype(np.float32)
        write_float32(path, x)
        clip = aio.load_wav(str(path))
        assert np.allclose(clip.samples, x, atol=1e-7)
        assert clip.rate == 16000

    def test_roundtrip_quantization_bound(self, tmp_path):
        path = tmp_path / "rt.wav"
        x = keyed_rng("rt", 1).uniform(-1, 1, 500)
        aio.save_wav(aio.AudioClip(x, 16000), str(path))
        back = aio.load_wav(str(path)).samples
        assert np.max(np.abs(back - x)) <= 2.0**-15

    def test_double_roundtrip_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        x = keyed_rng("rt2", 2).uniform(-1, 1, 300)
        aio.save_wav(aio.AudioClip(x, 16000), str(p1))
        once = aio.load_wav(str(p1))
        aio.save_wav(once, str(p2))
        twice = aio.load_wav(str(p2))
        assert np.array_equal(once.samples, twice.samples)

    def test_missing_file(self):
        with pytest.raises(PipelineError):
            aio.load_wav("/nonexistent/clip.wav")

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_pcm16(path, np.zeros(0, dtype="<i2"))
        with pytest.raises(PipelineError):
            aio.load_wav(str(path))

    @pytest.mark.parametrize("channels,n_bytes", [(1, 101), (2, 202)])
    def test_partial_frame_named(self, tmp_path, channels, n_bytes):
        # an odd byte count (mono) or an odd sample count (stereo)
        path = tmp_path / "partial.wav"
        write_riff(path, bytes(n_bytes), 1, channels, 16)
        with pytest.raises(PipelineError, match="partial.wav.*not a whole number"):
            aio.load_wav(str(path))

    @pytest.mark.parametrize("cut", [30, 43])
    def test_truncated_fmt_named(self, tmp_path, cut):
        # the file ends inside the fmt chunk (30) or the data chunk header (43)
        path = tmp_path / "short.wav"
        write_pcm16(path, np.full(100, 7))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(PipelineError, match="short.wav"):
            aio.load_wav(str(path))

    def test_fmt_chunk_under_16_bytes_named(self, tmp_path):
        path = tmp_path / "fmt8.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 28) + b"WAVEfmt " + struct.pack("<I", 8)
                         + bytes(8) + b"data" + struct.pack("<I", 0))
        with pytest.raises(PipelineError, match="fmt8.wav: truncated fmt chunk"):
            aio.load_wav(str(path))

    def test_data_past_end_named(self, tmp_path):
        path = tmp_path / "long.wav"
        write_riff(path, bytes(200), 1, 1, 16)
        blob = bytearray(path.read_bytes())
        blob[40:44] = struct.pack("<I", 400)   # declares twice the bytes present
        path.write_bytes(bytes(blob))
        with pytest.raises(PipelineError, match="long.wav.*runs past the end"):
            aio.load_wav(str(path))

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "u8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(bytes(100))
        with pytest.raises(PipelineError):
            aio.load_wav(str(path))


class TestSaveWav:
    def test_zero_clip(self, tmp_path):
        path = tmp_path / "z.wav"
        aio.save_wav(aio.AudioClip(np.zeros(50), 16000), str(path))
        assert np.all(aio.load_wav(str(path)).samples == 0)

    def test_clamp_rule(self, tmp_path):
        path = tmp_path / "c.wav"
        aio.save_wav(aio.AudioClip(np.array([2.0, -3.0]), 16000), str(path))
        with wave.open(str(path)) as fh:
            raw = np.frombuffer(fh.readframes(2), dtype="<i2")
        assert raw[0] == 32767 and raw[1] == -32768


class TestManifest:
    def _mk_corpus(self, root, per_class=1):
        for lab, sub in aio.DEFAULT_CLASS_DIRS.items():
            os.makedirs(os.path.join(root, sub), exist_ok=True)
            for i in range(per_class):
                write_pcm16(os.path.join(root, sub, f"clip_{i}.wav"), np.full(1600, 1000))

    def test_three_dirs_one_each(self, tmp_path):
        self._mk_corpus(str(tmp_path))
        man = aio.build_manifest(str(tmp_path))
        assert len(man.entries) == 3
        assert all(v == 1 for v in man.counts.values())

    def test_sorted_and_deterministic(self, tmp_path):
        self._mk_corpus(str(tmp_path), per_class=3)
        man1 = aio.build_manifest(str(tmp_path))
        man2 = aio.build_manifest(str(tmp_path))
        paths = [e.path for e in man1.entries]
        assert paths == sorted(paths)
        assert paths == [e.path for e in man2.entries]

    def test_duplicate_filenames_distinct(self, tmp_path):
        self._mk_corpus(str(tmp_path))
        man = aio.build_manifest(str(tmp_path))
        ids = {e.clip_id for e in man.entries}
        assert len(ids) == 3  # directory prefixes disambiguate clip_0.wav

    def test_unmapped_dir_skipped(self, tmp_path, caplog):
        self._mk_corpus(str(tmp_path))
        os.makedirs(tmp_path / "Extra")
        write_pcm16(tmp_path / "Extra" / "x.wav", np.full(100, 5))
        man = aio.build_manifest(str(tmp_path))
        assert len(man.entries) == 3

    def test_empty_corpus(self, tmp_path):
        for sub in aio.DEFAULT_CLASS_DIRS.values():
            os.makedirs(tmp_path / sub)
        with pytest.raises(PipelineError):
            aio.build_manifest(str(tmp_path))

    def test_zero_rate_header_named(self, tmp_path):
        self._mk_corpus(str(tmp_path))
        write_riff(tmp_path / "Music" / "clip_0.wav", bytes(3200), 1, 1, 16, rate=0)
        with pytest.raises(PipelineError, match="clip_0.wav: cannot determine duration"):
            aio.build_manifest(str(tmp_path))

    def test_header_faults_named_by_probe(self, tmp_path):
        self._mk_corpus(str(tmp_path))
        bad = tmp_path / "Music" / "clip_0.wav"
        bad.write_bytes(bad.read_bytes()[:30])   # cut inside the fmt chunk
        with pytest.raises(PipelineError, match="clip_0.wav"):
            aio.build_manifest(str(tmp_path))

    def test_counts_derived_and_checked_on_load(self, tmp_path):
        self._mk_corpus(str(tmp_path), per_class=2)
        man = aio.build_manifest(str(tmp_path))
        assert man.counts == {lab: 2 for lab in aio.LABELS}
        path = tmp_path / "manifest.json"
        aio.save_manifest(man, str(path))
        obj = json.loads(path.read_text())
        obj["counts"]["Music"], obj["counts"]["NormalSilence"] = 3, 1
        path.write_text(json.dumps(obj))
        with pytest.raises(PipelineError, match="counts do not match"):
            aio.load_manifest(str(path))

    def test_save_load_roundtrip(self, tmp_path):
        self._mk_corpus(str(tmp_path), per_class=2)
        man = aio.build_manifest(str(tmp_path))
        path = tmp_path / "manifest.json"
        aio.save_manifest(man, str(path))
        back = aio.load_manifest(str(path))
        assert [e.path for e in back.entries] == [e.path for e in man.entries]
        assert back.counts == man.counts
        clip = back.load_clip(back.entries[0])
        assert clip.samples.size == 1600


class TestResample:
    @pytest.mark.parametrize("src,dst", [(0, 16000), (-8000, 16000), (16000, 0)])
    def test_nonpositive_rate_named(self, src, dst):
        bad = src if src <= 0 else dst
        with pytest.raises(PipelineError, match=f"rate must be positive, got {bad}"):
            aio.resample_signal(np.ones(100), src, dst)

    @pytest.mark.parametrize("n,src,dst", [
        (16000, 16000, 44100),                  # up
        (44100, 44100, 16000),                  # down
        (20000, 16000, 16001),                  # ratio near 1
        (3001, 16000 * 2 ** (1.5 / 12), 16000),  # pitch-shift ratio, n_out off the block size
        (70001, 16000, 16000 * 2 ** (-1 / 12)),  # more than one oracle block
    ])
    def test_bit_identical_to_block_oracle(self, n, src, dst):
        x = keyed_rng("rs-oracle", n).normal(0, 0.3, n)
        got = aio.resample_signal(x, src, dst)
        assert got.size % aio._RESAMPLE_BLOCK != 0
        assert np.array_equal(got, frontend_oracle.resample_signal(x, src, dst))

    def test_identity(self):
        clip = aio.AudioClip(keyed_rng("rs", 0).normal(0, 0.1, 1000), 16000)
        out = aio.resample(clip, 16000)
        assert np.array_equal(out.samples, clip.samples)

    def test_tone_preserved(self):
        t = np.arange(48000) / 48000.0
        clip = aio.AudioClip(np.sin(2 * np.pi * 1000 * t), 48000)
        out = aio.resample(clip, 16000)
        assert out.rate == 16000
        peak = peak_frequency(out.samples, 16000)
        bin_hz = 16000 / 16384  # 16000 samples pad to the next power of two
        assert abs(peak - 1000.0) <= bin_hz

    def test_length_ratio(self):
        n = 32001
        clip = aio.AudioClip(np.ones(n), 32000)
        out = aio.resample(clip, 16000)
        assert abs(out.samples.size - round(n / 2)) <= 1

    def test_duration_preserved(self):
        clip = aio.AudioClip(np.ones(16000), 16000)
        out = aio.resample(clip, 44100)
        assert abs(out.duration_s - 1.0) <= 1.0 / 44100


class TestSynthCorpus:
    def test_same_seed_bit_identical(self, tmp_path):
        cfg = aio.SynthConfig(n_per_class=1, duration_s=1.0, seed=11)
        man1 = aio.synth_corpus(str(tmp_path / "a"), cfg)
        man2 = aio.synth_corpus(str(tmp_path / "b"), cfg)
        for e1, e2 in zip(man1.entries, man2.entries):
            x1 = aio.load_wav(os.path.join(man1.root, e1.path)).samples
            x2 = aio.load_wav(os.path.join(man2.root, e2.path)).samples
            assert np.array_equal(x1, x2)

    def test_class_tones_dominate(self, tmp_path):
        cfg = aio.SynthConfig(n_per_class=1, duration_s=2.0, seed=5)
        man = aio.synth_corpus(str(tmp_path), cfg)
        for entry in man.entries:
            clip = man.load_clip(entry)
            peak = peak_frequency(clip.samples, clip.rate)
            assert abs(peak - aio.CLASS_TONE_HZ[entry.label]) < 1.0

    def test_envelope_recovery(self):
        from atscalm import dsp

        cfg = aio.SynthConfig(n_per_class=1, duration_s=2.0, seed=3)
        label = aio.ClassLabel.SPIRITUAL_MEDITATION
        x = aio.synth_signal(label, 0, cfg)
        # rebuild the true envelope with the same keyed draws
        rng = keyed_rng(cfg.seed, "synth", label.value, 0)
        n = x.size
        t = np.arange(n) / aio.CANONICAL_RATE
        n_comp = int(rng.integers(1, 4))
        freqs = rng.uniform(0.2, 2.0, n_comp)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_comp)
        amps = rng.uniform(0.2, 1.0, n_comp)
        amps *= rng.uniform(0.1, 0.2) / amps.sum()
        env = np.maximum(0.5 + sum(a * np.cos(2 * np.pi * f * t + p)
                                   for a, f, p in zip(amps, freqs, phases)),
                         aio.ENVELOPE_FLOOR)
        est = dsp.analytic_envelope(x)
        k = int(0.05 * n)
        rel = (np.sqrt(np.mean((est[k:-k] - env[k:-k]) ** 2))
               / np.sqrt(np.mean(env[k:-k] ** 2)))
        assert rel < 0.02

    def test_envelope_floor_respected(self):
        cfg = aio.SynthConfig(n_per_class=1, duration_s=1.0, seed=9)
        for label in aio.LABELS:
            x = aio.synth_signal(label, 0, cfg)
            from atscalm import dsp

            env = dsp.analytic_envelope(x)
            k = int(0.05 * x.size)
            assert env[k:-k].min() > aio.ENVELOPE_FLOOR * 0.8
