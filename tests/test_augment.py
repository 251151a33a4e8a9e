import numpy as np
import pytest

import frontend_oracle
from atscalm import augment as aug
from atscalm import dsp
from atscalm.util import PipelineError, even_ranges, keyed_rng
from memtrace import traced_peak


RATE = 16000


def tone_clip(f_hz, duration=2.0, amp=0.5):
    t = np.arange(int(duration * RATE)) / RATE
    return amp * np.cos(2 * np.pi * f_hz * t)


def one_block_spectra(spec, rate):
    """The vocoder's synthesis spectra of every output frame as one block."""
    return aug._vocoder_spectra(spec, np.arange(0.0, spec.shape[0] - 1, rate), [])


def one_block_sum(spectra):
    """The overlap-add of every frame as one block, into a fresh sum buffer."""
    hop = aug.VOCODER_HOP
    out = np.zeros((spectra.shape[0] + aug.VOCODER_WIN // hop - 1, hop))
    aug._overlap_add(spectra, out, 0)
    return out.reshape(-1)


class TestNoise:
    def test_sigma_zero_identity(self):
        clip = tone_clip(440)
        out = aug.add_gaussian_noise(clip, 0.0, keyed_rng("n", 1))
        assert np.array_equal(out, clip)
        assert not np.shares_memory(out, clip)

    def test_same_seed_identical(self):
        clip = tone_clip(440)
        a = aug.add_gaussian_noise(clip, 0.1, keyed_rng("n", 5))
        b = aug.add_gaussian_noise(clip, 0.1, keyed_rng("n", 5))
        assert np.array_equal(a, b)

    def test_empirical_std(self):
        clip = np.zeros(160000)
        out = aug.add_gaussian_noise(clip, 0.1, keyed_rng("n", 7))
        measured = np.std(out - clip)
        assert 0.099 <= measured <= 0.101

    def test_negative_sigma_rejected(self):
        with pytest.raises(PipelineError):
            aug.add_gaussian_noise(tone_clip(440), -0.1, keyed_rng("n", 0))


class TestTimeStretch:
    def test_identity_rate(self):
        clip = tone_clip(440)
        out = aug.pitch_shift(clip, RATE, 0.0, 1.0)
        assert out.size == clip.size
        n = min(out.size, clip.size)
        corr = np.corrcoef(out[:n], clip[:n])[0, 1]
        assert corr > 0.99

    def test_half_duration(self):
        clip = tone_clip(440, duration=2.0)
        out = aug.pitch_shift(clip, RATE, 0.0, 2.0)
        assert abs(out.size - 16000) <= aug.VOCODER_HOP

    def test_tone_preserved_under_stretch(self):
        clip = tone_clip(440)
        out = aug.pitch_shift(clip, RATE, 0.0, 0.8)
        assert abs(frontend_oracle.peak_frequency(out, 16000) - 440.0) < 1.0

    def test_reciprocal_roundtrip_correlation(self):
        # resynthesis re-anchors the absolute phase, so compare at the
        # cross-correlation peak over a small lag window
        clip = tone_clip(300, duration=2.0)
        down = aug.pitch_shift(clip, RATE, 0.0, 1.25)
        back = aug.pitch_shift(down, RATE, 0.0, 1 / 1.25)
        n = min(back.size, clip.size)
        k = 2048
        corr = max(
            np.corrcoef(clip[k : n - k], back[k + lag : n - k + lag])[0, 1]
            for lag in range(-128, 129)
        )
        assert corr > 0.95

    def test_too_short_rejected(self):
        with pytest.raises(PipelineError):
            aug.pitch_shift(np.ones(100), RATE, 0.0, 1.5)


class TestVocoderOracle:
    @pytest.mark.parametrize("win,hop", [(aug.VOCODER_WIN, aug.VOCODER_HOP)])
    @pytest.mark.parametrize("rate", [0.8, 1.25, 1 / 2 ** (1.7 / 12)])
    def test_bit_identical_to_loops_on_same_spectra(self, win, hop, rate):
        # the angle-form loop takes cos/sin of phases that reach ~4.7e4 rad
        # here, so it carries eps * 4.7e4 ~ 1e-11 of rounding; 1e-9 bounds it
        x = keyed_rng("pv-oracle", win).normal(0, 0.3, 12000)
        grid = dsp.stft(np.pad(x, win // 2, mode="reflect"), win, hop, n_fft=win)
        spectra = one_block_spectra(grid.values.T, rate)
        loop = frontend_oracle.vocoder_spectra_loop(grid.values, rate, win, hop)
        assert spectra.shape == loop.T.shape
        assert np.max(np.abs(spectra - loop.T)) <= 1e-9 * np.max(np.abs(loop))
        frames = np.fft.irfft(spectra, n=win, axis=1)
        assert np.array_equal(one_block_sum(spectra),
                              frontend_oracle.ola_sum_loop(frames, win, hop))

    @pytest.mark.parametrize("rate", [0.742, 0.896, 1.403])
    def test_within_1e12_of_wrapped_phase_reference(self, rate):
        # the angle form reads 2.1e-11 to 8.2e-11 of the peak here, the
        # phasor form about 5e-15
        clip = tone_clip(440, duration=10.0)
        clip += keyed_rng("pv-exact", 0).normal(0, 0.05, clip.size)
        win, hop = aug.VOCODER_WIN, aug.VOCODER_HOP
        grid = dsp.stft(np.pad(clip, win // 2, mode="reflect"), win, hop, n_fft=win)
        got = one_block_spectra(grid.values.T, rate)
        ref = frontend_oracle.vocoder_spectra_wrapped_loop(grid.values, rate).T
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[:, -1].imag == 0.0)   # the Nyquist bin stays real

    @pytest.mark.parametrize("rate", [0.8, 1.25])
    def test_digital_silence_has_no_nan(self, rate):
        win, hop = aug.VOCODER_WIN, aug.VOCODER_HOP
        x = np.zeros(16000)
        x[6000:9000] = keyed_rng("pv-silence", 0).normal(0, 0.3, 3000)
        grid = dsp.stft(np.pad(x, win // 2, mode="reflect"), win, hop, n_fft=win)
        assert np.sum(np.all(grid.values == 0, axis=0)) >= 20   # whole frames of exact zeros
        got = one_block_spectra(grid.values.T, rate)
        loop = frontend_oracle.vocoder_spectra_loop(grid.values, rate, win, hop).T
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - loop)) <= 1e-9 * np.max(np.abs(loop))
        assert np.all(np.isfinite(aug.phase_vocoder(x, rate)))

    def test_last_position_rounded_onto_the_last_frame(self):
        # np.arange(0, 21, 0.7) ends at 21.0 == n_frames - 1, which has no
        # next frame to interpolate towards
        spec = np.fft.rfft(keyed_rng("pv-edge", 0).normal(0, 1, (22, 64)), axis=1)
        steps = np.arange(0.0, 21, 0.7)
        assert steps[-1] == 21.0
        got = one_block_spectra(spec, 0.7)
        ref = frontend_oracle.vocoder_spectra_wrapped_loop(spec.T, 0.7).T
        assert got.shape == (steps.size, 33)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_pipeline_matches_two_sided_oracle(self, monkeypatch):
        # the one-sided synthesis drops the mirrored bins, whose phases the
        # two-sided loop accumulated separately; the difference stays far
        # below one 16-bit step (2**-15)
        clip = tone_clip(440)
        clip += keyed_rng("pv-pipe", 0).normal(0, 0.05, clip.size)
        cfg = aug.AugmentConfig()
        got = list(aug.augment_pipeline(clip, RATE, "tone", cfg, seed=4))
        monkeypatch.setattr(aug, "phase_vocoder", frontend_oracle.phase_vocoder)
        monkeypatch.setattr(aug, "resample_signal", frontend_oracle.resample_signal)
        want = list(aug.augment_pipeline(clip, RATE, "tone", cfg, seed=4))
        peak = np.max(np.abs(clip))
        for a, b in zip(got, want):
            assert a.size == b.size
            assert np.max(np.abs(a - b)) <= 1e-6 * peak


STREAM_RATES = [0.71, 0.8, 2 ** (-1.7 / 12), 1.25, 1.4]


def clip_with_frames(rate, fits):
    """The shortest noise clip of at least 8,192 samples (off the hop grid)
    whose vocoder output-frame count at ``rate`` satisfies ``fits``."""
    for m in range(32, 4096):
        frames = np.arange(0.0, m, rate).size
        if fits(frames):
            n = 8192 if m == 32 else m * aug.VOCODER_HOP + 100
            return keyed_rng("pv-stream", m, rate).normal(0, 0.3, n), frames
    raise AssertionError("no clip length fits")


class TestStreamedVocoder:
    """The block-streamed vocoder against the whole-array one it replaced."""

    CASES = {
        "one-block": lambda f: f <= aug.BLOCK_FRAMES,
        "exact-multiple": lambda f: f >= 2 * aug.BLOCK_FRAMES and f % aug.BLOCK_FRAMES == 0,
        "many-uneven": lambda f: f > 5 * aug.BLOCK_FRAMES and f % aug.BLOCK_FRAMES not in (0, 1),
    }

    @pytest.mark.parametrize("rate", STREAM_RATES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_whole_array_vocoder(self, case, rate):
        x, frames = clip_with_frames(rate, self.CASES[case])
        blocks = even_ranges(frames, aug.BLOCK_FRAMES)
        assert len(blocks) == (1 if case == "one-block" else -(-frames // aug.BLOCK_FRAMES))
        got = aug.phase_vocoder(x, rate)
        assert got.tobytes() == frontend_oracle.whole_phase_vocoder(x, rate).tobytes()

    @pytest.mark.parametrize("block_frames", [5, 6, 7, 16])
    @pytest.mark.parametrize("rate", [0.8, 1.25])
    def test_small_blocks_bit_identical(self, monkeypatch, block_frames, rate):
        # blocks of three and four frames: a carried block's running product
        # then runs on four and five rows, the first block's on three and four;
        # on exactly two rows np.multiply.accumulate takes another loop
        monkeypatch.setattr(aug, "BLOCK_FRAMES", block_frames)
        x = keyed_rng("pv-small-blocks", block_frames).normal(0, 0.3, 12000)
        blocks = even_ranges(np.arange(0.0, 12000 // aug.VOCODER_HOP, rate).size, block_frames)
        assert len(blocks) >= 3 and min(b - a for a, b in blocks) >= 3
        got = aug.phase_vocoder(x, rate)
        assert got.tobytes() == frontend_oracle.whole_phase_vocoder(x, rate).tobytes()

    @pytest.mark.parametrize("rate", [0.8, 1.25])
    def test_short_clip_follows_explicit_operand_order(self, rate):
        # below 8,192 samples numpy does not elide the whole-array advance's
        # temporary, so the old code rounded it the other way; the streamed
        # vocoder equals the whole-array kernels, which spell the order out
        win, hop = aug.VOCODER_WIN, aug.VOCODER_HOP
        x = keyed_rng("pv-short", rate).normal(0, 0.3, 8191)
        grid = dsp.stft(np.pad(x, win // 2, mode="reflect"), win, hop, n_fft=win)
        y = frontend_oracle.whole_istft_ola(one_block_spectra(grid.values.T, rate), win, hop)
        start = int(round(win // 2 / rate))
        got = aug.phase_vocoder(x, rate)
        want = np.zeros(got.size)
        want[: y.size - start] = y[start : start + got.size]
        assert got.tobytes() == want.tobytes()
        old = frontend_oracle.whole_phase_vocoder(x, rate)
        assert not np.array_equal(got, old)
        assert np.max(np.abs(got - old)) <= 1e-14 * np.max(np.abs(old))

    def test_one_variant_of_a_minute_peaks_below_8x_the_clip(self):
        clip = tone_clip(440, duration=60.0)
        clip += keyed_rng("pv-minute", 0).normal(0, 0.05, clip.size)
        cfg = aug.AugmentConfig()
        for k in range(3):
            _, peak, _ = traced_peak(lambda: aug.make_variant(clip, RATE, cfg, keyed_rng("minute", k)))
            assert peak <= 8 * clip.nbytes, f"variant {k} peaked at {peak / clip.nbytes:.1f}x"

    def test_noise_is_the_only_array_made(self):
        clip = tone_clip(440, duration=10.0)
        out, peak, _ = traced_peak(lambda: aug.add_gaussian_noise(clip, 0.1, keyed_rng("n", 3)))
        assert peak <= 1.5 * clip.nbytes   # noise plus clip as two arrays is 2x
        want = clip + keyed_rng("n", 3).normal(0.0, 0.1, clip.size)
        assert out.tobytes() == want.tobytes()


class TestPitchShift:
    def test_zero_shift(self):
        clip = tone_clip(440)
        out = aug.pitch_shift(clip, RATE, 0.0, 1.0)
        assert np.array_equal(out, clip)
        assert abs(frontend_oracle.peak_frequency(out, 16000) - 440.0) < 1.0

    @pytest.mark.parametrize("stretch", [0.8, 0.93, 1.0, 1.07, 1.25])
    def test_zero_semitones_is_the_vocoder_alone(self, stretch):
        clip = keyed_rng("zero-shift", 0).normal(0, 0.3, 16000)
        want = aug.phase_vocoder(clip, stretch)
        assert aug.pitch_shift(clip, RATE, 0.0, stretch).tobytes() == want.tobytes()

    def test_octave_up(self):
        out = aug.pitch_shift(tone_clip(440), RATE, 12.0, 1.0)
        assert abs(frontend_oracle.peak_frequency(out, 16000) - 880.0) < 1.0

    def test_octave_down(self):
        out = aug.pitch_shift(tone_clip(880), RATE, -12.0, 1.0)
        assert abs(frontend_oracle.peak_frequency(out, 16000) - 440.0) < 1.0

    def test_duration_preserved(self):
        clip = tone_clip(440)
        out = aug.pitch_shift(clip, RATE, 3.0, 1.0)
        assert out.size == clip.size

    @pytest.mark.parametrize("stretch,semitones", [(0.8, 2.0), (1.25, -2.0)])
    def test_stretch_and_shift_in_one_pass(self, stretch, semitones):
        clip = tone_clip(440)
        out = aug.pitch_shift(clip, RATE, semitones, stretch)
        assert out.size == round(clip.size / stretch)
        want = 440.0 * 2 ** (semitones / 12)
        assert abs(frontend_oracle.peak_frequency(out, 16000) - want) < 1.0

    @pytest.mark.parametrize("pitch_range", [2.0, 0.0])
    def test_make_variant_runs_one_vocoder_pass(self, monkeypatch, pitch_range):
        calls = {"phase_vocoder": 0, "resample_signal": 0}

        def counted(name):
            fn = getattr(aug, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(aug, name, counted(name))
        cfg = aug.AugmentConfig(pitch_range_semitones=pitch_range)
        for k in range(4):
            before = dict(calls)
            aug.make_variant(tone_clip(440), RATE, cfg, keyed_rng("one-pass", k))
            assert calls["phase_vocoder"] - before["phase_vocoder"] == 1
            # one resample too, an identity copy at 0 semitones
            assert calls["resample_signal"] - before["resample_signal"] == 1


class TestSpecMask:
    def _grid(self):
        return keyed_rng("grid", 0).normal(0, 1, (32, 40))

    def test_zero_maxima_identity(self):
        grid = self._grid()
        out = aug.spec_mask(grid, 0, 0, keyed_rng("mask", 1))
        assert np.array_equal(out, grid)

    def test_masked_cells_at_floor_rest_untouched(self):
        grid = self._grid()
        out = aug.spec_mask(grid, 8, 10, keyed_rng("mask", 3))
        floor = grid.min()
        changed = out != grid
        assert np.all(out[changed] == floor)
        rows = np.flatnonzero(changed.any(axis=1))
        cols = np.flatnonzero(changed.all(axis=0))
        if rows.size:
            full_rows = np.flatnonzero(changed.all(axis=1))
            if full_rows.size:
                assert np.array_equal(full_rows,
                                      np.arange(full_rows[0], full_rows[-1] + 1))

    def test_seeded_reproducible(self):
        grid = self._grid()
        a = aug.spec_mask(grid, 8, 10, keyed_rng("mask", 42))
        b = aug.spec_mask(grid, 8, 10, keyed_rng("mask", 42))
        assert np.array_equal(a, b)

    def test_mask_larger_than_grid_rejected(self):
        with pytest.raises(PipelineError):
            aug.spec_mask(self._grid(), 100, 0, keyed_rng("mask", 1))


class TestPipeline:
    def test_five_distinct_variants(self):
        clip = tone_clip(440)
        cfg = aug.AugmentConfig()
        variants = list(aug.augment_pipeline(clip, RATE, "tone", cfg, seed=2))
        assert len(variants) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                a, b = variants[i], variants[j]
                n = min(a.size, b.size)
                assert not np.array_equal(a[:n], b[:n])

    def test_degenerate_config_copies(self):
        clip = tone_clip(440)
        cfg = aug.AugmentConfig(noise_sigma_rel=0.0, stretch_range=(1.0, 1.0),
                                pitch_range_semitones=0.0)
        variants = list(aug.augment_pipeline(clip, RATE, "tone", cfg, seed=2))
        assert len(variants) == 5
        for v in variants:
            assert np.array_equal(v, clip)

    def test_pure_function_of_seed_and_id(self):
        clip = tone_clip(440)
        cfg = aug.AugmentConfig()
        a = list(aug.augment_pipeline(clip, RATE, "tone", cfg, seed=9))
        b = list(aug.augment_pipeline(clip, RATE, "tone", cfg, seed=9))
        other = list(aug.augment_pipeline(clip, RATE, "other", cfg, seed=9))
        for va, vb, vo in zip(a, b, other):
            assert np.array_equal(va, vb)
            assert not np.array_equal(va[: vo.size], vo[: va.size])

    def test_invalid_config_rejected(self):
        with pytest.raises(PipelineError):
            aug.AugmentConfig(stretch_range=(0.0, 1.0))
        with pytest.raises(PipelineError):
            aug.AugmentConfig(variants_per_clip=0)
        with pytest.raises(PipelineError):
            aug.AugmentConfig(pitch_range_semitones=-1)
