"""Fuzzed bad input: WAV bytes, checkpoint bytes, features.csv bytes and
config JSON.

The contract: in-process, a malformed input raises PipelineError (or its
ConfigError subclass) and nothing else; through the CLI it exits 0, 1 or 2
and never escapes as an exception, so no traceback is printed.
"""

import os
import shutil
import struct
import tempfile
import typing
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atscalm import audio_io as aio
from atscalm.cli import main
from atscalm.config import RunConfig
from atscalm.encoder import AcousticEncoder, EncoderConfig, save_encoder
from atscalm.nn.checkpoint import MAGIC, load_checkpoint
from atscalm.util import ConfigError, PipelineError, dataclass_from_dict
from test_audio_io import write_float32

FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 3-clip corpus of 0.05 s clips, its features, a small CAM checkpoint
    and a small encoder checkpoint, whose parameters are ``<f4`` entries and
    whose batchnorm statistics are ``<f8`` ones."""
    out = str(tmp_path_factory.mktemp("fuzz"))
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        fh.write('{"cam": {"hidden": 4, "fc_dim": 4, "epochs": 1}}')
    base = ["--config", cfg, "--seed", "2", "--out", out]
    assert main(base + ["synth", "--n", "2", "--duration", "0.05"]) == 0
    corpus = os.path.join(out, "corpus")
    assert main(base + ["features", os.path.join(corpus, "manifest.json")]) == 0
    assert main(base + ["train-cam", os.path.join(out, "features.csv")]) == 0
    narrow = EncoderConfig(widths=(4, 8, 16, 32), proj_dim=8, frames=8)
    save_encoder(AcousticEncoder(narrow, seed=2), os.path.join(out, "encoder.ckpt"))
    return out


def _mutated(data, blob: bytes, head: int) -> bytes:
    """Up to three byte overwrites and an optional truncation, each landing
    in the first ``head`` bytes half of the time."""
    where = st.sampled_from(range(head)) | st.sampled_from(range(len(blob)))
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(0, 3))):
        out[data.draw(where)] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        del out[data.draw(where):]
    return bytes(out)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _header_end(blob: bytes) -> int:
    return len(MAGIC) + 4 + struct.unpack_from("<I", blob, len(MAGIC))[0]


def _load_mutated(data, blob: bytes, head: int) -> None:
    """load_checkpoint on a mutated copy of ``blob`` raises PipelineError or nothing."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "m.ckpt")
        with open(path, "wb") as fh:
            fh.write(_mutated(data, blob, head))
        try:
            load_checkpoint(path)
        except PipelineError:
            pass


NON_FINITE = [struct.pack("<f", v) for v in (float("nan"), float("inf"), float("-inf"))]


class TestWavFuzz:
    @FUZZ
    @given(st.data())
    def test_load_and_probe_raise_only_pipeline_error(self, tiny, data):
        # the clip is PCM16 or float32 (format 3), and a float32 clip may get a
        # NaN or infinity in one sample; a load that succeeds returns finite samples
        corpus = os.path.join(tiny, "corpus")
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(corpus, root, dirs_exist_ok=True)
            path = os.path.join(root, "Music", "clip_000.wav")
            float32 = data.draw(st.booleans())
            if float32:
                write_float32(path, aio.load_wav(path)[0])
            blob = bytearray(_read(path))
            if float32 and data.draw(st.booleans()):
                at = 44 + 4 * data.draw(st.integers(0, (len(blob) - 44) // 4 - 1))
                blob[at : at + 4] = data.draw(st.sampled_from(NON_FINITE))
            with open(path, "wb") as fh:
                fh.write(_mutated(data, bytes(blob), 48))
            try:
                assert np.all(np.isfinite(aio.load_wav(path)[0]))
            except PipelineError:
                pass
            try:
                aio.build_manifest(root, aio.DEFAULT_CLASS_DIRS)
            except PipelineError:
                pass

    @settings(FUZZ, max_examples=20)
    @given(st.data())
    def test_validate_exit_code(self, tiny, data):
        corpus = os.path.join(tiny, "corpus")
        blob = _mutated(data, _read(os.path.join(corpus, "Normal", "clip_001.wav")), 48)
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(corpus, os.path.join(root, "corpus"))
            with open(os.path.join(root, "corpus", "Normal", "clip_001.wav"), "wb") as fh:
                fh.write(blob)
            code = main(["--out", os.path.join(root, "out"), "validate",
                         os.path.join(root, "corpus")])
        assert code in (0, 1, 2)


class TestCheckpointFuzz:
    @FUZZ
    @given(st.data())
    def test_load_raises_only_pipeline_error(self, tiny, data):
        blob = _read(os.path.join(tiny, "cam.ckpt"))
        _load_mutated(data, blob, len(blob) - 8 * 300)

    def test_encoder_checkpoint_mixes_f4_and_f8(self, tiny):
        blob = _read(os.path.join(tiny, "encoder.ckpt"))
        assert b'"dtype":"<f4"' in blob and b'"dtype":"<f8"' in blob

    @FUZZ
    @given(st.data())
    def test_encoder_load_raises_only_pipeline_error(self, tiny, data):
        """Mutations land in the header half of the time: its ``<f4`` and
        ``<f8`` dtypes, shapes and byte ranges."""
        blob = _read(os.path.join(tiny, "encoder.ckpt"))
        _load_mutated(data, blob, _header_end(blob))

    @settings(FUZZ, max_examples=20)
    @given(st.data())
    def test_evaluate_exit_code(self, tiny, data):
        blob = _read(os.path.join(tiny, "cam.ckpt"))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "cam.ckpt")
            with open(path, "wb") as fh:
                fh.write(_mutated(data, blob, len(blob) - 8 * 300))
            code = main(["--out", os.path.join(root, "out"), "evaluate",
                         os.path.join(tiny, "features.csv"), "--checkpoint", path,
                         "--split", "test"])
        assert code in (0, 1, 2)

    @settings(FUZZ, max_examples=20)
    @given(st.data())
    def test_embed_exit_code(self, tiny, data):
        blob = _read(os.path.join(tiny, "encoder.ckpt"))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "encoder.ckpt")
            with open(path, "wb") as fh:
                fh.write(_mutated(data, blob, _header_end(blob)))
            code = main(["--out", os.path.join(root, "out"), "embed",
                         os.path.join(tiny, "corpus"), "--checkpoint", path])
        assert code in (0, 1, 2)


class TestFeaturesCsvFuzz:
    @settings(FUZZ, max_examples=30)
    @given(st.data())
    def test_calmness_and_train_cam_exit_code(self, tiny, data):
        blob = _read(os.path.join(tiny, "features.csv"))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "features.csv")
            with open(path, "wb") as fh:
                fh.write(_mutated(data, blob, blob.index(b"\n") + 1))
            base = ["--config", os.path.join(tiny, "cfg.json"), "--out", os.path.join(root, "out")]
            for command in ("calmness", "train-cam"):
                assert main(base + [command, path]) in (0, 1, 2)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 600), st.floats(),
                     st.text(max_size=4))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                       max_leaves=6)


def _section(tp):
    if not is_dataclass(tp):
        return _VALUES
    names = st.sampled_from([f.name for f in fields(tp)] + ["bogus"])
    return st.dictionaries(names, _VALUES, max_size=4) | _VALUES


_DOCS = st.fixed_dictionaries({}, optional={
    name: _section(tp) for name, tp in typing.get_type_hints(RunConfig).items()
}) | _VALUES


class TestConfigFuzz:
    @settings(FUZZ, max_examples=100)
    @given(_DOCS)
    def test_config_from_dict_raises_only_config_error(self, doc):
        try:
            assert isinstance(dataclass_from_dict(RunConfig, doc), RunConfig)
        except ConfigError:
            pass
