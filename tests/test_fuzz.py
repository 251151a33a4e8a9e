"""Fuzzed bad input: WAV bytes, checkpoint bytes and config JSON.

The contract: in-process, a malformed input raises PipelineError (or its
ConfigError subclass) and nothing else; through the CLI it exits 0, 1 or 2
and never escapes as an exception, so no traceback is printed.
"""

import os
import shutil
import tempfile
import typing
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from atscalm import audio_io as aio
from atscalm.cli import main
from atscalm.config import RunConfig, config_from_dict
from atscalm.nn import load_checkpoint
from atscalm.util import ConfigError, PipelineError

FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 3-clip corpus of 0.05 s clips, its features and a small CAM checkpoint."""
    out = str(tmp_path_factory.mktemp("fuzz"))
    cfg = os.path.join(out, "cfg.json")
    with open(cfg, "w") as fh:
        fh.write('{"cam": {"hidden": 4, "fc_dim": 4, "epochs": 1}}')
    base = ["--config", cfg, "--seed", "2", "--out", out]
    assert main(base + ["synth", "--n", "2", "--duration", "0.05"]) == 0
    corpus = os.path.join(out, "corpus")
    assert main(base + ["features", os.path.join(corpus, "manifest.json")]) == 0
    assert main(base + ["train-cam", os.path.join(out, "features.csv")]) == 0
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


class TestWavFuzz:
    @FUZZ
    @given(st.data())
    def test_load_and_probe_raise_only_pipeline_error(self, tiny, data):
        corpus = os.path.join(tiny, "corpus")
        blob = _mutated(data, _read(os.path.join(corpus, "Music", "clip_000.wav")), 48)
        with tempfile.TemporaryDirectory() as root:
            shutil.copytree(corpus, root, dirs_exist_ok=True)
            path = os.path.join(root, "Music", "clip_000.wav")
            with open(path, "wb") as fh:
                fh.write(blob)
            for call in (lambda: aio.load_wav(path), lambda: aio.build_manifest(root)):
                try:
                    call()
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
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "cam.ckpt")
            with open(path, "wb") as fh:
                fh.write(_mutated(data, blob, len(blob) - 8 * 300))
            try:
                load_checkpoint(path)
            except PipelineError:
                pass

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
            assert isinstance(config_from_dict(doc), RunConfig)
        except ConfigError:
            pass
