import struct

import numpy as np
import pytest

from atscalm.nn import Adam, Tensor, load_checkpoint, save_checkpoint, seeded_init
from atscalm.util import PipelineError, keyed_rng


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(np.zeros(10), requires_grad=True)
        p.grad = np.ones(10)
        Adam({"p": p}, lr=0.005).step()
        assert np.max(np.abs(p.data + 0.005)) < 1e-6

    def test_zero_grad_no_change(self):
        p = Tensor(keyed_rng("adam", 0).normal(0, 1, 6), requires_grad=True)
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert np.array_equal(p.data, before)
        assert opt.step_count == 1

    def test_two_runs_identical(self):
        def run():
            p = Tensor(np.full(4, 0.3), requires_grad=True)
            opt = Adam({"p": p}, lr=0.01)
            for i in range(20):
                p.grad = np.sin(np.arange(4) + i)
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestSeededInit:
    def test_deterministic(self):
        a = seeded_init((5, 7), "kaiming-uniform", ("k", 3))
        b = seeded_init((5, 7), "kaiming-uniform", ("k", 3))
        assert np.array_equal(a.data, b.data)

    def test_kaiming_std(self):
        fan_in = 100
        t = seeded_init((1000, fan_in), "kaiming-uniform", 0)
        target = np.sqrt(2.0 / fan_in)     # uniform bound sqrt(6/fan) has this std
        measured = t.data.std()
        assert 0.8 * target <= measured <= 1.2 * target

    def test_uniform_range(self):
        t = seeded_init((10000,), "uniform", 1, r=0.1)
        assert np.all(np.abs(t.data) <= 0.1)

    def test_unknown_scheme(self):
        with pytest.raises(PipelineError):
            seeded_init((3,), "xavier", 0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = keyed_rng("ckpt", 0)
        tensors = {
            "layer.w": rng.normal(0, 1, (4, 5)),
            "layer.b": rng.normal(0, 1, (5,)),
            "scalarish": np.array([3.25]),
        }
        meta = {"kind": "test", "config": {"a": 1, "b": [2, 3]}}
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, tensors, meta)
        back, meta2 = load_checkpoint(path)
        assert meta2 == meta
        for name, arr in tensors.items():
            assert np.array_equal(back[name], arr)

    def test_deterministic_bytes(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, tensors, {"x": 1})
        save_checkpoint(p2, tensors, {"x": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + bytes(16))
        with pytest.raises(PipelineError):
            load_checkpoint(str(path))

    def _saved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {"w": np.arange(40.0).reshape(5, 8)}, {"kind": "test"})
        return path

    @pytest.mark.parametrize("cut", [
        lambda b: b[:10],        # inside the header length field
        lambda b: b[:20],        # inside the header JSON
        lambda b: b[:-100],      # inside the tensor payload
    ], ids=["in-length", "in-json", "in-payload"])
    def test_truncated_named(self, tmp_path, cut):
        path = self._saved(tmp_path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(PipelineError, match="m.ckpt"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("old,new", [
        (b'"nbytes":320', b'"nbytes":312'),      # nbytes disagrees with the shape
        (b'"offset":0', b'"offset":9'),          # runs past the payload
        (b'"shape":[5,8]', b'"shape":[5,-8]'),   # negative dimension
        (b'"dtype":"<f8"', b'"dtype":"|O8"'),    # object dtype
        (b'"tensors":[', b'"tensors":{'),        # not JSON any more
    ], ids=["nbytes", "offset", "shape", "dtype", "json"])
    def test_bad_index_named(self, tmp_path, old, new):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        assert old in blob
        blob = blob.replace(old, new)
        hlen = len(blob) - 8 * 40 - 12
        path.write_bytes(blob[:8] + struct.pack("<I", hlen) + blob[12:])
        with pytest.raises(PipelineError, match="m.ckpt"):
            load_checkpoint(str(path))
