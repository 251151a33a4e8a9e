import json
import struct

import numpy as np
import pytest

from adam_oracle import adam_steps
from atscalm.encoder import AcousticEncoder, EncoderConfig
from atscalm.nn import Adam, Tensor, seeded_init
from atscalm.nn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from atscalm.nn.init import no_init
from atscalm.nn.optim import CHUNK
from atscalm.util import PipelineError, keyed_rng
from memtrace import traced_peak


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

    def test_matches_out_of_place_oracle_bit_for_bit(self):
        """Three steps over a matrix, a vector and a parameter that never
        gets a gradient; grads span 1e-12..1e3 so rounding differences
        would show. Every ``p.data`` keeps its identity."""
        rng = keyed_rng("adam", "oracle")
        shapes = {"w": (5, 7), "b": (7,), "frozen": (3,)}
        params = {name: Tensor(rng.normal(0, 1, shape), requires_grad=True)
                  for name, shape in shapes.items()}
        start = {name: p.data.copy() for name, p in params.items()}
        ids = {name: id(p.data) for name, p in params.items()}
        grads = [{name: rng.normal(0, 1, shape) * 10.0 ** rng.uniform(-12, 3, shape)
                  for name, shape in shapes.items() if name != "frozen"} for _ in range(3)]
        opt = Adam(params, lr=3e-3)
        for step in grads:
            for name, p in params.items():
                p.grad = step.get(name)
            opt.step()
        want = adam_steps(start, grads, lr=3e-3)
        for name, p in params.items():
            assert id(p.data) == ids[name], name
            assert p.data.tobytes() == want[name].tobytes(), name


    def test_chunked_params_match_oracle_bit_for_bit(self):
        """Parameters of several chunks with a partial last one, one of them
        without a gradient, over two steps."""
        rng = keyed_rng("adam", "chunks")
        shapes = {"w": (3, CHUNK + 5), "frozen": (2 * CHUNK + 1,)}
        params = {name: Tensor(rng.normal(0, 1, shape), requires_grad=True)
                  for name, shape in shapes.items()}
        start = {name: p.data.copy() for name, p in params.items()}
        grads = [{"w": rng.normal(0, 1, shapes["w"]) * 10.0 ** rng.uniform(-12, 3, shapes["w"])}
                 for _ in range(2)]
        opt = Adam(params, lr=1e-3)
        for step in grads:
            params["w"].grad = step["w"]
            opt.step()
        want = adam_steps(start, grads, lr=1e-3)
        for name, p in params.items():
            assert p.data.tobytes() == want[name].tobytes(), name

    def test_float32_parameter_updated_in_float32(self):
        """A float32 parameter beside a float64 one: each keeps its dtype and
        its moments take it, and each matches the textbook form taken in
        its own dtype, bit for bit."""
        rng = keyed_rng("adam", "f32")
        start = {"w": rng.normal(0, 1, (3, CHUNK + 5)).astype(np.float32),
                 "b": rng.normal(0, 1, (7,))}
        params = {name: Tensor(d.copy(), requires_grad=True) for name, d in start.items()}
        grads = [{name: (rng.normal(0, 1, d.shape) * 10.0 ** rng.uniform(-6, 3, d.shape))
                  .astype(d.dtype) for name, d in start.items()} for _ in range(3)]
        opt = Adam(params, lr=3e-3)
        for step in grads:
            for name, p in params.items():
                p.grad = step[name]
            opt.step()
        want = adam_steps(start, grads, lr=3e-3)
        for name, p in params.items():
            assert p.data.dtype == start[name].dtype, name
            assert {m.dtype for m in opt.m[name] + opt.v[name]} == {start[name].dtype}, name
            assert p.data.tobytes() == want[name].tobytes(), name

    def test_step_consumes_gradients_in_chunk_sized_scratch(self):
        """One first step over the default encoder's parameters leaves every
        ``.grad`` None, and it never holds more than ``m`` and ``v`` plus
        the largest parameter and 1 MB. Two scratch arrays of one
        parameter's size overshoot that by 17 MB."""
        model = AcousticEncoder(EncoderConfig(), seed=0)
        for p in model.params.values():
            p.grad = np.full_like(p.data, 1e-3)
        _, peak, held = traced_peak(Adam(model.params, lr=1e-3).step)
        assert all(p.grad is None for p in model.params.values())
        largest = max(p.data.nbytes for p in model.params.values())
        assert peak - held <= largest + 1e6, f"peak {(peak - held) / 1e6:.1f} MB above the end"

    def test_non_contiguous_parameter_named(self):
        p = Tensor(np.zeros((4, 6))[:, ::2], requires_grad=True)
        with pytest.raises(PipelineError, match="Adam parameter q"):
            Adam({"q": p}, lr=0.1).step()


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

    @pytest.mark.parametrize("scheme,bound", [("kaiming-uniform", np.sqrt(6.0 / 21)),
                                              ("uniform", 0.3)])
    def test_float32_rounding_of_the_float64_draw(self, scheme, bound):
        shape = (4, 7, 3)
        t = seeded_init(shape, scheme, ("k", 5), r=0.3)
        draw = keyed_rng("init", scheme, ("k", 5), shape).uniform(-bound, bound, shape)
        assert t.data.dtype == np.float32
        assert t.data.tobytes() == draw.astype(np.float32).tobytes()

    def test_uniform_range(self):
        t = seeded_init((10000,), "uniform", 1, r=0.1)
        assert np.all(np.abs(t.data) <= 0.1)

    def test_unknown_scheme(self):
        with pytest.raises(PipelineError):
            seeded_init((3,), "xavier", 0)

    def test_no_init_gives_zero_byte_placeholders(self):
        with no_init():
            t = seeded_init((64, 32, 3, 3), "kaiming-uniform", 0)
            with pytest.raises(PipelineError):
                seeded_init((3,), "xavier", 0)
        assert t.data.shape == (64, 32, 3, 3) and t.requires_grad
        assert t.data.strides == (0, 0, 0, 0) and not t.data.flags.writeable
        after = seeded_init((5, 7), "kaiming-uniform", ("k", 3))
        assert np.array_equal(after.data, seeded_init((5, 7), "kaiming-uniform", ("k", 3)).data)
        assert np.any(after.data != 0.0)


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

    def test_bytes_are_the_concatenated_payloads(self, tmp_path):
        """The file is MAGIC, the header length, the header and each tensor's
        ``tobytes()`` in order, also for inputs that must be converted: a
        transposed view, big-endian and a 0-d scalar. A float32 array is
        stored as ``<f4``, every other one as ``<f8``."""
        rng = keyed_rng("ckpt", 1)
        tensors = {"t": rng.normal(0, 1, (4, 6)).T, "f32": np.arange(5, dtype=np.float32),
                   "be": np.arange(3.0).astype(">f8"), "scalar": np.array(2.5)}
        stored = {"t": "<f8", "f32": "<f4", "be": "<f8", "scalar": "<f8"}
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), tensors, {"x": 1})
        index, blobs, offset = [], [], 0
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype=stored[name])
            blobs.append(arr.tobytes())
            index.append({"name": name, "dtype": stored[name], "shape": list(arr.shape),
                          "offset": offset, "nbytes": len(blobs[-1])})
            offset += len(blobs[-1])
        header = json.dumps({"meta": {"x": 1}, "tensors": index},
                            sort_keys=True, separators=(",", ":")).encode("utf-8")
        want = MAGIC + struct.pack("<I", len(header)) + header + b"".join(blobs)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_tensor_refused_before_the_file_is_made(self, tmp_path, bad):
        path = tmp_path / "m.ckpt"
        tensors = {"a": np.ones(3), "b": np.array([1.0, bad], dtype=np.float32)}
        with pytest.raises(PipelineError, match=f"^{path}: tensor 'b' holds a non-finite value"):
            save_checkpoint(str(path), tensors, {"x": 1})
        assert not path.exists()

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
