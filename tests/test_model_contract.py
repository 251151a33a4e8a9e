"""The model contract of ``atscalm.nn.checkpoint``, held by both networks:
``params`` then ``buffers`` in registration order, and one state path for
the checkpoint."""

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from atscalm.classifier import BiLstmClassifier, CamConfig, load_cam, save_cam
from atscalm.encoder import AcousticEncoder, EncoderConfig, load_encoder, save_encoder
from atscalm.nn.checkpoint import load_checkpoint, load_state, save_checkpoint, state_arrays
from atscalm.util import PipelineError, keyed_rng
from memtrace import traced_peak

MODELS = {
    "encoder": (lambda: AcousticEncoder(EncoderConfig(widths=(4, 8, 16, 32), proj_dim=8), seed=1),
                save_encoder, load_encoder),
    "cam": (lambda: BiLstmClassifier(CamConfig(hidden=4, fc_dim=4), seed=1),
            lambda model, path: save_cam(model, path, {"train_ids": ["a"], "test_ids": ["b"]}),
            load_cam),
}


@pytest.fixture(params=list(MODELS))
def kind(request):
    return request.param


def _randomized(model):
    """Every tensor of the model set to distinct values, so a roundtrip that
    restores a wrong or stale tensor shows."""
    for i, t in enumerate([*model.params.values(), *model.buffers.values()]):
        t.data = keyed_rng("contract", i).uniform(0.5, 1.5, t.data.shape)
    return model


def test_checkpoint_holds_params_then_buffers(kind, tmp_path):
    build, save, _ = MODELS[kind]
    model = build()
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    arrays, meta = load_checkpoint(path)
    assert list(arrays) == [*model.params, *model.buffers]
    assert meta["kind"] == kind


def test_encoder_buffers_pair_each_batchnorm():
    model = MODELS["encoder"][0]()
    norms = [name.removesuffix(".gamma") for name in model.params if name.endswith(".gamma")]
    assert norms[0] == "stem.bn"
    assert list(model.buffers) == [f"{bn}.{stat}" for bn in norms
                                   for stat in ("running_mean", "running_var")]


def test_cam_registration_order():
    model = MODELS["cam"][0]()
    assert list(model.params) == ["fwd.wx", "fwd.wh", "fwd.b", "bwd.wx", "bwd.wh", "bwd.b",
                                  "fc1.w", "fc1.b", "fc2.w", "fc2.b"]
    assert list(model.buffers) == ["norm.mean", "norm.std"]


def test_roundtrip_restores_params_and_buffers(kind, tmp_path):
    build, save, load = MODELS[kind]
    model = _randomized(build())
    path = str(tmp_path / "m.ckpt")
    save(model, path)
    back, _ = load(path)
    want, got = state_arrays(model), state_arrays(back)
    assert list(got) == list(want)
    assert all(np.array_equal(got[name], want[name]) for name in want)


def test_load_state_names_a_missing_or_misshapen_tensor(kind):
    model = MODELS[kind][0]()
    arrays = dict(state_arrays(model))
    last = list(model.buffers)[-1]
    arrays[last] = np.zeros(arrays[last].size + 1)
    with pytest.raises(PipelineError, match=f"checkpoint tensor {last} missing or wrong shape"):
        load_state(model, arrays)
    del arrays[last]
    with pytest.raises(PipelineError, match=f"checkpoint tensor {last} missing"):
        load_state(model, arrays)



@pytest.fixture(scope="module")
def default_encoder_ckpt(tmp_path_factory):
    """(path, state bytes) of a default-width encoder checkpoint: 90.0 MB
    (85.8 MiB) of tensors."""
    model = AcousticEncoder(EncoderConfig(), seed=0)
    path = str(tmp_path_factory.mktemp("default") / "enc.ckpt")
    save_encoder(model, path)
    return path, sum(a.nbytes for a in state_arrays(model).values())


def test_load_checkpoint_holds_the_payload_once(default_encoder_ckpt):
    """Loading a default-width encoder checkpoint peaks at no more than
    1.15x its payload: each tensor is read into its own array, with no
    whole-file buffer beside them."""
    path, payload = default_encoder_ckpt
    (arrays, _), peak, _ = traced_peak(lambda: load_checkpoint(path))
    assert sum(a.nbytes for a in arrays.values()) == payload
    assert peak <= 1.15 * payload, f"peak {peak / 1e6:.1f} MB for a {payload / 1e6:.1f} MB payload"


def test_load_encoder_builds_no_second_state(default_encoder_ckpt):
    """`load_encoder` peaks at no more than 1.15x the payload: the model is
    built without initialising it, so the loaded arrays are its only state,
    and each is writable and owns its data."""
    path, payload = default_encoder_ckpt
    (model, _), peak, _ = traced_peak(lambda: load_encoder(path))
    assert peak <= 1.15 * payload, f"peak {peak / 1e6:.1f} MB for a {payload / 1e6:.1f} MB payload"
    arrays = state_arrays(model)
    assert sum(a.nbytes for a in arrays.values()) == payload
    assert all(a.flags.owndata and a.flags.writeable for a in arrays.values())


def test_save_checkpoint_writes_each_tensor_in_place(default_encoder_ckpt, tmp_path):
    """Saving a default-width encoder allocates at most 0.15x its payload:
    each tensor is written from its own memory, with no byte copy of the
    state beside it."""
    first, payload = default_encoder_ckpt
    model, _ = load_encoder(first)
    path = tmp_path / "again.ckpt"
    _, peak, _ = traced_peak(lambda: save_encoder(model, str(path)))
    assert peak <= 0.15 * payload, f"peak {peak / 1e6:.1f} MB for a {payload / 1e6:.1f} MB payload"
    assert path.read_bytes() == Path(first).read_bytes()


def test_load_model_names_a_truncated_or_misshapen_checkpoint(tmp_path):
    """A skeleton built without initialising cannot hide a bad file: a
    truncated payload and a tensor of the wrong shape both raise their
    named error."""
    build, save, load = MODELS["encoder"]
    model = build()
    path = tmp_path / "m.ckpt"
    save(model, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(PipelineError, match="m.ckpt: tensor .* claims bytes"):
        load(str(path))
    wider = AcousticEncoder(EncoderConfig(widths=(8, 16, 32, 64), proj_dim=8), seed=1)
    save_checkpoint(str(path), state_arrays(wider),
                    {"kind": "encoder", "config": asdict(model.cfg)})
    with pytest.raises(PipelineError, match="checkpoint tensor stem.conv missing or wrong shape"):
        load(str(path))
