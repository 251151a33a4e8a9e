import json
from dataclasses import asdict

import pytest

from atscalm.config import RunConfig
from atscalm.util import ConfigError, dataclass_from_dict, json_sanitize


def test_json_round_trip_restores_tuples():
    cfg = RunConfig()
    back = dataclass_from_dict(RunConfig, json.loads(json.dumps(json_sanitize(asdict(cfg)))))
    assert back == cfg
    assert isinstance(back.encoder.widths, tuple) and isinstance(back.augment.stretch_range, tuple)


def test_overrides_keep_other_defaults():
    cfg = dataclass_from_dict(RunConfig,
                              {"cam": {"hidden": 8, "lr": 1}, "synth": {"snr_db": None}})
    assert (cfg.cam.hidden, cfg.cam.lr, cfg.cam.fc_dim) == (8, 1, RunConfig().cam.fc_dim)


@pytest.mark.parametrize("doc,named", [
    ({"encoder": {"widths": [64, 32, 128, 256]}}, "config encoder: stage widths"),
    ({"synth": {"n_per_class": 0}}, "config synth: n_per_class"),
    ({"augment": {"stretch_range": [2.0, 1.0]}}, "config augment: invalid stretch range"),
    ({"augment": {"stretch_range": [1.0]}}, "config key augment.stretch_range must be"),
    ({"cam": {"dropout": 1.0}}, "config cam: dropout must be in"),
    ({"class_dirs": {"Silence": "x"}}, "unknown class label 'Silence'"),
    ({"synth": {"n_per_class": True}}, "config key synth.n_per_class must be int"),
    ({"rate": True}, "config key rate must be int"),
    ({"features": {}}, "unknown config key features"),
    ([], "config document must be an object"),
    ({"encoder": {"frames": 9}}, "encoder.frames 9: the shortest training view has 19 mel frames"),
    ({"encoder": {"frames": 64}, "augment": {"time_mask_max": 75}},
     "encoder.frames 64: the shortest training view has 74 mel frames"),
    ({"rate": 12000}, "document: need 0 <= f_lo < f_hi <= rate/2"),
    ({"class_dirs": {"Music": "X", "NormalSilence": "X/", "SpiritualMeditation": "S"}},
     "config document: class_dirs maps Music and NormalSilence to one directory, 'X/'"),
])
def test_every_section_checked(doc, named):
    with pytest.raises(ConfigError, match=named):
        dataclass_from_dict(RunConfig, doc)


def test_shortest_view_as_long_as_the_time_mask_passes():
    # the mask is drawn over the kept frames, so frames itself must cover it
    assert dataclass_from_dict(RunConfig, {"encoder": {"frames": 20}}).encoder.frames == 20
    cfg = dataclass_from_dict(RunConfig,
                              {"encoder": {"frames": 64}, "augment": {"time_mask_max": 64}})
    assert cfg.augment.time_mask_max == 64
    with pytest.raises(ConfigError, match="the shortest training view has 74 mel frames "
                                          "and keeps 64, fewer than augment.time_mask_max"):
        dataclass_from_dict(RunConfig,
                            {"encoder": {"frames": 64}, "augment": {"time_mask_max": 65}})
