import json
from dataclasses import asdict

import pytest

from atscalm.config import RunConfig, config_from_dict
from atscalm.util import ConfigError, json_sanitize


def test_json_round_trip_restores_tuples():
    cfg = RunConfig()
    back = config_from_dict(json.loads(json.dumps(json_sanitize(asdict(cfg)))))
    assert back == cfg
    assert isinstance(back.encoder.widths, tuple) and isinstance(back.augment.stretch_range, tuple)


def test_overrides_keep_other_defaults():
    cfg = config_from_dict({"cam": {"hidden": 8, "lr": 1}, "synth": {"snr_db": None}})
    assert (cfg.cam.hidden, cfg.cam.lr, cfg.cam.fc_dim) == (8, 1, RunConfig().cam.fc_dim)


@pytest.mark.parametrize("doc,named", [
    ({"encoder": {"widths": [64, 32, 128, 256]}}, "config encoder: stage widths"),
    ({"synth": {"n_per_class": 0}}, "config synth: n_per_class"),
    ({"augment": {"stretch_range": [2.0, 1.0]}}, "config augment: invalid stretch range"),
    ({"augment": {"stretch_range": [1.0]}}, "config key augment.stretch_range must be"),
    ({"cam": {"mode": "both"}}, "config cam: unknown mode"),
    ({"class_dirs": {"Silence": "x"}}, "unknown class label 'Silence'"),
    ({"validation": {"phase_search": 1}}, "config key validation.phase_search must be bool"),
    ({"rate": True}, "config key rate must be int"),
    ({"features": []}, "config features must be an object"),
    ([], "config document must be an object"),
])
def test_every_section_checked(doc, named):
    with pytest.raises(ConfigError, match=named):
        config_from_dict(doc)


def test_override_seed_reaches_every_seeded_section():
    cfg = RunConfig()
    cfg.override_seed(9)
    assert cfg.seed == 9
    assert {s.seed for s in (cfg.synth, cfg.augment, cfg.encoder, cfg.cam, cfg.tsne)} == {9}
