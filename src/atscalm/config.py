"""Run configuration: one JSON document covering every pipeline stage.

This module holds the run-level schema only; each section is defined by
the stage module that reads it. `RunConfig()` is the complete documented
default; a config file may override any subset of keys. Unknown keys and
mistyped or out-of-range values are rejected by dotted key path so typos
fail loudly. `load_config` resolves a run's config in one order: the
defaults, then the file (checked as written), then the command's flag
overrides (``section.key`` paths, checked by the same schema). The seed is
no part of it: the CLI hands ``--seed`` to each seeded stage. Neither is
the log-mel front end, which `features` fixes; ``rate`` is checked by
building its filterbank at that rate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .audio_io import CANONICAL_RATE, DEFAULT_CLASS_DIRS, ClassLabel, SynthConfig, parse_label
from .augment import AugmentConfig
from .classifier import CamConfig
from .encoder import EncoderSection, shortest_view_frames
from .features import mel_filterbank
from .tsne import TsneSection
from .util import ConfigError, PipelineError, dataclass_from_dict, read_json


@dataclass
class RunConfig:
    rate: int = CANONICAL_RATE
    class_dirs: dict[str, str] = field(
        default_factory=lambda: {lab.value: d for lab, d in DEFAULT_CLASS_DIRS.items()})
    synth: SynthConfig = field(default_factory=SynthConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    cam: CamConfig = field(default_factory=CamConfig)
    tsne: TsneSection = field(default_factory=TsneSection)

    def __post_init__(self):
        mel_filterbank(self.rate)   # the one rate check: the fixed front end takes 16-28.9 kHz
        # `synth_signal` makes this many samples; a clip of none cannot be written
        samples = round(self.synth.duration_s * self.rate)
        if samples < 1:
            raise PipelineError(f"synth.duration_s {self.synth.duration_s} makes {samples} "
                                f"samples at rate {self.rate}; a clip needs at least 1")
        self.class_dir_map()
        named: dict[str, str] = {}
        for label, d in self.class_dirs.items():
            other = named.setdefault(os.path.normpath(d), label)
            if other != label:
                raise PipelineError(f"class_dirs maps {other} and {label} to one directory, {d!r}")
        # a view's time mask is drawn over its kept frames: ``frames`` of
        # them, since even the shortest view of a long clip is cropped
        frames = self.encoder.frames
        if frames < self.augment.time_mask_max:
            least = shortest_view_frames(frames, self.augment.stretch_range[1])
            raise PipelineError(
                f"encoder.frames {frames}: the shortest training view has {least} mel "
                f"frames and keeps {frames}, fewer than augment.time_mask_max "
                f"({self.augment.time_mask_max})")

    def class_dir_map(self) -> dict[ClassLabel, str]:
        return {parse_label(k): v for k, v in self.class_dirs.items()}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """The file at ``path`` (defaults if None), checked as written, then the
    ``{"section.key": value}`` overrides."""
    try:
        data = read_json(path) if path else {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    dataclass_from_dict(RunConfig, data)
    for key, value in overrides.items():
        section, leaf = key.split(".")
        data.setdefault(section, {})[leaf] = value
    return dataclass_from_dict(RunConfig, data)
