"""Run configuration: one JSON document covering every pipeline stage.

`RunConfig()` is the complete documented default; a config file may
override any subset of keys. Unknown keys and mistyped values are rejected
by dotted key path so typos fail loudly. A single top-level seed can be
pushed into every nested stage with `override_seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .audio_io import CANONICAL_RATE, DEFAULT_CLASS_DIRS, ClassLabel, SynthConfig, parse_label
from .augment import AugmentConfig
from .classifier import CamConfig
from .encoder import EncoderConfig
from .features import FeatureParams
from .util import ConfigError, dataclass_from_dict, read_json


@dataclass
class EncoderSection(EncoderConfig):
    """The encoder architecture plus its training schedule."""

    epochs: int = 30
    lr: float = 3e-3
    batch_pairs: int = 8
    val_fraction: float = 0.25
    seed: int = 0

    def architecture(self) -> EncoderConfig:
        return EncoderConfig(**{f.name: getattr(self, f.name) for f in fields(EncoderConfig)})


@dataclass
class TsneSection:
    perplexity: float = 10.0
    lr: float = 100.0
    iters: int = 300
    seed: int = 0


@dataclass
class ValidationSection:
    phase_search: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    rate: int = CANONICAL_RATE
    class_dirs: dict[str, str] = field(
        default_factory=lambda: {lab.value: d for lab, d in DEFAULT_CLASS_DIRS.items()})
    synth: SynthConfig = field(default_factory=SynthConfig)
    features: FeatureParams = field(default_factory=FeatureParams)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    cam: CamConfig = field(default_factory=CamConfig)
    tsne: TsneSection = field(default_factory=TsneSection)
    validation: ValidationSection = field(default_factory=ValidationSection)

    def __post_init__(self):
        self.class_dir_map()

    def class_dir_map(self) -> dict[ClassLabel, str]:
        return {parse_label(k): v for k, v in self.class_dirs.items()}

    def override_seed(self, seed: int) -> None:
        self.seed = seed
        for f in fields(self):
            section = getattr(self, f.name)
            if hasattr(section, "seed"):
                section.seed = seed


def config_from_dict(data: dict) -> RunConfig:
    return dataclass_from_dict(RunConfig, data)


def load_config(path: str) -> RunConfig:
    try:
        data = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return config_from_dict(data)
