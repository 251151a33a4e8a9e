"""Acoustic time-series calmness analysis toolkit."""

__version__ = "0.1.0"

from .audio_io import ClassLabel, CorpusManifest
from .util import PipelineError

__all__ = ["ClassLabel", "CorpusManifest", "PipelineError", "__version__"]
