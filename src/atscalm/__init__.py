"""Acoustic time-series calmness analysis toolkit."""

__version__ = "0.1.0"
