"""Shared plumbing: keyed counter-based RNG, deterministic file writers,
the ordered parallel map, and the dataclass-from-JSON constructor."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import types
import typing
from typing import Callable, Iterable, Sequence

import numpy as np


class PipelineError(Exception):
    """Domain error; the CLI maps it to exit code 1."""


class ConfigError(PipelineError):
    """Bad or unknown configuration; the CLI maps it to exit code 2."""


def keyed_rng(*parts) -> np.random.Generator:
    """Counter-based (Philox) generator derived from a tuple of key parts.

    The key is the SHA-256 of the '/'-joined string forms of ``parts``, so
    the stream is a pure function of the parts and is stable across
    platforms, processes, and thread schedules.
    """
    key = "/".join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=words))


def fmt_float(x) -> str:
    """Shortest round-trip decimal form; '.' decimal point always."""
    return repr(float(x))


def write_json(path: str, obj) -> None:
    """Write JSON with sorted keys, 2-space indent, LF endings."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with ',' separator, '.' decimal, LF endings, header always present."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header))
        fh.write("\n")
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, (float, np.floating)):
                    cells.append(fmt_float(cell))
                else:
                    cells.append(str(cell))
            fh.write(",".join(cells))
            fh.write("\n")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines:
        raise PipelineError(f"empty CSV: {path}")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def json_sanitize(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else None
    return obj


def parallel_map(fn: Callable, items: Iterable, jobs: int = 1) -> list:
    """``[fn(x) for x in items]`` on up to ``jobs`` threads, in input order."""
    if jobs <= 1:
        return [fn(x) for x in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def dataclass_from_dict(cls, data, path: str = ""):
    """Build dataclass ``cls`` from a JSON object; absent keys keep defaults.

    Each value is checked against its field's annotation: ints are not
    bools, a float field also takes an int, lists become tuples, ``X | None``
    takes null, and a nested dataclass field is built the same way. An
    unknown key, a mistyped value, or a failed ``__post_init__`` raises
    ConfigError naming the dotted key path (``path`` prefixes it).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config {path or 'document'} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ConfigError(f"unknown config key {where}")
        kwargs[key] = _typed(hints[key], value, where)
    try:
        return cls(**kwargs)
    except PipelineError as exc:
        raise ConfigError(f"config {path or 'document'}: {exc}") from None


def _typed(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return dataclass_from_dict(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _typed(tp, value, where)
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(_typed(k, v, f"{where}[{i}]")
                             for i, (k, v) in enumerate(zip(kinds, value)))
    elif origin is dict:
        if isinstance(value, dict):
            return {_typed(args[0], k, where): _typed(args[1], v, f"{where}.{k}")
                    for k, v in value.items()}
    elif isinstance(value, bool):
        if tp is bool:
            return value
    elif isinstance(value, tp) or (tp is float and isinstance(value, int)):
        return value
    name = str(tp) if origin else tp.__name__
    raise ConfigError(f"config key {where} must be {name}, got {value!r}")
