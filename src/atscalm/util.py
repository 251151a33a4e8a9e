"""Shared plumbing: keyed counter-based RNG, deterministic file writers,
even range splits, and the dataclass-from-JSON constructor."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import types
import typing
from typing import Iterable, Sequence

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


def json_text(obj) -> str:
    """The JSON form of every document written or printed: `json_sanitize(obj)`
    (NaN as null, numpy values and tuples as Python ones), sorted, 2-space indent."""
    return json.dumps(json_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)


def write_json(path: str, obj) -> None:
    """Write `json_text(obj)` and a final LF, with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(obj))
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """RFC 4180 CSV: ',' separator, minimal quoting, LF line ends, a header
    row; floats in their `fmt_float` form. A row holding a '\\r' has every
    cell quoted, since minimal quoting leaves a lone '\\r' bare and the
    reader would end the record there."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        minimal = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in [header, *rows]:
            cells = [fmt_float(c) if isinstance(c, (float, np.floating)) else c for c in row]
            (quote_all if any("\r" in str(c) for c in cells) else minimal).writerow(cells)


def _csv_lines(path: str) -> list[tuple[int, list[str]]]:
    """(1-based line number where the record starts, cells) of every
    non-blank record."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        line = 1
        try:
            for cells in reader:
                if cells:
                    records.append((line, cells))
                line = reader.line_num + 1
        except UnicodeDecodeError as exc:
            raise PipelineError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise PipelineError(f"{path} line {line}: {exc}") from None
    if not records:
        raise PipelineError(f"empty CSV: {path}")
    return records


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    lines = _csv_lines(path)
    return lines[0][1], [cells for _, cells in lines[1:]]


def read_float_csv(path: str, keys: Sequence[str]) -> tuple[list[str], list[list[str]], np.ndarray]:
    """A CSV whose header starts with the ``keys`` columns and whose other
    cells are finite numbers: (header, key cells per row, (rows, other
    columns) floats).

    A header without the key columns, a row whose width differs from the
    header, or a cell that is not a finite number (``nan``, ``inf`` and
    ``1e999`` are not) raises PipelineError naming the file, line and column.
    """
    (_, header), *body = _csv_lines(path)
    n_keys = len(keys)
    if header[:n_keys] != list(keys):
        raise PipelineError(f"{path}: header must start with {','.join(keys)}, got {header[:n_keys]}")
    values = np.empty((len(body), len(header) - n_keys))
    for i, (line, cells) in enumerate(body):
        if len(cells) != len(header):
            raise PipelineError(f"{path} line {line}: {len(cells)} cells, "
                                f"the header has {len(header)}")
        for j in range(n_keys, len(header)):
            try:
                values[i, j - n_keys] = v = float(cells[j])
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise PipelineError(f"{path} line {line}, column {header[j]}: "
                                    f"{cells[j]!r} is not a finite number")
    return header, [cells[:n_keys] for _, cells in body], values


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


def even_ranges(n: int, most: int) -> list[tuple[int, int]]:
    """The fewest ranges [a, b) of at most ``most`` items covering ``n``
    items, as equal as can be: no range is a small one next to big ones."""
    k = max(1, -(-n // most))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def dataclass_from_dict(cls, data, path: str = ""):
    """Build dataclass ``cls`` from a JSON object; absent keys keep defaults.

    Each value is checked against its field's annotation: ints are not
    bools, a float field also takes an int and rejects NaN, infinities and
    ints beyond the float range, lists become tuples, ``X | None`` takes
    null, and a nested dataclass field is built the same way. An unknown
    key, a mistyped value, or a failed ``__post_init__`` raises ConfigError
    naming the dotted key path (``path`` prefixes it).
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
        if tp is float and not abs(value) <= sys.float_info.max:   # NaN fails too
            raise ConfigError(f"config key {where} must be finite, got {value!r}")
        return value
    name = str(tp) if origin else tp.__name__
    raise ConfigError(f"config key {where} must be {name}, got {value!r}")
