"""The model contract and its flat binary checkpoint.

A model has a dataclass ``cfg`` and two named dicts of Tensors, each in
registration order: ``params``, the trainable set, and ``buffers``, the
non-trainable state. Its state is ``params`` then ``buffers``. `save_model`
writes it under a header holding ``kind`` and ``config``; `load_model`
checks both before restoring any tensor, and builds the model without
initialising it, so the loaded state is the only copy. The file is a
JSON header, then named little-endian payloads, each in its tensor's own
dtype: ``<f4`` for a float32 array, ``<f8`` for any other, as the index
records per tensor. Both save and load move each tensor between its own
array and the file, so neither holds the state twice, and a float32
tensor is neither widened on save nor on load.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from ..util import PipelineError, dataclass_from_dict
from .init import no_init

MAGIC = b"ATSNN001"
STORED_DTYPES = ("<f4", "<f8")


def state_arrays(model) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in (*model.params.items(), *model.buffers.items())}


def load_state(model, arrays: dict[str, np.ndarray]) -> None:
    """Adopt ``arrays`` as the model's state, without copying them: pass
    arrays that nothing else holds, such as `load_checkpoint` returns."""
    tensors = {**model.params, **model.buffers}
    for name, t in tensors.items():
        if name not in arrays or arrays[name].shape != t.data.shape:
            raise PipelineError(f"checkpoint tensor {name} missing or wrong shape")
    for name, t in tensors.items():
        t.data = arrays[name]


def save_model(model, path: str, kind: str, **meta) -> None:
    """``meta`` adds header entries next to ``kind`` and ``config``."""
    save_checkpoint(path, state_arrays(model), {"kind": kind, "config": asdict(model.cfg), **meta})


def load_model(path: str, kind: str, config_cls, build):
    """(``build(config)`` with the stored state, header) of a ``kind`` checkpoint.

    The model is built under `no_init`, so its seeded parameters are
    zero-byte placeholders until `load_state`, which requires every tensor,
    replaces them with the loaded arrays.
    """
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise PipelineError(f"{path}: not {'an' if kind[0] in 'aeiou' else 'a'} {kind} checkpoint")
    cfg = dataclass_from_dict(config_cls, meta.get("config"), f"{path} config")
    with no_init():
        model = build(cfg)
    load_state(model, arrays)
    return model, meta


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write ``tensors`` under a header holding ``meta``.

    A float32 array of either byte order is stored as ``<f4``, any other as
    ``<f8``. The index is computed from each array's byte count, then each
    array is written straight from its own memory. A C-contiguous
    little-endian float32 or float64 array, as every model tensor is, is not
    copied, so saving a model holds no second state. A non-finite tensor is
    rejected by name, as `load_checkpoint` rejects it, before the file is made.
    """
    arrays = {name: np.ascontiguousarray(arr, dtype=_stored_dtype(arr))
              for name, arr in tensors.items()}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise PipelineError(f"{path}: tensor {name!r} holds a non-finite value")
    index = []
    offset = 0
    for name, arr in arrays.items():
        index.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                      "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    header = json.dumps({"meta": meta, "tensors": index},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for arr in arrays.values():
            fh.write(arr)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a file written by save_checkpoint.

    The magic, the header length and JSON, and each tensor's dtype (one of
    STORED_DTYPES), shape and byte range are checked against the file
    before any array is built; a file that fails a check raises
    PipelineError naming it. Each tensor is read straight from the file
    into its own array of its stored dtype, so the payload is held once,
    and a tensor holding a NaN or infinity is rejected by name.
    """
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path, os.fstat(fh.fileno()).st_size)
    except OSError as exc:
        raise PipelineError(f"cannot read {path}: {exc.strerror}") from exc


def _read_checkpoint(fh, path: str, size: int) -> tuple[dict[str, np.ndarray], dict]:
    start = len(MAGIC) + 4
    head = fh.read(start)
    if len(head) < start or head[: len(MAGIC)] != MAGIC:
        raise PipelineError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack_from("<I", head, len(MAGIC))
    if start + hlen > size:
        raise PipelineError(f"{path}: {hlen}-byte header runs past the end of the "
                            f"{size}-byte file")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
        meta, index = header["meta"], header["tensors"]
        specs = [(e["name"], e["dtype"], e["shape"], e["offset"], e["nbytes"]) for e in index]
    except (ValueError, KeyError, TypeError) as exc:
        raise PipelineError(f"{path}: malformed checkpoint header ({exc})") from None
    if not isinstance(meta, dict):
        raise PipelineError(f"{path}: checkpoint meta is not an object")
    payload = size - start - hlen
    for name, dtype, shape, offset, nbytes in specs:
        if not (isinstance(name, str) and dtype in STORED_DTYPES and isinstance(shape, list)
                and all(_is_count(v) for v in (offset, nbytes, *shape))):
            raise PipelineError(f"{path}: malformed index entry for tensor {name!r}")
        if nbytes != np.dtype(dtype).itemsize * math.prod(shape) or offset + nbytes > payload:
            raise PipelineError(f"{path}: tensor {name!r} of shape {shape} claims bytes "
                                f"{offset}..{offset + nbytes} of a {payload}-byte payload")
    tensors = {}
    for name, dtype, shape, offset, nbytes in specs:
        arr = np.empty(shape, dtype=dtype)
        fh.seek(start + hlen + offset)
        if fh.readinto(arr) != nbytes:
            raise PipelineError(f"{path}: tensor {name!r} was cut short while reading")
        if not np.isfinite(arr).all():
            raise PipelineError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = arr
    return tensors, meta


def _stored_dtype(arr: np.ndarray) -> str:
    a = np.asarray(arr)
    return "<f4" if a.dtype.kind == "f" and a.dtype.itemsize == 4 else "<f8"


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0
