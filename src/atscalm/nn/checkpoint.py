"""Flat binary checkpoint: JSON header + named little-endian float64 payloads."""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..util import PipelineError

MAGIC = b"ATSNN001"


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], meta: dict) -> None:
    index = []
    payloads = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        blob = arr.tobytes()
        index.append({"name": name, "dtype": "<f8", "shape": list(arr.shape),
                      "offset": offset, "nbytes": len(blob)})
        payloads.append(blob)
        offset += len(blob)
    header = json.dumps({"meta": meta, "tensors": index},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a file written by save_checkpoint.

    The magic, the header length and JSON, and each tensor's dtype, shape
    and byte range are checked against the file before any array is built;
    a file that fails a check raises PipelineError naming it.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise PipelineError(f"cannot read {path}: {exc}") from exc
    start = len(MAGIC) + 4
    if len(blob) < start or blob[: len(MAGIC)] != MAGIC:
        raise PipelineError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    if start + hlen > len(blob):
        raise PipelineError(f"{path}: {hlen}-byte header runs past the end of the "
                            f"{len(blob)}-byte file")
    try:
        header = json.loads(blob[start : start + hlen].decode("utf-8"))
        meta, index = header["meta"], header["tensors"]
        specs = [(e["name"], e["dtype"], e["shape"], e["offset"], e["nbytes"]) for e in index]
    except (ValueError, KeyError, TypeError) as exc:
        raise PipelineError(f"{path}: malformed checkpoint header ({exc})") from None
    if not isinstance(meta, dict):
        raise PipelineError(f"{path}: checkpoint meta is not an object")
    payload = memoryview(blob)[start + hlen :]
    tensors = {}
    for name, dtype, shape, offset, nbytes in specs:
        if not (isinstance(name, str) and dtype == "<f8" and isinstance(shape, list)
                and all(_is_count(v) for v in (offset, nbytes, *shape))):
            raise PipelineError(f"{path}: malformed index entry for tensor {name!r}")
        if nbytes != 8 * math.prod(shape) or offset + nbytes > len(payload):
            raise PipelineError(f"{path}: tensor {name!r} of shape {shape} claims bytes "
                                f"{offset}..{offset + nbytes} of a {len(payload)}-byte payload")
        arr = np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
    return tensors, meta


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0
