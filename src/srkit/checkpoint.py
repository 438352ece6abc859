"""Fixed little-endian binary checkpoint format.

Layout (all integers unsigned 32-bit little-endian, floats 32-bit
little-endian):

    magic   4 bytes  b"SRCK"
    version u32      currently 1
    meta    u32 byte length, then UTF-8 JSON (canonical: sorted keys,
            compact separators) holding the run-config snapshot and any
            extra run facts
    then tensor records until end of file, each:
        u32 name byte length, UTF-8 name,
        u32 rank, u32 extents[rank],
        raw float32 data, row-major

Tensors are written sorted by name, and the metadata JSON is canonical,
so save -> load -> save is byte-identical. A text format would not
survive that round trip bit-exactly, hence binary.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from collections import Counter

import numpy as np

from .errors import CheckpointError

MAGIC = b"SRCK"
VERSION = 1


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".srck-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(meta: dict) -> str:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for a JSON object whose keys are all distinct:
    ``json`` would keep only a repeated key's last value, a silent override."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated key {key!r}")
    return doc


def save_checkpoint(path: str, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Serialize named float32 tensors plus a JSON metadata block."""
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta_bytes = canonical_json(meta).encode("utf-8")
    parts.append(struct.pack("<I", len(meta_bytes)))
    parts.append(meta_bytes)
    for name in sorted(tensors):
        t = np.ascontiguousarray(tensors[name], dtype="<f4")
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}I", *t.shape))
        parts.append(t.tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def at_end(self) -> bool:
        return self.pos == len(self.buf)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; rejects unknown magic or version, metadata that is
    not a UTF-8 JSON object or repeats a key, duplicate tensor names, and
    tensors holding NaN or +-inf (a model no training run can have written)."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        meta = json.loads(r.take(r.u32()).decode("utf-8"), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, too deep, digits, repeats
        raise CheckpointError(f"{path}: unreadable metadata: {e}") from e
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    tensors: dict[str, np.ndarray] = {}
    while not r.at_end():
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {e}") from e
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        rank = r.u32()
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        count = math.prod(shape)  # exact: a corrupt shape must not wrap around
        data = np.frombuffer(r.take(4 * count), dtype="<f4")
        try:
            tensors[name] = data.reshape(shape).astype(np.float32)
        except ValueError as e:  # more axes than numpy arrays may have
            raise CheckpointError(f"{path}: tensor {name!r} of rank {rank}: {e}") from e
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds NaN or infinity")
    return meta, tensors
