"""Binary parameter checkpoints.

Layout: 4 magic bytes "SCH1", then one record per tensor:
uint32 name length, UTF-8 name, uint32 rank, uint32 extents, then the values
as little-endian float64 in row-major order. Records run until end of file.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParseError
from .io import read_bytes, write_bytes

MAGIC = b"SCH1"


def save_tensors(tensors: dict[str, np.ndarray], path) -> None:
    chunks = [MAGIC]
    for name, arr in tensors.items():
        # asarray (not ascontiguousarray) so 0-d arrays keep their rank
        arr = np.asarray(arr, dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_bytes(path, b"".join(chunks))


def load_tensors(path) -> dict[str, np.ndarray]:
    blob = read_bytes(path)
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: bad magic bytes {blob[:4]!r}")
    out: dict[str, np.ndarray] = {}
    pos = 4
    try:
        while pos < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            count = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape)
            pos += 8 * count
            out[name] = arr.copy()
    except (struct.error, ValueError) as e:
        raise ParseError(f"{path}: truncated or corrupt checkpoint: {e}") from e
    return out
