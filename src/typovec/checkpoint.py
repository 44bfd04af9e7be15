"""Binary checkpoint format for named float64 tensors.

Layout (all integers little-endian):

    magic   4 bytes  b"TVCK"
    version u32      format version, currently 1
    seed    i64      seed the parameters were produced with
    count   u32      number of tensors
    then per tensor:
        name_len u32, name utf-8 bytes
        ndim     u32, dims u64 each
        data     float64 little-endian, row-major
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"TVCK"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, tensors: dict[str, np.ndarray], seed: int) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Iq", VERSION, int(seed)))
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8").tobytes(order="C"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], int]:
    """Returns (name -> array, seed); a short read raises CheckpointError."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0

    def take(size: int) -> bytes:
        nonlocal offset
        if size > len(data) - offset:
            raise CheckpointError(f"{path}: truncated checkpoint (needs {size} bytes at offset "
                                  f"{offset}, file has {len(data)})")
        offset += size
        return data[offset - size : offset]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, seed = unpack("<Iq")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (count,) = unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<I")
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name is not UTF-8") from None
        (ndim,) = unpack("<I")
        shape = unpack(f"<{ndim}Q")
        raw = take(8 * math.prod(shape))
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(tensors[name]).all():
            raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
    if offset != len(data):
        raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return tensors, seed
