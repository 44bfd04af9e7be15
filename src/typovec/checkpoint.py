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

Each tensor's bytes pass through memory once: :func:`save_checkpoint` writes
them from the array's own buffer, and :func:`load_checkpoint` reads them into
the array it returns, after checking that the file holds them. Neither
makes a copy of a tensor, nor holds the file in memory.
"""

from __future__ import annotations

import math
import os
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
            arr = np.asarray(arr, dtype="<f8", order="C")  # a float64 parameter is its own buffer, no copy
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], int]:
    """Returns (name -> array, seed); a short read raises CheckpointError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def check(need: int) -> None:
            nonlocal offset
            if need > size - offset:
                raise CheckpointError(f"{path}: truncated checkpoint (needs {need} bytes at offset "
                                      f"{offset}, file has {size})")
            offset += need

        def take(need: int) -> bytes:
            check(need)
            return fh.read(need)

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
            check(8 * math.prod(shape))  # before the array is made: a damaged dim may ask for any size
            try:
                arr = tensors[name] = np.empty(shape, dtype="<f8")
            except ValueError:  # with a zero dim, the size check passes any other dim
                raise CheckpointError(f"{path}: tensor {name!r} has no possible shape {shape}") from None
            fh.readinto(arr)
            # min and max propagate NaN and reach any infinity, with no boolean array
            if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
                raise CheckpointError(f"{path}: tensor {name!r} has non-finite values")
        if offset != size:
            raise CheckpointError(f"{path}: trailing bytes after last tensor")
    return tensors, seed
