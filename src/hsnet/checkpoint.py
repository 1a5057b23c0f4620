"""Binary checkpoint format.

Layout, all integers little-endian:

    magic   4 bytes  b"HSNT"
    version u32      currently 1
    count   u32      number of tensors
    per tensor:
        name_len u32, name bytes (UTF-8)
        rank     u32
        dims     u64 * rank
        data     f32 * prod(dims), little-endian
    crc32   u32      of every preceding byte

The CRC is verified before anything is parsed, so a corrupted file never
produces a partial load. Values are stored at 32-bit precision; saving a
float64 network and loading it back reproduces the float32 cast exactly.

The network config travels inside the checkpoint as a tensor named
``meta/config_json``: the UTF-8 bytes of the config JSON, one byte per
float32 value (exact, since every byte is representable). That keeps the
format self-contained without a side channel.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError

MAGIC = b"HSNT"
VERSION = 1
CONFIG_KEY = "meta/config_json"


def save(path, tensors: "OrderedDict[str, np.ndarray]") -> None:
    """Write named arrays in the checkpoint layout (cast to float32).

    The bytes go to a sibling ``<name>.tmp`` file that is then renamed
    over ``path``, so ``path`` holds either its previous content or the
    complete new checkpoint, never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp")
    crc = 0
    try:
        with tmp.open("wb") as f:
            def put(chunk) -> None:
                nonlocal crc
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)

            put(MAGIC + struct.pack("<II", VERSION, len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                name_b = name.encode("utf-8")
                put(struct.pack("<I", len(name_b)) + name_b + struct.pack("<I", arr.ndim)
                    + struct.pack(f"<{arr.ndim}Q", *arr.shape))
                put(np.ascontiguousarray(arr, dtype="<f4"))
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path) -> "OrderedDict[str, np.ndarray]":
    """Read a checkpoint; raises CorruptionError on CRC mismatch."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 12:
        raise FormatError(f"{path}: too short to be a checkpoint ({len(raw)} bytes)")
    body, (stored_crc,) = raw[:-4], struct.unpack("<I", raw[-4:])
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CorruptionError(
            f"{path}: CRC mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )

    view = memoryview(body)
    if bytes(view[:4]) != MAGIC:
        raise FormatError(f"{path}: bad magic {bytes(view[:4])!r}")
    version, n_tensors = struct.unpack_from("<II", view, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")

    offset = 12
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    try:
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<I", view, offset)
            offset += 4
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", view, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}Q", view, offset)
            offset += 8 * rank
            n = 1
            for d in dims:
                n *= d
            data = np.frombuffer(view, dtype="<f4", count=n, offset=offset).reshape(dims)
            offset += 4 * n
            out[name] = data.copy()
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: malformed tensor table ({exc})") from exc
    if offset != len(body):
        raise FormatError(f"{path}: {len(body) - offset} trailing bytes after tensor table")
    return out


def encode_text(text: str) -> np.ndarray:
    """UTF-8 bytes as a rank-1 float32 array (exact for byte values)."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def decode_text(arr: np.ndarray) -> str:
    return np.asarray(arr).astype(np.uint8).tobytes().decode("utf-8")
