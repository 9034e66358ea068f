"""On-disk formats: EAVT tensor blobs and portable pixmap images.

EAVT layout (little-endian): magic ``EAVT``, u32 rank, u32 dims[rank],
then the raw f32 or f64 payload.  Precision is recovered from the payload
byte count.  PPM (P6) and PGM (P5) are used for dataset images, masks and
debug dumps.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

EAVT_MAGIC = b"EAVT"
EAVT_MAX_RANK = 8


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    """The EAVT blob of ``arr``; refuses what ``tensor_from_bytes`` refuses."""
    if arr.dtype not in (np.float32, np.float64):
        raise CheckpointError(f"EAVT stores f32/f64 payloads, got {arr.dtype}")
    if arr.ndim > EAVT_MAX_RANK:
        raise CheckpointError(f"EAVT rank {arr.ndim} out of range")
    if any(d >= 2**32 for d in arr.shape):
        raise CheckpointError(f"EAVT dims {arr.shape} do not fit u32")
    header = EAVT_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr).tobytes()


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < 8 or blob[:4] != EAVT_MAGIC:
        raise CheckpointError("not an EAVT blob (bad magic)")
    (rank,) = struct.unpack_from("<I", blob, 4)
    if rank > EAVT_MAX_RANK:
        raise CheckpointError(f"EAVT rank {rank} out of range")
    dims_end = 8 + 4 * rank
    if len(blob) < dims_end:
        raise CheckpointError("EAVT blob truncated in dims")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    count = math.prod(dims)  # Python ints: a product past 2**64 must not wrap
    payload = len(blob) - dims_end
    if payload == 4 * count:
        dtype = np.dtype("<f4")
    elif payload == 8 * count:
        dtype = np.dtype("<f8")
    else:
        raise CheckpointError(
            f"EAVT payload of {payload} bytes does not match {count} f32 or f64 elements"
        )
    try:  # numpy refuses some empty shapes, e.g. (2**32 - 1, 2**32 - 1, 0)
        arr = np.frombuffer(blob, dtype=dtype, offset=dims_end).reshape(dims)
    except ValueError as e:
        raise CheckpointError(f"EAVT dims {dims} are not a numpy shape: {e}") from None
    return arr.copy()


def write_tensor(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_to_bytes(arr))


def read_tensor(path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# netpbm images


def write_ppm(path, image: np.ndarray) -> None:
    """Write an (H, W, 3) float image in [0, 1] as binary PPM."""
    h, w, _ = image.shape
    pixels = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) array as binary PGM; floats in [0, 1] are scaled."""
    if gray.dtype != np.uint8:
        gray = np.clip(np.round(gray * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(gray.tobytes())


def _read_pnm_header(f):
    def token():
        t = b""
        while True:
            ch = f.read(1)
            if not ch:
                raise CheckpointError("truncated netpbm header")
            if ch == b"#":
                f.readline()
                continue
            if ch.isspace():
                if t:
                    return t
                continue
            t += ch

    magic = token()
    fields = [token() for _ in range(3)]
    if not all(t.isdigit() for t in fields):
        raise CheckpointError(f"netpbm width, height and maxval must be numbers, got {fields}")
    w, h, maxval = (int(t) for t in fields)
    if w < 1 or h < 1:
        raise CheckpointError(f"netpbm image of {w} x {h} pixels is empty")
    if not 1 <= maxval <= 255:
        raise CheckpointError(f"netpbm maxval {maxval} outside 1..255")
    return magic, w, h, maxval


def _read_pnm(path, magic: bytes, channels: int) -> tuple:
    """(uint8 (H, W, channels) pixels, maxval) of a binary netpbm file."""
    with open(path, "rb") as f:
        got, w, h, maxval = _read_pnm_header(f)
        if got != magic:
            raise CheckpointError(f"{path}: expected {magic.decode()} netpbm, got {got!r}")
        size = w * h * channels
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left < size:
            raise CheckpointError(f"{path}: truncated payload, {left} of {size} bytes")
        raw = f.read(size)
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, channels)
    top = int(pixels.max())
    if top > maxval:
        raise CheckpointError(f"{path}: largest sample {top} above maxval {maxval}")
    return pixels, maxval


def read_ppm(path) -> np.ndarray:
    pixels, maxval = _read_pnm(path, b"P6", 3)
    return pixels.astype(np.float32) / maxval


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)[0][:, :, 0]
