"""Raster file formats: binary PGM for masks, FMAP for float maps.

FMAP is a minimal container: magic ``FMAP``, three little-endian u32
(width, height, channels), then float32 data row-major with channels
interleaved.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .raster import MaskImage

FMAP_MAGIC = b"FMAP"


def canonical_json(payload) -> str:
    """Serialize with sorted keys and fixed indentation.

    Identical payloads always produce identical bytes, so output files
    can be compared directly across runs.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_mask_pgm(mask: MaskImage, path: str | Path) -> None:
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + (mask.data * np.uint8(255)).tobytes())


def read_mask_pgm(path: str | Path) -> MaskImage:
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise ParseError(f"{path}: not a binary PGM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated PGM header")
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric PGM header") from exc
    if maxval != 255:
        raise ParseError(f"{path}: PGM maxval must be 255, got {maxval}")
    data = np.frombuffer(blob, dtype=np.uint8, offset=pos)
    if data.size != width * height:
        raise ParseError(
            f"{path}: PGM payload holds {data.size} bytes, "
            f"expected {width * height}"
        )
    if not ((data == 0) | (data == 255)).all():
        raise ParseError(f"{path}: mask pixels must be 0 or 255")
    return MaskImage(width, height, (data == 255).reshape(height, width))


def write_fmap(data: np.ndarray, path: str | Path) -> None:
    """Write a (h, w) or (h, w, c) float array as FMAP."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.ndim != 3:
        raise ValueError(f"FMAP data must be 2- or 3-dimensional, got {data.ndim}")
    h, w, c = data.shape
    header = FMAP_MAGIC + struct.pack("<III", w, h, c)
    Path(path).write_bytes(header + np.ascontiguousarray(data, dtype="<f4").tobytes())


def read_fmap(path: str | Path) -> np.ndarray:
    """Read an FMAP file back as a (h, w, c) float32 array."""
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != FMAP_MAGIC:
        raise ParseError(f"{path}: missing FMAP magic")
    w, h, c = struct.unpack_from("<III", blob, 4)
    expected = 16 + 4 * w * h * c
    if len(blob) != expected:
        raise ParseError(
            f"{path}: FMAP payload size mismatch, expected {expected} bytes, "
            f"found {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=16)
    return data.reshape(h, w, c).copy()
