"""File formats: binary PGM for masks, FMAP for float maps, and the pose
fields of JSON records.

FMAP is a minimal container: magic ``FMAP``, three little-endian u32
(width, height, channels), then float32 data row-major with channels
interleaved.  Every JSON record that carries a pose (scene ground truth,
estimates, pose labels) stores it as ``R``, nine floats row-major, and
``t_mm``, the translation in millimeters, through ``encode_pose`` and
``decode_pose``.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .camera import Pose
from .errors import InvalidRotation, ParseError
from .raster import MaskImage

FMAP_MAGIC = b"FMAP"


def canonical_json(payload) -> str:
    """Serialize with sorted keys and fixed indentation.

    Identical payloads always produce identical bytes, so output files
    can be compared directly across runs.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def encode_pose(pose: Pose) -> dict:
    """The ``R`` and ``t_mm`` fields of a pose record."""
    return {
        "R": [float(v) for v in pose.R.reshape(9)],
        "t_mm": [float(v * 1000.0) for v in pose.t],
    }


def decode_pose(rec) -> Pose:
    """The pose of a record's ``R`` and ``t_mm`` fields; inverse of
    ``encode_pose``.

    Raises:
        ParseError: ``R`` is not a proper rotation, or ``t_mm`` is not finite.
        KeyError, TypeError, ValueError: a field is missing or malformed.
    """
    R = np.array([float(v) for v in rec["R"]], dtype=np.float64).reshape(3, 3)
    t = np.array([float(v) for v in rec["t_mm"]], dtype=np.float64) / 1000.0
    if not np.isfinite(t).all():
        raise ParseError(f"t_mm is not finite: {rec['t_mm']}")
    try:
        return Pose(R=R, t=t)
    except InvalidRotation as exc:
        raise ParseError(f"R is not a rotation: {exc}") from None


def write_mask_pgm(mask: MaskImage, path: str | Path) -> None:
    """Write the whole image, whatever window the mask keeps."""
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    # header and image in one zeroed buffer; only the window is filled
    blob = np.zeros(len(header) + mask.width * mask.height, dtype=np.uint8)
    blob[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    image = blob[len(header) :].reshape(mask.height, mask.width)
    x0, y0, x1, y1 = mask.window
    np.multiply(mask.data, 255, out=image[y0:y1, x0:x1])
    Path(path).write_bytes(blob)


def read_mask_pgm(path: str | Path) -> MaskImage:
    """Read a mask, kept over the tight window of its set pixels."""
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
    # subtracting 1 wraps 0 to 255 and takes 255 to 254: every other byte
    # lands below 254
    if (data - 1 < 254).any():
        raise ParseError(f"{path}: mask pixels must be 0 or 255")
    image = data.reshape(height, width)
    rows = np.flatnonzero(image.max(axis=1, initial=0))
    if rows.size == 0:
        return MaskImage(width, height, np.zeros((0, 0), dtype=np.uint8))
    band = image[rows[0] : rows[-1] + 1]
    cols = np.flatnonzero(band.max(axis=0))
    window = band[:, cols[0] : cols[-1] + 1] == 255
    return MaskImage(width, height, window, int(cols[0]), int(rows[0]))


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
