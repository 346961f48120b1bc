"""Pinhole camera model, rotation parameterizations and translation encoding.

Conventions used throughout the package:
  * right-handed camera frame, x right, y down, z along the optical axis;
  * pixel (u, v) has u growing rightwards and v downwards, the center of
    the top-left pixel is at (0.5, 0.5);
  * rotations are world-to-camera, translations are in meters;
  * a single focal length serves both axes (square pixels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRotation6D,
    InvalidRotation,
    NonPositiveDepth,
    PointBehindCamera,
)

# Below this norm the Gram-Schmidt step cannot produce a reliable direction.
GS_EPS = 1e-8
# Frobenius tolerance for accepting a matrix as a rotation.
ROTATION_TOL = 1e-9
# Depths at or below this value count as "behind the camera".
MIN_DEPTH = 1e-9
# Side length, in pixels, of the square crop a detection is zoomed into
# (GDR-Net's zoomed-in RoI, Wang et al., CVPR 2021).
ZOOM_SIZE = 256.0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with a single focal length, in pixels."""

    f: float
    px: float
    py: float
    width: int
    height: int

    def __post_init__(self):
        if not self.f > 0:
            raise ValueError(f"focal length must be positive, got {self.f}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 <= self.px < self.width and 0 <= self.py < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def K(self) -> np.ndarray:
        return np.array(
            [[self.f, 0.0, self.px], [0.0, self.f, self.py], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class BBox:
    """Axis-aligned 2D box: center (cx, cy) and size (w, h), in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.cx, self.cy, self.w, self.h))):
            raise ValueError(f"box values must be finite, got {self}")
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box size must be positive, got {self.w}x{self.h}")

    @property
    def x0(self) -> float:
        return self.cx - 0.5 * self.w

    @property
    def y0(self) -> float:
        return self.cy - 0.5 * self.h

    @property
    def x1(self) -> float:
        return self.cx + 0.5 * self.w

    @property
    def y1(self) -> float:
        return self.cy + 0.5 * self.h

    def as_list(self) -> list[float]:
        return [float(self.cx), float(self.cy), float(self.w), float(self.h)]

    @classmethod
    def from_list(cls, values) -> "BBox":
        """Inverse of ``as_list``."""
        cx, cy, w, h = (float(v) for v in values)
        return cls(cx=cx, cy=cy, w=w, h=h)


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes; 0 when they do not overlap."""
    iw = min(a.x1, b.x1) - max(a.x0, b.x0)
    ih = min(a.y1, b.y1) - max(a.y0, b.y0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def check_rotation(R: np.ndarray) -> np.ndarray:
    """Validate that ``R`` is a proper rotation; returns it as float64."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise InvalidRotation(f"expected 3x3 matrix, got shape {R.shape}")
    # Frobenius norm of R^T R - I and the determinant, on plain floats:
    # numpy's per-call overhead dominates at 3x3.
    (a, b, c), (d, e, f), (g, h, i) = R.tolist()
    xx = a * a + d * d + g * g - 1.0
    yy = b * b + e * e + h * h - 1.0
    zz = c * c + f * f + i * i - 1.0
    xy = a * b + d * e + g * h
    xz = a * c + d * f + g * i
    yz = b * c + e * f + h * i
    frob = math.sqrt(xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz))
    # written as "not below" so that a NaN fails too
    if not frob < ROTATION_TOL:
        raise InvalidRotation("matrix columns are not orthonormal")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) < ROTATION_TOL:
        raise InvalidRotation("matrix determinant is not +1")
    return R


@dataclass(frozen=True)
class Pose:
    """Rigid transform from model to camera frame: x_cam = R x + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = check_rotation(self.R)
        t = np.asarray(self.t, dtype=float).reshape(3)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform (N, 3) model points into the camera frame."""
        return np.asarray(points, dtype=float) @ self.R.T + self.t


@dataclass(frozen=True)
class Rot6D:
    """Continuous 6-number rotation encoding: the first two matrix columns."""

    r1: np.ndarray
    r2: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.r1, float), np.asarray(self.r2, float)])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Rot6D":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(r1=v[:3].copy(), r2=v[3:].copy())


def rot6d_to_matrix(g: Rot6D) -> np.ndarray:
    """Orthonormalize a 6-number encoding into a rotation matrix.

    The first column is the normalized ``r1``; the second is ``r2`` made
    orthogonal to it and normalized; the third is their cross product.

    Raises:
        DegenerateRotation6D: ``r1`` is near zero or ``r2`` is near parallel
            to ``r1``.
    """
    r1 = np.asarray(g.r1, dtype=float).reshape(3)
    r2 = np.asarray(g.r2, dtype=float).reshape(3)
    n1 = math.sqrt(float(r1 @ r1))
    if n1 <= GS_EPS:
        raise DegenerateRotation6D(f"first column norm {n1:.3e} too small")
    c1 = r1 / n1
    r2p = r2 - float(r2 @ c1) * c1
    n2 = math.sqrt(float(r2p @ r2p))
    if n2 <= GS_EPS:
        raise DegenerateRotation6D(
            f"second column is near parallel to the first (residual {n2:.3e})"
        )
    # The dot products stay in numpy so the bits match its (fused) summation;
    # the rest runs on plain floats, which numpy's per-call overhead dwarfs.
    a1, a2, a3 = c1.tolist()
    b1, b2, b3 = (r2p / n2).tolist()
    return np.array(
        [
            [a1, b1, a2 * b3 - a3 * b2],
            [a2, b2, a3 * b1 - a1 * b3],
            [a3, b3, a1 * b2 - a2 * b1],
        ]
    )


def matrix_to_rot6d(R: np.ndarray) -> Rot6D:
    """Encode a rotation as its first two columns."""
    R = check_rotation(R)
    return Rot6D(r1=R[:, 0].copy(), r2=R[:, 1].copy())


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a given unit axis and angle (Rodrigues form)."""
    a = np.asarray(axis, dtype=float).reshape(3)
    n = math.sqrt(float(a @ a))
    if n <= GS_EPS:
        raise ValueError("rotation axis must be non-zero")
    x, y, z = (a / n).tolist()
    c = math.cos(angle)
    s = math.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Rotation drawn uniformly from SO(3) via a random unit quaternion."""
    q = rng.standard_normal(4)
    q /= math.sqrt(float(q @ q))
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _ray_alignment(obj_center_2d, camera: CameraIntrinsics) -> np.ndarray:
    """Minimal rotation taking the optical axis onto the viewing ray.

    The viewing ray passes through the 2D object center; the returned
    rotation maps (0, 0, 1) onto it while moving no other direction more
    than necessary.
    """
    u, v = float(obj_center_2d[0]), float(obj_center_2d[1])
    rx = (u - camera.px) / camera.f
    ry = (v - camera.py) / camera.f
    n = math.sqrt(rx * rx + ry * ry + 1.0)
    vx, vy, vz = rx / n, ry / n, 1.0 / n
    # Rodrigues about the unit axis z_hat x v / sin, with cos = vz and
    # sin = hypot(vx, vy); (1 - cos) / sin^2 = 1 / (1 + cos)
    k = 1.0 / (1.0 + vz)
    return np.array(
        [
            [vz + vy * vy * k, -vx * vy * k, vx],
            [-vx * vy * k, vz + vx * vx * k, vy],
            [-vx, -vy, vz],
        ]
    )


def allo_to_ego(R_allo: np.ndarray, obj_center_2d, camera: CameraIntrinsics) -> np.ndarray:
    """Convert a viewpoint-invariant rotation to the camera-frame rotation.

    An allocentric rotation describes the object as seen along the ray
    through its 2D center; composing with the minimal axis-to-ray rotation
    yields the egocentric (camera frame) rotation.
    """
    return _ray_alignment(obj_center_2d, camera) @ check_rotation(R_allo)


def ego_to_allo(R_ego: np.ndarray, obj_center_2d, camera: CameraIntrinsics) -> np.ndarray:
    """Inverse of :func:`allo_to_ego` for the same 2D center."""
    return _ray_alignment(obj_center_2d, camera).T @ check_rotation(R_ego)


@dataclass(frozen=True)
class CropTranslation:
    """Translation encoded relative to a detection box.

    ``dx`` and ``dy`` are offsets of the projected object center from the
    box center, normalized by box width and height.  ``dz`` is the depth
    divided by the zoom ratio ``ZOOM_SIZE / max(w, h)``, which makes it
    invariant to the apparent object scale.
    """

    dx: float
    dy: float
    dz: float


def encode_translation(t: np.ndarray, box: BBox, camera: CameraIntrinsics) -> CropTranslation:
    """Encode a camera-frame translation relative to a detection box, for
    a crop zoomed to ``ZOOM_SIZE`` pixels.

    Raises:
        NonPositiveDepth: the translation has depth <= 0.
    """
    t = np.asarray(t, dtype=float).reshape(3)
    tz = float(t[2])
    if tz <= MIN_DEPTH:
        raise NonPositiveDepth(f"translation depth {tz} is not positive")
    ox = camera.f * float(t[0]) / tz + camera.px
    oy = camera.f * float(t[1]) / tz + camera.py
    r = ZOOM_SIZE / max(box.w, box.h)
    return CropTranslation(dx=(ox - box.cx) / box.w, dy=(oy - box.cy) / box.h, dz=tz / r)


def decode_translation(
    s: CropTranslation, box: BBox, camera: CameraIntrinsics
) -> np.ndarray:
    """Recover the camera-frame translation from its box-relative encoding.

    Raises:
        NonPositiveDepth: the decoded depth is <= 0.
    """
    ox = box.cx + s.dx * box.w
    oy = box.cy + s.dy * box.h
    r = ZOOM_SIZE / max(box.w, box.h)
    tz = s.dz * r
    if tz <= MIN_DEPTH:
        raise NonPositiveDepth(f"decoded depth {tz} is not positive")
    return np.array(
        [(ox - camera.px) * tz / camera.f, (oy - camera.py) * tz / camera.f, tz]
    )


def project_points(points: np.ndarray, pose: Pose, camera: CameraIntrinsics) -> np.ndarray:
    """Project (N, 3) model points to (N, 2) pixel coordinates.

    Raises:
        PointBehindCamera: any transformed point has depth <= 1e-9 m.
    """
    pc = pose.apply(points)
    z = pc[:, 2]
    if np.any(z <= MIN_DEPTH):
        raise PointBehindCamera("points at or behind the camera plane")
    uv = np.empty((pc.shape[0], 2))
    uv[:, 0] = camera.f * pc[:, 0] / z + camera.px
    uv[:, 1] = camera.f * pc[:, 1] / z + camera.py
    return uv


def geodesic_angle(Ra: np.ndarray, Rb: np.ndarray) -> float:
    """Angle of the relative rotation between two rotations, in radians."""
    Ra = check_rotation(Ra)
    Rb = check_rotation(Rb)
    tr = float(np.trace(Ra.T @ Rb))
    return math.acos(min(1.0, max(-1.0, 0.5 * (tr - 1.0))))
