"""CPU rasterization of posed meshes: depth, masks and correspondence maps.

Pixel (i, j) is sampled at its center (j + 0.5, i + 0.5); there is no
antialiasing and no back-face culling.  Depth resolves overlaps: the
nearest surface owns a pixel.  On an exact depth tie the earlier mesh
wins, and within a mesh the earlier triangle.  Attribute interpolation
is perspective-correct.

Each mesh is rasterized in batched numpy passes over edge functions
(Pineda, "A Parallel Algorithm for Polygon Rasterization", 1988) rather
than one triangle at a time.  The candidate pixels are the rows of every
triangle's clipped bounding box; the edge functions and the depth are
evaluated for all of them at once, and a stable sort by pixel picks, per
pixel, the nearest candidate and the earliest triangle among equal
depths.  That winner must still be strictly nearer than the depth
buffer, which holds the earlier meshes and chunks, and only winners get
their attributes interpolated.  Every per-pixel value is computed with
the same floating-point operations in the same order as a scalar
evaluation of one triangle, so results do not depend on the batching.

Candidates are processed in chunks of whole rows, in mesh and triangle
order, of at most ``CHUNK_PIXELS`` plus one row.  That bounds the
temporaries to about a megabyte whatever the scene: a triangle near the
camera whose box covers the frame is split into bands of rows instead of
allocating frame-sized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import BBox, CameraIntrinsics, Pose
from .errors import EmptyRender
from .meshes import TriMesh

# Triangles with any vertex at or closer than this depth are dropped
# rather than clipped; scene content lives far from the camera plane.
NEAR_PLANE = 1e-6
# Screen-space triangles below this area (in squared pixels) are skipped.
MIN_SCREEN_AREA = 1e-12
# Candidate pixels evaluated together; a chunk holds fewer than this plus
# one grid row.
CHUNK_PIXELS = 1 << 13


@dataclass(frozen=True)
class MaskImage:
    """Binary raster, row-major uint8 with values 0 or 1."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.uint8)
        if data.shape != (self.height, self.width):
            raise ValueError(
                f"mask data shape {data.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if data.max(initial=0) > 1:
            raise ValueError("mask values must be 0 or 1")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, data: np.ndarray) -> "MaskImage":
        data = np.asarray(data)
        return cls(width=data.shape[1], height=data.shape[0], data=data != 0)

    def pixel_count(self) -> int:
        return int(self.data.sum())

    def bbox(self) -> BBox | None:
        """Tight pixel box around the set pixels; None for an empty mask."""
        rows = np.flatnonzero(self.data.any(axis=1))
        cols = np.flatnonzero(self.data.any(axis=0))
        if rows.size == 0:
            return None
        y0, y1 = int(rows[0]), int(rows[-1])
        x0, x1 = int(cols[0]), int(cols[-1])
        w = float(x1 - x0 + 1)
        h = float(y1 - y0 + 1)
        return BBox(cx=x0 + 0.5 * w, cy=y0 + 0.5 * h, w=w, h=h)


@dataclass(frozen=True)
class DepthMap:
    """Depth raster in meters, float32; zero marks pixels with no hit."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.shape != (self.height, self.width):
            raise ValueError("depth data shape does not match size")
        if not np.isfinite(data).all() or data.min(initial=0.0) < 0.0:
            raise ValueError("depth values must be finite and non-negative")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class CorrespondenceMap:
    """Per-pixel normalized model coordinates over a crop window.

    ``data`` is (out, out, 3) float32 in [0, 1]; ``valid`` marks pixels
    where the target mesh is the visible surface; ``crop`` locates the
    window in full-image pixel coordinates.
    """

    width: int
    height: int
    data: np.ndarray
    valid: MaskImage
    crop: BBox

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.shape != (self.height, self.width, 3):
            raise ValueError("correspondence data must be (h, w, 3)")
        if self.valid.width != self.width or self.valid.height != self.height:
            raise ValueError("validity mask size mismatch")
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class _Grid:
    """Sampling lattice: pixel (i, j) sits at (x0 + (j+.5)sx, y0 + (i+.5)sy)."""

    x0: float
    y0: float
    sx: float
    sy: float
    width: int
    height: int

    @classmethod
    def full_image(cls, width: int, height: int) -> "_Grid":
        return cls(0.0, 0.0, 1.0, 1.0, width, height)

    @classmethod
    def from_crop(cls, crop: BBox, out_size: int) -> "_Grid":
        return cls(
            crop.x0, crop.y0, crop.w / out_size, crop.h / out_size, out_size, out_size
        )


def _raster_core(
    meshes: Sequence[tuple[TriMesh, Pose]],
    camera: CameraIntrinsics,
    grid: _Grid,
    attributes: np.ndarray | None = None,
    attr_mesh: int = 0,
):
    """Depth-buffered rasterization over an arbitrary sampling grid.

    Returns (depth, owner, attr) where ``owner`` holds the index of the
    front-most mesh per pixel (-1 for none) and ``attr`` the interpolated
    per-vertex attributes of mesh ``attr_mesh`` (None when ``attributes``
    is None).
    """
    h, w = grid.height, grid.width
    depth = np.full(h * w, np.inf)
    owner = np.full(h * w, -1, dtype=np.int32)
    attr = None
    if attributes is not None:
        attr = np.zeros((h * w, attributes.shape[1]))

    for mesh_idx, (mesh, pose) in enumerate(meshes):
        cam_pts = mesh.vertices @ pose.R.T + pose.t
        z = cam_pts[:, 2]
        # grid-space vertex coordinates
        gx = (camera.f * cam_pts[:, 0] / z + camera.px - grid.x0) / grid.sx
        gy = (camera.f * cam_pts[:, 1] / z + camera.py - grid.y0) / grid.sy
        faces, box, area2 = _triangle_boxes(mesh.faces, gx, gy, z, w, h)
        if faces.shape[0] == 0:
            continue
        tri_attr = None
        if attributes is not None and mesh_idx == attr_mesh:
            tri_attr = attributes[faces] / z[faces][:, :, None]
        for t, pix, w0, w1, w2, z_pix in _covered_pixels(faces, box, area2, gx, gy, z, w):
            win = _front_most(pix, z_pix, depth)
            depth[pix[win]] = z_pix[win]
            owner[pix[win]] = mesh_idx
            if tri_attr is not None:
                t = t[win]
                num = (
                    w0[win, None] * tri_attr[t, 0]
                    + w1[win, None] * tri_attr[t, 1]
                    + w2[win, None] * tri_attr[t, 2]
                )
                attr[pix[win]] = num * z_pix[win, None]
            elif attr is not None:
                attr[pix[win]] = 0.0

    if attr is not None:
        attr = attr.reshape(h, w, -1)
    return depth.reshape(h, w), owner.reshape(h, w), attr


def _triangle_boxes(faces, gx, gy, z, width, height):
    """The faces that can cover a pixel, in mesh order, with their boxes.

    Drops faces with a vertex at or in front of ``NEAR_PLANE``, faces
    whose pixel box is empty after clipping to the grid, and faces below
    ``MIN_SCREEN_AREA``.  ``box`` is (4, T) int64: the inclusive
    x_lo, x_hi, y_lo, y_hi of the pixel centers each face's box spans;
    ``area2`` is each face's signed doubled screen area.
    """
    faces = faces[~(z[faces] <= NEAR_PLANE).any(axis=1)]
    tx, ty = gx[faces], gy[faces]
    box = np.stack(
        [
            np.maximum(np.ceil(tx.min(axis=1) - 0.5), 0.0),
            np.minimum(np.floor(tx.max(axis=1) - 0.5), width - 1.0),
            np.maximum(np.ceil(ty.min(axis=1) - 0.5), 0.0),
            np.minimum(np.floor(ty.max(axis=1) - 0.5), height - 1.0),
        ]
    )
    keep = (box[0] <= box[1]) & (box[2] <= box[3])
    faces, tx, ty, box = faces[keep], tx[keep], ty[keep], box[:, keep]
    ax, bx, cx = tx.T
    ay, by, cy = ty.T
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    keep = ~(np.abs(area2) < MIN_SCREEN_AREA)
    return faces[keep], box[:, keep].astype(np.int64), area2[keep]


def _covered_pixels(faces, box, area2, gx, gy, z, width):
    """Yield the pixels inside each face, chunk by chunk in face order.

    Each yield is (tri, pix, w0, w1, w2, z): per covered pixel, the index
    of its face in ``faces``, its flat index, its barycentrics and its
    perspective-correct depth.  Candidates are the pixel rows of the face
    boxes, in face order and then row order; a chunk takes whole rows
    until it reaches ``CHUNK_PIXELS``, so it holds fewer than
    ``CHUNK_PIXELS + width`` candidates and a face larger than a chunk is
    split into bands of rows.
    """
    ax, bx, cx = gx[faces].T
    ay, by, cy = gy[faces].T
    tz = z[faces]
    x_lo, x_hi, y_lo, y_hi = box
    rows_per_face = y_hi - y_lo + 1
    row_tri = np.repeat(np.arange(faces.shape[0]), rows_per_face)
    first_row = np.cumsum(rows_per_face) - rows_per_face
    row_y = np.arange(row_tri.size) - np.repeat(first_row - y_lo, rows_per_face)
    row_n = (x_hi - x_lo + 1)[row_tri]
    row_start = np.cumsum(row_n) - row_n
    cuts = np.flatnonzero(np.diff(row_start // CHUNK_PIXELS)) + 1
    for lo, hi in zip([0, *cuts], [*cuts, row_tri.size]):
        t, y, n, start = row_tri[lo:hi], row_y[lo:hi], row_n[lo:hi], row_start[lo:hi]
        k = np.arange(start[0], start[-1] + n[-1])
        ix = np.repeat(x_lo[t] - start, n) + k
        px = ix + 0.5
        py = y + 0.5
        # normalized edge functions; dividing by the signed area makes
        # the inside test winding-independent.  The first products are
        # constant along a row.
        area = np.repeat(area2[t], n)
        w0 = (
            np.repeat((cx[t] - bx[t]) * (py - by[t]), n)
            - np.repeat(cy[t] - by[t], n) * (px - np.repeat(bx[t], n))
        ) / area
        w1 = (
            np.repeat((ax[t] - cx[t]) * (py - cy[t]), n)
            - np.repeat(ay[t] - cy[t], n) * (px - np.repeat(cx[t], n))
        ) / area
        w2 = 1.0 - w0 - w1
        inside = np.flatnonzero((w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0))
        if inside.size == 0:
            continue
        tri = np.repeat(t, n)[inside]
        pix = (np.repeat(y * width, n) + ix)[inside]
        w0, w1, w2 = w0[inside], w1[inside], w2[inside]
        z_pix = 1.0 / (w0 / tz[tri, 0] + w1 / tz[tri, 1] + w2 / tz[tri, 2])
        yield tri, pix, w0, w1, w2, z_pix


def _front_most(pix, z, depth):
    """Indices of the candidates that take their pixel.

    A candidate takes its pixel when it is the nearest candidate there,
    the first one among equal depths, and strictly nearer than ``depth``
    holds from earlier chunks.  The stable sort keeps the candidates of a
    pixel in triangle order, so earlier triangles win ties.
    """
    order = np.argsort(pix, kind="stable")
    pix_s, z_s = pix[order], z[order]
    new_pix = np.ones(order.size, dtype=bool)
    new_pix[1:] = pix_s[1:] != pix_s[:-1]
    group = np.cumsum(new_pix) - 1
    z_min = np.minimum.reduceat(z_s, np.flatnonzero(new_pix))
    nearest = np.flatnonzero(z_s == z_min[group])
    first = np.ones(nearest.size, dtype=bool)
    first[1:] = group[nearest[1:]] != group[nearest[:-1]]
    win = order[nearest[first]]
    return win[z[win] < depth[pix[win]]]


def rasterize_scene(
    meshes: Sequence[tuple[TriMesh, Pose]],
    camera: CameraIntrinsics,
    width: int | None = None,
    height: int | None = None,
) -> tuple[DepthMap, list[MaskImage]]:
    """Render all meshes into a shared depth buffer.

    Returns the depth map (0 where nothing is hit) and one visibility mask
    per input mesh, marking pixels that mesh owns.

    Raises:
        EmptyRender: no mesh covered any pixel.
    """
    width = camera.width if width is None else width
    height = camera.height if height is None else height
    grid = _Grid.full_image(width, height)
    depth, owner, _ = _raster_core(meshes, camera, grid)
    if owner.max(initial=-1) < 0:
        raise EmptyRender("no mesh covered any pixel")
    depth[owner < 0] = 0.0
    masks = [
        MaskImage(width, height, (owner == i).astype(np.uint8))
        for i in range(len(meshes))
    ]
    return DepthMap(width, height, depth.astype(np.float32)), masks


def render_amodal(
    mesh: TriMesh,
    pose: Pose,
    camera: CameraIntrinsics,
    width: int | None = None,
    height: int | None = None,
) -> MaskImage:
    """Full silhouette of a single mesh, ignoring any other scene content.

    Raises:
        EmptyRender: the mesh covers no pixel.
    """
    _, masks = rasterize_scene([(mesh, pose)], camera, width, height)
    return masks[0]


def rasterize_crop(
    meshes: Sequence[tuple[TriMesh, Pose]],
    camera: CameraIntrinsics,
    crop: BBox,
    out_size: int,
) -> tuple[DepthMap, list[MaskImage]]:
    """Like :func:`rasterize_scene`, sampled over a resampled crop window."""
    grid = _Grid.from_crop(crop, out_size)
    depth, owner, _ = _raster_core(meshes, camera, grid)
    depth[owner < 0] = 0.0
    masks = [
        MaskImage(out_size, out_size, (owner == i).astype(np.uint8))
        for i in range(len(meshes))
    ]
    return DepthMap(out_size, out_size, depth.astype(np.float32)), masks


def render_correspondence(
    mesh: TriMesh,
    normalized_coords: np.ndarray,
    pose: Pose,
    camera: CameraIntrinsics,
    crop: BBox,
    out_size: int = 64,
) -> CorrespondenceMap:
    """Rasterize per-vertex normalized coordinates over a crop window.

    ``normalized_coords`` must come from normalizing this mesh's vertices;
    each covered pixel receives the perspective-correct interpolation of
    the front-most triangle, clipped to [0, 1].

    Raises:
        EmptyRender: the crop misses the image or the mesh covers no pixel.
    """
    if crop.x1 <= 0 or crop.y1 <= 0 or crop.x0 >= camera.width or crop.y0 >= camera.height:
        raise EmptyRender("crop window does not intersect the image")
    coords = np.asarray(normalized_coords, dtype=float)
    if coords.shape != mesh.vertices.shape:
        raise ValueError("one normalized coordinate triple per vertex required")
    grid = _Grid.from_crop(crop, out_size)
    _, owner, attr = _raster_core([(mesh, pose)], camera, grid, attributes=coords)
    valid = owner == 0
    if not valid.any():
        raise EmptyRender("mesh covers no pixel of the crop")
    data = np.clip(attr, 0.0, 1.0)
    data[~valid] = 0.0
    return CorrespondenceMap(
        width=out_size,
        height=out_size,
        data=data.astype(np.float32),
        valid=MaskImage(out_size, out_size, valid.astype(np.uint8)),
        crop=crop,
    )
