"""CPU rasterization of posed meshes: masks and correspondence maps.

Pixel (i, j) is sampled at its center (j + 0.5, i + 0.5); there is no
antialiasing and no back-face culling.  Depth resolves overlaps: the
nearest surface owns a pixel.  On an exact depth tie the earlier mesh
wins, and within a mesh the earlier triangle.  Attribute interpolation
is perspective-correct.

Each mesh is rasterized in batched numpy passes over edge functions
(Pineda, "A Parallel Algorithm for Polygon Rasterization", 1988) rather
than one triangle at a time.  The candidate pixels are the rows of every
triangle's clipped bounding box; the edge functions and the depth are
evaluated for all of them at once.  An unbuffered scatter-minimum
(``np.minimum.at``) of the depths into the depth buffer then picks, per
pixel, the nearest candidate, and one of the candidate indices the
earliest triangle among equal depths.  That winner must be strictly
nearer than the depth buffer held before, from the earlier meshes and
chunks, and only winners get their attributes interpolated.  Every per-pixel value is computed with
the same floating-point operations in the same order as a scalar
evaluation of one triangle, so results do not depend on the batching.

Candidates are processed in chunks of whole rows, in mesh and triangle
order, of at most ``CHUNK_PIXELS`` plus one row.  That bounds the
temporaries to about a megabyte whatever the scene: a triangle near the
camera whose box covers the frame is split into bands of rows instead of
allocating frame-sized arrays.

One pass over a sampling grid yields everything a scene needs there.
Besides the owner of each pixel, the pass records every pixel each mesh
covers, whichever mesh owns it: that is the mesh's amodal mask, the
render of the mesh alone.  Attributes come from the attribute mesh's own
nearest surface, so a hidden pixel keeps the values of the surface
behind the occluder.  When an earlier mesh has drawn on the grid, the
attribute mesh tests its candidates against a depth buffer of its own as
well as the shared one; otherwise the two buffers agree and one test
serves both.  A mesh in front of the near plane whose projected vertex
box holds no pixel center of the grid is skipped before its faces are
looked at.

A ``MaskImage`` keeps only a window of its image, every pixel outside
it being 0.  A full-frame render rasterizes the window of pixel centers
in the box of its meshes' projected vertices, on a 1:1 grid shifted by
an integer.  Below 2**52 px that shift is exact in float64, so every
difference, edge function, box and depth is the full frame's; faces keep
their boxes, rows and chunks, pixels their row-major order, and the tie
rule its winners: the window holds the full-frame render's exact bits.
"""

from __future__ import annotations

import math
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
# Above every candidate index: the tie rule's start in ``_front_most``.
_NO_CANDIDATE = np.iinfo(np.int32).max


@dataclass(frozen=True)
class MaskImage:
    """Binary raster of a ``width`` x ``height`` image, kept as a window.

    ``data`` is row-major uint8 with values 0 or 1 over the window whose
    top-left pixel is column ``x0``, row ``y0``; pixels outside it are 0.
    """

    width: int
    height: int
    data: np.ndarray
    x0: int = 0
    y0: int = 0

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.uint8)
        h, w = data.shape
        if not (0 <= self.x0 <= self.width - w and 0 <= self.y0 <= self.height - h):
            raise ValueError(
                f"mask data shape {data.shape} at ({self.y0}, {self.x0}) "
                f"does not match {self.height}x{self.width}"
            )
        if data.max(initial=0) > 1:
            raise ValueError("mask values must be 0 or 1")
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, data: np.ndarray) -> "MaskImage":
        data = np.asarray(data)
        return cls(width=data.shape[1], height=data.shape[0], data=data != 0)

    @property
    def window(self) -> tuple[int, int, int, int]:
        """(x0, y0, x1, y1), the window's pixel range with exclusive ends."""
        h, w = self.data.shape
        return self.x0, self.y0, self.x0 + w, self.y0 + h

    def within(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """The mask's bits over columns [x0, x1) and rows [y0, y1)."""
        if (x0, y0, x1, y1) == self.window:
            return self.data
        out = np.zeros((y1 - y0, x1 - x0), dtype=np.uint8)
        ax0, ay0, ax1, ay1 = self.window
        # the overlap of the two windows, possibly empty
        cx0, cy0 = max(x0, ax0), max(y0, ay0)
        cx1, cy1 = max(min(x1, ax1), cx0), max(min(y1, ay1), cy0)
        out[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0] = self.data[
            cy0 - ay0 : cy1 - ay0, cx0 - ax0 : cx1 - ax0
        ]
        return out

    def full(self) -> np.ndarray:
        """The whole image as a (height, width) array."""
        return self.within(0, 0, self.width, self.height)

    def tight(self) -> "MaskImage":
        """The same mask over the smallest window holding its set pixels."""
        rows = np.flatnonzero(self.data.any(axis=1))
        cols = np.flatnonzero(self.data.any(axis=0))
        if rows.size == 0:
            return MaskImage(self.width, self.height, np.zeros((0, 0), np.uint8))
        x0, y0 = self.x0 + int(cols[0]), self.y0 + int(rows[0])
        data = self.data[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        return MaskImage(self.width, self.height, data, x0, y0)

    def pixel_count(self) -> int:
        return int(self.data.sum())

    def bbox(self) -> BBox | None:
        """Tight pixel box around the set pixels; None for an empty mask."""
        x0, y0, x1, y1 = self.tight().window
        if x0 == x1:
            return None
        w = float(x1 - x0)
        h = float(y1 - y0)
        return BBox(cx=x0 + 0.5 * w, cy=y0 + 0.5 * h, w=w, h=h)


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

    Returns (depth, owner, covered, attr).  ``owner`` holds the index of
    the front-most mesh per pixel (-1 for none).  ``covered[i]`` is a
    mask over the grid of the pixels mesh i covers, whichever mesh owns
    them, kept over the window of its faces' boxes.  ``attr`` holds the
    per-vertex attributes of mesh ``attr_mesh`` interpolated on that
    mesh's own nearest surface, 0 where it covers nothing (None when
    ``attributes`` is None).
    """
    h, w = grid.height, grid.width
    depth = np.full(h * w, np.inf)
    owner = np.full(h * w, -1, dtype=np.int32)
    covered = [MaskImage(w, h, np.zeros((0, 0), dtype=np.uint8))] * len(meshes)
    attr = None
    if attributes is not None:
        attr = np.zeros((h * w, attributes.shape[1]))

    for mesh_idx, (mesh, pose) in enumerate(meshes):
        cam_pts = mesh.vertices @ pose.R.T + pose.t
        z = cam_pts[:, 2]
        # grid-space vertex coordinates
        gx = (camera.f * cam_pts[:, 0] / z + camera.px - grid.x0) / grid.sx
        gy = (camera.f * cam_pts[:, 1] / z + camera.py - grid.y0) / grid.sy
        if _off_grid(gx, gy, z, w, h):
            continue
        faces, box, area2 = _triangle_boxes(mesh.faces, gx, gy, z, w, h)
        if faces.shape[0] == 0:
            continue
        tri_attr = None
        own_depth, own_owner = depth, owner
        if attributes is not None and mesh_idx == attr_mesh:
            tri_attr = attributes[faces] / z[faces][:, :, None]
            if (owner >= 0).any():
                own_depth = np.full(h * w, np.inf)
                own_owner = np.full(h * w, -1, dtype=np.int32)
        # the grid rows the faces' boxes reach
        x_lo, x_hi = int(box[0].min()), int(box[1].max())
        y_lo, y_hi = int(box[2].min()), int(box[3].max())
        band = np.zeros((y_hi - y_lo + 1) * w, dtype=bool)
        for t, pix, w0, w1, w2, z_pix in _covered_pixels(faces, box, area2, gx, gy, z, w):
            band[pix - y_lo * w] = True
            win = _front_most(pix, z_pix, depth, owner, mesh_idx)
            if tri_attr is None:
                continue
            if own_depth is not depth:
                win = _front_most(pix, z_pix, own_depth, own_owner, mesh_idx)
            t = t[win]
            num = (
                w0[win, None] * tri_attr[t, 0]
                + w1[win, None] * tri_attr[t, 1]
                + w2[win, None] * tri_attr[t, 2]
            )
            attr[pix[win]] = num * z_pix[win, None]
        covered[mesh_idx] = MaskImage(w, h, band.reshape(-1, w)[:, x_lo : x_hi + 1], x_lo, y_lo)

    if attr is not None:
        attr = attr.reshape(h, w, -1)
    return depth.reshape(h, w), owner.reshape(h, w), covered, attr


def _off_grid(gx, gy, z, width, height) -> bool:
    """Whether no face can reach a pixel center of the grid.

    Only decided when every vertex lies beyond ``NEAR_PLANE``: then each
    face's box lies inside the vertex box, so a vertex box that holds no
    pixel center leaves every face box empty after clipping.
    """
    if not (z > NEAR_PLANE).all():
        return False
    return (
        math.ceil(gx.min() - 0.5) > width - 1
        or math.floor(gx.max() - 0.5) < 0
        or math.ceil(gy.min() - 0.5) > height - 1
        or math.floor(gy.max() - 0.5) < 0
    )


def _triangle_boxes(faces, gx, gy, z, width, height):
    """The faces that can cover a pixel, in mesh order, with their boxes.

    Drops faces with a vertex at or in front of ``NEAR_PLANE``, faces
    whose pixel box is empty after clipping to the grid, and faces below
    ``MIN_SCREEN_AREA``.  ``box`` is (4, T) int64: the inclusive
    x_lo, x_hi, y_lo, y_hi of the pixel centers each face's box spans;
    ``area2`` is each face's signed doubled screen area.
    """
    if not (z > NEAR_PLANE).all():
        faces = faces[(z[faces] > NEAR_PLANE).all(axis=1)]
    ax, bx, cx = gx[faces].T
    ay, by, cy = gy[faces].T
    box = np.stack(
        [
            np.minimum(np.minimum(ax, bx), cx),
            np.maximum(np.maximum(ax, bx), cx),
            np.minimum(np.minimum(ay, by), cy),
            np.maximum(np.maximum(ay, by), cy),
        ]
    )
    box -= 0.5
    lo, hi = box[0::2], box[1::2]
    np.maximum(np.ceil(lo, out=lo), 0.0, out=lo)
    np.minimum(np.floor(hi, out=hi), [[width - 1.0], [height - 1.0]], out=hi)
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    keep = (lo[0] <= hi[0]) & (lo[1] <= hi[1]) & ~(np.abs(area2) < MIN_SCREEN_AREA)
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


def _front_most(pix, z, depth, owner, mesh_idx):
    """Indices of the candidates that take their pixel.

    A candidate takes its pixel when it is the nearest candidate there,
    the first one among equal depths, and strictly nearer than ``depth``
    held before.  ``depth`` and ``owner`` then hold the winners' depths
    and ``mesh_idx``; ``owner`` serves as scratch for the tie rule.
    """
    before = depth[pix]
    np.minimum.at(depth, pix, z)
    near = np.flatnonzero((z == depth[pix]) & (z < before))
    near_pix = pix[near]
    owner[near_pix] = _NO_CANDIDATE
    np.minimum.at(owner, near_pix, near)
    win = near[owner[near_pix] == near]
    owner[near_pix] = mesh_idx
    return win


def _render_window(meshes, camera: CameraIntrinsics):
    """Rasterize the meshes over their window of the image.

    The window holds the image's pixel centers in the box of the meshes'
    projected vertices in front of ``NEAR_PLANE``; it is the whole image
    when a coordinate reaches 2**52 px, where shifting the grid by an
    integer might round.  Returns (x0, y0, owner, covered) as
    ``_raster_core`` gives them over the window whose top-left pixel is
    column ``x0``, row ``y0``.

    Raises:
        EmptyRender: no mesh covered any pixel.
    """
    gx, gy = [], []
    for mesh, pose in meshes:
        cam_pts = mesh.vertices @ pose.R.T + pose.t
        z = cam_pts[:, 2]
        front = z > NEAR_PLANE
        gx.append(camera.f * cam_pts[front, 0] / z[front] + camera.px)
        gy.append(camera.f * cam_pts[front, 1] / z[front] + camera.py)
    gx, gy = np.concatenate(gx), np.concatenate(gy)
    x0, y0, x1, y1 = 0, 0, camera.width, camera.height
    if gx.size and max(np.abs(gx).max(), np.abs(gy).max()) < 2.0**52:
        x0 = max(math.ceil(gx.min() - 0.5), 0)
        y0 = max(math.ceil(gy.min() - 0.5), 0)
        x1 = min(math.floor(gx.max() - 0.5) + 1, x1)
        y1 = min(math.floor(gy.max() - 0.5) + 1, y1)
    if x1 > x0 and y1 > y0:
        grid = _Grid(float(x0), float(y0), 1.0, 1.0, x1 - x0, y1 - y0)
        _, owner, covered, _ = _raster_core(meshes, camera, grid)
        if owner.max(initial=-1) >= 0:
            return x0, y0, owner, covered
    raise EmptyRender("no mesh covered any pixel")


def rasterize_scene(
    meshes: Sequence[tuple[TriMesh, Pose]], camera: CameraIntrinsics
) -> tuple[list[MaskImage], list[MaskImage]]:
    """Render all meshes into a shared depth buffer.

    Returns the visible masks (the pixels each mesh owns) and the amodal
    masks (the pixels each mesh covers, whichever mesh owns them: what
    :func:`render_amodal` gives), one per input mesh, each kept over the
    window of its mesh's face boxes.  Only the window of pixel centers in
    the box of all projected vertices is rasterized, with the full-frame
    render's exact bits there.

    Raises:
        EmptyRender: no mesh covered any pixel.
    """
    x0, y0, owner, covered = _render_window(meshes, camera)
    w, h = camera.width, camera.height
    visible, amodal = [], []
    for i, cover in enumerate(covered):
        # a mesh owns only pixels it covers
        cx0, cy0, cx1, cy1 = cover.window
        own = owner[cy0:cy1, cx0:cx1] == i
        visible.append(MaskImage(w, h, own, x0 + cx0, y0 + cy0))
        amodal.append(MaskImage(w, h, cover.data, x0 + cx0, y0 + cy0))
    return visible, amodal


def render_amodal(mesh: TriMesh, pose: Pose, camera: CameraIntrinsics) -> MaskImage:
    """Full silhouette of a single mesh, ignoring any other scene content.

    Only the window of pixel centers in the projected vertex box is
    rasterized, with the full-frame render's exact bits there.

    Raises:
        EmptyRender: the mesh covers no pixel.
    """
    x0, y0, _, (cover,) = _render_window([(mesh, pose)], camera)
    return MaskImage(camera.width, camera.height, cover.data, x0 + cover.x0, y0 + cover.y0)


def rasterize_crop(
    meshes: Sequence[tuple[TriMesh, Pose]],
    camera: CameraIntrinsics,
    crop: BBox,
    out_size: int,
) -> list[MaskImage]:
    """Visible masks of all meshes, sampled over a resampled crop window."""
    _, owner, _, _ = _raster_core(meshes, camera, _Grid.from_crop(crop, out_size))
    return [MaskImage(out_size, out_size, owner == i) for i in range(len(meshes))]


def render_correspondence(
    mesh: TriMesh,
    normalized_coords: np.ndarray,
    pose: Pose,
    camera: CameraIntrinsics,
    crop: BBox,
    out_size: int = 64,
    others: Sequence[tuple[TriMesh, Pose]] = (),
    index: int = 0,
) -> CorrespondenceMap:
    """Rasterize per-vertex normalized coordinates over a crop window.

    ``normalized_coords`` must come from normalizing this mesh's vertices;
    each pixel the mesh covers receives the perspective-correct
    interpolation of its own front-most triangle, clipped to [0, 1], even
    where another mesh hides it.  ``others`` are the rest of the scene,
    in draw order, with the mesh drawn at place ``index`` among them so
    that exact depth ties go as in the scene; ``valid`` marks the pixels
    the mesh owns there.

    Raises:
        EmptyRender: the crop misses the image or the mesh covers no pixel.
    """
    if crop.x1 <= 0 or crop.y1 <= 0 or crop.x0 >= camera.width or crop.y0 >= camera.height:
        raise EmptyRender("crop window does not intersect the image")
    coords = np.asarray(normalized_coords, dtype=float)
    if coords.shape != mesh.vertices.shape:
        raise ValueError("one normalized coordinate triple per vertex required")
    scene = [*others[:index], (mesh, pose), *others[index:]]
    grid = _Grid.from_crop(crop, out_size)
    _, owner, covered, attr = _raster_core(scene, camera, grid, coords, index)
    if not covered[index].data.any():
        raise EmptyRender("mesh covers no pixel of the crop")
    return CorrespondenceMap(
        width=out_size,
        height=out_size,
        data=np.clip(attr, 0.0, 1.0).astype(np.float32),
        valid=MaskImage(out_size, out_size, owner == index),
        crop=crop,
    )
