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
earliest triangle among equal depths.  Both scatters get values of their
buffer's own dtype, float64 depths and int32 candidate indices (a chunk
holds fewer than ``CHUNK_PIXELS`` plus one row of candidates), because
numpy's ``ufunc.at`` takes its fast path only when the dtypes match and
otherwise casts element by element, some twenty times slower.  The
winner must be strictly nearer than the depth buffer held before, from
the earlier meshes and chunks, and only winners get their attributes
interpolated.  Every per-pixel value is computed with the same
floating-point operations in the same order as a scalar evaluation of
one triangle, so results do not depend on the batching.

A render of one mesh without attributes (``render_amodal``, and
``rasterize_crop`` of one mesh) takes the coverage pass instead: the
same candidates and the same inside test, but no depth, no depth buffer
and no tie rule.  Alone on a grid, a mesh owns every pixel it covers at
a finite depth, and the depths are finite while every vertex lies nearer
than ``_FINITE_DEPTH``; beyond it the depth pass runs.

Candidates are processed in chunks of whole rows, in mesh and triangle
order, of at most ``CHUNK_PIXELS`` plus one row.  That bounds the
temporaries to about a megabyte whatever the scene: a triangle near the
camera whose box covers the frame is split into bands of rows instead of
allocating frame-sized arrays.

One pass over a sampling grid yields everything a scene needs there.
Besides the owner of each pixel, the pass records every pixel each mesh
covers, whichever mesh owns it: that is the mesh's amodal mask, the
render of the mesh alone.  Attributes are interpolated for the first
mesh only, and it is drawn first: while it draws, the one depth buffer
holds nothing but its own surface, so a pixel that a later mesh hides
keeps the values of the surface behind the occluder.  Drawing it first
also decides the tie rule for it: on an exact depth tie with another
mesh, the pixel is the first mesh's.  A mesh in front of the near plane
whose projected vertex box holds no pixel center of the grid is skipped
before its faces are looked at.

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
# Below this vertex depth every covered pixel's depth is finite: one of
# its barycentrics is at least 0.3, so 1 / depth stays above 3e-301.
_FINITE_DEPTH = 1e300


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
):
    """Depth-buffered rasterization over an arbitrary sampling grid.

    Returns (depth, owner, covered, attr).  ``owner`` holds the index of
    the front-most mesh per pixel (-1 for none).  ``covered[i]`` is a
    mask over the grid of the pixels mesh i covers, whichever mesh owns
    them, kept over the window of its faces' boxes.  ``attr`` holds the
    per-vertex attributes of mesh 0 interpolated on its nearest surface,
    0 where it covers nothing (None when ``attributes`` is None).  Mesh 0
    is drawn first, so the shared depth buffer holds its own surface when
    it is interpolated, and it wins every exact depth tie.
    """
    h, w = grid.height, grid.width
    depth = np.full(h * w, np.inf)
    owner = np.full(h * w, -1, dtype=np.int32)
    covered = [_empty_mask(w, h)] * len(meshes)
    attr = None
    if attributes is not None:
        attr = np.zeros((h * w, attributes.shape[1]))

    for mesh_idx, (mesh, pose) in enumerate(meshes):
        drawn = _faces_on_grid(mesh, pose, camera, grid)
        if drawn is None:
            continue
        faces, box, area2, gx, gy, z = drawn
        tz = z[faces]
        tri_attr = None
        if attributes is not None and mesh_idx == 0:
            tri_attr = attributes[faces] / tz[:, :, None]
        band, y_lo = _band(box, w)
        for t, pix, w0, w1, w2 in _covered_pixels(faces, box, area2, gx, gy, w):
            band[pix - y_lo * w] = True
            z_pix = 1.0 / (w0 / tz[t, 0] + w1 / tz[t, 1] + w2 / tz[t, 2])
            win = _front_most(pix, z_pix, depth, owner, mesh_idx)
            if tri_attr is None:
                continue
            t = t[win]
            num = (
                w0[win, None] * tri_attr[t, 0]
                + w1[win, None] * tri_attr[t, 1]
                + w2[win, None] * tri_attr[t, 2]
            )
            attr[pix[win]] = num * z_pix[win, None]
        covered[mesh_idx] = _band_mask(band, box, w, h)

    if attr is not None:
        attr = attr.reshape(h, w, -1)
    return depth.reshape(h, w), owner.reshape(h, w), covered, attr


def _coverage(mesh: TriMesh, pose: Pose, camera: CameraIntrinsics, grid: _Grid) -> MaskImage | None:
    """The pixels of the grid one mesh covers, found without depth.

    This is what ``_raster_core`` gives the mesh alone, as ``covered[0]``
    and as ``owner == 0``: alone, a mesh owns every pixel it covers at a
    finite depth.  None when a face has a vertex at or beyond
    ``_FINITE_DEPTH``, where a depth might round to infinity; the caller
    then takes the depth pass.
    """
    w, h = grid.width, grid.height
    drawn = _faces_on_grid(mesh, pose, camera, grid)
    if drawn is None:
        return _empty_mask(w, h)
    faces, box, area2, gx, gy, z = drawn
    if z[faces].max() >= _FINITE_DEPTH:
        return None
    band, y_lo = _band(box, w)
    for _, pix, _, _, _ in _covered_pixels(faces, box, area2, gx, gy, w):
        band[pix - y_lo * w] = True
    return _band_mask(band, box, w, h)


def _faces_on_grid(mesh: TriMesh, pose: Pose, camera: CameraIntrinsics, grid: _Grid):
    """Project a mesh onto the grid: (faces, box, area2, gx, gy, z).

    ``gx``, ``gy`` and ``z`` are per vertex, in grid coordinates and
    camera depth; the rest is ``_triangle_boxes``' output.  None when no
    face can reach a pixel center of the grid.
    """
    cam_pts = mesh.vertices @ pose.R.T + pose.t
    z = cam_pts[:, 2]
    gx = (camera.f * cam_pts[:, 0] / z + camera.px - grid.x0) / grid.sx
    gy = (camera.f * cam_pts[:, 1] / z + camera.py - grid.y0) / grid.sy
    if _off_grid(gx, gy, z, grid.width, grid.height):
        return None
    faces, box, area2 = _triangle_boxes(mesh.faces, gx, gy, z, grid.width, grid.height)
    if faces.shape[0] == 0:
        return None
    return faces, box, area2, gx, gy, z


def _empty_mask(width: int, height: int) -> MaskImage:
    return MaskImage(width, height, np.zeros((0, 0), dtype=np.uint8))


def _band(box, width):
    """A cleared flat mask over the grid rows the faces' boxes reach, and
    the first of those rows."""
    y_lo, y_hi = int(box[2].min()), int(box[3].max())
    return np.zeros((y_hi - y_lo + 1) * width, dtype=bool), y_lo


def _band_mask(band, box, width, height) -> MaskImage:
    """``_band``'s rows as a mask kept over the window of the faces' boxes."""
    x_lo, x_hi, y_lo = int(box[0].min()), int(box[1].max()), int(box[2].min())
    return MaskImage(width, height, band.reshape(-1, width)[:, x_lo : x_hi + 1], x_lo, y_lo)


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


def _covered_pixels(faces, box, area2, gx, gy, width):
    """Yield the pixels inside each face, chunk by chunk in face order.

    Each yield is (tri, pix, w0, w1, w2): per covered pixel, the index of
    its face in ``faces``, its flat index and its barycentrics.
    Candidates are the pixel rows of the face boxes, in face order and
    then row order; a chunk takes whole rows until it reaches
    ``CHUNK_PIXELS``, so it holds fewer than ``CHUNK_PIXELS + width``
    candidates and a face larger than a chunk is split into bands of rows.
    """
    ax, bx, cx = gx[faces].T
    ay, by, cy = gy[faces].T
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
        yield tri, pix, w0[inside], w1[inside], w2[inside]


def _front_most(pix, z, depth, owner, mesh_idx):
    """Indices of the candidates that take their pixel.

    A candidate takes its pixel when it is the nearest candidate there,
    the first one among equal depths, and strictly nearer than ``depth``
    held before.  ``depth`` and ``owner`` then hold the winners' depths
    and ``mesh_idx``; ``owner`` serves as scratch for the tie rule.
    """
    before = depth[pix]
    np.minimum.at(depth, pix, z)
    # int32 like ``owner``, so that the scatter below takes the fast path
    near = np.flatnonzero((z == depth[pix]) & (z < before)).astype(np.int32)
    near_pix = pix[near]
    owner[near_pix] = _NO_CANDIDATE
    np.minimum.at(owner, near_pix, near)
    win = near[owner[near_pix] == near]
    owner[near_pix] = mesh_idx
    return win


def _masks(meshes, camera: CameraIntrinsics, grid: _Grid):
    """Per mesh, the pixels it owns and the pixels it covers on the grid.

    Returns (visible, covered), two lists of masks over the grid, each
    kept over the window of its mesh's face boxes.  One mesh takes the
    coverage pass when it can, and then both lists hold its coverage.
    """
    if len(meshes) == 1:
        cover = _coverage(*meshes[0], camera, grid)
        if cover is not None:
            return [cover], [cover]
    _, owner, covered, _ = _raster_core(meshes, camera, grid)
    visible = []
    for i, cover in enumerate(covered):
        # a mesh owns only pixels it covers
        x0, y0, x1, y1 = cover.window
        visible.append(MaskImage(grid.width, grid.height, owner[y0:y1, x0:x1] == i, x0, y0))
    return visible, covered


def _render_window(meshes, camera: CameraIntrinsics):
    """Rasterize the meshes over their window of the image.

    The window holds the image's pixel centers in the box of the meshes'
    projected vertices in front of ``NEAR_PLANE``; it is the whole image
    when a coordinate reaches 2**52 px, where shifting the grid by an
    integer might round.  Returns ``_masks``' (visible, covered), placed
    in the image.

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
        visible, covered = _masks(meshes, camera, grid)
        if any(m.data.any() for m in visible):

            def placed(m):
                return MaskImage(camera.width, camera.height, m.data, x0 + m.x0, y0 + m.y0)

            return [placed(m) for m in visible], [placed(m) for m in covered]
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
    return _render_window(meshes, camera)


def render_amodal(mesh: TriMesh, pose: Pose, camera: CameraIntrinsics) -> MaskImage:
    """Full silhouette of a single mesh, ignoring any other scene content.

    Only the window of pixel centers in the projected vertex box is
    rasterized, with the full-frame render's exact bits there, and no
    depth is computed unless a vertex lies beyond ``_FINITE_DEPTH``.

    Raises:
        EmptyRender: the mesh covers no pixel.
    """
    _, (mask,) = _render_window([(mesh, pose)], camera)
    return mask


def rasterize_crop(
    meshes: Sequence[tuple[TriMesh, Pose]],
    camera: CameraIntrinsics,
    crop: BBox,
    out_size: int,
) -> list[MaskImage]:
    """Visible masks of all meshes, sampled over a resampled crop window.

    A single mesh is rendered without depth, as in :func:`render_amodal`.
    """
    visible, _ = _masks(meshes, camera, _Grid.from_crop(crop, out_size))
    return [MaskImage(out_size, out_size, m.full()) for m in visible]


def render_correspondence(
    mesh: TriMesh,
    normalized_coords: np.ndarray,
    pose: Pose,
    camera: CameraIntrinsics,
    crop: BBox,
    out_size: int = 64,
    others: Sequence[tuple[TriMesh, Pose]] = (),
) -> CorrespondenceMap:
    """Rasterize per-vertex normalized coordinates over a crop window.

    ``normalized_coords`` must come from normalizing this mesh's vertices;
    each pixel the mesh covers receives the perspective-correct
    interpolation of its own front-most triangle, clipped to [0, 1], even
    where another mesh hides it.  ``others`` are the rest of the scene,
    in draw order; the mesh is drawn before them, so it wins an exact
    depth tie with any of them.  ``valid`` marks the pixels the mesh owns.

    Raises:
        EmptyRender: the crop misses the image or the mesh covers no pixel.
    """
    if crop.x1 <= 0 or crop.y1 <= 0 or crop.x0 >= camera.width or crop.y0 >= camera.height:
        raise EmptyRender("crop window does not intersect the image")
    coords = np.asarray(normalized_coords, dtype=float)
    if coords.shape != mesh.vertices.shape:
        raise ValueError("one normalized coordinate triple per vertex required")
    grid = _Grid.from_crop(crop, out_size)
    _, owner, covered, attr = _raster_core([(mesh, pose), *others], camera, grid, coords)
    if not covered[0].data.any():
        raise EmptyRender("mesh covers no pixel of the crop")
    return CorrespondenceMap(
        width=out_size,
        height=out_size,
        data=np.clip(attr, 0.0, 1.0).astype(np.float32),
        valid=MaskImage(out_size, out_size, owner == 0),
        crop=crop,
    )
