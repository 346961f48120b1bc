"""Tests for the depth-buffered rasterizer and its map outputs."""

import math

import numpy as np
import pytest

from artipose import raster
from artipose.camera import BBox, CameraIntrinsics, Pose, random_rotation
from artipose.errors import EmptyRender
from artipose.meshes import (
    TriMesh,
    articulate,
    box_mesh,
    ellipsoid_mesh,
    normalize_vertices,
    tight_bbox,
    unit_sphere,
)
from artipose.raster import (
    CHUNK_PIXELS,
    MIN_SCREEN_AREA,
    NEAR_PLANE,
    MaskImage,
    _Grid,
    _raster_core,
    rasterize_crop,
    rasterize_scene,
    render_amodal,
    render_correspondence,
)
from artipose.simulate import needle_holder_model, tweezers_model


@pytest.fixture
def camera():
    return CameraIntrinsics(f=800.0, px=320.0, py=240.0, width=640, height=480)


def square_mesh(side=0.1, z=0.0):
    h = side / 2.0
    vertices = np.array(
        [[-h, -h, z], [h, -h, z], [h, h, z], [-h, h, z]], dtype=float
    )
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(vertices, faces)


def identity_pose(z):
    return Pose(R=np.eye(3), t=np.array([0.0, 0.0, z]))


class TestSingleSquare:
    def test_projected_area_exact(self, camera):
        # 0.1 m square at z=1 spans exactly 80x80 pixels
        mask = render_amodal(square_mesh(0.1), identity_pose(1.0), camera)
        assert mask.pixel_count() == 80 * 80
        box = mask.bbox()
        assert (box.w, box.h) == (80.0, 80.0)
        np.testing.assert_allclose([box.cx, box.cy], [320.0, 240.0])

    def test_depth_is_constant(self, camera):
        depth, owner, _, _ = _raster_core(
            [(square_mesh(0.1), identity_pose(1.0))], camera, _Grid.full_image(640, 480)
        )
        inside = owner == 0
        assert inside.sum() == 80 * 80
        np.testing.assert_allclose(depth[inside], 1.0, rtol=1e-6)
        assert np.isinf(depth[~inside]).all()

    def test_empty_when_behind_camera(self, camera):
        with pytest.raises(EmptyRender):
            render_amodal(square_mesh(0.1), identity_pose(-1.0), camera)


class TestOcclusion:
    def test_nearer_mesh_owns_overlap(self, camera):
        far = square_mesh(0.1)
        near = square_mesh(0.1)
        pose_far = identity_pose(1.0)
        pose_near = Pose(R=np.eye(3), t=np.array([0.025, 0.0, 0.8]))
        scene = [(far, pose_far), (near, pose_near)]
        (vis_far, vis_near), _ = rasterize_scene(scene, camera)
        amodal_far = render_amodal(far, pose_far, camera)
        # visible = silhouette minus whatever the nearer square claims
        expected = amodal_far.full() & ~vis_near.full()
        np.testing.assert_array_equal(vis_far.full(), expected)
        depth, _, _, _ = _raster_core(scene, camera, _Grid.full_image(640, 480))
        np.testing.assert_allclose(depth[vis_near.full() == 1], 0.8, rtol=1e-6)

    def test_tie_goes_to_first_mesh(self, camera):
        a = square_mesh(0.1)
        b = square_mesh(0.1)
        masks, _ = rasterize_scene(
            [(a, identity_pose(1.0)), (b, identity_pose(1.0))], camera
        )
        assert masks[0].pixel_count() == 6400
        assert masks[1].pixel_count() == 0


class TestSphereArea:
    def test_matches_analytic_silhouette(self, camera):
        r, z = 0.05, 0.8
        sphere = ellipsoid_mesh(center=(0, 0, 0), radii=(r, r, r), sphere=unit_sphere(3))
        mask = render_amodal(sphere, identity_pose(z), camera)
        # silhouette of a sphere: circle of radius f*r/sqrt(z^2 - r^2)
        expected = math.pi * (camera.f * r) ** 2 / (z * z - r * r)
        assert abs(mask.pixel_count() - expected) / expected < 0.02


class TestDepthConsistency:
    def test_depth_equals_ray_plane_intersection(self, camera):
        rng = np.random.default_rng(17)
        vertices = np.array(
            [[-0.06, -0.04, 0.0], [0.07, -0.03, 0.04], [0.0, 0.08, -0.03], [0, 0, 1]],
            dtype=float,
        )
        tri = TriMesh(vertices, np.array([[0, 1, 2]]))
        pose = Pose(R=np.eye(3), t=np.array([0.01, -0.02, 0.9]))
        depth, owner, _, _ = _raster_core([(tri, pose)], camera, _Grid.full_image(640, 480))
        pts = pose.apply(vertices[:3])
        normal = np.cross(pts[1] - pts[0], pts[2] - pts[0])
        d = float(normal @ pts[0])
        ii, jj = np.nonzero(owner == 0)
        sel = rng.choice(ii.size, size=min(200, ii.size), replace=False)
        for i, j in zip(ii[sel], jj[sel]):
            ray = np.array(
                [(j + 0.5 - camera.px) / camera.f, (i + 0.5 - camera.py) / camera.f, 1.0]
            )
            z_ray = d / float(normal @ ray)
            assert abs(depth[i, j] - z_ray) / z_ray < 1e-6


class TestCorrespondence:
    def _tetra(self):
        vertices = np.array(
            [
                [0.0, 0.0, -0.02],
                [0.03, 0.02, 0.02],
                [-0.03, 0.02, 0.02],
                [0.0, -0.035, 0.02],
            ]
        )
        faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
        return TriMesh(vertices, faces)

    def test_vertex_projection_recovers_vertex_coords(self, camera):
        mesh = self._tetra()
        bbox = tight_bbox(mesh)
        coords = normalize_vertices(mesh, bbox)
        pose = identity_pose(1.0)
        # apex projects exactly onto the principal point, which is the
        # center of pixel (32, 32) of a 65-wide crop centered there
        crop = BBox(cx=camera.px, cy=camera.py, w=65.0, h=65.0)
        cmap = render_correspondence(mesh, coords, pose, camera, crop, out_size=65)
        assert cmap.valid.data[32, 32] == 1
        np.testing.assert_allclose(cmap.data[32, 32], coords[0], atol=1e-6)

    def test_values_in_unit_cube_on_valid_pixels(self, camera):
        mesh = self._tetra()
        coords = normalize_vertices(mesh, tight_bbox(mesh))
        crop = BBox(cx=camera.px, cy=camera.py, w=64.0, h=64.0)
        cmap = render_correspondence(mesh, coords, identity_pose(1.0), camera, crop)
        on = cmap.valid.data == 1
        assert on.any()
        assert cmap.data[on].min() >= 0.0 and cmap.data[on].max() <= 1.0
        assert (cmap.data[~on] == 0.0).all()

    def test_crop_outside_image(self, camera):
        mesh = self._tetra()
        coords = normalize_vertices(mesh, tight_bbox(mesh))
        crop = BBox(cx=5000.0, cy=5000.0, w=64.0, h=64.0)
        with pytest.raises(EmptyRender, match="crop"):
            render_correspondence(mesh, coords, identity_pose(1.0), camera, crop)

    def test_validity_equals_visibility(self, camera):
        mesh = self._tetra()
        coords = normalize_vertices(mesh, tight_bbox(mesh))
        crop = BBox(cx=camera.px, cy=camera.py, w=80.0, h=80.0)
        cmap = render_correspondence(mesh, coords, identity_pose(1.0), camera, crop, 80)
        masks = rasterize_crop([(mesh, identity_pose(1.0))], camera, crop, 80)
        np.testing.assert_array_equal(cmap.valid.data, masks[0].data)


class TestCropGrid:
    def test_unit_scale_crop_matches_image_window(self, camera):
        mesh = box_mesh(center=(0, 0, 0), size=(0.08, 0.06, 0.05))
        pose = Pose(R=np.eye(3), t=np.array([0.01, 0.005, 0.9]))
        full = render_amodal(mesh, pose, camera)
        x0, y0, size = 280, 200, 96
        crop = BBox(cx=x0 + size / 2.0, cy=y0 + size / 2.0, w=float(size), h=float(size))
        masks = rasterize_crop([(mesh, pose)], camera, crop, out_size=size)
        np.testing.assert_array_equal(
            masks[0].data, full.within(x0, y0, x0 + size, y0 + size)
        )


class TestDeterminism:
    def test_repeat_render_identical(self, camera):
        mesh = ellipsoid_mesh(center=(0, 0, 0), radii=(0.04, 0.05, 0.06), sphere=unit_sphere(1))
        pose = Pose(R=np.eye(3), t=np.array([0.02, -0.01, 0.7]))
        (m1,), _ = rasterize_scene([(mesh, pose)], camera)
        (m2,), _ = rasterize_scene([(mesh, pose)], camera)
        np.testing.assert_array_equal(m1.data, m2.data)
        grid = _Grid.full_image(640, 480)
        d1, _, _, _ = _raster_core([(mesh, pose)], camera, grid)
        d2, _, _, _ = _raster_core([(mesh, pose)], camera, grid)
        np.testing.assert_array_equal(d1, d2)


class TestMaskImage:
    def test_bbox_of_empty_mask_is_none(self):
        mask = MaskImage(4, 4, np.zeros((4, 4), dtype=np.uint8))
        assert mask.bbox() is None

    def test_bbox_single_pixel(self):
        data = np.zeros((4, 4), dtype=np.uint8)
        data[2, 1] = 1
        box = MaskImage(4, 4, data).bbox()
        assert (box.cx, box.cy, box.w, box.h) == (1.5, 2.5, 1.0, 1.0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            MaskImage(2, 2, np.full((2, 2), 3, dtype=np.uint8))


def _reference_core(meshes, camera, grid, attributes=None):
    """One triangle at a time: the loop the batched rasterizer replaced.

    Same contract as ``_raster_core``; kept here only as its oracle.  The
    attributes are mesh 0's, and it tests its triangles against a depth
    buffer of its own besides the shared one.
    """
    h, w = grid.height, grid.width
    depth = np.full((h, w), np.inf)
    owner = np.full((h, w), -1, dtype=np.int32)
    covered = np.zeros((len(meshes), h, w), dtype=bool)
    own_depth = np.full((h, w), np.inf)
    attr = None
    if attributes is not None:
        attr = np.zeros((h, w, attributes.shape[1]))
    for mesh_idx, (mesh, pose) in enumerate(meshes):
        cam_pts = mesh.vertices @ pose.R.T + pose.t
        z = cam_pts[:, 2]
        gx = (camera.f * cam_pts[:, 0] / z + camera.px - grid.x0) / grid.sx
        gy = (camera.f * cam_pts[:, 1] / z + camera.py - grid.y0) / grid.sy
        vert_attr = attributes if (attributes is not None and mesh_idx == 0) else None
        for face in mesh.faces:
            if z[face[0]] <= NEAR_PLANE or z[face[1]] <= NEAR_PLANE or z[face[2]] <= NEAR_PLANE:
                continue
            _reference_triangle(
                depth,
                owner,
                covered[mesh_idx],
                mesh_idx,
                gx[face],
                gy[face],
                z[face],
                (attr, own_depth, vert_attr[face]) if vert_attr is not None else None,
            )
    return depth, owner, covered, attr


def _reference_triangle(depth, owner, covered, mesh_idx, tx, ty, tz, own):
    h, w = depth.shape
    x_lo = max(int(math.ceil(tx.min() - 0.5)), 0)
    x_hi = min(int(math.floor(tx.max() - 0.5)), w - 1)
    y_lo = max(int(math.ceil(ty.min() - 0.5)), 0)
    y_hi = min(int(math.floor(ty.max() - 0.5)), h - 1)
    if x_lo > x_hi or y_lo > y_hi:
        return
    ax, ay = tx[0], ty[0]
    bx, by = tx[1], ty[1]
    cx, cy = tx[2], ty[2]
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if abs(area2) < MIN_SCREEN_AREA:
        return
    px = np.arange(x_lo, x_hi + 1) + 0.5
    py = (np.arange(y_lo, y_hi + 1) + 0.5)[:, None]
    w0 = ((cx - bx) * (py - by) - (cy - by) * (px - bx)) / area2
    w1 = ((ax - cx) * (py - cy) - (ay - cy) * (px - cx)) / area2
    w2 = 1.0 - w0 - w1
    inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)
    if not inside.any():
        return
    inv_z = w0 / tz[0] + w1 / tz[1] + w2 / tz[2]
    z_pix = 1.0 / inv_z
    window = np.s_[y_lo : y_hi + 1, x_lo : x_hi + 1]
    covered[window] |= inside
    closer = inside & (z_pix < depth[window])
    depth[window][closer] = z_pix[closer]
    owner[window][closer] = mesh_idx
    if own is None:
        return
    attr, own_depth, tri_attr = own
    mine = inside & (z_pix < own_depth[window])
    own_depth[window][mine] = z_pix[mine]
    num = (
        w0[..., None] * (tri_attr[0] / tz[0])
        + w1[..., None] * (tri_attr[1] / tz[1])
        + w2[..., None] * (tri_attr[2] / tz[2])
    )
    attr[window][mine] = num[mine] * z_pix[mine][:, None]


def _assert_matches_reference(meshes, camera, grid, attributes=None):
    depth, owner, covered, attr = _raster_core(meshes, camera, grid, attributes)
    got = depth, owner, np.array([c.full() for c in covered], dtype=bool), attr
    want = _reference_core(meshes, camera, grid, attributes)
    for name, g, r in zip(("depth", "owner", "covered", "attr"), got, want):
        if r is None:
            assert g is None
            continue
        assert g.dtype == r.dtype and g.shape == r.shape, name
        assert np.array_equal(g, r), f"{name} differs at {np.argwhere(g != r)[:5].tolist()}"
    assert (want[1] >= 0).any(), "the scene must cover some pixel"
    _assert_coverage_matches(meshes, camera, grid, covered)
    return want


def _assert_coverage_matches(meshes, camera, grid, covered):
    """The coverage pass gives each mesh the depth pass's covered pixels,
    over the same window, and they are the pixels the mesh owns alone."""
    for (mesh, pose), cover in zip(meshes, covered):
        alone = raster._coverage(mesh, pose, camera, grid)
        assert alone.window == cover.window
        assert np.array_equal(alone.data, cover.data)
        _, owner, _, _ = _reference_core([(mesh, pose)], camera, grid)
        assert np.array_equal(alone.full(), owner == 0)
        (visible,), (amodal,) = raster._masks([(mesh, pose)], camera, grid)
        assert visible is amodal and visible.window == alone.window
        assert np.array_equal(visible.data, alone.data)


def _projected(mesh, pose, camera):
    """Pixel coordinates and depths of a mesh's face vertices, (F, 3) each."""
    cam_pts = mesh.vertices @ pose.R.T + pose.t
    z = cam_pts[:, 2]
    gx = camera.f * cam_pts[:, 0] / z + camera.px
    gy = camera.f * cam_pts[:, 1] / z + camera.py
    return gx[mesh.faces], gy[mesh.faces], z[mesh.faces]


def _tool_scene(seed):
    """Two articulated tools that overlap, with two ellipsoid occluders each."""
    rng = np.random.default_rng(seed)
    scene = []
    for k, model in enumerate((needle_holder_model(), tweezers_model())):
        mesh = articulate(model, float(rng.uniform()))
        t = np.array(
            [(-1) ** k * 0.015 + rng.uniform(-0.01, 0.01), rng.uniform(-0.03, 0.03), rng.uniform(0.75, 1.05)]
        )
        scene.append((mesh, Pose(R=random_rotation(rng), t=t)))
    for _, pose in list(scene):
        for _ in range(2):
            occ = ellipsoid_mesh((0.0, 0.0, 0.0), rng.uniform(0.008, 0.02, size=3), unit_sphere(2))
            offset = np.append(rng.uniform(-0.03, 0.03, size=2), -rng.uniform(0.0, 0.05))
            scene.append((occ, Pose(R=random_rotation(rng), t=pose.t + offset)))
    return scene


def _tool_crop(scene, camera, side=120.0):
    t = scene[0][1].t
    cx, cy = camera.f * t[0] / t[2] + camera.px, camera.f * t[1] / t[2] + camera.py
    return BBox(cx=cx, cy=cy, w=side, h=side)


def _awkward_mesh():
    """Faces, in camera coordinates, that exercise every rule that drops one.

    Per face: behind and straddling the near plane, a vertex exactly on
    it, a far triangle whose box covers the whole frame, triangles wholly
    off each side of the image and one across its edge, a sub-pixel
    triangle that covers no pixel center, and edge-on faces whose screen
    areas straddle ``MIN_SCREEN_AREA``: some of those below it would
    cover pixel centers if they were not dropped.
    """
    tris = [
        [(-0.5, -0.5, -0.2), (0.5, -0.4, 0.5), (0.0, 0.5, 0.6)],
        [(-0.5, -0.5, -0.3), (0.5, -0.4, -0.2), (0.0, 0.5, -0.1)],
        [(0.1, 0.1, NEAR_PLANE), (0.3, 0.1, 1.0), (0.1, 0.3, 1.0)],
        [(-6.0, -6.0, 2.5), (6.0, -5.0, 3.0), (0.0, 6.0, 3.5)],
        [(-1.2, -0.1, 1.0), (-0.9, 0.0, 1.0), (-1.0, 0.1, 1.0)],
        [(1.0, -0.1, 1.0), (1.3, 0.0, 1.0), (1.1, 0.1, 1.0)],
        [(-0.1, 0.8, 1.0), (0.1, 0.9, 1.0), (0.0, 1.1, 1.0)],
        [(-0.1, -1.1, 1.0), (0.1, -0.9, 1.0), (0.0, -0.8, 1.0)],
        [(0.35, -0.05, 0.9), (0.55, 0.0, 1.0), (0.36, 0.06, 0.95)],
        [(0.0010, 0.0010, 1.0), (0.0012, 0.0010, 1.0), (0.0010, 0.0012, 1.0)],
    ]
    # edge-on faces along the pixel-center row 240.5 (for f = 800 px),
    # their vertices a few ulps off the plane through the camera center
    rng = np.random.default_rng(0)
    for _ in range(64):
        z = rng.uniform(0.8, 1.2, size=3)
        y = z * (0.5 / 800.0) + rng.integers(-3, 4, size=3) * 1e-17
        tris.append(np.column_stack([rng.uniform(-0.05, 0.05, size=3), y, z]))
    vertices = np.array(tris, dtype=float).reshape(-1, 3)
    return TriMesh(vertices, np.arange(vertices.shape[0]).reshape(-1, 3))


class TestBatchedMatchesReference:
    """The batched rasterizer gives the per-triangle loop's exact bits."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_frame(self, camera, seed):
        scene = _tool_scene(seed)
        _, owner, _, _ = _assert_matches_reference(scene, camera, _Grid.full_image(640, 480))
        # the tools are partly hidden, by occluders or by each other
        amodal = [_reference_core([s], camera, _Grid.full_image(640, 480))[1] >= 0 for s in scene[:2]]
        assert any((a & (owner != k)).any() for k, a in enumerate(amodal))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crop(self, camera, seed):
        scene = _tool_scene(seed)
        grid = _Grid.from_crop(_tool_crop(scene, camera), 64)
        _assert_matches_reference(scene, camera, grid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("first", [0, 1])
    def test_correspondence(self, camera, seed, first):
        # either tool drawn first, the other among the scene behind it
        scene = _tool_scene(seed)
        grid = _Grid.from_crop(_tool_crop(scene, camera), 64)
        scene = [scene[first], scene[1 - first], *scene[2:]]
        coords = np.random.default_rng(seed).random((scene[0][0].n_vertices, 3))
        _assert_matches_reference(scene, camera, grid, coords)

    @pytest.mark.parametrize("chunk", [None, 100, 1 << 20])
    def test_duplicated_meshes_tie_exactly(self, camera, monkeypatch, chunk):
        # ties fall between chunks, or all inside one
        if chunk is not None:
            monkeypatch.setattr(raster, "CHUNK_PIXELS", chunk)
        scene = _tool_scene(3)
        mesh, pose = scene[0]
        doubled = TriMesh(
            np.concatenate([mesh.vertices, mesh.vertices]), np.concatenate([mesh.faces, mesh.faces + mesh.n_vertices])
        )
        # the copy's faces tie the originals exactly but carry other values
        coords = np.random.default_rng(3).random((doubled.n_vertices, 3))
        tied = [(doubled, pose), (mesh, pose)] + scene[1:] + [scene[0]]
        _, owner, _, _ = _assert_matches_reference(tied, camera, _Grid.full_image(640, 480))
        assert not (owner == 1).any() and not (owner == len(tied) - 1).any()
        grid = _Grid.from_crop(_tool_crop(scene, camera), 64)
        _assert_matches_reference(tied, camera, grid, coords)

    def test_awkward_faces(self, camera):
        mesh = _awkward_mesh()
        pose = Pose(R=np.eye(3), t=np.zeros(3))
        gx, gy, z = _projected(mesh, pose, camera)
        near = (z <= NEAR_PLANE).any(axis=1)
        assert near[:3].all() and (z[:3] == NEAR_PLANE).any()
        # the far triangle's box alone holds more pixels than a chunk
        assert 640 * 480 > CHUNK_PIXELS
        assert gx[3].min() < 0 and gx[3].max() > 640 and gy[3].min() < 0 and gy[3].max() > 480
        off = (gx.max(axis=1) < 0) | (gx.min(axis=1) > 640) | (gy.max(axis=1) < 0) | (gy.min(axis=1) > 480)
        assert off[4:8].all() and not off[8]
        assert np.floor(gx[9].max() - 0.5) < np.ceil(gx[9].min() - 0.5)
        area2 = (gx[:, 1] - gx[:, 0]) * (gy[:, 2] - gy[:, 0]) - (gy[:, 1] - gy[:, 0]) * (gx[:, 2] - gx[:, 0])
        sliver = np.abs(area2[10:]) < MIN_SCREEN_AREA
        assert sliver.any() and not sliver.all()

        scene = _tool_scene(4)
        for grid in (_Grid.full_image(640, 480), _Grid.from_crop(_tool_crop(scene, camera), 64)):
            _assert_matches_reference([(mesh, pose)], camera, grid)
            _assert_matches_reference(scene + [(mesh, pose)], camera, grid)
            coords = np.random.default_rng(4).random((mesh.n_vertices, 3))
            _assert_matches_reference([(mesh, pose)] + scene, camera, grid, coords)

    def test_near_triangle_larger_than_a_chunk(self, camera):
        near = TriMesh(
            np.array([[-0.4, -0.4, 0.2], [0.5, -0.3, 0.25], [0.0, 0.5, 0.3], [0.0, 0.0, 0.3]]),
            np.array([[0, 1, 2]]),
        )
        pose = Pose(R=np.eye(3), t=np.zeros(3))
        scene = _tool_scene(5) + [(near, pose)]
        _, owner, _, _ = _assert_matches_reference(scene, camera, _Grid.full_image(640, 480))
        assert (owner == len(scene) - 1).sum() > CHUNK_PIXELS


class TestAmodalWindow:
    """A windowed amodal render holds the full-frame render's exact bits."""

    def _check(self, mesh, pose, camera):
        mask = render_amodal(mesh, pose, camera)
        _, owner, _, _ = _reference_core([(mesh, pose)], camera, _Grid.full_image(640, 480))
        full = (owner == 0).astype(np.uint8)
        np.testing.assert_array_equal(mask.full(), full)
        assert mask.pixel_count() == full.sum()
        assert mask.bbox() == MaskImage(640, 480, full).bbox()
        return mask

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tools_and_occluders(self, camera, seed):
        for mesh, pose in _tool_scene(seed):
            mask = self._check(mesh, pose, camera)
            assert mask.data.size < 640 * 480 // 4

    @pytest.mark.parametrize(
        "side, shift",
        [("left", (-0.40, 0.0)), ("right", (0.40, 0.0)), ("top", (0.0, -0.30)), ("bottom", (0.0, 0.30))],
    )
    def test_window_touching_each_border(self, camera, side, shift):
        # a tool straddling one image border: part of it is off-screen
        mesh, pose = _tool_scene(6)[0]
        pose = Pose(R=pose.R, t=np.array([shift[0], shift[1], 1.0]))
        mask = self._check(mesh, pose, camera)
        x0, y0, x1, y1 = mask.window
        touches = {"left": x0 == 0, "right": x1 == 640, "top": y0 == 0, "bottom": y1 == 480}
        assert touches[side] and sum(touches.values()) == 1
        gx, gy, _ = _projected(mesh, pose, camera)
        off = {"left": gx.min() < 0, "right": gx.max() > 640, "top": gy.min() < 0, "bottom": gy.max() > 480}
        assert off[side]

    def test_faces_across_the_near_plane_and_the_frame(self, camera):
        # the awkward faces: some behind or on the near plane, one whose
        # box covers the whole frame, so the window is the frame
        mask = self._check(_awkward_mesh(), Pose(R=np.eye(3), t=np.zeros(3)), camera)
        assert mask.window == (0, 0, 640, 480)

    def test_window_one_pixel_wide(self, camera):
        # a box 0.4 px wide around the pixel-center column x = 320.5
        mesh = box_mesh(center=(0, 0, 0), size=(0.0005, 0.05, 0.0005))
        pose = Pose(R=np.eye(3), t=np.array([0.5 / 800.0, 0.0, 1.0]))
        mask = self._check(mesh, pose, camera)
        assert mask.window[0] == 320 and mask.window[2] == 321

    @pytest.mark.parametrize(
        "side, t",
        [(0.1, (0.0, 0.0, -1.0)), (0.1, (2.0, 0.0, 1.0)), (0.1, (0.0, -2.0, 1.0)), (0.0005, (0.0, 0.0, 1.0))],
    )
    def test_empty_render(self, camera, side, t):
        # behind the camera, wholly off-screen, and between pixel centers
        mesh = box_mesh(center=(0, 0, 0), size=(side, side, side))
        pose = Pose(R=np.eye(3), t=np.array(t))
        _, owner, _, _ = _reference_core([(mesh, pose)], camera, _Grid.full_image(640, 480))
        assert (owner < 0).all()
        with pytest.raises(EmptyRender):
            render_amodal(mesh, pose, camera)


def _far_apex(side):
    """A triangle whose apex overflows to infinite depth on a pixel center.

    The apex sits on the principal point, the center of pixel (240, 320),
    where its barycentric is 1 and the depth is infinite; the other two
    vertices lie ``side`` px off it at depth 1.  So that pixel is covered
    but not owned.
    """
    camera = CameraIntrinsics(f=800.0, px=320.5, py=240.5, width=640, height=480)
    R = np.array([[1.0, 0.0, 1.0], [0.0, math.sqrt(2.0), 0.0], [-1.0, 0.0, 1.0]]) / math.sqrt(2.0)
    # the model point whose rotated depth overflows, and three at depth 1
    near = np.array([[side, 0.0, 800.0], [0.0, side, 800.0], [side, side, 800.0]]) / 800.0
    vertices = np.vstack([[-1.3e308, 0.0, 1.3e308], near @ R])
    with np.errstate(over="ignore", invalid="ignore"):
        mesh = TriMesh(vertices, np.array([[0, 1, 2]]))
    return mesh, Pose(R=R, t=np.zeros(3)), camera


class TestCoveragePass:
    """One mesh without attributes is rendered without depth."""

    @pytest.mark.parametrize("side", [0.3, 40.0])
    def test_infinite_depth_takes_the_depth_pass(self, side):
        mesh, pose, camera = _far_apex(side)
        grid = _Grid.full_image(640, 480)
        with np.errstate(over="ignore", divide="ignore"):
            _, owner, covered, _ = _reference_core([(mesh, pose)], camera, grid)
            assert covered[0][240, 320] and owner[240, 320] == -1
            assert raster._coverage(mesh, pose, camera, grid) is None
            (visible,), (amodal,) = raster._masks([(mesh, pose)], camera, grid)
            np.testing.assert_array_equal(visible.full(), owner == 0)
            np.testing.assert_array_equal(amodal.full(), covered[0])
            # a unit-scale crop over the image's rows
            crop = BBox(cx=320.0, cy=320.0, w=640.0, h=640.0)
            (cropped,) = rasterize_crop([(mesh, pose)], camera, crop, 640)
            assert cropped.data[240, 320] == 0 and cropped.pixel_count() == (owner == 0).sum()
            if side < 0.5:
                # the one covered pixel is not owned: nothing is drawn
                assert covered[0].sum() == 1
                with pytest.raises(EmptyRender):
                    render_amodal(mesh, pose, camera)
            else:
                np.testing.assert_array_equal(render_amodal(mesh, pose, camera).full(), covered[0])

    @pytest.mark.parametrize(
        "side, t",
        [
            (0.1, (0.0, 0.0, -1.0)),
            (0.1, (2.0, 0.0, 1.0)),
            (0.1, (0.0, -2.0, 1.0)),
            (0.0005, (0.0, 0.0, 1.0)),
            (0.0005, (0.5 / 800.0, 0.5 / 800.0, 1.0)),
            (0.1, (0.0, 0.0, 0.02)),
            (0.1, (0.0, 0.0, 1.0)),
        ],
    )
    def test_empty_exactly_where_nothing_is_owned(self, camera, side, t):
        # behind the camera, off-screen, between pixel centers, on one
        # pixel center, around the camera, and in view
        mesh = box_mesh(center=(0, 0, 0), size=(side, side, side))
        pose = Pose(R=np.eye(3), t=np.array(t))
        _, owner, covered, _ = _reference_core([(mesh, pose)], camera, _Grid.full_image(640, 480))
        if (owner < 0).all():
            assert not covered.any()
            with pytest.raises(EmptyRender):
                render_amodal(mesh, pose, camera)
        else:
            np.testing.assert_array_equal(covered[0], owner == 0)
            np.testing.assert_array_equal(render_amodal(mesh, pose, camera).full(), owner == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_mesh_crop_is_the_reference_visibility(self, camera, seed):
        # crops that cut the tool, hold it whole, or reach past the image
        mesh, pose = _tool_scene(seed)[0]
        for crop in (
            _tool_crop([(mesh, pose)], camera, side=30.0),
            _tool_crop([(mesh, pose)], camera, side=300.0),
            BBox(cx=0.0, cy=0.0, w=64.0, h=64.0),
        ):
            (mask,) = rasterize_crop([(mesh, pose)], camera, crop, 64)
            _, owner, _, _ = _reference_core([(mesh, pose)], camera, _Grid.from_crop(crop, 64))
            assert mask.window == (0, 0, 64, 64)
            np.testing.assert_array_equal(mask.data, owner == 0)


class TestMaskWindow:
    def test_full_frame_is_the_window_at_offset_zero(self):
        data = np.zeros((4, 5), dtype=np.uint8)
        data[1:3, 2] = 1
        mask = MaskImage(5, 4, data)
        assert mask.window == (0, 0, 5, 4)
        tight = mask.tight()
        assert tight.window == (2, 1, 3, 3)
        np.testing.assert_array_equal(tight.full(), data)
        assert tight.bbox() == mask.bbox()

    def test_window_must_fit_the_image(self):
        with pytest.raises(ValueError, match="does not match"):
            MaskImage(5, 4, np.ones((2, 2), dtype=np.uint8), x0=4)
        with pytest.raises(ValueError, match="does not match"):
            MaskImage(5, 4, np.ones((2, 2), dtype=np.uint8), y0=-1)

    def test_empty_window(self):
        mask = MaskImage(5, 4, np.zeros((4, 5), dtype=np.uint8)).tight()
        assert mask.data.shape == (0, 0) and mask.bbox() is None
        assert mask.full().shape == (4, 5) and mask.pixel_count() == 0


class TestSharedPasses:
    """One pass per grid gives what one pass per mesh and grid gave."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scene_masks_are_the_full_frame_masks(self, camera, seed):
        scene = _tool_scene(seed)
        visible, amodal = rasterize_scene(scene, camera)
        _, owner, covered, _ = _reference_core(scene, camera, _Grid.full_image(640, 480))
        for v, a in zip(visible, amodal):
            assert v.window == a.window and a.data.size < 640 * 480 // 4
        for i, (mesh, pose) in enumerate(scene):
            np.testing.assert_array_equal(visible[i].full(), owner == i)
            np.testing.assert_array_equal(amodal[i].full(), covered[i])
            np.testing.assert_array_equal(amodal[i].full(), render_amodal(mesh, pose, camera).full())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("index", [0, 1])
    def test_correspondence_among_others(self, camera, seed, index):
        # the lone render's map, valid where a crop pass that draws the
        # mesh first gives it the pixel
        scene = _tool_scene(seed)
        mesh, pose = scene[index]
        others = scene[:index] + scene[index + 1 :]
        coords = normalize_vertices(mesh, tight_bbox(mesh))
        crop = _tool_crop(scene, camera)
        shared = render_correspondence(mesh, coords, pose, camera, crop, 64, others)
        alone = render_correspondence(mesh, coords, pose, camera, crop, 64)
        visible = rasterize_crop([(mesh, pose), *others], camera, crop, 64)[0]
        assert shared.data.tobytes() == alone.data.tobytes()
        np.testing.assert_array_equal(shared.valid.data, alone.valid.data & visible.data)
        assert (alone.valid.data & ~visible.data.astype(bool)).any()

    def test_exact_ties_go_to_the_correspondence_mesh(self, camera):
        # a twin with the same geometry and pose ties every pixel exactly
        scene = _tool_scene(0)
        mesh, pose = scene[0]
        twin = TriMesh(mesh.vertices.copy(), mesh.faces.copy())
        coords = normalize_vertices(mesh, tight_bbox(mesh))
        crop = _tool_crop(scene, camera)
        tied = render_correspondence(mesh, coords, pose, camera, crop, 64, [(twin, pose)])
        alone = render_correspondence(mesh, coords, pose, camera, crop, 64)
        assert alone.valid.data.any()
        np.testing.assert_array_equal(tied.valid.data, alone.valid.data)
        assert tied.data.tobytes() == alone.data.tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    def test_skip_rule_at_the_cull_boundary(self, axis):
        # vertex boxes reaching exactly to the first or last pixel-center
        # line, or one ulp short of it: a mesh is skipped exactly when no
        # face keeps a box
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        z = np.ones(4)
        other = np.array([3.0, 4.0, 3.5, 3.2])
        for edge, away in ((0.5, -1.0), (7.5, 1.0)):
            for tip in (edge, np.nextafter(edge, edge + away)):
                coord = tip + away * np.array([0.0, 2.0, 1.0, 3.0])
                gx, gy = (coord, other) if axis == 0 else (other, coord)
                kept = raster._triangle_boxes(faces, gx, gy, z, 8, 8)[0]
                assert raster._off_grid(gx, gy, z, 8, 8) == (kept.shape[0] == 0)
                assert raster._off_grid(gx, gy, z, 8, 8) == (tip != edge)
        # a vertex at or before the near plane leaves the decision to the faces
        assert not raster._off_grid(np.full(4, -9.0), other, np.array([1.0, 1.0, NEAR_PLANE, 1.0]), 8, 8)
