"""Tests for mesh parsing, articulation and surface sampling."""

import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from artipose.errors import BBoxMismatch, DegenerateMesh, ParseError
from artipose.meshes import (
    ArticulatedModel,
    TriMesh,
    articulate,
    box_mesh,
    denormalize_coords,
    ellipsoid_mesh,
    load_mesh,
    load_model_manifest,
    moving_vertices,
    normalize_vertices,
    sample_surface_points,
    save_mesh_obj,
    save_model_manifest,
    tight_bbox,
    unit_sphere,
)
from artipose.simulate import needle_holder_model, tweezers_model

UNIT_CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 3 2
f 1 4 3
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 4 8 7
f 4 7 3
f 1 5 8
f 1 8 4
f 2 3 7
f 2 7 6
"""


@pytest.fixture
def cube(tmp_path):
    path = tmp_path / "cube.obj"
    path.write_text(UNIT_CUBE_OBJ)
    return load_mesh(path)


def _toy_model():
    fixed = box_mesh(center=(-0.05, 0.0, 0.0), size=(0.1, 0.02, 0.02))
    moving = box_mesh(center=(0.05, 0.01, 0.0), size=(0.1, 0.02, 0.02))
    return ArticulatedModel(
        part_fixed=fixed,
        part_moving=moving,
        hinge_origin=np.zeros(3),
        hinge_axis=np.array([0.0, 0.0, 1.0]),
        angle_min=0.0,
        angle_max=0.6,
        class_id=0,
    )


class TestObjParsing:
    def test_unit_cube(self, cube):
        assert cube.n_vertices == 8
        assert cube.n_faces == 12
        lo, hi = tight_bbox(cube)
        np.testing.assert_array_equal(lo, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(hi, [1.0, 1.0, 1.0])

    def test_truncated_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0\nf 1 2 3\n")
        with pytest.raises(ParseError, match="3 coordinates"):
            load_mesh(path)

    def test_face_with_slashes(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1/1 2/2 3/3\n")
        with pytest.raises(ParseError, match="plain integers"):
            load_mesh(path)

    def test_face_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n")
        with pytest.raises(ParseError, match="missing vertex"):
            load_mesh(path)

    def test_unsupported_element(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("vn 0 0 1\n")
        with pytest.raises(ParseError, match="unsupported element"):
            load_mesh(path)

    def test_save_load_round_trip(self, cube, tmp_path):
        out = tmp_path / "copy.obj"
        save_mesh_obj(cube, out)
        again = load_mesh(out)
        np.testing.assert_array_equal(again.vertices, cube.vertices)
        np.testing.assert_array_equal(again.faces, cube.faces)


class TestTriMeshValidation:
    def test_rejects_zero_area_face(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 1]], dtype=float)
        with pytest.raises(DegenerateMesh, match="zero-area"):
            TriMesh(v, np.array([[0, 1, 2]]))

    def test_rejects_too_few_vertices(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        with pytest.raises(DegenerateMesh, match="at least 4"):
            TriMesh(v, np.array([[0, 1, 2]]))

    def test_rejects_bad_index(self):
        v = np.eye(4, 3)
        with pytest.raises(DegenerateMesh, match="out of range"):
            TriMesh(v, np.array([[0, 1, 9]]))

    def test_face_areas_bit_equal_to_np_cross(self):
        # the componentwise cross product gives np.cross's exact bits
        rng = np.random.default_rng(5)
        meshes = [
            articulate(_toy_model(), 0.37),
            ellipsoid_mesh((0.1, -0.2, 0.3), (0.02, 0.03, 0.05), unit_sphere(2)),
        ]
        for scale in (1e-4, 1.0, 1e3):
            v = rng.standard_normal((40, 3)) * scale
            meshes.append(TriMesh(v, rng.permuted(np.tile(np.arange(40), (60, 1)), axis=1)[:, :3]))
        for mesh in meshes:
            tri = mesh.vertices[mesh.faces]
            cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            want = 0.5 * np.sqrt((cross * cross).sum(axis=1))
            assert np.array_equal(mesh.face_areas(), want)


class TestArticulation:
    def test_closed_state_is_identity(self):
        model = _toy_model()
        merged = articulate(model, 0.0)
        fixed, moving = model.part_fixed, model.part_moving
        np.testing.assert_array_equal(merged.vertices, np.concatenate([fixed.vertices, moving.vertices]))
        np.testing.assert_array_equal(merged.faces, np.concatenate([fixed.faces, moving.faces + fixed.n_vertices]))

    def test_fixed_part_bit_exact(self):
        model = _toy_model()
        merged = articulate(model, 0.73)
        n = model.part_fixed.n_vertices
        assert np.array_equal(merged.vertices[:n], model.part_fixed.vertices)

    def test_quarter_turn_by_hand(self):
        # hinge about +z, quarter turn: the vertex at (1, 0, 0) lands on
        # (0, 1, 0)
        moving = box_mesh(center=(0.5, 0.0, 0.0), size=(1.0, 0.2, 0.2))
        model = ArticulatedModel(
            part_fixed=box_mesh(center=(-0.5, 0.0, 0.0), size=(1.0, 0.2, 0.2)),
            part_moving=moving,
            hinge_origin=np.zeros(3),
            hinge_axis=np.array([0.0, 0.0, 1.0]),
            angle_min=0.0,
            angle_max=math.pi / 2.0,
        )
        merged = articulate(model, 1.0)
        moved = merged.vertices[model.part_fixed.n_vertices :]
        probe = np.array([1.0, 0.1, 0.1])
        src = np.argmin(np.linalg.norm(moving.vertices - probe, axis=1))
        np.testing.assert_allclose(moved[src], [-0.1, 1.0, 0.1], atol=1e-12)

    def test_rigid_distances_preserved(self):
        model = _toy_model()
        rng = np.random.default_rng(5)
        merged = articulate(model, 1.0)
        moved = merged.vertices[model.part_fixed.n_vertices :]
        orig = model.part_moving.vertices
        for _ in range(50):
            i, j = rng.integers(0, orig.shape[0], size=2)
            d0 = np.linalg.norm(orig[i] - orig[j])
            d1 = np.linalg.norm(moved[i] - moved[j])
            assert abs(d0 - d1) < 1e-9

    def test_inverse_restores_positions(self):
        from artipose.camera import rotation_about_axis

        model = _toy_model()
        merged = articulate(model, 0.4)
        moved = merged.vertices[model.part_fixed.n_vertices :]
        Rh = rotation_about_axis(model.hinge_axis, model.hinge_angle(0.4))
        restored = (moved - model.hinge_origin) @ Rh + model.hinge_origin
        np.testing.assert_allclose(restored, model.part_moving.vertices, atol=1e-12)

    def test_state_bounds(self):
        with pytest.raises(ValueError, match=re.escape("articulation must be in [0, 1], got 1.5")):
            articulate(_toy_model(), 1.5)

    def test_one_mesh_check_per_articulate(self, monkeypatch):
        from artipose.meshes import _face_areas

        model = _toy_model()
        calls = []
        monkeypatch.setattr("artipose.meshes._face_areas", lambda v, f: calls.append(1) or _face_areas(v, f))
        articulate(model, 0.5)
        assert len(calls) == 1

    def test_stacked_openings_match_one_at_a_time(self):
        # one expression serves the box's stacked openings and one opening
        rng = np.random.default_rng(11)
        for model in (needle_holder_model(), tweezers_model()):
            openings = rng.uniform(0.0, 1.0, 2000)
            stacked = moving_vertices(model, openings)
            for a, moved in zip(openings, stacked):
                assert np.array_equal(moved, moving_vertices(model, float(a)))

    def test_hinge_axis_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            ArticulatedModel(
                part_fixed=box_mesh((0, 0, 0), (1, 1, 1)),
                part_moving=box_mesh((2, 0, 0), (1, 1, 1)),
                hinge_origin=np.zeros(3),
                hinge_axis=np.array([0.0, 0.0, 2.0]),
            )


class TestNormalization:
    def test_cube_corners(self, cube):
        coords = normalize_vertices(cube, tight_bbox(cube))
        assert coords.min() >= 0.0 and coords.max() <= 1.0
        np.testing.assert_allclose(coords.min(axis=0), [0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(coords.max(axis=0), [1.0, 1.0, 1.0], atol=1e-12)

    def test_round_trip(self, cube):
        bbox = tight_bbox(cube)
        coords = normalize_vertices(cube, bbox)
        np.testing.assert_allclose(
            denormalize_coords(coords, bbox), cube.vertices, atol=1e-12
        )

    def test_mismatched_box_raises(self, cube):
        lo = np.array([0.4, 0.4, 0.4])
        hi = np.array([0.6, 0.6, 0.6])
        with pytest.raises(BBoxMismatch):
            normalize_vertices(cube, (lo, hi))

    def test_flat_mesh_has_no_bbox(self):
        flat = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
            np.array([[0, 1, 2], [1, 3, 2]]),
        )
        with pytest.raises(DegenerateMesh, match="extent"):
            tight_bbox(flat)


class TestSurfaceSampling:
    def test_single_point_on_single_triangle(self):
        mesh = TriMesh(
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float),
            np.array([[0, 1, 3]]),
        )
        p = sample_surface_points(mesh, 1, seed=3)[0]
        # the face lies in the y = 0 plane
        assert abs(p[1]) < 1e-12
        assert p[0] >= 0 and p[2] >= 0 and p[0] + p[2] <= 1.0

    def test_deterministic_for_seed(self, cube):
        a = sample_surface_points(cube, 256, seed=7)
        b = sample_surface_points(cube, 256, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_surface_points(cube, 256, seed=8)
        assert not np.array_equal(a, c)

    def test_area_proportional_chi2(self):
        # unequal side lengths give three face-area groups
        mesh = box_mesh(center=(0, 0, 0), size=(1.0, 2.0, 3.0))
        n = 100_000
        pts = sample_surface_points(mesh, n, seed=19)
        areas = mesh.face_areas()
        # reassign each sample to its face via plane distances
        tri = mesh.vertices[mesh.faces]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        counts = np.zeros(mesh.n_faces)
        d = np.abs((pts[:, None, :] - tri[None, :, 0, :]) * normals[None]).sum(axis=2)
        # distance alone cannot split coplanar faces; count per plane group
        plane_ids = np.round(
            np.concatenate([normals, (normals * tri[:, 0]).sum(1, keepdims=True)], 1),
            9,
        )
        _, group = np.unique(plane_ids, axis=0, return_inverse=True)
        on_plane = d < 1e-9
        sample_group = group[np.argmax(on_plane, axis=1)]
        counts = np.bincount(sample_group, minlength=group.max() + 1)
        expected = np.zeros_like(counts, dtype=float)
        for face, g in enumerate(group):
            expected[g] += areas[face]
        expected = expected / expected.sum() * n
        assert stats.chisquare(counts, expected).pvalue > 0.01

    def test_points_lie_on_surface(self, cube):
        pts = sample_surface_points(cube, 500, seed=23)
        on_boundary = (
            np.isclose(pts, 0.0, atol=1e-12) | np.isclose(pts, 1.0, atol=1e-12)
        ).any(axis=1)
        assert on_boundary.all()


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        model = _toy_model()
        path = save_model_manifest(model, tmp_path / "models", "toy")
        again = load_model_manifest(path)
        assert again.class_id == model.class_id
        assert again.angle_min == model.angle_min
        assert again.angle_max == model.angle_max
        np.testing.assert_array_equal(again.hinge_origin, model.hinge_origin)
        np.testing.assert_array_equal(again.hinge_axis, model.hinge_axis)
        np.testing.assert_array_equal(
            again.part_fixed.vertices, model.part_fixed.vertices
        )
        np.testing.assert_array_equal(
            again.part_moving.vertices, model.part_moving.vertices
        )

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"fixed_mesh\": \"a.obj\"}")
        with pytest.raises(ParseError, match="misses field"):
            load_model_manifest(path)

    def test_stl_mesh_is_unsupported(self, tmp_path):
        mpath = save_model_manifest(_toy_model(), tmp_path, "toy")
        data = json.loads(mpath.read_text())
        (tmp_path / "toy_fixed.stl").write_bytes(b"\0" * 84)
        data["fixed_mesh"] = "toy_fixed.stl"
        mpath.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="unsupported mesh extension"):
            load_model_manifest(mpath)

    def test_default_angles(self, tmp_path):
        model = _toy_model()
        mpath = save_model_manifest(model, tmp_path, "toy")
        data = json.loads(mpath.read_text())
        del data["angle_min"], data["angle_max"]
        mpath.write_text(json.dumps(data))
        again = load_model_manifest(mpath)
        assert again.angle_min == 0.0
        assert again.angle_max == 0.6


class TestPrimitives:
    def test_box_is_closed_and_outward(self):
        mesh = box_mesh(center=(0, 0, 0), size=(2.0, 2.0, 2.0))
        tri = mesh.vertices[mesh.faces]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        centroids = tri.mean(axis=1)
        assert ((normals * centroids).sum(axis=1) > 0).all()
        assert abs(mesh.face_areas().sum() - 24.0) < 1e-9

    def test_ellipsoid_radii(self):
        mesh = ellipsoid_mesh(center=(1.0, 2.0, 3.0), radii=(0.1, 0.2, 0.3), sphere=unit_sphere(1))
        lo, hi = tight_bbox(mesh)
        np.testing.assert_allclose(0.5 * (lo + hi), [1.0, 2.0, 3.0], atol=1e-9)
        half = 0.5 * (hi - lo)
        assert np.all(half <= np.array([0.1, 0.2, 0.3]) + 1e-9)
        assert np.all(half >= np.array([0.1, 0.2, 0.3]) * 0.9)

    def test_ellipsoid_outward_normals(self):
        mesh = ellipsoid_mesh(center=(0, 0, 0), radii=(1.0, 1.0, 1.0), sphere=unit_sphere(1))
        tri = mesh.vertices[mesh.faces]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        centroids = tri.mean(axis=1)
        assert ((normals * centroids).sum(axis=1) > 0).all()
