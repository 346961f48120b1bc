"""Tests for rotation parameterizations, projection and translation encoding."""

import math

import numpy as np
import pytest

from artipose.camera import (
    BBox,
    CameraIntrinsics,
    CropTranslation,
    Pose,
    Rot6D,
    allo_to_ego,
    bbox_iou,
    check_rotation,
    decode_translation,
    ego_to_allo,
    encode_translation,
    geodesic_angle,
    matrix_to_rot6d,
    project_points,
    random_rotation,
    rot6d_to_matrix,
    rotation_about_axis,
)
from artipose.errors import (
    DegenerateRotation6D,
    InvalidRotation,
    NonPositiveDepth,
    PointBehindCamera,
)


@pytest.fixture
def camera():
    return CameraIntrinsics(f=800.0, px=320.0, py=240.0, width=640, height=480)


class TestCameraIntrinsics:
    def test_rejects_non_positive_focal(self):
        with pytest.raises(ValueError, match="focal"):
            CameraIntrinsics(f=0.0, px=320.0, py=240.0, width=640, height=480)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError, match="principal"):
            CameraIntrinsics(f=800.0, px=700.0, py=240.0, width=640, height=480)


class TestRot6D:
    def test_identity_encoding(self):
        g = matrix_to_rot6d(np.eye(3))
        np.testing.assert_allclose(g.r1, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(g.r2, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(rot6d_to_matrix(g), np.eye(3), atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            R = random_rotation(rng)
            back = rot6d_to_matrix(matrix_to_rot6d(R))
            np.testing.assert_allclose(back, R, atol=1e-12)

    def test_gram_schmidt_produces_rotation(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            g = Rot6D(r1=rng.standard_normal(3), r2=rng.standard_normal(3))
            R = rot6d_to_matrix(g)
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            g = Rot6D(r1=rng.standard_normal(3), r2=rng.standard_normal(3))
            s, u = rng.uniform(0.1, 10.0, size=2)
            scaled = Rot6D(r1=s * g.r1, r2=u * g.r2)
            np.testing.assert_allclose(
                rot6d_to_matrix(scaled), rot6d_to_matrix(g), atol=1e-12
            )

    def test_degenerate_first_column(self):
        with pytest.raises(DegenerateRotation6D, match="first column"):
            rot6d_to_matrix(Rot6D(r1=np.zeros(3), r2=np.array([0.0, 1.0, 0.0])))

    def test_degenerate_parallel_columns(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateRotation6D, match="parallel"):
            rot6d_to_matrix(Rot6D(r1=v, r2=2.0 * v))


class TestCheckRotation:
    def test_rejects_reflection(self):
        M = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotation, match="determinant"):
            check_rotation(M)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidRotation, match="orthonormal"):
            check_rotation(np.eye(3) * 1.01)
        # NaN compares false to everything, so it must fail the check too
        with pytest.raises(InvalidRotation, match="orthonormal"):
            check_rotation(np.full((3, 3), np.nan))

    def test_pose_validates_rotation(self):
        with pytest.raises(InvalidRotation):
            Pose(R=np.ones((3, 3)), t=np.zeros(3))


class TestAlloEgo:
    def test_principal_point_is_identity(self, camera):
        rng = np.random.default_rng(21)
        R = random_rotation(rng)
        np.testing.assert_allclose(
            allo_to_ego(R, (camera.px, camera.py), camera), R, atol=1e-15
        )

    def test_45_degree_ray(self, camera):
        # Object one focal length to the right of the principal point: the
        # viewing ray is normalize([1, 0, 1]) and the alignment rotates the
        # optical axis 45 degrees towards +x.
        R_ego = allo_to_ego(np.eye(3), (camera.px + camera.f, camera.py), camera)
        c = math.sqrt(0.5)
        expected = np.array([[c, 0.0, c], [0.0, 1.0, 0.0], [-c, 0.0, c]])
        np.testing.assert_allclose(R_ego, expected, atol=1e-12)
        np.testing.assert_allclose(R_ego @ [0.0, 0.0, 1.0], [c, 0.0, c], atol=1e-12)

    def test_round_trip_random(self, camera):
        rng = np.random.default_rng(22)
        for _ in range(300):
            R = random_rotation(rng)
            center = (rng.uniform(0, 640), rng.uniform(0, 480))
            back = ego_to_allo(allo_to_ego(R, center, camera), center, camera)
            np.testing.assert_allclose(back, R, atol=1e-12)

    def test_result_is_rotation(self, camera):
        rng = np.random.default_rng(23)
        for _ in range(50):
            R = allo_to_ego(random_rotation(rng), (rng.uniform(0, 640), 100.0), camera)
            check_rotation(R)

    def test_far_corner_ray_still_valid(self, camera):
        # Rays built from pixel coordinates always have positive z, so even
        # an extreme corner gives a proper rotation.
        R = allo_to_ego(np.eye(3), (1e6, 1e6), camera)
        check_rotation(R)


class TestCropTranslation:
    def test_centered_box_depth_only(self, camera):
        # A box centered at the principal point with zero offsets decodes to
        # a translation along the optical axis of depth dz * zoom / max(w, h).
        box = BBox(cx=camera.px, cy=camera.py, w=128.0, h=64.0)
        s = CropTranslation(dx=0.0, dy=0.0, dz=0.4)
        t = decode_translation(s, box, camera)
        np.testing.assert_allclose(t, [0.0, 0.0, 0.4 * 256.0 / 128.0], atol=1e-15)

    def test_round_trip_random(self, camera):
        rng = np.random.default_rng(31)
        for _ in range(300):
            t = np.array(
                [rng.uniform(-0.3, 0.3), rng.uniform(-0.25, 0.25), rng.uniform(0.3, 2.0)]
            )
            box = BBox(
                cx=rng.uniform(50, 590),
                cy=rng.uniform(50, 430),
                w=rng.uniform(16, 400),
                h=rng.uniform(16, 400),
            )
            s = encode_translation(t, box, camera)
            np.testing.assert_allclose(decode_translation(s, box, camera), t, atol=1e-12)
            s2 = encode_translation(decode_translation(s, box, camera), box, camera)
            np.testing.assert_allclose(
                [s2.dx, s2.dy, s2.dz], [s.dx, s.dy, s.dz], atol=1e-12
            )

    def test_encode_rejects_non_positive_depth(self, camera):
        box = BBox(cx=320.0, cy=240.0, w=100.0, h=100.0)
        with pytest.raises(NonPositiveDepth):
            encode_translation(np.array([0.0, 0.0, -0.5]), box, camera)

    def test_decode_rejects_non_positive_depth(self, camera):
        box = BBox(cx=320.0, cy=240.0, w=100.0, h=100.0)
        with pytest.raises(NonPositiveDepth):
            decode_translation(CropTranslation(0.0, 0.0, -1.0), box, camera)


class TestProjection:
    def test_known_point(self, camera):
        pose = Pose(R=np.eye(3), t=np.array([0.0, 0.0, 1.0]))
        uv = project_points(np.array([[0.1, -0.05, 0.0]]), pose, camera)
        np.testing.assert_allclose(uv, [[320.0 + 80.0, 240.0 - 40.0]])

    def test_point_behind_camera(self, camera):
        pose = Pose(R=np.eye(3), t=np.array([0.0, 0.0, 0.2]))
        with pytest.raises(PointBehindCamera):
            project_points(np.array([[0.0, 0.0, -0.5]]), pose, camera)

    def test_depth_scaling_halves_offsets(self, camera):
        p = np.array([[0.2, 0.1, 0.0]])
        near = project_points(p, Pose(R=np.eye(3), t=[0.0, 0.0, 1.0]), camera)
        far = project_points(p, Pose(R=np.eye(3), t=[0.0, 0.0, 2.0]), camera)
        np.testing.assert_allclose(
            far - [[320.0, 240.0]], (near - [[320.0, 240.0]]) / 2.0, atol=1e-10
        )


class TestGeodesicAngle:
    def test_identity_pair_is_zero(self):
        assert geodesic_angle(np.eye(3), np.eye(3)) == 0.0

    def test_known_angle(self):
        R = rotation_about_axis([0.0, 0.0, 1.0], 0.3)
        assert abs(geodesic_angle(np.eye(3), R) - 0.3) < 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            Ra, Rb, Rc = (random_rotation(rng) for _ in range(3))
            dab = geodesic_angle(Ra, Rb)
            assert abs(dab - geodesic_angle(Rb, Ra)) < 1e-9
            assert dab <= geodesic_angle(Ra, Rc) + geodesic_angle(Rc, Rb) + 1e-9


class TestRotationHelpers:
    def test_axis_angle_quarter_turn(self):
        R = rotation_about_axis([0.0, 0.0, 1.0], math.pi / 2.0)
        np.testing.assert_allclose(R @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_random_rotation_is_valid(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            check_rotation(random_rotation(rng))


class TestBBox:
    def test_corner_properties(self):
        box = BBox(cx=10.0, cy=20.0, w=4.0, h=6.0)
        assert (box.x0, box.y0, box.x1, box.y1) == (8.0, 17.0, 12.0, 23.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="size"):
            BBox(cx=0.0, cy=0.0, w=0.0, h=1.0)

    def test_iou_identical_and_disjoint(self):
        a = BBox(cx=0.0, cy=0.0, w=10.0, h=10.0)
        b = BBox(cx=100.0, cy=0.0, w=10.0, h=10.0)
        assert bbox_iou(a, a) == 1.0
        assert bbox_iou(a, b) == 0.0

    def test_iou_half_overlap(self):
        a = BBox(cx=0.0, cy=0.0, w=10.0, h=10.0)
        b = BBox(cx=5.0, cy=0.0, w=10.0, h=10.0)
        assert abs(bbox_iou(a, b) - 50.0 / 150.0) < 1e-12
