"""Tests for minimal, refined and robust pose solving."""

import math
import tracemalloc

import numpy as np
import pytest

import artipose.pnp as pnp_module

from artipose.camera import (
    BBox,
    CameraIntrinsics,
    Pose,
    geodesic_angle,
    project_points,
    random_rotation,
    rotation_about_axis,
)
from artipose.errors import (
    NoConsensus,
    NonFiniteResidual,
    PointBehindCamera,
    TooFewCorrespondences,
)
from artipose.meshes import box_mesh, normalize_vertices, tight_bbox
from artipose.pnp import (
    LM_MAX_ITERS,
    LM_RTOL,
    LM_TOL,
    LO_BANDS,
    MIN_CORRESPONDENCES,
    MIN_INLIER_RATIO,
    RANSAC_CONFIDENCE,
    CorrSet,
    PnPResult,
    pairs_from_map,
    pnp_ransac,
)
from artipose.raster import render_correspondence


@pytest.fixture
def camera():
    return CameraIntrinsics(f=800.0, px=320.0, py=240.0, width=640, height=480)


def cube_corners(side=0.1):
    return np.array(
        [[x, y, z] for x in (0.0, side) for y in (0.0, side) for z in (0.0, side)]
    )


def p3p(corr, camera):
    """One minimal solve: (pose, ok)."""
    R, t, ok = pnp_module._p3p(corr.pts3d[None], corr.pts2d[None], camera)
    return Pose(R=R[0], t=t[0]), bool(ok[0])


def refine(corr, camera, init):
    """Levenberg-Marquardt with the robust loop's final-refit settings."""
    pose, _ = pnp_module._lm(corr, camera, init)
    return pose


def rmse(corr, camera, pose):
    err = project_points(corr.pts3d, pose, camera) - corr.pts2d
    return math.sqrt(float((err * err).sum(axis=1).mean()))


def random_pose(rng):
    return Pose(
        R=random_rotation(rng),
        t=np.array(
            [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), rng.uniform(0.5, 1.2)]
        ),
    )


class TestP3P:
    def test_cube_exact_recovery(self, camera):
        rng = np.random.default_rng(101)
        corners = cube_corners()
        for _ in range(50):
            pose = random_pose(rng)
            pts = corners[rng.permutation(8)[:6]]
            uv = project_points(pts, pose, camera)
            est, ok = p3p(CorrSet(pts, uv), camera)
            assert ok
            assert geodesic_angle(pose.R, est.R) < 1e-6
            assert np.linalg.norm(est.t - pose.t) < 1e-9 * np.linalg.norm(pose.t)

    def test_positive_depth(self, camera):
        rng = np.random.default_rng(102)
        pts = cube_corners()[:6]
        for _ in range(20):
            pose = random_pose(rng)
            uv = project_points(pts, pose, camera) + rng.standard_normal((6, 2))
            est, ok = p3p(CorrSet(pts, uv), camera)
            assert ok and ((pts @ est.R.T + est.t)[:, 2] > 0).all()

    def test_order_invariance(self, camera):
        # the three choosing points pick the same root in any order, and
        # the three solving points give the same pose in any order
        rng = np.random.default_rng(103)
        pts = cube_corners()[:6]
        pose = random_pose(rng)
        uv = project_points(pts, pose, camera) + 0.5 * rng.standard_normal((6, 2))
        a, _ = p3p(CorrSet(pts, uv), camera)
        for perm in ([0, 1, 2, 5, 3, 4], [0, 1, 2, 4, 5, 3]):
            b, _ = p3p(CorrSet(pts[perm], uv[perm]), camera)
            np.testing.assert_array_equal(a.R, b.R)
            np.testing.assert_array_equal(a.t, b.t)
        for perm in ([1, 2, 0, 3, 4, 5], [2, 0, 1, 3, 4, 5]):
            b, _ = p3p(CorrSet(pts[perm], uv[perm]), camera)
            np.testing.assert_allclose(a.R, b.R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(a.t, b.t, rtol=0, atol=1e-9)

    def test_collinear_points_degenerate(self, camera):
        pts = np.stack([np.linspace(0, 0.1, 6), np.zeros(6), np.zeros(6)], axis=1)
        pose = Pose(R=np.eye(3), t=np.array([0.0, 0.0, 1.0]))
        uv = project_points(pts, pose, camera)
        _, ok = p3p(CorrSet(pts, uv), camera)
        assert not ok
        # a repeated point leaves a degenerate triangle too
        pts = cube_corners()[[0, 0, 1, 2, 3, 4]]
        _, ok = p3p(CorrSet(pts, project_points(pts, pose, camera)), camera)
        assert not ok

    def test_roots_are_numpy_roots(self, camera, monkeypatch):
        # the quartics P3P builds for random and degenerate samples have
        # exactly np.roots' real roots, in its order, bit for bit; a
        # quartic whose companion matrix is not finite has none
        seen = []
        real_roots = pnp_module._real_roots

        def recording(A):
            seen.append((A.copy(), real_roots(A)))
            return seen[-1][1]

        monkeypatch.setattr(pnp_module, "_real_roots", recording)
        rng = np.random.default_rng(104)
        _, corr = _noisy_set(rng, camera, 300, 2.0, frac=0.3)
        samples = np.array([rng.choice(300, size=6, replace=False) for _ in range(200)])
        pts3d, pts2d = corr.pts3d[samples], corr.pts2d[samples]
        pts3d[0] = np.stack([np.linspace(0, 0.1, 6), np.zeros(6), np.zeros(6)], axis=1)  # collinear
        pts3d[1, 1], pts2d[1, 1] = pts3d[1, 0], pts2d[1, 0]  # a repeated point
        pts3d[2, 2] = pts3d[2, 0]  # a repeated model point seen apart
        pnp_module._p3p(pts3d, pts2d, camera)
        # a vanishing leading coefficient, a NaN, and four real roots
        crafted = np.array([[0.0, 1.0, -2.0, 0.5, 1.0], [np.nan, 1.0, 2.0, 3.0, 4.0], [1.0, 0.0, -5.0, 0.0, 4.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            seen.append((crafted, real_roots(crafted)))
            finite = [np.isfinite(-A[:, 1:] / A[:, :1]).all(axis=1) for A, _ in seen]
        for (A, roots), ok in zip(seen, finite):
            for a, row, companion_finite in zip(A, roots, ok):
                if not companion_finite:
                    assert np.isnan(row).all()
                    continue
                w = np.roots(a)
                assert len(w) == 4
                np.testing.assert_array_equal(row, np.where(w.imag == 0.0, w.real, np.nan))
        found = np.concatenate([roots for _, roots in seen])
        assert 200 < np.isfinite(found).sum() < found.size

    @pytest.mark.parametrize(
        "spread, fov_deg",
        [(0.1, 40.0), (1e-3, 40.0), (0.1, 3.0)],
        ids=["generic", "near_equal_depths", "view_3deg"],
    )
    def test_depths_of_exact_triangles(self, spread, fov_deg):
        # 20,000 exact triangles 0.5-1.2 m away, their depths within a
        # relative spread and their rays within a field of view: at most 5
        # have no root within 1e-6 (relative) of the true depths (measured:
        # 2, 3 and 2)
        rng = np.random.default_rng(105)
        n = 20000
        half = math.tan(math.radians(fov_deg / 2.0))
        ray = np.concatenate([rng.uniform(-half, half, (n, 3, 2)), np.ones((n, 3, 1))], axis=2)
        ray /= np.linalg.norm(ray, axis=2, keepdims=True)
        depth = rng.uniform(0.5, 1.2, (n, 1)) * (1.0 + spread * rng.uniform(-1.0, 1.0, (n, 3)))
        # only the sides matter, so the model points are the camera points
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = pnp_module._p3p_depths(depth[..., None] * ray, ray)
            err = np.abs(s - depth[:, None]).max(axis=2) / depth.max(axis=1)[:, None]
        missed = int((~(err <= 1e-6).any(axis=1)).sum())
        assert missed <= 5, missed

    def test_too_few_points(self, camera):
        # the robust loop refuses fewer pairs than a sample holds
        pts = cube_corners()[:5]
        uv = np.zeros((5, 2))
        with pytest.raises(TooFewCorrespondences):
            pnp_ransac(CorrSet(pts, uv), camera)


class TestRefineLm:
    def test_recovers_from_perturbed_init(self, camera):
        rng = np.random.default_rng(111)
        pts = cube_corners()
        for _ in range(20):
            pose = random_pose(rng)
            uv = project_points(pts, pose, camera)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            init = Pose(
                R=rotation_about_axis(axis, math.radians(5.0)) @ pose.R,
                t=pose.t + rng.standard_normal(3) * 0.02 / math.sqrt(3.0),
            )
            est = refine(CorrSet(pts, uv), camera, init)
            assert geodesic_angle(pose.R, est.R) < 1e-6
            assert np.linalg.norm(est.t - pose.t) < 1e-6

    def test_exact_init_stays_put(self, camera):
        rng = np.random.default_rng(112)
        pts = cube_corners()
        pose = random_pose(rng)
        uv = project_points(pts, pose, camera)
        est = refine(CorrSet(pts, uv), camera, pose)
        np.testing.assert_allclose(est.R, pose.R, atol=1e-12)
        np.testing.assert_allclose(est.t, pose.t, atol=1e-12)

    def test_cost_never_increases(self, camera):
        rng = np.random.default_rng(113)
        pts = rng.uniform(0, 0.1, size=(40, 3))
        pose = random_pose(rng)
        uv = project_points(pts, pose, camera) + rng.standard_normal((40, 2)) * 2.0
        corr = CorrSet(pts, uv)
        init = Pose(
            R=rotation_about_axis([0.0, 1.0, 0.0], 0.2) @ pose.R, t=pose.t + 0.05
        )
        refined = refine(corr, camera, init)
        assert rmse(corr, camera, refined) <= rmse(corr, camera, init) + 1e-12

    def test_stall_is_not_converged(self, camera):
        # a fronto-parallel hexagon 1 mm in front of the camera, observed a
        # million times farther out than it projects: by symmetry every
        # damped step only moves it toward the camera, and even the most
        # damped one carries it through the camera plane, so no try is taken
        a = np.arange(6) * math.pi / 3.0
        pts = np.stack([0.05 * np.cos(a), 0.05 * np.sin(a), np.zeros(6)], axis=1)
        start = Pose(R=np.eye(3), t=np.array([0.0, 0.0, 1e-3]))
        center = np.array([camera.px, camera.py])
        uv = center + 1e6 * (project_points(pts, start, camera) - center)
        pose, converged = pnp_module._lm(CorrSet(pts, uv), camera, start)
        np.testing.assert_array_equal(pose.t, start.t)
        assert not converged

    def test_start_at_own_optimum_converges_at_once(self, camera, monkeypatch):
        # at the optimum the Gauss-Newton step only moves the cost by
        # rounding, however long rounding makes it
        rng = np.random.default_rng(404)
        builds = []
        normal_equations = pnp_module._normal_equations

        def counting(*args):
            builds.append(1)
            return normal_equations(*args)

        monkeypatch.setattr(pnp_module, "_normal_equations", counting)
        for _ in range(6):
            truth, corr = _noisy_set(rng, camera, 300, 1.0)
            optimum, converged = pnp_module._lm(corr, camera, truth)
            assert converged
            builds.clear()
            again, converged = pnp_module._lm(corr, camera, optimum)
            assert converged and len(builds) <= 1
            np.testing.assert_allclose(again.R, optimum.R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(again.t, optimum.t, rtol=0, atol=1e-9)


class TestKernel:
    """The single-pose pieces of refinement against plain per-point code."""

    def _posed(self, camera, n=400, seed=141):
        rng = np.random.default_rng(seed)
        pose, corr = _noisy_set(rng, camera, n, 2.0)
        # away from the optimum, so the gradient holds no cancellation
        start = Pose(R=rotation_about_axis([0.3, 1.0, 0.2], 0.05) @ pose.R, t=pose.t + 0.01)
        return corr, start

    def test_normal_equations_match_explicit_jacobian(self, camera):
        corr, pose = self._posed(camera)
        pc, r, behind = pnp_module._project(
            corr.P, pnp_module._offsets(corr, camera), camera.f, pose.R, pose.t
        )
        assert not behind.any()
        H, g = pnp_module._normal_equations(pc, pose.t, r, camera.f)
        J = _reference_jacobian(pc.T, pose.t, camera.f)
        # the residuals interleaved as the reference orders its rows
        np.testing.assert_allclose(r.T.ravel(), _reference_residuals(corr, camera, pose), rtol=1e-12)
        np.testing.assert_allclose(H, J.T @ J, rtol=1e-12)
        np.testing.assert_allclose(g, J.T @ r.T.ravel(), rtol=1e-12)

    def test_residuals_behind_camera_are_none(self, camera):
        # a point behind the camera has no residual: the kernel masks it,
        # and projects it from depth 1 so that its masked value is finite
        corr, pose = self._posed(camera)
        obs = pnp_module._offsets(corr, camera)
        t = pose.t - [0.0, 0.0, 10.0]
        pc, r, behind = pnp_module._project(corr.P, obs, camera.f, pose.R, t)
        assert behind.all() and (pc[2] < 0).all()
        np.testing.assert_array_equal(r, pc[:2] * camera.f - obs)
        # one pose or a stack of them: each pose's row is its own result
        stack = pnp_module._project(corr.P, obs, camera.f, np.stack([pose.R, pose.R]), np.stack([pose.t, t]))
        for k, one in enumerate((pnp_module._project(corr.P, obs, camera.f, pose.R, pose.t), (pc, r, behind))):
            for a, b in zip(stack, one):
                np.testing.assert_array_equal(a[k], b)

    def test_reproj_errors_match_reference(self, camera):
        corr, pose = self._posed(camera)
        np.testing.assert_array_equal(
            pnp_module._reproj_errors(corr, camera, pose.R, pose.t), _reference_errors(corr, camera, pose)
        )
        # one point moved behind the camera gets an infinite error
        pts = corr.pts3d.copy()
        pts[7] = pose.R.T @ (np.array([0.01, 0.0, -0.2]) - pose.t)
        behind = CorrSet(pts, corr.pts2d)
        errs = pnp_module._reproj_errors(behind, camera, pose.R, pose.t)
        assert errs[7] == np.inf and np.isfinite(np.delete(errs, 7)).all()
        np.testing.assert_array_equal(errs, _reference_errors(behind, camera, pose, clamp=True))

    def test_rodrigues_matches_reference(self):
        rng = np.random.default_rng(142)
        for scale in (1e-14, 1e-9, 1e-3, 1.0, 3.0):
            w = scale * rng.standard_normal(3)
            np.testing.assert_allclose(
                pnp_module._rodrigues(w), _reference_exp_so3(w), rtol=0, atol=1e-15
            )

    def test_corrset_rejects_bad_input(self):
        pts = cube_corners()
        uv = np.zeros((8, 2))
        for bad3, bad2 in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0)):
            p3, p2 = pts.copy(), uv.copy()
            p3[3, 1] += bad3
            p2[5, 0] += bad2
            with pytest.raises(ValueError):
                CorrSet(p3, p2)
        with pytest.raises(ValueError):
            CorrSet(pts[:, :2], uv)
        with pytest.raises(ValueError):
            CorrSet(pts, uv[:7])

    def test_subset_keeps_rows(self, camera):
        corr, _ = self._posed(camera)
        index = np.array([5, 0, 399, 17, 17, 250])
        sub = corr.subset(index)
        np.testing.assert_array_equal(sub.pts3d, corr.pts3d[index])
        np.testing.assert_array_equal(sub.pts2d, corr.pts2d[index])
        assert sub.n == len(index) and sub.P.flags.c_contiguous and sub.uv.flags.c_contiguous
        again = sub.subset(np.array([1, 3]))
        np.testing.assert_array_equal(again.pts3d, corr.pts3d[[0, 17]])
        np.testing.assert_array_equal(again.pts2d, corr.pts2d[[0, 17]])


class TestPlanarFlip:
    """A planar target seen obliquely has a second, mirrored pose that
    projects it almost alike."""

    def _scene(self, camera, sigma=0.5):
        rng = np.random.default_rng(131)
        g = np.linspace(-0.02, 0.02, 9)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        pts = np.concatenate([pts, np.zeros((len(pts), 1))], axis=1)
        truth = Pose(
            R=rotation_about_axis([1.0, 0.0, 0.0], math.radians(40.0)),
            t=np.array([0.05, -0.03, 1.0]),
        )
        uv = project_points(pts, truth, camera) + sigma * rng.standard_normal((len(pts), 2))
        corr = CorrSet(pts, uv)
        return corr, refine(corr, camera, truth)

    def test_mirror_pose_flips_back(self, camera):
        corr, fit = self._scene(camera)
        # the other local minimum: turn the normal toward the viewing ray
        # through the centroid, past it by as much, and polish
        pc = corr.pts3d @ fit.R.T + fit.t
        center = pc.mean(axis=0)
        ray = center / np.linalg.norm(center)
        normal = np.linalg.eigh(np.cov(pc.T))[1][:, 0]
        normal *= np.sign(normal @ ray)
        turn = rotation_about_axis(np.cross(normal, ray), 2.0 * math.acos(float(normal @ ray)))
        mirror = refine(corr, camera, Pose(R=turn @ fit.R, t=turn @ (fit.t - center) + center))
        assert geodesic_angle(mirror.R, fit.R) > math.radians(45.0)
        out = pnp_module._flipped(
            corr, camera, mirror, pnp_module._reproj_errors(corr, camera, mirror.R, mirror.t), 2.0
        )
        assert out is not None
        pose, converged, errs = out
        assert converged
        assert geodesic_angle(pose.R, fit.R) < 1e-6
        assert np.linalg.norm(pose.t - fit.t) < 1e-6
        np.testing.assert_array_equal(errs, pnp_module._reproj_errors(corr, camera, pose.R, pose.t))

    def test_best_pose_is_kept(self, camera):
        corr, fit = self._scene(camera)
        errs = pnp_module._reproj_errors(corr, camera, fit.R, fit.t)
        assert pnp_module._flipped(corr, camera, fit, errs, 2.0) is None

    def test_non_planar_support_is_not_flipped(self, camera, monkeypatch):
        rng = np.random.default_rng(132)
        pose, corr = _noisy_set(rng, camera, 200, 0.5)
        fit = refine(corr, camera, pose)

        def no_lm(*args):
            raise AssertionError("a non-planar support was polished")

        monkeypatch.setattr(pnp_module, "_lm", no_lm)
        errs = pnp_module._reproj_errors(corr, camera, fit.R, fit.t)
        assert pnp_module._flipped(corr, camera, fit, errs, 2.0) is None


class TestRansac:
    def _corrupted(self, rng, camera, n=300, frac=0.3):
        pose = random_pose(rng)
        pts = rng.uniform(0, 0.1, size=(n, 3))
        uv = project_points(pts, pose, camera)
        k = int(frac * n)
        idx = rng.choice(n, size=k, replace=False)
        uv[idx, 0] = rng.uniform(0, camera.width, k)
        uv[idx, 1] = rng.uniform(0, camera.height, k)
        return pose, CorrSet(pts, uv), idx

    def test_recovers_under_contamination(self, camera):
        rng = np.random.default_rng(121)
        for trial in range(20):
            pose, corr, idx = self._corrupted(rng, camera)
            res = pnp_ransac(corr, camera, seed=trial)
            assert geodesic_angle(pose.R, res.pose.R) < math.radians(0.5)
            errs = np.linalg.norm(
                project_points(corr.pts3d, res.pose, camera) - corr.pts2d, axis=1
            )
            assert (errs[idx] >= 2.0).mean() > 0.9
            assert res.outlier_count >= len(idx) * 0.9

    def test_all_inliers_equals_p3p_refine(self, camera):
        rng = np.random.default_rng(122)
        pts = cube_corners()[:6]
        pose = random_pose(rng)
        uv = project_points(pts, pose, camera)
        corr = CorrSet(pts, uv)
        res = pnp_ransac(corr, camera, seed=5)
        direct = refine(corr, camera, p3p(corr, camera)[0])
        np.testing.assert_allclose(res.pose.R, direct.R, atol=1e-9)
        np.testing.assert_allclose(res.pose.t, direct.t, atol=1e-9)
        assert res.inlier_count == 6
        assert res.outlier_count == 0

    def test_deterministic_for_seed(self, camera):
        rng = np.random.default_rng(123)
        _, corr, _ = self._corrupted(rng, camera)
        a = pnp_ransac(corr, camera, seed=9)
        b = pnp_ransac(corr, camera, seed=9)
        np.testing.assert_array_equal(a.pose.R, b.pose.R)
        np.testing.assert_array_equal(a.pose.t, b.pose.t)
        assert a.inlier_count == b.inlier_count
        assert a.mean_reproj_err == b.mean_reproj_err

    def test_no_consensus_on_pure_noise(self, camera):
        rng = np.random.default_rng(124)
        pts = rng.uniform(0, 0.1, size=(60, 3))
        uv = np.stack(
            [rng.uniform(0, 640, 60), rng.uniform(0, 480, 60)], axis=1
        )
        with pytest.raises(NoConsensus):
            pnp_ransac(CorrSet(pts, uv), camera, max_iters=50, seed=1)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_coplanar_support_solves(self, camera, sigma):
        # every model point on one plane, as when a tool shows one flat
        # face: a six-point linear solve is rank-deficient there, so every
        # sample was degenerate and the loop raised NoConsensus
        rng = np.random.default_rng(126)
        truth = Pose(
            R=rotation_about_axis([1.0, 0.5, 0.0], math.radians(35.0)),
            t=np.array([0.02, -0.01, 0.8]),
        )
        pts = np.concatenate([rng.uniform(0, 0.1, size=(300, 2)), np.full((300, 1), 0.02)], axis=1)
        uv = project_points(pts, truth, camera) + sigma * rng.standard_normal((300, 2))
        res = pnp_ransac(CorrSet(pts, uv), camera, seed=126)
        assert geodesic_angle(truth.R, res.pose.R) < math.radians(1e-6 + sigma)
        assert np.linalg.norm(res.pose.t - truth.t) < 1e-9 + 5e-3 * sigma
        assert res.inlier_count >= 0.95 * len(pts)

    def test_error_monotone_in_noise(self, camera):
        # same scenes and unit perturbations across noise levels
        rng = np.random.default_rng(125)
        scenes = []
        for _ in range(40):
            pose = random_pose(rng)
            pts = rng.uniform(0, 0.1, size=(200, 3))
            uv = project_points(pts, pose, camera)
            unit = rng.standard_normal(uv.shape)
            scenes.append((pose, pts, uv, unit))
        means = []
        for sigma in (0.0, 0.5, 1.0, 2.0):
            errs = []
            for k, (pose, pts, uv, unit) in enumerate(scenes):
                res = pnp_ransac(
                    CorrSet(pts, uv + sigma * unit), camera, seed=1000 + k
                )
                errs.append(geodesic_angle(pose.R, res.pose.R))
            means.append(np.mean(errs))
        assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))


class TestPairsFromMap:
    def _rendered_map(self, camera, seed=201, out_size=64):
        rng = np.random.default_rng(seed)
        mesh = box_mesh(center=(0, 0, 0), size=(0.09, 0.05, 0.03))
        pose = random_pose(rng)
        bbox = tight_bbox(mesh)
        coords = normalize_vertices(mesh, bbox)
        uv = project_points(mesh.vertices, pose, camera)
        lo = uv.min(axis=0)
        hi = uv.max(axis=0)
        side = 1.15 * float(max(hi[0] - lo[0], hi[1] - lo[1]))
        crop = BBox(
            cx=float((lo[0] + hi[0]) / 2), cy=float((lo[1] + hi[1]) / 2),
            w=side, h=side,
        )
        cmap = render_correspondence(mesh, coords, pose, camera, crop, out_size)
        return mesh, pose, bbox, cmap

    def test_pairs_reproject_to_pixel_centers(self, camera):
        _, pose, bbox, cmap = self._rendered_map(camera)
        corr = pairs_from_map(cmap, bbox)
        uv = project_points(corr.pts3d, pose, camera)
        err = np.linalg.norm(uv - corr.pts2d, axis=1)
        assert err.max() < 0.5

    def test_solving_recovers_render_pose(self, camera):
        for seed in (211, 212, 213):
            _, pose, bbox, cmap = self._rendered_map(camera, seed=seed)
            corr = pairs_from_map(cmap, bbox)
            res = pnp_ransac(corr, camera, seed=0)
            assert geodesic_angle(pose.R, res.pose.R) < 1e-3
            assert np.linalg.norm(res.pose.t - pose.t) < 1e-3 * np.linalg.norm(pose.t)
            assert res.converged

    def test_too_few_valid_pixels(self, camera):
        _, _, bbox, cmap = self._rendered_map(camera)
        starved = type(cmap)(
            width=cmap.width,
            height=cmap.height,
            data=np.zeros_like(cmap.data),
            valid=type(cmap.valid)(
                cmap.width,
                cmap.height,
                np.zeros((cmap.height, cmap.width), dtype=np.uint8),
            ),
            crop=cmap.crop,
        )
        with pytest.raises(TooFewCorrespondences):
            pairs_from_map(starved, bbox)


def _noisy_set(rng, camera, n, sigma, frac=0.0):
    """Points in a 10 cm cube seen at sigma px, a share ``frac`` replaced
    by uniform outliers."""
    pose = random_pose(rng)
    pts = rng.uniform(0, 0.1, size=(n, 3))
    uv = project_points(pts, pose, camera) + sigma * rng.standard_normal((n, 2))
    k = int(frac * n)
    idx = rng.choice(n, size=k, replace=False)
    uv[idx, 0] = rng.uniform(0, camera.width, k)
    uv[idx, 1] = rng.uniform(0, camera.height, k)
    return pose, CorrSet(pts, uv)


class TestBatchedLoop:
    def test_sample_stream_matches_one_at_a_time_draws(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        blocks = [pnp_module._draw(a, 500, count) for count in (1, 2, 4, 8)]
        one_by_one = [b.choice(500, size=6, replace=False) for _ in range(15)]
        np.testing.assert_array_equal(np.concatenate(blocks), np.array(one_by_one))

    def test_stacked_p3p_matches_per_sample(self, camera):
        rng = np.random.default_rng(301)
        _, corr = _noisy_set(rng, camera, 300, 2.0, frac=0.3)
        samples = np.array([rng.choice(300, size=6, replace=False) for _ in range(60)])
        pts3d = corr.pts3d[samples]
        pts2d = corr.pts2d[samples]
        # degenerate samples: collinear points, and one point six times
        pts3d[0] = np.stack([np.linspace(0, 0.1, 6), np.zeros(6), np.zeros(6)], axis=1)
        pts3d[1] = pts3d[1, :1]
        pts2d[1] = pts2d[1, :1]
        R, t, ok = pnp_module._p3p(pts3d, pts2d, camera)
        for k in range(len(samples)):
            # a block's solve of a sample has the bits of its solve alone
            Rk, tk, okk = pnp_module._p3p(pts3d[k : k + 1], pts2d[k : k + 1], camera)
            assert okk[0] == ok[k], k
            try:
                ref = _reference_p3p(CorrSet(pts3d[k], pts2d[k]), camera)
            except _DegenerateSample:
                assert not ok[k], k
                continue
            assert ok[k], k
            np.testing.assert_array_equal(Rk[0], R[k])
            np.testing.assert_array_equal(tk[0], t[k])
            np.testing.assert_allclose(R[k], ref.R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(t[k], ref.t, rtol=0, atol=1e-9)
        assert not ok[0] and not ok[1]
        assert ok.sum() > 50

    def test_block_hypotheses_match_per_sample(self, camera):
        # each sample on its own: P3P on its first three points, the pose
        # the other three reproject best among those with all six in front
        # of the camera, then the MSAC score
        rng = np.random.default_rng(307)
        _, corr = _noisy_set(rng, camera, 500, 2.0, frac=0.2)
        samples = np.array([rng.choice(500, size=6, replace=False) for _ in range(100)])
        samples[0, :3] = samples[0, 0]  # one point three times: degenerate
        R, t, ok, score = pnp_module._hypotheses(corr, camera, samples)
        for k, sample in enumerate(samples):
            try:
                hyp = _reference_p3p(corr.subset(sample), camera)
            except _DegenerateSample:
                assert not ok[k] and score[k] == np.inf, k
                continue
            assert ok[k], k
            np.testing.assert_allclose(R[k], hyp.R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(t[k], hyp.t, rtol=0, atol=1e-9)
            errs = _reference_errors(corr, camera, Pose(R=R[k], t=t[k]), clamp=True)
            assert score[k] == np.minimum(errs * errs, 4.0).sum(), k
        assert 0 < (~ok).sum() < len(samples)

    @pytest.mark.parametrize("n", [30, 300, 1600])
    def test_lean_lm_matches_reference(self, camera, n):
        rng = np.random.default_rng(303 + n)
        for _ in range(5):
            pose, corr = _noisy_set(rng, camera, n, 1.0)
            axis = rng.standard_normal(3)
            init = Pose(
                R=rotation_about_axis(axis / np.linalg.norm(axis), math.radians(3.0)) @ pose.R,
                t=pose.t + rng.standard_normal(3) * 0.01,
            )
            a, _ = pnp_module._lm(corr, camera, init)
            b, _ = _reference_lm(corr, camera, init, pnp_module.LM_MAX_ITERS, pnp_module.LM_TOL)
            np.testing.assert_allclose(a.R, b.R, rtol=0, atol=1e-8)
            np.testing.assert_allclose(a.t, b.t, rtol=0, atol=1e-8)

    def test_lm_start_behind_camera_raises(self, camera):
        pts = cube_corners()
        uv = project_points(pts, Pose(R=np.eye(3), t=np.array([0.0, 0.0, 1.0])), camera)
        behind = Pose(R=np.eye(3), t=np.array([0.0, 0.0, -1.0]))
        with pytest.raises(NonFiniteResidual):
            refine(CorrSet(pts, uv), camera, behind)

    def test_adaptive_exit_mid_block_matches_sequential_loop(self, camera, monkeypatch):
        # all but three points on one line: samples that solve on three
        # points of the line are degenerate, and the first that solves on
        # a point off it collects every point and ends the loop, inside the
        # 32..63 block
        rng = np.random.default_rng(502)
        pose = random_pose(rng)
        pts = rng.uniform(0, 0.1, size=(300, 3))
        pts[:297, 1:] = 0.05
        uv = project_points(pts, pose, camera) + 0.2 * rng.standard_normal((300, 2))
        corr = CorrSet(pts, uv)
        blocks = []
        draw = pnp_module._draw

        def recording_draw(rng, n, count):
            blocks.append(count)
            return draw(rng, n, count)

        monkeypatch.setattr(pnp_module, "_draw", recording_draw)
        res = pnp_ransac(corr, camera, seed=502)
        monkeypatch.undo()
        ref, stop = _reference_ransac(corr, camera, seed=502)
        assert res.samples == stop
        assert blocks[:3] == [1, 2, 4]
        assert stop not in np.cumsum(blocks)
        assert res.inlier_count == ref.inlier_count
        np.testing.assert_allclose(res.pose.R, ref.pose.R, rtol=0, atol=1e-8)
        np.testing.assert_allclose(res.pose.t, ref.pose.t, rtol=0, atol=1e-8)

    def test_full_run_matches_sequential_loop(self, camera):
        # sigma 2 px with half the points outliers: the adaptive bound stays
        # above the cap, so every sample is drawn
        rng = np.random.default_rng(305)
        _, corr = _noisy_set(rng, camera, 300, 2.0, frac=0.5)
        res = pnp_ransac(corr, camera, max_iters=150, seed=3)
        ref, stop = _reference_ransac(corr, camera, max_iters=150, seed=3)
        assert res.samples == stop == 150
        assert res.inlier_count == ref.inlier_count
        np.testing.assert_allclose(res.pose.R, ref.pose.R, rtol=0, atol=1e-8)
        np.testing.assert_allclose(res.pose.t, ref.pose.t, rtol=0, atol=1e-8)

    def test_no_set_is_fit_twice(self, camera, monkeypatch):
        # a local-optimization band, or the final refit, whose points are
        # the very ones its start pose was fit on (and converged on) is
        # not fit again, and no six-point sample is fit at all
        calls = []
        sizes = []
        lm = pnp_module._lm

        def recording_lm(corr, camera, init):
            sizes.append(corr.n)
            pose, converged = lm(corr, camera, init)
            calls.append(
                (corr.pts3d.tobytes(), (init.R.tobytes(), init.t.tobytes()),
                 (pose.R.tobytes(), pose.t.tobytes()), converged)
            )
            return pose, converged

        monkeypatch.setattr(pnp_module, "_lm", recording_lm)
        # every point within 2 px of the first leader: its 32 px band fit
        # is also the fit of the 8 px and 2 px bands and of the final set
        rng = np.random.default_rng(401)
        _, corr = _noisy_set(rng, camera, 500, 0.5)
        res = pnp_ransac(corr, camera, seed=401)
        assert res.samples == 1 and res.inlier_count == 500 and res.converged
        assert len(calls) == 1
        for seed, sigma in ((402, 0.5), (403, 2.0), (404, 2.0)):
            rng = np.random.default_rng(seed)
            _, corr = _noisy_set(rng, camera, 500, sigma, frac=0.2)
            pnp_ransac(corr, camera, seed=seed)
        fits = {(out, points) for points, _, out, converged in calls if converged}
        assert all((start, points) not in fits for points, start, _, _ in calls)
        # and no minimal sample is fit: every fit holds more than six points
        assert min(sizes) > MIN_CORRESPONDENCES

    @pytest.mark.parametrize(
        "sigma, normal_equations, projections",
        [(0.5, 18, 41), (2.0, 31, 60)],
        ids=["0.5", "2.0"],
    )
    def test_work_stays_bounded(self, camera, monkeypatch, sigma, normal_equations, projections):
        # deterministic work counts of one solve, about 10 % above the
        # normal-equation builds and projections that P3P samples take (16
        # and 37 at 0.5 px, 28 and 54 at 2 px); linear six-point samples
        # with their LM polish took 143 and 188, 171 and 216.  Every
        # projection is one call of the kernel: a P3P block's, an LM
        # start's or try's, or a scoring chunk's or one pose's errors
        counts = {"_normal_equations": 0, "_project": 0}
        for name in counts:
            original = getattr(pnp_module, name)

            def counting(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(pnp_module, name, counting)
        rng = np.random.default_rng(401)
        _, corr = _noisy_set(rng, camera, 500, sigma, frac=0.2)
        pnp_ransac(corr, camera, seed=401)
        assert all(counts.values()), counts
        assert counts["_normal_equations"] <= normal_equations, counts
        assert sum(counts.values()) - counts["_normal_equations"] <= projections, counts

    def test_peak_memory_near_sequential_loop(self, camera):
        # a full 64 x 64 map at sigma 2 px
        rng = np.random.default_rng(306)
        _, corr = _noisy_set(rng, camera, 4096, 2.0)
        peaks = []
        for solve in (_reference_ransac, pnp_ransac):
            tracemalloc.start()
            try:
                solve(corr, camera, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20, peaks


# ---------------------------------------------------------------------------
# One-sample-at-a-time reference: the minimal solve, Levenberg-Marquardt and
# robust loop written plainly, without blocks of hypotheses.  The batched
# code must reproduce this loop's samples, exit and results.


def _reference_residuals(corr, camera, pose):
    """Residuals of every point in front of the camera, u and v
    interleaved."""
    pc = corr.pts3d @ pose.R.T + pose.t
    r = np.empty(2 * corr.n)
    r[0::2] = camera.f * pc[:, 0] / pc[:, 2] + camera.px - corr.pts2d[:, 0]
    r[1::2] = camera.f * pc[:, 1] / pc[:, 2] + camera.py - corr.pts2d[:, 1]
    return r


def _reference_errors(corr, camera, pose, clamp=False):
    pc = corr.pts3d @ pose.R.T + pose.t
    z = pc[:, 2]
    bad = z <= 1e-9
    if bad.any():
        if not clamp:
            raise PointBehindCamera("pose places correspondences behind the camera")
        z = np.where(bad, 1.0, z)
    # projections minus the pixels' offsets from the principal point
    du = pc[:, 0] * (camera.f / z) - (corr.pts2d[:, 0] - camera.px)
    dv = pc[:, 1] * (camera.f / z) - (corr.pts2d[:, 1] - camera.py)
    err = np.sqrt(du * du + dv * dv)
    if bad.any():
        err[bad] = np.inf
    return err


class _DegenerateSample(Exception):
    """The sample's geometry does not constrain a unique pose."""


def _reference_p3p(corr, camera):
    """Grunert's P3P on the first three points (the quartic's coefficients
    as in Haralick et al., IJCV 1994), two Newton steps on the three side
    equations per root, Kabsch alignment, and the pose that puts every
    point in front of the camera and reprojects the others best."""
    n = corr.n
    if n < MIN_CORRESPONDENCES:
        raise TooFewCorrespondences(f"need {MIN_CORRESPONDENCES} pairs, got {n}")
    P = corr.pts3d[:3]
    rays = np.array([[(u - camera.px) / camera.f, (v - camera.py) / camera.f, 1.0] for u, v in corr.pts2d[:3]])
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    e1, e2 = P[1] - P[0], P[2] - P[0]
    if np.linalg.norm(np.cross(e1, e2)) <= 1e-9 * np.linalg.norm(e1) * np.linalg.norm(e2):
        raise _DegenerateSample("the three points are collinear")
    a2, b2, c2 = ((P[1] - P[2]) @ (P[1] - P[2]), e2 @ e2, e1 @ e1)
    ca, cb, cg = rays[1] @ rays[2], rays[0] @ rays[2], rays[0] @ rays[1]
    k = (a2 - c2) / b2
    coefficients = [
        (k - 1) ** 2 - 4 * c2 / b2 * ca**2,
        4 * (k * (1 - k) * cb - (1 - (a2 + c2) / b2) * ca * cg + 2 * c2 / b2 * ca**2 * cb),
        2 * (k**2 - 1 + 2 * k**2 * cb**2 + 2 * (b2 - c2) / b2 * ca**2
             - 4 * (a2 + c2) / b2 * ca * cb * cg + 2 * (b2 - a2) / b2 * cg**2),
        4 * (-k * (1 + k) * cb + 2 * a2 / b2 * cg**2 * cb - (1 - (a2 + c2) / b2) * ca * cg),
        (1 + k) ** 2 - 4 * a2 / b2 * cg**2,
    ]
    best, best_cost = None, math.inf
    for v in np.roots(coefficients):
        if v.imag != 0.0:
            continue
        v = v.real
        u = ((k - 1) * v * v - 2 * k * cb * v + 1 + k) / (2 * (cg - v * ca))
        s1 = math.sqrt(b2 / (1 + v * v - 2 * v * cb))
        s = np.array([s1, u * s1, v * s1])
        try:
            for _ in range(2):
                f = 0.5 * np.array([
                    s[0] ** 2 + s[1] ** 2 - 2 * cg * s[0] * s[1] - c2,
                    s[0] ** 2 + s[2] ** 2 - 2 * cb * s[0] * s[2] - b2,
                    s[1] ** 2 + s[2] ** 2 - 2 * ca * s[1] * s[2] - a2,
                ])
                J = np.array([
                    [s[0] - cg * s[1], s[1] - cg * s[0], 0.0],
                    [s[0] - cb * s[2], 0.0, s[2] - cb * s[0]],
                    [0.0, s[1] - ca * s[2], s[2] - ca * s[1]],
                ])
                s = s - np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            continue
        X = s[:, None] * rays
        if not np.isfinite(X).all():
            continue
        # Kabsch: the rotation taking the centered model triangle onto the
        # centered camera triangle
        U, _, Vt = np.linalg.svd((X - X.mean(axis=0)).T @ (P - P.mean(axis=0)))
        d = 1.0 if np.linalg.det(U @ Vt) > 0 else -1.0
        R = U @ np.diag([1.0, 1.0, d]) @ Vt
        pose = Pose(R=R, t=X.mean(axis=0) - R @ P.mean(axis=0))
        if ((corr.pts3d @ R.T + pose.t)[:, 2] <= 1e-9).any():
            continue
        err = project_points(corr.pts3d[3:], pose, camera) - corr.pts2d[3:]
        cost = float((err * err).sum())
        if cost < best_cost:
            best, best_cost = pose, cost
    if best is None:
        raise _DegenerateSample("no root puts every point in front of the camera")
    return best


def _reference_skew(v):
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def _reference_exp_so3(w):
    angle = math.sqrt(float(w @ w))
    if angle < 1e-12:
        return np.eye(3) + _reference_skew(w)
    K = _reference_skew(w / angle)
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _reference_jacobian(pc, t, f):
    """The 2N x 6 Jacobian of the residuals (u and v rows interleaved) at
    (N, 3) camera points ``pc`` of a pose with translation ``t``."""
    n = len(pc)
    z = pc[:, 2]
    fz = f / z
    J = np.zeros((2 * n, 6))
    rot_pts = pc - t
    # d(pixel)/d(camera point)
    du_dp = np.zeros((n, 3))
    dv_dp = np.zeros((n, 3))
    du_dp[:, 0] = fz
    du_dp[:, 2] = -f * pc[:, 0] / (z * z)
    dv_dp[:, 1] = fz
    dv_dp[:, 2] = -f * pc[:, 1] / (z * z)
    # left rotation increment: d(pc)/dw = -[R p]_x
    rx, ry, rz = rot_pts[:, 0], rot_pts[:, 1], rot_pts[:, 2]
    dp_dw = np.zeros((n, 3, 3))
    dp_dw[:, 0, 1] = rz
    dp_dw[:, 0, 2] = -ry
    dp_dw[:, 1, 0] = -rz
    dp_dw[:, 1, 2] = rx
    dp_dw[:, 2, 0] = ry
    dp_dw[:, 2, 1] = -rx
    J[0::2, :3] = np.einsum("nk,nkj->nj", du_dp, dp_dw)
    J[1::2, :3] = np.einsum("nk,nkj->nj", dv_dp, dp_dw)
    J[0::2, 3:] = du_dp
    J[1::2, 3:] = dv_dp
    return J


def _reference_lm(corr, camera, init, max_iters, tol):
    R = init.R.copy()
    t = init.t.copy()

    def residuals(Rc, tc):
        pc = corr.pts3d @ Rc.T + tc
        z = pc[:, 2]
        if np.any(z <= 1e-9):
            return None, None
        r = np.empty(2 * corr.n)
        r[0::2] = camera.f * pc[:, 0] / z + camera.px - corr.pts2d[:, 0]
        r[1::2] = camera.f * pc[:, 1] / z + camera.py - corr.pts2d[:, 1]
        return r, pc

    r, pc = residuals(R, t)
    if r is None or not np.isfinite(r).all():
        raise NonFiniteResidual("refinement cannot start from this pose")
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iters):
        J = _reference_jacobian(pc, t, camera.f)
        g = J.T @ r
        H = J.T @ J
        step_taken = False
        for _ in range(8):
            damped = H + lam * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            R_new = _reference_exp_so3(delta[:3]) @ R
            t_new = t + delta[3:]
            r_new, pc_new = residuals(R_new, t_new)
            if r_new is None:
                lam *= 10.0
                continue
            cost_new = float(r_new @ r_new)
            # a try in front of the camera that moves the cost only by
            # rounding, either way, finds the run at its minimum
            at_minimum = abs(cost_new - cost) <= LM_RTOL * cost
            if cost_new <= cost:
                R, t, r, pc, cost = R_new, t_new, r_new, pc_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                step_taken = True
                if at_minimum or math.sqrt(float(delta @ delta)) < tol:
                    converged = True
                break
            if at_minimum:
                converged = True
                break
            lam *= 10.0
        if converged or not step_taken:
            break  # a stall away from the minimum leaves converged False
    # re-orthonormalize against drift before constructing the pose
    U, _, Vt = np.linalg.svd(R)
    d = 1.0 if np.linalg.det(U @ Vt) > 0 else -1.0
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    return Pose(R=R, t=t), converged


def _reference_band(errs, inlier_px):
    """Noise band of a leader: 99 % of 2-D Gaussian residuals whose scale is
    the middle residual below 8 px over the Rayleigh median, clamped."""
    cap = 4.0 * inlier_px
    near = np.sort(errs[errs < cap])
    if near.size == 0:
        return inlier_px
    sigma = near[near.size // 2] / math.sqrt(2.0 * math.log(2.0))
    return min(max(math.sqrt(-2.0 * math.log(0.01)) * sigma, inlier_px), cap)


def _reference_flip(corr, camera, pose, inliers, tau):
    """Planar two-fold check: (pose, converged) of the reflected-normal
    solution if the support is nearly planar and it fits clearly better."""
    pc = corr.pts3d[inliers] @ pose.R.T + pose.t
    center = pc.mean(axis=0)
    w, V = np.linalg.eigh(np.cov(pc.T))
    if not w[0] < 0.05 * w[1]:
        return None
    normal = V[:, 0]
    ray = center / np.linalg.norm(center)
    cos = float(normal @ ray)
    axis = np.cross(normal, 2.0 * cos * ray - normal)
    if not np.linalg.norm(axis) > 0.0:
        return None
    turn = rotation_about_axis(axis, 2.0 * math.acos(min(1.0, abs(cos))))
    start = Pose(R=turn @ pose.R, t=turn @ (pose.t - center) + center)
    try:
        flip, converged = _reference_lm(
            corr.subset(np.flatnonzero(inliers)), camera, start, LM_MAX_ITERS, LM_TOL
        )
    except NonFiniteResidual:
        return None

    def cost(p):
        errs = _reference_errors(corr, camera, p, clamp=True)
        return float(np.minimum(errs * errs, tau * tau).sum())

    if cost(flip) < 0.95 * cost(pose):
        return flip, converged
    return None


def _reference_ransac(corr, camera, inlier_px=2.0, max_iters=400, seed=0):
    """One sample at a time; returns (result, samples the loop went through)."""
    n = corr.n
    if n < MIN_CORRESPONDENCES:
        raise TooFewCorrespondences(f"need {MIN_CORRESPONDENCES} pairs, got {n}")
    rng = np.random.default_rng(seed)
    thr_sq = inlier_px * inlier_px
    best_score = math.inf
    best_raw = math.inf
    best_pose = None
    best_errs = None
    best_fit, best_converged = None, False
    tau = inlier_px
    needed = max_iters
    i = 0
    while i < min(max_iters, needed):
        sample = rng.choice(n, size=MIN_CORRESPONDENCES, replace=False)
        i += 1
        try:
            hyp = _reference_p3p(corr.subset(sample), camera)
        except _DegenerateSample:
            continue
        errs = _reference_errors(corr, camera, hyp, clamp=True)
        score = float(np.minimum(errs * errs, thr_sq).sum())
        # the band mask hyp was last fit on, and whether that fit converged
        fit, fit_converged = None, False
        if score < best_raw:
            best_raw = score
            # polish on the hypothesis's own support through shrinking
            # bands; noise in the minimal sample otherwise caps how many
            # inliers it can collect
            for mult in LO_BANDS:
                mask = errs < mult * inlier_px
                if int(mask.sum()) < MIN_CORRESPONDENCES:
                    continue
                if fit is not None and (mask == fit).all():
                    continue  # hyp already is this set's LM optimum
                try:
                    local, local_converged = _reference_lm(
                        corr.subset(np.flatnonzero(mask)),
                        camera,
                        hyp,
                        LM_MAX_ITERS,
                        LM_TOL,
                    )
                except NonFiniteResidual:
                    break
                lerrs = _reference_errors(corr, camera, local, clamp=True)
                lscore = float(np.minimum(lerrs * lerrs, thr_sq).sum())
                if lscore < score:
                    hyp, errs, score = local, lerrs, lscore
                    fit, fit_converged = mask, local_converged
        if score < best_score:
            best_score, best_pose, best_errs = score, hyp, errs
            best_fit, best_converged = fit, fit_converged
            tau = _reference_band(errs, inlier_px)
            q = float((errs < tau).mean()) ** MIN_CORRESPONDENCES
            if q >= 1.0:
                needed = i
            elif q > 1e-12:  # below that the bound exceeds max_iters anyway
                needed = min(
                    max_iters,
                    int(
                        math.ceil(
                            math.log(1.0 - RANSAC_CONFIDENCE) / math.log(1.0 - q)
                        )
                    ),
                )
    if best_pose is None:
        raise NoConsensus("every sample was degenerate")
    inliers = best_errs < tau
    if float(inliers.mean()) < MIN_INLIER_RATIO:
        raise NoConsensus(
            f"best hypothesis supports only {inliers.mean():.1%} of the data"
        )
    if best_converged and best_fit is not None and (inliers == best_fit).all():
        refined, converged = best_pose, True
    else:
        refined, converged = _reference_lm(
            corr.subset(np.flatnonzero(inliers)), camera, best_pose, LM_MAX_ITERS, LM_TOL
        )
    final_inliers = _reference_errors(corr, camera, refined, clamp=True) < tau
    if final_inliers.sum() >= MIN_CORRESPONDENCES:
        flip = _reference_flip(corr, camera, refined, final_inliers, tau)
        if flip is not None:
            refined, converged = flip
    final_errs = _reference_errors(corr, camera, refined, clamp=True)
    final_inliers = final_errs < tau
    count = int(final_inliers.sum())
    if count < MIN_CORRESPONDENCES:
        raise NoConsensus("refinement lost the inlier support")
    result = PnPResult(
        pose=refined,
        inlier_count=count,
        outlier_count=n - count,
        mean_reproj_err=float(final_errs[final_inliers].mean()),
        converged=converged,
    )
    return result, i
