"""Pseudo-label loop: selection rules, threshold gates, box refinement
against rendered ground truth, and round chaining."""

import numpy as np
import pytest

from artipose.camera import BBox, Pose, bbox_iou, project_points
from artipose.errors import (
    ConfigError,
    EmptySequence,
    InputError,
    NoConsensus,
    ParseError,
)
from artipose.pnp import CorrSet, PnPResult, pnp_ransac
from artipose.simulate import (
    DEFAULT_CAMERA,
    SceneConfig,
    generate_sequence,
    needle_holder_model,
    tweezers_model,
)
from artipose.tracking import Detection, run_tracker
from artipose.adaptation import (
    DEFAULT_MIXING_RATIO,
    FilterThresholds,
    PoseEstimate,
    RenderEstimator,
    adaptation_loop,
    adaptation_round,
    encode_estimate,
    filter_pose_labels,
    load_detections,
    load_estimates,
    refine_bbox,
    select_pseudo_frames,
    solve_object,
    square_crop,
    write_pseudo_labels,
)

MODELS = {0: needle_holder_model(), 1: tweezers_model()}


def det(frame, cx, cy, w=100.0, h=100.0, cls=0, conf=1.0):
    return Detection(frame_id=frame, class_id=cls, confidence=conf, bbox=BBox(cx=cx, cy=cy, w=w, h=h))


def label_record(frame_id, est):
    return encode_estimate(frame_id, est.class_id, est.class_confidence, est.articulation, est.pnp)


def fake_estimate(conf=0.95, outliers=0, inliers=80, reproj=0.5, art=0.3, cls=0):
    pose = Pose(R=np.eye(3), t=np.array([0.0, 0.0, 0.9]))
    return PoseEstimate(
        class_id=cls,
        class_confidence=conf,
        articulation=art,
        pnp=PnPResult(
            pose=pose,
            inlier_count=inliers,
            outlier_count=outliers,
            mean_reproj_err=reproj,
            converged=True,
        ),
    )


@pytest.fixture(scope="module")
def scene():
    frames = generate_sequence(
        SceneConfig(models=(MODELS[0], MODELS[1]), seed=42), 30
    )
    rng = np.random.default_rng(0)
    dets = []
    gt_boxes = {}
    for f in frames:
        for obj in f.objects:
            box = obj.bbox_amodal
            gt_boxes[(f.frame_id, obj.class_id)] = box
            cx = box.cx + rng.normal(0.0, 0.1 * box.w)
            cy = box.cy + rng.normal(0.0, 0.1 * box.h)
            w = box.w * (1.0 + rng.normal(0.0, 0.1))
            h = box.h * (1.0 + rng.normal(0.0, 0.1))
            dets.append(
                Detection(f.frame_id, obj.class_id, 1.0, BBox(cx=cx, cy=cy, w=max(w, 5.0), h=max(h, 5.0)))
            )
    return frames, dets, gt_boxes


@pytest.fixture(scope="module")
def clean_round(scene):
    frames, dets, gt_boxes = scene
    estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
    return adaptation_round(dets, estimator, MODELS, DEFAULT_CAMERA, FilterThresholds(), gt_boxes)


class TestSelection:
    def test_ten_frame_script(self):
        # present on frames 0-2 and 4-9; low confidence on 6, boundary
        # confidence on 8.  Streaks: 1 2 3 - 1 2 3 4 5 6
        conf = {6: 0.5, 8: 0.9}
        dets = [
            det(k, 200, 150, conf=conf.get(k, 0.95)) for k in range(10) if k != 3
        ]
        tracks = run_tracker(dets)
        picked = select_pseudo_frames(tracks, conf_min=0.9)
        assert [d.frame_id for d in picked] == [2, 7, 8, 9]

    def test_short_streak_excluded(self):
        tracks = run_tracker([det(0, 200, 150), det(1, 200, 150)])
        assert select_pseudo_frames(tracks, conf_min=0.0) == []

    def test_streak_of_three_with_boundary_confidence(self):
        tracks = run_tracker([det(k, 200, 150, conf=0.85) for k in range(3)])
        picked = select_pseudo_frames(tracks, conf_min=0.85)
        assert [d.frame_id for d in picked] == [2]


class TestFilter:
    def test_all_gates_pass(self):
        assert len(filter_pose_labels([(0, fake_estimate())], FilterThresholds())) == 1

    def test_each_gate_drops(self):
        thr = FilterThresholds()
        low_conf = fake_estimate(conf=0.5)
        many_outliers = fake_estimate(outliers=40, inliers=60)
        bad_reproj = fake_estimate(reproj=5.0)
        for est in (low_conf, many_outliers, bad_reproj):
            assert filter_pose_labels([(0, est)], thr) == []

    def test_boundaries_inclusive(self):
        est = fake_estimate(conf=0.85, outliers=25, inliers=75, reproj=3.0)
        assert len(filter_pose_labels([(0, est)], FilterThresholds())) == 1

    def test_subset_and_monotone(self):
        rng = np.random.default_rng(3)
        batch = [
            (
                k,
                fake_estimate(
                    conf=float(rng.uniform(0.5, 1.0)),
                    outliers=int(rng.integers(0, 50)),
                    inliers=int(rng.integers(50, 100)),
                    reproj=float(rng.uniform(0.0, 6.0)),
                ),
            )
            for k in range(60)
        ]
        base = FilterThresholds(conf_min=0.7, outlier_max_frac=0.3, reproj_max_px=4.0)
        kept = set(id(e) for _, e in filter_pose_labels(batch, base))
        assert kept <= set(id(e) for _, e in batch)
        tighter = [
            FilterThresholds(conf_min=0.8, outlier_max_frac=0.3, reproj_max_px=4.0),
            FilterThresholds(conf_min=0.7, outlier_max_frac=0.2, reproj_max_px=4.0),
            FilterThresholds(conf_min=0.7, outlier_max_frac=0.3, reproj_max_px=2.0),
        ]
        for thr in tighter:
            sub = set(id(e) for _, e in filter_pose_labels(batch, thr))
            assert sub <= kept

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            FilterThresholds(conf_min=1.5)
        with pytest.raises(ConfigError):
            FilterThresholds(reproj_max_px=0.0)


class TestSolveObject:
    @pytest.fixture
    def pairs(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(0.0, 0.1, size=(200, 3))
        pose = Pose(R=np.eye(3), t=np.array([0.0, 0.0, 0.9]))
        return CorrSet(pts, project_points(pts, pose, DEFAULT_CAMERA))

    def test_noise_and_solver_seeds(self, pairs):
        result, confidence = solve_object(pairs, DEFAULT_CAMERA, 2.0, 3, 5, 1)
        rng = np.random.default_rng([3, 5, 1])
        noisy = CorrSet(pairs.pts3d, pairs.pts2d + 2.0 * rng.standard_normal(pairs.pts2d.shape))
        direct = pnp_ransac(noisy, DEFAULT_CAMERA, seed=3 * 1000003 + 5 * 1009 + 1)
        np.testing.assert_array_equal(result.pose.R, direct.pose.R)
        np.testing.assert_array_equal(result.pose.t, direct.pose.t)
        assert confidence == direct.inlier_ratio < 1.0

    def test_zero_noise_leaves_pairs(self, pairs):
        result, confidence = solve_object(pairs, DEFAULT_CAMERA, 0.0, 3, 5, 1)
        direct = pnp_ransac(pairs, DEFAULT_CAMERA, seed=3 * 1000003 + 5 * 1009 + 1)
        np.testing.assert_array_equal(result.pose.R, direct.pose.R)
        assert confidence == 1.0 == direct.inlier_ratio


class TestRefineBbox:
    def test_zero_noise_recovers_gt_box(self, scene):
        frames, dets, gt_boxes = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        d = dets[10]
        box, est = refine_bbox(d, estimator, MODELS[d.class_id], DEFAULT_CAMERA)
        assert est is estimator(d.frame_id, d.bbox, d.class_id)
        gt = gt_boxes[(d.frame_id, d.class_id)]
        for got, want in ((box.cx, gt.cx), (box.cy, gt.cy), (box.w, gt.w), (box.h, gt.h)):
            assert got == pytest.approx(want, abs=1.0)

    def test_estimator_failure_keeps_box(self):
        def broken(frame_id, crop, class_id):
            raise NoConsensus("no support")

        d = det(0, 200, 150)
        box, est = refine_bbox(d, broken, MODELS[0], DEFAULT_CAMERA)
        assert box == d.bbox
        assert est is None

    def test_refined_box_inside_image(self, scene):
        frames, dets, gt_boxes = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        for d in dets[:8]:
            box, _ = refine_bbox(d, estimator, MODELS[d.class_id], DEFAULT_CAMERA)
            assert box.x0 >= 0.0
            assert box.y0 >= 0.0
            assert box.x1 <= DEFAULT_CAMERA.width
            assert box.y1 <= DEFAULT_CAMERA.height

    def test_missing_gt_propagates(self, scene):
        frames, dets, gt_boxes = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        with pytest.raises(InputError):
            refine_bbox(det(999, 200, 150), estimator, MODELS[0], DEFAULT_CAMERA)


class TestRenderEstimatorReuse:
    def test_repeated_request_skips_the_solve(self, scene, monkeypatch):
        import artipose.adaptation as adaptation

        frames, dets, _ = scene
        calls = []
        solve = adaptation.pnp_ransac
        monkeypatch.setattr(
            adaptation, "pnp_ransac", lambda *a, **k: calls.append(a) or solve(*a, **k)
        )
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA, 0.5)
        d = dets[10]
        first = estimator(d.frame_id, d.bbox, d.class_id)
        same_box = BBox(cx=d.bbox.cx, cy=d.bbox.cy, w=d.bbox.w, h=d.bbox.h)
        assert estimator(d.frame_id, same_box, d.class_id) is first
        assert len(calls) == 1
        estimator(d.frame_id, square_crop(d.bbox), d.class_id)
        assert len(calls) == 2
        # a fresh estimator computes the reused answer anew, bit for bit
        fresh = RenderEstimator(frames, MODELS, DEFAULT_CAMERA, 0.5)
        again = fresh(d.frame_id, d.bbox, d.class_id)
        assert len(calls) == 3
        np.testing.assert_array_equal(again.pose.R, first.pose.R)
        np.testing.assert_array_equal(again.pose.t, first.pose.t)
        assert again.class_confidence == first.class_confidence


class TestRound:
    def test_zero_noise_round(self, clean_round):
        detection_labels, pose_labels, metrics = clean_round
        assert metrics.selection_rate == 1.0
        assert metrics.n_refine_failed == 0
        assert metrics.mean_refined_iou >= 0.95
        assert metrics.n_pose_labels == metrics.n_selected == len(pose_labels)
        assert len(detection_labels) == metrics.n_selected
        assert all(lab.refined for lab in detection_labels)

    def test_refinement_beats_jittered_input(self, scene):
        frames, dets, gt_boxes = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA, 0.5)
        _, _, metrics = adaptation_round(
            dets, estimator, MODELS, DEFAULT_CAMERA, FilterThresholds(), gt_boxes
        )
        assert metrics.n_selected >= 50
        assert metrics.mean_refined_iou > metrics.mean_input_iou

    def test_low_confidence_detections_yield_nothing(self, scene):
        frames, dets, gt_boxes = scene
        weak = [Detection(d.frame_id, d.class_id, 0.5, d.bbox) for d in dets]
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        detection_labels, pose_labels, metrics = adaptation_round(weak, estimator, MODELS, DEFAULT_CAMERA)
        assert detection_labels == []
        assert pose_labels == []
        assert metrics.selection_rate == 0.0

    def test_empty_sequence(self):
        estimator = RenderEstimator([], MODELS, DEFAULT_CAMERA)
        with pytest.raises(EmptySequence):
            adaptation_round([], estimator, MODELS, DEFAULT_CAMERA)

    def test_reproducible(self, scene, clean_round):
        frames, dets, gt_boxes = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        labels2, _, metrics2 = adaptation_round(
            dets, estimator, MODELS, DEFAULT_CAMERA, FilterThresholds(), gt_boxes
        )
        labels1, _, metrics1 = clean_round
        assert metrics1 == metrics2
        assert labels1 == labels2


class TestLoop:
    def test_two_rounds_chain(self, scene):
        frames, dets, gt_boxes = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        results = adaptation_loop(
            dets, estimator, MODELS, DEFAULT_CAMERA, rounds=2, gt_boxes=gt_boxes
        )
        assert len(results) == 2
        for _, _, metrics in results:
            assert metrics.mean_refined_iou >= 0.95
        assert results[1][2].n_selected > 0
        # round 2 runs on round 1's detection labels as they are
        again = adaptation_round(results[0][0], estimator, MODELS, DEFAULT_CAMERA, gt_boxes=gt_boxes)
        assert again[0] == results[1][0]
        assert again[2] == results[1][2]

    def test_rounds_validated(self, scene):
        frames, dets, _ = scene
        estimator = RenderEstimator(frames, MODELS, DEFAULT_CAMERA)
        with pytest.raises(ConfigError):
            adaptation_loop(dets, estimator, MODELS, DEFAULT_CAMERA, rounds=0)


class TestIO:
    def test_manifest_written(self, clean_round, tmp_path):
        detection_labels, pose_labels, _ = clean_round
        path = tmp_path / "labels.json"
        thresholds = FilterThresholds()
        write_pseudo_labels(path, detection_labels, pose_labels, thresholds, DEFAULT_MIXING_RATIO)
        import json

        payload = json.loads(path.read_text())
        assert payload["mixing_ratio"] == DEFAULT_MIXING_RATIO
        assert payload["thresholds"]["conf_min"] == thresholds.conf_min
        assert len(payload["detection_labels"]) == len(detection_labels)
        assert len(payload["pose_labels"]) == len(pose_labels)
        rec = payload["pose_labels"][0]
        assert len(rec["R"]) == 9
        assert len(rec["t_mm"]) == 3

    def test_file_estimator_roundtrip(self, clean_round, tmp_path):
        # pose labels written as estimate lines load back as the estimates
        import json

        _, pose_labels, _ = clean_round
        path = tmp_path / "estimates.jsonl"
        lines = [json.dumps(label_record(f, e)) for f, e in pose_labels]
        path.write_text("\n".join(lines) + "\n")
        loaded = load_estimates(path)
        assert len(loaded) == len(pose_labels)
        frame_id, want = pose_labels[0]
        got = loaded[(frame_id, want.class_id)]
        assert np.abs(got.pose.t - want.pose.t).max() < 1e-12
        assert got.class_confidence == want.class_confidence
        assert got.pnp.inlier_count == want.pnp.inlier_count
        assert (10_000, 0) not in loaded

    def test_estimate_pose_is_the_solve_pose(self):
        # one pose per estimate: what refine_bbox renders is what the label writes
        est = fake_estimate()
        assert est.pose is est.pnp.pose
        with pytest.raises(TypeError):
            PoseEstimate(pose=est.pose, class_id=0, class_confidence=0.9, articulation=0.3, pnp=est.pnp)

    def test_file_estimator_bad_line(self, tmp_path):
        path = tmp_path / "estimates.jsonl"
        path.write_text('{"frame_id": 0}\n')
        with pytest.raises(ParseError, match=":1:"):
            load_estimates(path)

    def test_repeated_estimate_rejected(self, tmp_path):
        import json

        line = json.dumps(label_record(3, fake_estimate()))
        other = json.dumps(label_record(4, fake_estimate()))
        path = tmp_path / "estimates.jsonl"
        path.write_text("\n".join([line, other, "", line]) + "\n")
        with pytest.raises(ParseError, match=r":4: second estimate for frame 3 class 0, first on line 1"):
            load_estimates(path)

    def test_pose_labels_round_trip_bytes(self, clean_round, tmp_path):
        # a pose label decodes to an estimate that encodes to the same bytes
        import json

        detection_labels, pose_labels, _ = clean_round
        write_pseudo_labels(
            tmp_path / "labels.json", detection_labels, pose_labels, FilterThresholds(), DEFAULT_MIXING_RATIO
        )
        entries = json.loads((tmp_path / "labels.json").read_text())["pose_labels"]
        assert entries
        path = tmp_path / "estimates.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))
        loaded = load_estimates(path)
        again = [label_record(e["frame_id"], loaded[(e["frame_id"], e["class"])]) for e in entries]
        assert json.dumps(again, sort_keys=True) == json.dumps(entries, sort_keys=True)

    def test_detections_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "dets.jsonl"
        rows = [
            {"frame_id": 0, "class": 1, "confidence": 0.9, "bbox": [100.0, 80.0, 40.0, 30.0]},
            {"frame_id": 1, "class": 0, "confidence": 1.0, "bbox": [200.0, 90.0, 50.0, 35.0]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        dets = load_detections(path)
        assert len(dets) == 2
        assert dets[0].class_id == 1
        assert dets[0].bbox == BBox(cx=100.0, cy=80.0, w=40.0, h=30.0)

    def test_detections_bad_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_text('{"frame_id": 0, "class": 0}\n')
        with pytest.raises(ParseError, match=":1:"):
            load_detections(path)


class TestSquareCrop:
    def test_square_and_scaled(self):
        crop = square_crop(BBox(cx=100, cy=80, w=60, h=40))
        assert crop.w == crop.h == pytest.approx(66.0)
        assert crop.cx == 100 and crop.cy == 80
