"""Tests for the occlusion-aware AP metrics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from artipose.adaptation import load_detections, load_estimates
from artipose.camera import BBox
from artipose.errors import InputError, NoAnnotations, ParseError
from artipose.formats import read_mask_pgm, write_mask_pgm
from artipose.metrics import (
    APReport,
    FrameAnnotation,
    IOU_THRESHOLDS,
    Matches,
    _class_ap,
    _interpolated_ap,
    iter_annotations,
    mask_iou,
    mean_ap,
    occlusion_subtract,
    visibility_fraction,
)
from artipose.raster import MaskImage

W, H = 160, 120


def mask_from_rect(x0, y0, w, h):
    data = np.zeros((H, W), dtype=np.uint8)
    data[y0 : y0 + h, x0 : x0 + w] = 1
    return MaskImage(W, H, data)


def empty_mask():
    return MaskImage(W, H, np.zeros((H, W), dtype=np.uint8))


def matches(predictions, annotations):
    """A matcher fed (frame_id, class_id, confidence, mask) predictions in
    input order: the annotated frames streamed in order, then the rest."""
    by_frame = {}
    for order, (fid, cls, confidence, mask) in enumerate(predictions):
        by_frame.setdefault(fid, []).append((order, cls, confidence, mask))
    m = Matches()
    for ann in annotations:
        m.add(ann.frame_id, by_frame.pop(ann.frame_id, []), ann)
    for fid, preds in by_frame.items():
        m.add(fid, preds)
    return m


def class_ap(predictions, annotations, class_id):
    """Pose AP of one class."""
    return matches(predictions, annotations).pose.class_ap(class_id)


def frame(frame_id, tools, hand=None, visible=None, amodal=None):
    return FrameAnnotation(
        frame_id=frame_id,
        tool_masks=tools,
        hand_mask=hand if hand is not None else empty_mask(),
        visible_masks=visible if visible is not None else {},
        amodal_masks=amodal if amodal is not None else {},
    )


class TestMaskOps:
    def test_subtract_empty_hand_is_identity(self):
        tool = mask_from_rect(10, 10, 40, 30)
        out = occlusion_subtract(tool, empty_mask())
        np.testing.assert_array_equal(out.data, tool.data)

    def test_subtract_covering_hand_empties(self):
        tool = mask_from_rect(10, 10, 40, 30)
        hand = mask_from_rect(0, 0, 100, 100)
        assert occlusion_subtract(tool, hand).pixel_count() == 0

    def test_subtract_disjoint_with_hand(self):
        rng = np.random.default_rng(0)
        tool = MaskImage(W, H, (rng.uniform(size=(H, W)) > 0.5).astype(np.uint8))
        hand = MaskImage(W, H, (rng.uniform(size=(H, W)) > 0.7).astype(np.uint8))
        out = occlusion_subtract(tool, hand)
        assert int((out.data & hand.data).sum()) == 0

    def test_iou_identical(self):
        m = mask_from_rect(5, 5, 30, 30)
        assert mask_iou(m, m) == 1.0

    def test_iou_disjoint(self):
        assert mask_iou(mask_from_rect(0, 0, 10, 10), mask_from_rect(50, 50, 10, 10)) == 0.0

    def test_iou_both_empty(self):
        assert mask_iou(empty_mask(), empty_mask()) == 1.0

    def test_iou_half_shifted_square(self):
        a = mask_from_rect(0, 0, 100, 100)
        b = mask_from_rect(50, 0, 100, 100)
        assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_visibility_unoccluded(self):
        m = mask_from_rect(0, 0, 20, 20)
        assert visibility_fraction(m, m) == 1.0

    def test_visibility_half(self):
        amodal = mask_from_rect(0, 0, 40, 20)
        visible = mask_from_rect(0, 0, 20, 20)
        assert visibility_fraction(visible, amodal) == pytest.approx(0.5)

    def test_visibility_empty_amodal(self):
        assert visibility_fraction(empty_mask(), empty_mask()) == 0.0


class TestMeanAp:
    def test_two_class_table_row(self):
        m = mean_ap({0: 0.784, 1: 0.805})
        assert m == pytest.approx(0.7945)
        assert abs(m - 0.795) <= 5.1e-4

    def test_refinement_row(self):
        assert mean_ap([0.841, 0.877]) == pytest.approx(0.859)

    def test_single_class(self):
        assert mean_ap({1: 0.42}) == 0.42

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ap({})


class TestApOverThresholds:
    def test_threshold_list_is_the_published_one(self):
        assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def test_perfect_predictions(self):
        annotations = []
        predictions = []
        for fid in range(5):
            tool = mask_from_rect(10 + fid, 10, 40, 30)
            annotations.append(frame(fid, {0: tool}))
            predictions.append((fid, 0, 0.9, tool))
        assert class_ap(predictions, annotations, 0) == 1.0

    def test_no_predictions(self):
        annotations = [frame(0, {0: mask_from_rect(10, 10, 40, 30)})]
        assert class_ap([], annotations, 0) == 0.0

    def test_single_iou_072_scores_half(self):
        gt = mask_from_rect(10, 10, 100, 50)
        pred = mask_from_rect(10, 10, 72, 50)  # subset: IoU 3600/5000 = 0.72
        annotations = [frame(0, {0: gt})]
        preds = [(0, 0, 0.8, pred)]
        assert class_ap(preds, annotations, 0) == pytest.approx(0.5)

    def test_missing_class_raises(self):
        annotations = [frame(0, {0: mask_from_rect(10, 10, 40, 30)})]
        with pytest.raises(NoAnnotations):
            class_ap([], annotations, 1)

    def test_hand_pixels_do_not_count(self):
        gt = mask_from_rect(10, 10, 40, 30)
        hand = mask_from_rect(10, 10, 20, 30)
        # prediction misses exactly the hand-covered part
        pred = mask_from_rect(30, 10, 20, 30)
        annotations = [frame(0, {0: gt}, hand=hand)]
        preds = [(0, 0, 0.9, pred)]
        assert class_ap(preds, annotations, 0) == 1.0
        # without the hand the same prediction covers half the mask:
        # IoU is exactly 0.5, which qualifies only at the first threshold
        assert class_ap(preds, [frame(0, {0: gt})], 0) == pytest.approx(0.1)

    def test_low_visibility_gt_removed_and_matches_ignored(self):
        amodal = mask_from_rect(10, 10, 50, 20)
        visible = mask_from_rect(10, 10, 4, 20)  # 8% visible
        good = mask_from_rect(80, 40, 30, 20)
        annotations = [
            frame(0, {0: amodal}, visible={0: visible}, amodal={0: amodal}),
            frame(1, {0: good}, visible={0: good}, amodal={0: good}),
        ]
        preds = [(0, 0, 0.95, amodal), (1, 0, 0.90, good)]
        # the confident hit on the removed instance must not poison AP
        assert class_ap(preds, annotations, 0) == 1.0

    def test_stray_prediction_is_false_positive(self):
        good = mask_from_rect(80, 40, 30, 20)
        annotations = [frame(0, {0: good})]
        preds = [(0, 0, 0.99, mask_from_rect(0, 0, 10, 10)), (0, 0, 0.90, good)]
        ap = class_ap(preds, annotations, 0)
        # one FP ranked above the TP: precision at full recall is 1/2
        assert 0.0 < ap < 1.0

    def test_erosion_never_helps(self):
        rng = np.random.default_rng(1)
        annotations = []
        base_preds = []
        for fid in range(4):
            x0 = int(rng.integers(5, 60))
            y0 = int(rng.integers(5, 40))
            tool = mask_from_rect(x0, y0, 50, 40)
            annotations.append(frame(fid, {0: tool}))
            base_preds.append(tool)
        aps = []
        for radius in (0, 1, 2, 3):
            preds = []
            for fid, mask in enumerate(base_preds):
                data = mask.data.astype(bool)
                if radius:
                    data = ndimage.binary_erosion(data, iterations=radius)
                preds.append((fid, 0, 0.9, MaskImage(W, H, data.astype(np.uint8))))
            aps.append(class_ap(preds, annotations, 0))
        assert aps[0] == 1.0
        assert all(aps[i] >= aps[i + 1] for i in range(len(aps) - 1))


@st.composite
def windowed(draw, full):
    """``full`` as a mask over a random window that holds its set pixels."""
    h, w = full.shape
    rows = np.flatnonzero(full.any(axis=1))
    cols = np.flatnonzero(full.any(axis=0))
    y_lo, y_hi = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (h, 0)
    x_lo, x_hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (w, 0)
    y0 = draw(st.integers(0, y_lo))
    y1 = draw(st.integers(max(y0, y_hi), h))
    x0 = draw(st.integers(0, x_lo))
    x1 = draw(st.integers(max(x0, x_hi), w))
    return MaskImage(w, h, full[y0:y1, x0:x1], x0, y0)


SHAPE = (9, 13)
bits = arrays(np.uint8, SHAPE, elements=st.integers(0, 1))


class TestWindowedMasks:
    """Mask operations on windows give the full-frame results exactly."""

    @settings(max_examples=200, deadline=None)
    @given(a=bits, b=bits, data=st.data())
    def test_iou_subtract_visibility(self, a, b, data):
        wa = data.draw(windowed(a))
        wb = data.draw(windowed(b))
        fa = MaskImage(SHAPE[1], SHAPE[0], a)
        fb = MaskImage(SHAPE[1], SHAPE[0], b)
        assert mask_iou(wa, wb) == mask_iou(fa, fb)
        sub = occlusion_subtract(wa, wb)
        assert sub.window == wa.window
        np.testing.assert_array_equal(sub.full(), occlusion_subtract(fa, fb).data)
        assert visibility_fraction(wa, wb) == visibility_fraction(fa, fb)
        assert wa.bbox() == fa.bbox()
        assert wa.pixel_count() == fa.pixel_count()

    def test_masks_of_other_images_rejected(self):
        small = MaskImage(4, 4, np.zeros((0, 0), dtype=np.uint8))
        with pytest.raises(ValueError):
            mask_iou(small, empty_mask())
        with pytest.raises(ValueError):
            occlusion_subtract(small, empty_mask())


class TestStreamedMatches:
    def test_frames_in_any_order_give_the_same_ap(self):
        # frame-by-frame matching keeps the input order as the tie-break
        # among equal confidences, whatever order the frames come in
        rng = np.random.default_rng(5)
        annotations = []
        preds = []
        for fid in range(6):
            tool = mask_from_rect(int(rng.integers(5, 60)), int(rng.integers(5, 40)), 50, 40)
            hand = mask_from_rect(int(rng.integers(0, 100)), int(rng.integers(0, 80)), 30, 30)
            annotations.append(frame(fid, {0: tool}, hand=hand))
            for _ in range(2):
                shifted = np.roll(tool.data, int(rng.integers(-8, 9)), axis=1)
                preds.append((fid, 0, 0.5, MaskImage(W, H, shifted)))
        # a prediction on a frame without annotation is a false positive
        preds.insert(3, (9, 0, 0.5, mask_from_rect(0, 0, 5, 5)))
        ap = class_ap(preds, annotations, 0)
        assert ap == class_ap(preds, annotations[::-1], 0)
        assert 0.0 < ap < class_ap(preds[:3] + preds[4:], annotations, 0)

    def test_frame_annotated_twice_rejected(self):
        annotations = [frame(0, {0: mask_from_rect(0, 0, 5, 5)})] * 2
        with pytest.raises(InputError, match="twice"):
            matches([], annotations)


class TestPoseReport:
    def test_two_class_report(self):
        t0 = mask_from_rect(10, 10, 40, 30)
        t1 = mask_from_rect(90, 60, 40, 30)
        annotations = [frame(0, {0: t0, 1: t1})]
        preds = [(0, 0, 0.9, t0), (0, 1, 0.9, t1)]
        report = matches(preds, annotations).pose.report()
        assert report.per_class_ap == {0: 1.0, 1: 1.0}
        assert report.mean_ap == 1.0
        assert report.thresholds == IOU_THRESHOLDS

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            APReport(per_class_ap={0: 1.0}, mean_ap=0.5, thresholds=IOU_THRESHOLDS)


class TestDetectionAp:
    """Box AP: each rendered mask's box against the amodal mask's box."""

    def test_perfect_boxes(self):
        annotations = []
        preds = []
        for fid in range(3):
            amodal = mask_from_rect(35 + fid, 30, 30, 20)
            annotations.append(frame(fid, {0: amodal}, amodal={0: amodal}))
            preds.append((fid, 0, 0.9, amodal))
        assert matches(preds, annotations).detection.report().mean_ap == 1.0

    def test_shifted_by_full_width(self):
        amodal = mask_from_rect(35, 30, 30, 20)
        annotations = [frame(0, {0: amodal}, amodal={0: amodal})]
        preds = [(0, 0, 0.9, mask_from_rect(65, 30, 30, 20))]
        assert matches(preds, annotations).detection.report().mean_ap == 0.0

    def test_half_overlap_below_every_threshold(self):
        amodal = mask_from_rect(35, 30, 30, 20)
        annotations = [frame(0, {0: amodal}, amodal={0: amodal})]
        preds = [(0, 0, 0.9, mask_from_rect(50, 30, 30, 20))]  # box IoU 1/3
        assert matches(preds, annotations).detection.report().mean_ap == 0.0

    def test_empty_gt_raises(self):
        with pytest.raises(NoAnnotations, match="no ground-truth boxes"):
            Matches().detection.report()
        # tool masks without amodal masks annotate no box
        annotations = [frame(0, {0: mask_from_rect(35, 30, 30, 20)})]
        with pytest.raises(NoAnnotations, match="no ground-truth boxes"):
            matches([], annotations).detection.report()

    def test_removed_instance_is_ignored(self):
        amodal = mask_from_rect(10, 10, 50, 20)
        visible = mask_from_rect(10, 10, 4, 20)  # 8% visible
        good = mask_from_rect(80, 40, 30, 20)
        annotations = [
            frame(0, {0: visible}, visible={0: visible}, amodal={0: amodal}),
            frame(1, {0: good}, visible={0: good}, amodal={0: good}),
        ]
        m = matches([(0, 0, 0.95, amodal), (1, 0, 0.90, good)], annotations)
        assert m.detection.gt[0] == {0: True, 1: False}
        # an exact box on the removed instance, ranked first, is neither a
        # hit nor a false positive
        assert m.detection.class_ap(0) == 1.0

    def test_one_add_fills_both_tallies(self):
        # the hand hides the right part of the tool; the prediction covers
        # only the visible part, so its hand-free mask is exact while its
        # box overlaps the amodal box by 40/100
        visible = mask_from_rect(10, 10, 40, 30)
        amodal = mask_from_rect(10, 10, 100, 30)
        hand = mask_from_rect(50, 10, 60, 30)
        ann = frame(0, {0: visible}, hand=hand, visible={0: visible}, amodal={0: amodal})
        m = Matches()
        m.add(0, [(0, 0, 0.9, visible)], ann)
        assert m.frames == {0}
        assert m.pose.preds[0] == [(0, 0.9, 0, 1.0)]
        assert m.detection.preds[0] == [(0, 0.9, 0, pytest.approx(0.4))]
        assert m.pose.report().mean_ap == 1.0
        assert m.detection.report().mean_ap == 0.0


def _reference_class_ap(preds, gt_frames, thresholds, iou_fn):
    """The matcher before IoUs were precomputed: any number of
    annotations per frame, each a (payload, removed) pair, matched
    through ``iou_fn``.  Kept as the oracle for ``_class_ap``."""
    npos = sum(
        1 for entries in gt_frames.values() for _, removed in entries if not removed
    )
    order = sorted(range(len(preds)), key=lambda i: -preds[i][0])
    candidates = []
    for i in order:
        _, fid, payload = preds[i]
        cand = [
            (iou_fn(payload, gt_payload), removed, ann_idx, fid)
            for ann_idx, (gt_payload, removed) in enumerate(gt_frames.get(fid, []))
        ]
        cand.sort(key=lambda c: (-c[0], c[2]))
        candidates.append(cand)
    total = 0.0
    for tau in thresholds:
        matched = set()
        flags = []
        for cand in candidates:
            hit = None
            ignore = False
            for iou, removed, ann_idx, fid in cand:
                if iou < tau:
                    break
                if removed:
                    ignore = True
                    continue
                if (fid, ann_idx) in matched:
                    continue
                hit = (fid, ann_idx)
                break
            if hit is not None:
                matched.add(hit)
                flags.append(1)
            elif ignore:
                flags.append(None)
            else:
                flags.append(0)
        total += _interpolated_ap(flags, npos)
    return total / len(thresholds)


@st.composite
def one_class_matches(draw):
    """Frames with at most one instance each, some removed, and
    predictions with tied confidences; IoU is None off annotated frames."""
    n_frames = draw(st.integers(1, 6))
    gt = {
        fid: draw(st.booleans())
        for fid in range(n_frames)
        if draw(st.booleans())
    }
    ious = st.one_of(st.sampled_from((0.0, 1.0) + IOU_THRESHOLDS), st.floats(0.0, 1.0))
    preds = []
    for _ in range(draw(st.integers(0, 12))):
        fid = draw(st.integers(0, n_frames - 1))
        confidence = draw(st.sampled_from((0.3, 0.5, 0.7, 0.9, 1.0)))
        preds.append((confidence, fid, draw(ious) if fid in gt else None))
    return preds, gt


class TestClassApEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(case=one_class_matches())
    def test_matches_the_reference_matcher(self, case):
        preds, gt = case
        reference = _reference_class_ap(
            preds,
            {fid: [(None, removed)] for fid, removed in gt.items()},
            IOU_THRESHOLDS,
            lambda iou, _: iou,
        )
        assert _class_ap(preds, gt, IOU_THRESHOLDS) == reference


class TestIo:
    def test_bundle_round_trip(self, tmp_path):
        tool = mask_from_rect(10, 10, 40, 30)
        hand = mask_from_rect(20, 10, 10, 30)
        write_mask_pgm(tool, tmp_path / "tool0.pgm")
        write_mask_pgm(hand, tmp_path / "hand0.pgm")
        index = {
            "frames": [
                {
                    "frame_id": 0,
                    "masks": {"0": "tool0.pgm"},
                    "amodal": {"0": "tool0.pgm"},
                    "hand_mask": "hand0.pgm",
                }
            ]
        }
        (tmp_path / "annotations.json").write_text(json.dumps(index))
        annotations = list(iter_annotations(tmp_path / "annotations.json"))
        preds = [(0, 0, 0.9, read_mask_pgm(tmp_path / "tool0.pgm"))]
        assert len(annotations) == 1
        assert annotations[0].tool_masks[0].pixel_count() == tool.pixel_count()
        assert class_ap(preds, annotations, 0) == 1.0

    def test_bbox_prediction_lines(self, tmp_path):
        line = {"frame_id": 2, "class": 1, "confidence": 0.5, "bbox": [10.0, 20.0, 5.0, 5.0]}
        p = tmp_path / "boxes.jsonl"
        p.write_text(json.dumps(line) + "\n")
        recs = load_detections(p)
        assert recs[0].bbox == BBox(cx=10.0, cy=20.0, w=5.0, h=5.0)

    def test_malformed_index_raises(self, tmp_path):
        p = tmp_path / "annotations.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            list(iter_annotations(p))

    def test_malformed_prediction_line_raises(self, tmp_path):
        p = tmp_path / "predictions.jsonl"
        p.write_text('{"frame_id": 0}\n')
        with pytest.raises(ParseError):
            load_estimates(p)
