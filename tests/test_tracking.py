"""Tracker behavior: association, streak bookkeeping, drop policy, and
prediction quality on moving boxes."""

import numpy as np
import pytest

from artipose.camera import BBox, bbox_iou
import artipose.tracking as tracking
from artipose.tracking import MAX_MISSED, Detection, run_tracker, tracker_step


def det(frame, cx, cy, w=100.0, h=100.0, cls=0, conf=1.0):
    return Detection(frame_id=frame, class_id=cls, confidence=conf, bbox=BBox(cx=cx, cy=cy, w=w, h=h))


class TestParams:
    def test_confidence_range(self):
        with pytest.raises(ValueError):
            det(0, 100, 100, conf=1.2)


class TestStep:
    def test_static_box_builds_streak(self):
        tracks = run_tracker([det(k, 200, 150) for k in range(3)])
        assert len(tracks) == 1
        assert tracks[0].hit_streak == 3
        assert tracks[0].age == 3
        assert [h.hit_streak for h in tracks[0].hits] == [1, 2, 3]

    def test_two_distant_boxes_two_tracks(self):
        dets = []
        for k in range(3):
            dets.append(det(k, 100, 100))
            dets.append(det(k, 500, 300))
        tracks = run_tracker(dets)
        assert len(tracks) == 2
        assert all(t.hit_streak == 3 for t in tracks)

    def test_same_spot_different_class_not_associated(self):
        dets = [det(0, 100, 100, cls=0), det(1, 100, 100, cls=1)]
        tracks = run_tracker(dets)
        assert len(tracks) == 2

    def test_mixed_frames_rejected(self):
        with pytest.raises(ValueError):
            tracker_step([], [det(0, 100, 100), det(1, 100, 100)])

    def test_miss_resets_streak_but_keeps_track(self):
        dets = [det(k, 200, 150) for k in (0, 1, 2)] + [det(k, 200, 150) for k in (4, 5, 6)]
        live = []
        next_id = 0
        by_frame = {k: [] for k in range(7)}
        for d in dets:
            by_frame[d.frame_id].append(d)
        streaks = {}
        for k in range(7):
            live, _, next_id = tracker_step(live, by_frame[k], next_id=next_id)
            streaks[k] = [t.hit_streak for t in live]
        assert streaks[2] == [3]
        assert streaks[3] == [0]
        assert streaks[4] == [1]
        assert streaks[6] == [3]
        assert next_id == 1

    def test_dropped_after_three_misses(self):
        live, _, next_id = tracker_step([], [det(0, 200, 150)])
        dropped_total = []
        for _ in range(3):
            live, dropped, next_id = tracker_step(live, [], next_id=next_id)
            dropped_total.extend(dropped)
        assert live == []
        assert len(dropped_total) == 1
        assert dropped_total[0].missed == 3

    def test_greedy_prefers_highest_iou(self):
        # track A sits at x=100, track B at x=140; the detection at x=110
        # overlaps A more, so B must take the one at x=150
        live, _, next_id = tracker_step([], [det(0, 100, 100), det(0, 140, 100)])
        a, b = live
        live, _, _ = tracker_step(live, [det(1, 110, 100), det(1, 150, 100)], next_id=next_id)
        assert a.bbox().cx == pytest.approx(110, abs=2.0)
        assert b.bbox().cx == pytest.approx(150, abs=2.0)

    def test_streak_never_exceeds_age(self):
        rng = np.random.default_rng(4)
        dets = []
        for k in range(30):
            if rng.random() < 0.8:
                dets.append(det(k, 200 + rng.uniform(-3, 3), 150 + rng.uniform(-3, 3)))
        tracks = run_tracker(dets)
        for t in tracks:
            assert t.hit_streak <= t.age
            frame_ids = [h.detection.frame_id for h in t.hits]
            assert frame_ids == sorted(frame_ids)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        dets = []
        for k in range(20):
            dets.append(det(k, 150 + 2 * k, 100, cls=0, conf=float(rng.uniform(0.5, 1.0))))
            dets.append(det(k, 450, 300 - k, cls=1))
        a = run_tracker(dets)
        b = run_tracker(dets)
        assert [(t.track_id, t.hit_streak, t.age) for t in a] == [
            (t.track_id, t.hit_streak, t.age) for t in b
        ]


class TestPrediction:
    def test_constant_velocity_box_predicted_well(self):
        # box drifts 5 px/frame; after warm-up the one-step prediction
        # must stay close to the incoming detection
        live = []
        next_id = 0
        ious = []
        for k in range(12):
            d = det(k, 100 + 5 * k, 200)
            if k >= 2:
                preds = [t.predicted_bbox() for t in live]
                ious.append(max(bbox_iou(p, d.bbox) for p in preds))
            live, _, next_id = tracker_step(live, [d], next_id=next_id)
        assert len(live) == 1
        assert min(ious) > 0.8
        assert live[0].hit_streak == 12


def frame_by_frame(dets):
    """Reference tracker: one step for every frame id from first to last."""
    by_frame = {}
    for d in dets:
        by_frame.setdefault(d.frame_id, []).append(d)
    live, finished, next_id = [], [], 0
    for k in range(min(by_frame), max(by_frame) + 1):
        live, dropped, next_id = tracker_step(live, by_frame.get(k, []), next_id)
        finished.extend(dropped)
    return finished + live


def hit_summary(tracks):
    return [
        (t.track_id, t.hit_streak, t.age, t.missed, t.mean.tolist(), [(h.detection, h.hit_streak) for h in t.hits])
        for t in tracks
    ]


class TestGaps:
    def test_long_gap_is_skipped(self, monkeypatch):
        calls = []
        step = tracking.tracker_step
        monkeypatch.setattr(tracking, "tracker_step", lambda *a: calls.append(a) or step(*a))
        tracks = run_tracker([det(0, 200, 150), det(100_000, 200, 150)])
        assert len(calls) <= 10
        assert [t.track_id for t in tracks] == [0, 1]
        assert tracks[0].missed == MAX_MISSED

    def test_small_gaps_match_frame_by_frame(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            frames = sorted(rng.choice(40, size=12, replace=False))
            dets = [
                det(int(k), 200 + rng.uniform(-5, 5), 150 + rng.uniform(-5, 5), cls=int(rng.integers(2)))
                for k in frames
            ]
            assert hit_summary(run_tracker(dets)) == hit_summary(frame_by_frame(dets))
