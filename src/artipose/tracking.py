"""Box tracking over detection sequences.

A constant-velocity Kalman filter per track plus greedy IoU association,
SORT-style: the IoU gate (``IOU_GATE``) and the number of missed frames
that drops a track (``MAX_MISSED``) are fixed constants.  Downstream
selection only needs consecutive-hit streaks and confidences, not
identity across occlusions.
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import BBox, bbox_iou

IOU_GATE = 0.3
MAX_MISSED = 3
STREAK_MIN = 3

# state is [cx, cy, w, h, vcx, vcy, vw, vh]; box coordinates in pixels
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)
_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1000.0, 1000.0, 1000.0, 1000.0])
_Q = np.diag([1.0, 1.0, 1.0, 1.0, 0.01, 0.01, 0.01, 0.01])
_R = np.diag([1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class Detection:
    """One box on one frame: a detector output, or a detection label,
    whose ``refined`` tells whether a pose reprojection tightened it."""

    frame_id: int
    class_id: int
    confidence: float
    bbox: BBox
    refined: bool = False

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class TrackHit:
    """A matched detection together with the streak length it produced."""

    detection: Detection
    hit_streak: int


@dataclass
class Track:
    track_id: int
    class_id: int
    mean: np.ndarray
    cov: np.ndarray
    hit_streak: int = 1
    age: int = 1
    missed: int = 0
    hits: list = field(default_factory=list)

    def predicted_bbox(self) -> BBox:
        m = _F @ self.mean
        return _state_bbox(m)

    def bbox(self) -> BBox:
        return _state_bbox(self.mean)


def _state_bbox(m: np.ndarray) -> BBox:
    w = max(float(m[2]), 1e-6)
    h = max(float(m[3]), 1e-6)
    return BBox(cx=float(m[0]), cy=float(m[1]), w=w, h=h)


def _box_vec(box: BBox) -> np.ndarray:
    return np.array([box.cx, box.cy, box.w, box.h])


def _kalman_predict(track: Track) -> None:
    track.mean = _F @ track.mean
    track.cov = _F @ track.cov @ _F.T + _Q


def _kalman_update(track: Track, box: BBox) -> None:
    z = _box_vec(box)
    S = _H @ track.cov @ _H.T + _R
    K = track.cov @ _H.T @ np.linalg.inv(S)
    track.mean = track.mean + K @ (z - _H @ track.mean)
    track.cov = (np.eye(8) - K @ _H) @ track.cov


def _spawn(track_id: int, det: Detection) -> Track:
    mean = np.zeros(8)
    mean[:4] = _box_vec(det.bbox)
    track = Track(
        track_id=track_id,
        class_id=det.class_id,
        mean=mean,
        cov=_P0.copy(),
    )
    track.hits.append(TrackHit(det, 1))
    return track


def tracker_step(tracks, detections, next_id: int = 0):
    """Advance all tracks by one frame of detections.

    Tracks predict forward, then greedily claim the highest-IoU same-class
    detection above the gate.  Matched tracks extend their streak;
    unmatched tracks reset it and are dropped once they miss
    ``MAX_MISSED`` frames in a row; unmatched detections spawn
    fresh tracks.

    Returns (live tracks, dropped tracks, next free track id).  Output
    order is deterministic for a fixed input order.
    """
    detections = list(detections)
    if len({d.frame_id for d in detections}) > 1:
        raise ValueError("detections must all come from one frame")
    for track in tracks:
        _kalman_predict(track)
        track.age += 1
    candidates = []
    preds = [t.bbox() for t in tracks]
    for ti, track in enumerate(tracks):
        for di, det in enumerate(detections):
            if det.class_id != track.class_id:
                continue
            iou = bbox_iou(preds[ti], det.bbox)
            if iou >= IOU_GATE:
                candidates.append((-iou, ti, di))
    candidates.sort()
    matched_tracks = set()
    matched_dets = set()
    for neg_iou, ti, di in candidates:
        if ti in matched_tracks or di in matched_dets:
            continue
        matched_tracks.add(ti)
        matched_dets.add(di)
        track = tracks[ti]
        det = detections[di]
        _kalman_update(track, det.bbox)
        track.hit_streak += 1
        track.missed = 0
        track.hits.append(TrackHit(det, track.hit_streak))
    live = []
    dropped = []
    for ti, track in enumerate(tracks):
        if ti in matched_tracks:
            live.append(track)
            continue
        track.hit_streak = 0
        track.missed += 1
        (dropped if track.missed >= MAX_MISSED else live).append(track)
    for di, det in enumerate(detections):
        if di not in matched_dets:
            live.append(_spawn(next_id, det))
            next_id += 1
    return live, dropped, next_id


def run_tracker(detections):
    """Track a whole sequence and return every track ever created.

    ``detections`` may span many frames; they are grouped by frame_id and
    processed in frame order.  A frame without detections counts as a
    miss for each live track; once none is live, the tracker jumps to the
    next frame that has detections.
    """
    by_frame = {}
    for det in detections:
        by_frame.setdefault(det.frame_id, []).append(det)
    live = []
    finished = []
    next_id = 0
    last = None
    for frame_id in sorted(by_frame):
        # an empty frame is a miss for every live track, so this runs at
        # most MAX_MISSED times
        while live and last + 1 < frame_id:
            last += 1
            live, dropped, next_id = tracker_step(live, [], next_id)
            finished.extend(dropped)
        live, dropped, next_id = tracker_step(live, by_frame[frame_id], next_id)
        finished.extend(dropped)
        last = frame_id
    return finished + live
