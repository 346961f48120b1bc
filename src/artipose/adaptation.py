"""Pseudo-label generation for detector and pose-model retraining.

One round runs: track the detections, keep frames with a stable streak
and a confident box, re-estimate the pose there, reproject the model to
tighten the box, then keep only pose labels that pass the confidence,
outlier and reprojection gates.  A round returns plain values: its
detection labels (``Detection`` records flagged ``refined``), its pose
labels as (frame_id, PoseEstimate) pairs, and its ``RoundMetrics``.
Rounds chain by feeding the detection labels back in as the next round's
detections.  Actual network training is out of scope; the product is
the label sets.
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .camera import BBox, CameraIntrinsics, Pose, bbox_iou
from .errors import (
    ArtiposeError,
    ConfigError,
    EmptySequence,
    InputError,
    ParseError,
)
from .formats import canonical_json, decode_pose, encode_pose
from .meshes import ArticulatedModel, articulate, normalize_vertices
from .pnp import CorrSet, PnPResult, pairs_from_map, pnp_ransac
from .raster import render_amodal, render_correspondence
from .simulate import CROP_OUT_SIZE, square_crop
from .tracking import STREAK_MIN, Detection, run_tracker

DEFAULT_CONF_MIN = 0.85
DEFAULT_OUTLIER_MAX_FRAC = 0.25
DEFAULT_REPROJ_MAX_PX = 3.0
DEFAULT_MIXING_RATIO = 0.3


@dataclass(frozen=True)
class FilterThresholds:
    """Gates applied to pose estimates before they become labels."""

    conf_min: float = DEFAULT_CONF_MIN
    outlier_max_frac: float = DEFAULT_OUTLIER_MAX_FRAC
    reproj_max_px: float = DEFAULT_REPROJ_MAX_PX

    def __post_init__(self):
        if not 0.0 <= self.conf_min <= 1.0:
            raise ConfigError(f"conf_min must be in [0, 1], got {self.conf_min}")
        if not 0.0 <= self.outlier_max_frac <= 1.0:
            raise ConfigError(
                f"outlier_max_frac must be in [0, 1], got {self.outlier_max_frac}"
            )
        if self.reproj_max_px <= 0.0:
            raise ConfigError(f"reproj_max_px must be > 0, got {self.reproj_max_px}")


@dataclass(frozen=True)
class PoseEstimate:
    """One estimator answer: class and articulation with the solve.  Its
    ``pose`` is the solve's, so a label and its render share one pose."""

    class_id: int
    class_confidence: float
    articulation: float
    pnp: PnPResult

    def __post_init__(self):
        if not 0.0 <= self.class_confidence <= 1.0:
            raise ValueError(
                f"class_confidence must be in [0, 1], got {self.class_confidence}"
            )
        if not 0.0 <= self.articulation <= 1.0:
            raise ValueError(f"articulation must be in [0, 1], got {self.articulation}")

    @property
    def pose(self) -> Pose:
        return self.pnp.pose


@dataclass(frozen=True)
class RoundMetrics:
    """Summary of one adaptation round."""

    selection_rate: float
    n_selected: int
    n_refine_failed: int
    n_pose_labels: int
    mean_refined_iou: float | None = None
    mean_input_iou: float | None = None


def solve_object(
    pairs: CorrSet,
    camera: CameraIntrinsics,
    sigma: float,
    seed: int,
    frame_id: int,
    class_id: int,
) -> tuple[PnPResult, float]:
    """Pose of one object from its 2D-3D pairs, as the estimators report it.

    Adds ``sigma`` px of Gaussian pixel noise drawn from
    ``(seed, frame_id, class_id)`` and solves with ``pnp_ransac`` seeded
    from the same triple.  The confidence is the solve's inlier fraction.

    Returns:
        (PnPResult, confidence)
    """
    if sigma > 0.0:
        rng = np.random.default_rng([seed, frame_id, class_id])
        jitter = sigma * rng.standard_normal(pairs.pts2d.shape)
        pairs = CorrSet(pairs.pts3d, pairs.pts2d + jitter)
    result = pnp_ransac(pairs, camera, seed=seed * 1000003 + frame_id * 1009 + class_id)
    return result, float(result.inlier_ratio)


class RenderEstimator:
    """Stand-in for the trained network: renders the known object into the
    requested crop, adds ``sigma`` px of Gaussian noise to the pixel
    observations, and solves the pose back.  Deterministic for a fixed
    seed; the noise draw depends only on (seed, frame_id, class_id), so an
    answer depends only on (frame_id, crop, class_id) and a repeated
    request reuses it.  The ground truth is the poses of ``frames``,
    rendered or loaded."""

    def __init__(self, frames, models, camera: CameraIntrinsics, sigma: float = 0.0, seed: int = 0):
        self.gt = {
            (f.frame_id, obj.class_id): (obj.pose, obj.articulation)
            for f in frames
            for obj in f.objects
        }
        self.models = dict(models)
        self.camera = camera
        self.sigma = sigma
        self.seed = seed
        # a model without a box fails here, not as every estimate's failure
        for model in self.models.values():
            model.corr_box
        self._answers = {}

    def __call__(self, frame_id: int, crop: BBox, class_id: int) -> PoseEstimate:
        key = (frame_id, crop, class_id)
        if key not in self._answers:
            self._answers[key] = self._estimate(frame_id, crop, class_id)
        return self._answers[key]

    def _estimate(self, frame_id: int, crop: BBox, class_id: int) -> PoseEstimate:
        key = (frame_id, class_id)
        if key not in self.gt:
            raise InputError(f"no ground truth for frame {frame_id} class {class_id}")
        if class_id not in self.models:
            raise InputError(f"no model registered for class {class_id}")
        pose, articulation = self.gt[key]
        model = self.models[class_id]
        box = model.corr_box
        mesh = articulate(model, articulation)
        coords = normalize_vertices(mesh, box)
        cmap = render_correspondence(mesh, coords, pose, self.camera, crop, CROP_OUT_SIZE)
        result, confidence = solve_object(
            pairs_from_map(cmap, box), self.camera, self.sigma, self.seed, frame_id, class_id
        )
        return PoseEstimate(
            class_id=class_id,
            class_confidence=confidence,
            articulation=articulation,
            pnp=result,
        )


def encode_estimate(frame_id: int, class_id: int, confidence: float, articulation: float, result: PnPResult) -> dict:
    """One estimate record: a line of the estimate JSONL and an entry of
    a label manifest's ``pose_labels``.  ``load_estimates`` reads it back."""
    return {
        "frame_id": int(frame_id),
        "class": int(class_id),
        **encode_pose(result.pose),
        "articulation": float(articulation),
        "confidence": float(confidence),
        "inliers": int(result.inlier_count),
        "outliers": int(result.outlier_count),
        "reproj_err": float(result.mean_reproj_err),
        "converged": bool(result.converged),
    }


def load_estimates(path) -> dict:
    """Parse estimate JSONL into {(frame_id, class): PoseEstimate}.

    Raises:
        ParseError: malformed line, or a second line for one (frame_id,
            class), with the line numbers.
    """
    out = {}
    first_line = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            key = (int(rec["frame_id"]), int(rec["class"]))
            est = PoseEstimate(
                class_id=key[1],
                class_confidence=float(rec["confidence"]),
                articulation=float(rec["articulation"]),
                pnp=PnPResult(
                    pose=decode_pose(rec),
                    inlier_count=int(rec["inliers"]),
                    outlier_count=int(rec["outliers"]),
                    mean_reproj_err=float(rec["reproj_err"]),
                    converged=bool(rec["converged"]),
                ),
            )
        except (KeyError, TypeError, ValueError, ArtiposeError) as exc:
            raise ParseError(f"{path}:{lineno}: bad estimate record: {exc}") from None
        if key in first_line:
            raise ParseError(
                f"{path}:{lineno}: second estimate for frame {key[0]} class {key[1]}, "
                f"first on line {first_line[key]}"
            )
        first_line[key] = lineno
        out[key] = est
    return out


def select_pseudo_frames(tracks, conf_min: float):
    """Confident detections on a streak of at least three consecutive hits.

    Returns the detections ordered by frame then class; the confidence
    bound is inclusive.
    """
    out = [
        hit.detection
        for track in tracks
        for hit in track.hits
        if hit.hit_streak >= STREAK_MIN and hit.detection.confidence >= conf_min
    ]
    out.sort(key=lambda det: (det.frame_id, det.class_id))
    return out


def refine_bbox(det: Detection, estimator, model: ArticulatedModel, camera: CameraIntrinsics):
    """Tighten a detection box by reprojecting the estimated pose.

    The estimator runs on the detection's own box; the articulated model
    rendered at the estimated pose yields the refined box (clipped to the
    image by construction).  Returns (box, estimate); any estimator or
    render failure keeps the original box, with estimate None.
    """
    try:
        est = estimator(det.frame_id, det.bbox, det.class_id)
        mesh = articulate(model, est.articulation)
        mask = render_amodal(mesh, est.pose, camera)
    except InputError:
        raise
    except ArtiposeError:
        return det.bbox, None
    return mask.bbox(), est


def filter_pose_labels(estimates, thresholds: FilterThresholds) -> list:
    """Keep the (frame_id, estimate) pairs whose estimate passes all three gates.

    An estimate survives when its class confidence reaches ``conf_min``,
    its outlier fraction stays at or below ``outlier_max_frac``, and its
    mean reprojection error stays at or below ``reproj_max_px``.  The
    output is always a subset of the input and shrinks (weakly) as any
    threshold tightens.
    """
    kept = []
    for frame_id, est in estimates:
        total = est.pnp.inlier_count + est.pnp.outlier_count
        outlier_frac = est.pnp.outlier_count / total if total else 1.0
        if (
            est.class_confidence >= thresholds.conf_min
            and outlier_frac <= thresholds.outlier_max_frac
            and est.pnp.mean_reproj_err <= thresholds.reproj_max_px
        ):
            kept.append((frame_id, est))
    return kept


def adaptation_round(detections, estimator, models, camera: CameraIntrinsics, thresholds: FilterThresholds = FilterThresholds(), gt_boxes=None):
    """One full pass: track, select, refine boxes, estimate, filter.

    ``models`` maps class id to its articulated model; ``gt_boxes``
    optionally maps (frame_id, class_id) to the true amodal box, enabling
    the refined-IoU metric.  Returns (detection_labels, pose_labels,
    RoundMetrics).

    Raises:
        EmptySequence: no detections at all.
    """
    detections = list(detections)
    if not detections:
        raise EmptySequence("adaptation needs at least one detection")
    tracks = run_tracker(detections)
    eligible = sum(
        1 for track in tracks for hit in track.hits if hit.hit_streak >= STREAK_MIN
    )
    selected = select_pseudo_frames(tracks, thresholds.conf_min)
    selection_rate = len(selected) / eligible if eligible else 0.0

    detection_labels = []
    estimates = []
    n_failed = 0
    refined_ious = []
    input_ious = []
    for det in selected:
        if det.class_id not in models:
            raise InputError(f"no model registered for class {det.class_id}")
        box, refine_est = refine_bbox(det, estimator, models[det.class_id], camera)
        refined = refine_est is not None
        detection_labels.append(
            Detection(
                frame_id=det.frame_id,
                class_id=det.class_id,
                confidence=refine_est.class_confidence if refined else det.confidence,
                bbox=box,
                refined=refined,
            )
        )
        if not refined:
            n_failed += 1
        if gt_boxes is not None and (det.frame_id, det.class_id) in gt_boxes:
            gt_box = gt_boxes[(det.frame_id, det.class_id)]
            refined_ious.append(bbox_iou(box, gt_box))
            input_ious.append(bbox_iou(det.bbox, gt_box))
        try:
            est = estimator(det.frame_id, square_crop(box), det.class_id)
        except InputError:
            raise
        except ArtiposeError:
            n_failed += 1
            continue
        estimates.append((det.frame_id, est))

    pose_labels = filter_pose_labels(estimates, thresholds)
    metrics = RoundMetrics(
        selection_rate=selection_rate,
        n_selected=len(selected),
        n_refine_failed=n_failed,
        n_pose_labels=len(pose_labels),
        mean_refined_iou=float(np.mean(refined_ious)) if refined_ious else None,
        mean_input_iou=float(np.mean(input_ious)) if input_ious else None,
    )
    return detection_labels, pose_labels, metrics


def adaptation_loop(detections, estimator, models, camera: CameraIntrinsics, thresholds: FilterThresholds = FilterThresholds(), rounds: int = 2, gt_boxes=None):
    """Chain rounds, feeding each round's detection labels back in as
    detections for the next.  Returns the per-round (detection_labels,
    pose_labels, metrics)."""
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    results = []
    current = detections
    for _ in range(rounds):
        result = adaptation_round(current, estimator, models, camera, thresholds, gt_boxes)
        results.append(result)
        current = result[0]
        if not current:
            break
    return results


def write_pseudo_labels(path, detection_labels, pose_labels, thresholds: FilterThresholds, mixing_ratio: float) -> None:
    """Serialize one round's labels as a canonical JSON manifest."""
    payload = {
        "detection_labels": [
            {
                "frame_id": int(lab.frame_id),
                "class": int(lab.class_id),
                "bbox": lab.bbox.as_list(),
                "confidence": float(lab.confidence),
                "refined": bool(lab.refined),
            }
            for lab in detection_labels
        ],
        "pose_labels": [
            encode_estimate(frame_id, est.class_id, est.class_confidence, est.articulation, est.pnp)
            for frame_id, est in pose_labels
        ],
        "thresholds": asdict(thresholds),
        "mixing_ratio": mixing_ratio,
    }
    Path(path).write_text(canonical_json(payload))


def load_detections(path) -> list:
    """Parse detection JSONL {frame_id, class, confidence, bbox[4]}.

    Raises:
        ParseError: malformed line, with its line number.
    """
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            out.append(
                Detection(
                    frame_id=int(rec["frame_id"]),
                    class_id=int(rec["class"]),
                    confidence=float(rec["confidence"]),
                    bbox=BBox.from_list(rec["bbox"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: bad detection record: {exc}") from None
    return out
