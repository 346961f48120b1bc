"""Pseudo-label generation for detector and pose-model retraining.

One round runs: track the detections, keep frames with a stable streak
and a confident box, re-estimate the pose there, reproject the model to
tighten the box, then keep only pose labels that pass the confidence,
outlier and reprojection gates.  Rounds chain by feeding the refined
boxes back in as the next round's detections.  Actual network training
is out of scope; the product is the label sets.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .camera import BBox, CameraIntrinsics, Pose, bbox_iou, check_rotation
from .errors import (
    ArtiposeError,
    ConfigError,
    EmptySequence,
    InputError,
    ParseError,
)
from .formats import canonical_json
from .meshes import ArticulatedModel, ArticulationState, articulate, normalize_vertices
from .pnp import CorrSet, PnPResult, pairs_from_map, pnp_ransac
from .raster import render_amodal, render_correspondence
from .simulate import CROP_OUT_SIZE, CROP_SCALE, NoiseConfig, model_corr_bbox
from .tracking import STREAK_MIN, Detection, TrackerParams, run_tracker

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
    """One estimator answer: pose, class and articulation with solve stats."""

    pose: Pose
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


@dataclass(frozen=True)
class DetectionLabel:
    """Refined (or kept) box for one selected frame."""

    frame_id: int
    class_id: int
    bbox: BBox
    confidence: float
    refined: bool


@dataclass(frozen=True)
class PseudoLabelSet:
    detection_labels: tuple
    pose_labels: tuple
    thresholds: FilterThresholds
    mixing_ratio: float = DEFAULT_MIXING_RATIO

    def __post_init__(self):
        if not 0.0 <= self.mixing_ratio <= 1.0:
            raise ConfigError(f"mixing_ratio must be in [0, 1], got {self.mixing_ratio}")
        object.__setattr__(self, "detection_labels", tuple(self.detection_labels))
        object.__setattr__(self, "pose_labels", tuple(self.pose_labels))


@dataclass(frozen=True)
class AdaptationConfig:
    tracker: TrackerParams = field(default_factory=TrackerParams)
    thresholds: FilterThresholds = field(default_factory=FilterThresholds)
    mixing_ratio: float = DEFAULT_MIXING_RATIO


@dataclass(frozen=True)
class RoundMetrics:
    """Summary of one adaptation round."""

    selection_rate: float
    n_selected: int
    n_refine_failed: int
    n_pose_labels: int
    mean_refined_iou: float | None = None
    mean_input_iou: float | None = None


@dataclass(frozen=True)
class RefineResult:
    bbox: BBox
    refined: bool
    estimate: PoseEstimate | None


class RenderEstimator:
    """Stand-in for the trained network: renders the known object into the
    requested crop, optionally perturbs the pixel observations, and solves
    the pose back.  Deterministic for a fixed seed; the noise draw depends
    only on (seed, frame_id, class_id)."""

    def __init__(self, gt, models, camera: CameraIntrinsics, noise: NoiseConfig = NoiseConfig(), seed: int = 0):
        self.gt = dict(gt)
        self.models = dict(models)
        self.camera = camera
        self.noise = noise
        self.seed = seed
        self._boxes = {cls: model_corr_bbox(m) for cls, m in self.models.items()}

    @classmethod
    def from_rendered(cls, frames, models, camera, noise=NoiseConfig(), seed=0):
        gt = {
            (f.frame_id, obj.class_id): (obj.pose, obj.articulation)
            for f in frames
            for obj in f.objects
        }
        return cls(gt, models, camera, noise, seed)

    @classmethod
    def from_dataset(cls, dataset, models, noise=NoiseConfig(), seed=0):
        gt = {
            (f.frame_id, obj.class_id): (obj.pose, obj.articulation)
            for f in dataset.frames
            for obj in f.objects
        }
        return cls(gt, models, dataset.camera, noise, seed)

    def __call__(self, frame_id: int, crop: BBox, class_id: int) -> PoseEstimate:
        key = (frame_id, class_id)
        if key not in self.gt:
            raise InputError(f"no ground truth for frame {frame_id} class {class_id}")
        if class_id not in self.models:
            raise InputError(f"no model registered for class {class_id}")
        pose, articulation = self.gt[key]
        model = self.models[class_id]
        box = self._boxes[class_id]
        mesh = articulate(model, ArticulationState(articulation))
        coords = normalize_vertices(mesh, box)
        cmap = render_correspondence(mesh, coords, pose, self.camera, crop, CROP_OUT_SIZE)
        pairs = pairs_from_map(cmap, box)
        if self.noise.corr_px_sigma > 0.0:
            rng = np.random.default_rng([self.seed, frame_id, class_id])
            jitter = self.noise.corr_px_sigma * rng.standard_normal(pairs.pts2d.shape)
            pairs = CorrSet(pairs.pts3d, pairs.pts2d + jitter)
        result = pnp_ransac(
            pairs, self.camera, seed=self.seed * 1000003 + frame_id * 1009 + class_id
        )
        if self.noise.detector_conf_model == "constant":
            confidence = 1.0
        else:
            confidence = result.inlier_ratio
        return PoseEstimate(
            pose=result.pose,
            class_id=class_id,
            class_confidence=confidence,
            articulation=articulation,
            pnp=result,
        )


class FileEstimator:
    """Precomputed estimates read from the JSONL the estimate command
    writes; the crop argument is ignored."""

    def __init__(self, path):
        self.estimates = load_estimates(path)

    def __call__(self, frame_id: int, crop: BBox, class_id: int) -> PoseEstimate:
        key = (frame_id, class_id)
        if key not in self.estimates:
            raise InputError(f"no stored estimate for frame {frame_id} class {class_id}")
        return self.estimates[key]


def load_estimates(path) -> dict:
    """Parse estimate JSONL into {(frame_id, class): PoseEstimate}.

    Raises:
        ParseError: malformed line, with its line number.
    """
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            pose = Pose(
                R=check_rotation(np.array(rec["R"], dtype=float).reshape(3, 3)),
                t=np.array(rec["t_mm"], dtype=float) / 1000.0,
            )
            est = PoseEstimate(
                pose=pose,
                class_id=int(rec["class"]),
                class_confidence=float(rec["confidence"]),
                articulation=float(rec["articulation"]),
                pnp=PnPResult(
                    pose=pose,
                    inlier_count=int(rec["inliers"]),
                    outlier_count=int(rec["outliers"]),
                    mean_reproj_err=float(rec["reproj_err"]),
                    converged=bool(rec["converged"]),
                ),
            )
        except (KeyError, TypeError, ValueError, ArtiposeError) as exc:
            raise ParseError(f"{path}:{lineno}: bad estimate record: {exc}") from None
        out[(int(rec["frame_id"]), int(rec["class"]))] = est
    return out


def select_pseudo_frames(tracks, conf_min: float):
    """Confident detections on a streak of at least three consecutive hits.

    Returns (frame_id, Detection) pairs ordered by frame then class; the
    confidence bound is inclusive.
    """
    out = [
        (hit.frame_id, hit.detection)
        for track in tracks
        for hit in track.hits
        if hit.hit_streak >= STREAK_MIN and hit.detection.confidence >= conf_min
    ]
    out.sort(key=lambda item: (item[0], item[1].class_id))
    return out


def square_crop(bbox: BBox, scale: float = CROP_SCALE) -> BBox:
    """Square crop window around a box, matching the training-crop shape."""
    side = scale * max(bbox.w, bbox.h)
    return BBox(cx=bbox.cx, cy=bbox.cy, w=side, h=side)


def refine_bbox(frame_id, det: Detection, estimator, model: ArticulatedModel, camera: CameraIntrinsics) -> RefineResult:
    """Tighten a detection box by reprojecting the estimated pose.

    The estimator runs on the detection's own box; the articulated model
    rendered at the estimated pose yields the refined box (clipped to the
    image by construction).  Any estimator or render failure keeps the
    original box, flagged unrefined.
    """
    try:
        est = estimator(frame_id, det.bbox, det.class_id)
        mesh = articulate(model, ArticulationState(est.articulation))
        mask = render_amodal(mesh, est.pose, camera)
    except InputError:
        raise
    except ArtiposeError:
        return RefineResult(bbox=det.bbox, refined=False, estimate=None)
    return RefineResult(bbox=mask.bbox(), refined=True, estimate=est)


def filter_pose_labels(estimates, thresholds: FilterThresholds, detection_labels=(), mixing_ratio: float = DEFAULT_MIXING_RATIO) -> PseudoLabelSet:
    """Keep estimates passing all three gates.

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
    return PseudoLabelSet(
        detection_labels=tuple(detection_labels),
        pose_labels=tuple(kept),
        thresholds=thresholds,
        mixing_ratio=mixing_ratio,
    )


def adaptation_round(detections, estimator, models, camera: CameraIntrinsics, config: AdaptationConfig = AdaptationConfig(), gt_boxes=None):
    """One full pass: track, select, refine boxes, estimate, filter.

    ``models`` maps class id to its articulated model; ``gt_boxes``
    optionally maps (frame_id, class_id) to the true amodal box, enabling
    the refined-IoU metric.  Returns (PseudoLabelSet, RoundMetrics).

    Raises:
        EmptySequence: no detections at all.
    """
    detections = list(detections)
    if not detections:
        raise EmptySequence("adaptation needs at least one detection")
    tracks = run_tracker(detections, config.tracker)
    eligible = sum(
        1 for track in tracks for hit in track.hits if hit.hit_streak >= STREAK_MIN
    )
    selected = select_pseudo_frames(tracks, config.thresholds.conf_min)
    selection_rate = len(selected) / eligible if eligible else 0.0

    detection_labels = []
    estimates = []
    n_failed = 0
    refined_ious = []
    input_ious = []
    for frame_id, det in selected:
        if det.class_id not in models:
            raise InputError(f"no model registered for class {det.class_id}")
        rr = refine_bbox(frame_id, det, estimator, models[det.class_id], camera)
        confidence = rr.estimate.class_confidence if rr.refined else det.confidence
        detection_labels.append(
            DetectionLabel(
                frame_id=frame_id,
                class_id=det.class_id,
                bbox=rr.bbox,
                confidence=confidence,
                refined=rr.refined,
            )
        )
        if not rr.refined:
            n_failed += 1
        if gt_boxes is not None and (frame_id, det.class_id) in gt_boxes:
            gt_box = gt_boxes[(frame_id, det.class_id)]
            refined_ious.append(bbox_iou(rr.bbox, gt_box))
            input_ious.append(bbox_iou(det.bbox, gt_box))
        try:
            est = estimator(frame_id, square_crop(rr.bbox), det.class_id)
        except InputError:
            raise
        except ArtiposeError:
            n_failed += 1
            continue
        estimates.append((frame_id, est))

    labels = filter_pose_labels(
        estimates, config.thresholds, detection_labels, config.mixing_ratio
    )
    metrics = RoundMetrics(
        selection_rate=selection_rate,
        n_selected=len(selected),
        n_refine_failed=n_failed,
        n_pose_labels=len(labels.pose_labels),
        mean_refined_iou=float(np.mean(refined_ious)) if refined_ious else None,
        mean_input_iou=float(np.mean(input_ious)) if input_ious else None,
    )
    return labels, metrics


def adaptation_loop(detections, estimator, models, camera: CameraIntrinsics, config: AdaptationConfig = AdaptationConfig(), rounds: int = 2, gt_boxes=None):
    """Chain rounds, feeding each round's refined boxes back in as
    detections for the next.  Returns the per-round (labels, metrics)."""
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    results = []
    current = list(detections)
    for _ in range(rounds):
        labels, metrics = adaptation_round(
            current, estimator, models, camera, config, gt_boxes
        )
        results.append((labels, metrics))
        current = [
            Detection(
                frame_id=lab.frame_id,
                class_id=lab.class_id,
                confidence=lab.confidence,
                bbox=lab.bbox,
            )
            for lab in labels.detection_labels
        ]
        if not current:
            break
    return results


def _pose_label_record(frame_id: int, est: PoseEstimate) -> dict:
    return {
        "frame_id": int(frame_id),
        "class": int(est.class_id),
        "R": [float(v) for v in est.pose.R.reshape(9)],
        "t_mm": [float(v * 1000.0) for v in est.pose.t],
        "articulation": float(est.articulation),
        "confidence": float(est.class_confidence),
        "inliers": int(est.pnp.inlier_count),
        "outliers": int(est.pnp.outlier_count),
        "reproj_err": float(est.pnp.mean_reproj_err),
        "converged": bool(est.pnp.converged),
    }


def write_pseudo_labels(labels: PseudoLabelSet, path) -> None:
    """Serialize a label set as a canonical JSON manifest."""
    payload = {
        "detection_labels": [
            {
                "frame_id": int(lab.frame_id),
                "class": int(lab.class_id),
                "bbox": lab.bbox.as_list(),
                "confidence": float(lab.confidence),
                "refined": bool(lab.refined),
            }
            for lab in labels.detection_labels
        ],
        "pose_labels": [
            _pose_label_record(frame_id, est) for frame_id, est in labels.pose_labels
        ],
        "thresholds": {
            "conf_min": labels.thresholds.conf_min,
            "outlier_max_frac": labels.thresholds.outlier_max_frac,
            "reproj_max_px": labels.thresholds.reproj_max_px,
        },
        "mixing_ratio": labels.mixing_ratio,
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
            cx, cy, w, h = (float(v) for v in rec["bbox"])
            out.append(
                Detection(
                    frame_id=int(rec["frame_id"]),
                    class_id=int(rec["class"]),
                    confidence=float(rec["confidence"]),
                    bbox=BBox(cx=cx, cy=cy, w=w, h=h),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: bad detection record: {exc}") from None
    return out
