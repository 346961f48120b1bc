"""Occlusion-aware reprojection AP and 2D detection AP.

Predicted masks are compared against annotated tool masks after the hand
mask has been subtracted from both sides, so pixels hidden by hands never
count for or against a pose.  Ground-truth instances visible from less
than 10% are dropped, and predictions that only cover such instances are
ignored instead of becoming false positives.

Mask operations visit only window pixels (``raster.MaskImage``): an IoU
counts the intersection over one window and the union from pixel counts,
the same integers as over the frame.  ``PoseMatches`` keeps only each
prediction's confidence, frame and IoU, so frames stream through pose
AP; matching and its tie rule are ``_class_ap``'s.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .camera import BBox, bbox_iou
from .errors import InputError, NoAnnotations, ParseError
from .formats import read_mask_pgm
from .raster import MaskImage

IOU_THRESHOLDS = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
MIN_VISIBILITY = 0.10
RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class FrameAnnotation:
    """Ground truth for one frame: per-class tool masks plus the hand mask.

    ``tool_masks`` are the annotated masks the metric matches against;
    ``visible_masks`` and ``amodal_masks`` only feed the visibility rule.
    """

    frame_id: int
    tool_masks: dict
    hand_mask: MaskImage
    visible_masks: dict = field(default_factory=dict)
    amodal_masks: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError(f"frame_id must be >= 0, got {self.frame_id}")
        shape = (self.hand_mask.height, self.hand_mask.width)
        for group in (self.tool_masks, self.visible_masks, self.amodal_masks):
            for cls, mask in group.items():
                if (mask.height, mask.width) != shape:
                    raise ValueError(
                        f"mask for class {cls} does not match the hand mask shape"
                    )


@dataclass(frozen=True)
class PredictionRecord:
    """One detection: either a reprojected mask or a plain box."""

    frame_id: int
    class_id: int
    confidence: float
    mask: MaskImage = None
    bbox: BBox = None

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if (self.mask is None) == (self.bbox is None):
            raise ValueError("exactly one of mask or bbox must be set")


@dataclass(frozen=True)
class GTBox:
    """Ground-truth box with the visibility fraction of its instance."""

    frame_id: int
    class_id: int
    bbox: BBox
    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")


@dataclass(frozen=True)
class APReport:
    """Per-class AP values, their mean, and the thresholds used."""

    per_class_ap: dict
    mean_ap: float
    thresholds: tuple

    def __post_init__(self):
        if self.per_class_ap:
            expected = mean_ap(self.per_class_ap)
            if abs(self.mean_ap - expected) > 1e-9:
                raise ValueError("mean_ap does not match the per-class values")


def occlusion_subtract(tool_mask: MaskImage, hand_mask: MaskImage) -> MaskImage:
    """Remove hand pixels from a tool mask; the result keeps the tool's window."""
    if (tool_mask.height, tool_mask.width) != (hand_mask.height, hand_mask.width):
        raise ValueError("tool and hand masks differ in shape")
    data = tool_mask.data & (1 - hand_mask.within(*tool_mask.window))
    return MaskImage(tool_mask.width, tool_mask.height, data, tool_mask.x0, tool_mask.y0)


def mask_iou(a: MaskImage, b: MaskImage) -> float:
    """Pixel IoU; two empty masks count as a perfect match."""
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("masks differ in shape")
    inter = int((a.within(*b.window) & b.data).sum())
    union = a.pixel_count() + b.pixel_count() - inter
    if union == 0:
        return 1.0
    return inter / union


def visibility_fraction(gt_visible: MaskImage, gt_amodal: MaskImage) -> float:
    """Fraction of the full projected surface that is visible."""
    total = gt_amodal.pixel_count()
    if total == 0:
        return 0.0
    return min(1.0, gt_visible.pixel_count() / total)


def mean_ap(per_class) -> float:
    """Arithmetic mean over per-class AP values (mapping or iterable)."""
    values = list(per_class.values()) if hasattr(per_class, "values") else list(per_class)
    if not values:
        raise ValueError("no per-class values to average")
    return float(sum(values) / len(values))


def _interpolated_ap(flags, npos):
    # flags: 1 = true positive, 0 = false positive, None = ignored,
    # in descending confidence order
    if npos == 0:
        return 0.0
    recalls = []
    precisions = []
    tp = 0
    fp = 0
    for f in flags:
        if f is None:
            continue
        tp += f
        fp += 1 - f
        recalls.append(tp / npos)
        precisions.append(tp / (tp + fp))
    if not recalls:
        return 0.0
    rec = np.array(recalls)
    prec = np.array(precisions)
    # suffix max: best precision achievable at or beyond each point
    envelope = np.maximum.accumulate(prec[::-1])[::-1]
    idx = np.searchsorted(rec, RECALL_POINTS, side="left")
    valid = idx < rec.size
    return float(np.where(valid, envelope[np.minimum(idx, rec.size - 1)], 0.0).sum() / RECALL_POINTS.size)


def _class_ap(preds, gt_frames, thresholds, iou_fn):
    """Mean over thresholds of 101-point AP for one class.

    ``preds``: (confidence, frame_id, payload) in input order.
    ``gt_frames``: frame_id -> list of (payload, removed).
    Matching is greedy in confidence order; each prediction takes the
    unmatched kept annotation with the highest IoU at or above the
    threshold, ties broken by lower annotation index.  Predictions whose
    only qualifying overlaps are removed annotations are ignored.
    """
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


class PoseMatches:
    """Everything pose AP needs of a sequence, gathered one frame at a time.

    ``frames`` holds the annotated frame ids.  Per class, ``gt`` maps each
    annotated frame to its one annotation as ``[(None, removed)]``, and
    ``preds`` holds (order, confidence, frame_id, IoU with that frame's
    annotation or None), where ``order`` is the input position that
    breaks confidence ties.
    """

    def __init__(self):
        self.frames = set()
        self.gt = {}
        self.preds = {}

    def add(self, frame_id, predictions, ann: FrameAnnotation | None = None) -> None:
        """Match one frame's (order, PredictionRecord) pairs against its
        annotation; a frame without one only adds false positives.

        Raises:
            InputError: the frame was annotated before.
        """
        tools = {}
        if ann is not None:
            if frame_id in self.frames:
                raise InputError(f"frame {frame_id} is annotated twice")
            self.frames.add(frame_id)
            for cls, tool in ann.tool_masks.items():
                vis, amodal = ann.visible_masks.get(cls), ann.amodal_masks.get(cls)
                removed = False
                if vis is not None and amodal is not None:
                    removed = visibility_fraction(vis, amodal) < MIN_VISIBILITY
                self.gt.setdefault(cls, {})[frame_id] = [(None, removed)]
                tools[cls] = occlusion_subtract(tool, ann.hand_mask)
        for order, rec in predictions:
            iou = None
            if rec.class_id in tools:
                iou = mask_iou(occlusion_subtract(rec.mask, ann.hand_mask), tools[rec.class_id])
            self.preds.setdefault(rec.class_id, []).append(
                (order, rec.confidence, frame_id, iou)
            )

    def class_ap(self, class_id, thresholds=IOU_THRESHOLDS) -> float:
        """Reprojection-mask AP for one class, averaged over IoU thresholds.

        Raises:
            NoAnnotations: no frame annotates the class at all.
        """
        if class_id not in self.gt:
            raise NoAnnotations(f"class {class_id} appears in no annotation")
        preds = [p[1:] for p in sorted(self.preds.get(class_id, []), key=lambda p: p[0])]
        return _class_ap(preds, self.gt[class_id], thresholds, lambda iou, _: iou)

    def report(self, thresholds=IOU_THRESHOLDS) -> APReport:
        """Per-class reprojection AP plus the class mean."""
        if not self.gt:
            raise NoAnnotations("annotations contain no tool masks")
        per_class = {cls: self.class_ap(cls, thresholds) for cls in sorted(self.gt)}
        return APReport(
            per_class_ap=per_class,
            mean_ap=mean_ap(per_class),
            thresholds=tuple(thresholds),
        )


def _pose_matches(predictions, annotations) -> PoseMatches:
    by_frame = {}
    for order, rec in enumerate(predictions):
        if rec.mask is not None:
            by_frame.setdefault(rec.frame_id, []).append((order, rec))
    matches = PoseMatches()
    for ann in annotations:
        matches.add(ann.frame_id, by_frame.pop(ann.frame_id, []), ann)
    for frame_id, preds in by_frame.items():
        matches.add(frame_id, preds)
    return matches


def pose_ap_report(predictions, annotations, thresholds=IOU_THRESHOLDS) -> APReport:
    """``PoseMatches.report`` over in-memory predictions and annotations."""
    return _pose_matches(predictions, annotations).report(thresholds)


def detection_ap(pred_boxes, gt_boxes, thresholds=IOU_THRESHOLDS) -> APReport:
    """Box-IoU AP with the same matching and visibility rules.

    Raises:
        NoAnnotations: the ground truth contains no boxes.
    """
    if not gt_boxes:
        raise NoAnnotations("no ground-truth boxes")
    classes = sorted({g.class_id for g in gt_boxes})
    per_class = {}
    for cls in classes:
        gt_frames = {}
        for g in gt_boxes:
            if g.class_id != cls:
                continue
            gt_frames.setdefault(g.frame_id, []).append(
                (g.bbox, g.visibility < MIN_VISIBILITY)
            )
        preds = [
            (rec.confidence, rec.frame_id, rec.bbox)
            for rec in pred_boxes
            if rec.class_id == cls and rec.bbox is not None
        ]
        per_class[cls] = _class_ap(preds, gt_frames, thresholds, bbox_iou)
    return APReport(
        per_class_ap=per_class,
        mean_ap=mean_ap(per_class),
        thresholds=tuple(thresholds),
    )


def iter_annotations(index_path):
    """Yield the frames of an annotation index, reading each frame's PGM
    masks only when it is reached.

    The visible tool masks double as the annotated masks the metric
    matches against.
    """
    index_path = Path(index_path)
    root = index_path.parent
    try:
        payload = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"annotation index is not valid JSON: {exc}") from None
    frames = payload.get("frames")
    if not isinstance(frames, list):
        raise ParseError("annotation index must contain a 'frames' list")
    for entry in frames:
        try:
            frame_id = int(entry["frame_id"])
            masks = {
                int(cls): read_mask_pgm(root / p) for cls, p in entry["masks"].items()
            }
            amodal = {
                int(cls): read_mask_pgm(root / p)
                for cls, p in entry.get("amodal", {}).items()
            }
            hand = read_mask_pgm(root / entry["hand_mask"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed annotation entry: {exc}") from None
        yield FrameAnnotation(
            frame_id=frame_id,
            tool_masks=masks,
            hand_mask=hand,
            visible_masks=masks,
            amodal_masks=amodal,
        )
