"""Occlusion-aware reprojection AP and 2D detection AP.

Predicted masks are compared against annotated tool masks after the hand
mask has been subtracted from both sides, so pixels hidden by hands never
count for or against a pose.  Ground-truth instances visible from less
than 10% are dropped, and predictions that only cover such instances are
ignored instead of becoming false positives.

Mask operations visit only window pixels (``raster.MaskImage``): an IoU
counts the intersection over one window and the union from pixel counts,
the same integers as over the frame.  One matcher, ``Matches``, takes
each frame's predictions once and keeps two tallies, pose and
detection, each with only every prediction's confidence, frame and IoU,
so frames stream through both APs.  The format annotates at most one
instance per class and frame, so matching and its tie rule
(``_class_ap``) work on these precomputed IoUs.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .camera import bbox_iou
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


def _class_ap(preds, gt_frames, thresholds):
    """Mean over thresholds of 101-point AP for one class.

    ``preds``: (confidence, frame_id, IoU with that frame's instance or
    None) in input order.  ``gt_frames``: frame_id -> whether the frame's
    one instance is removed.  Taken in confidence order, ties in input
    order, a prediction is a false positive below the threshold or on an
    instance already matched, ignored on a removed instance, and
    otherwise a match.
    """
    npos = sum(not removed for removed in gt_frames.values())
    ranked = sorted(preds, key=lambda p: -p[0])
    total = 0.0
    for tau in thresholds:
        matched = set()
        flags = []
        for _, fid, iou in ranked:
            if iou is None or iou < tau:
                flags.append(0)
            elif gt_frames[fid]:
                flags.append(None)
            elif fid in matched:
                flags.append(0)
            else:
                matched.add(fid)
                flags.append(1)
        total += _interpolated_ap(flags, npos)
    return total / len(thresholds)


class _Tally:
    """One AP's matches.  Per class, ``gt`` maps each annotated frame to
    whether its instance is removed, and ``preds`` holds (order,
    confidence, frame_id, IoU with that frame's instance or None), where
    ``order`` is the input position that breaks confidence ties."""

    def __init__(self, empty_message):
        self.empty_message = empty_message
        self.gt = {}
        self.preds = {}

    def class_ap(self, class_id) -> float:
        """AP for one class, averaged over ``IOU_THRESHOLDS``.

        Raises:
            NoAnnotations: no frame annotates the class at all.
        """
        if class_id not in self.gt:
            raise NoAnnotations(f"class {class_id} appears in no annotation")
        preds = [p[1:] for p in sorted(self.preds.get(class_id, []), key=lambda p: p[0])]
        return _class_ap(preds, self.gt[class_id], IOU_THRESHOLDS)

    def report(self) -> APReport:
        """Per-class AP plus the class mean."""
        if not self.gt:
            raise NoAnnotations(self.empty_message)
        per_class = {cls: self.class_ap(cls) for cls in sorted(self.gt)}
        return APReport(
            per_class_ap=per_class,
            mean_ap=mean_ap(per_class),
            thresholds=IOU_THRESHOLDS,
        )


class Matches:
    """Everything pose AP and detection AP need of a sequence, gathered
    one frame at a time.

    ``frames`` holds the annotated frame ids.  The ``pose`` tally scores
    each prediction's mask against the tool mask, both without the hand
    pixels; the ``detection`` tally scores its box against the box of the
    amodal mask.
    """

    def __init__(self):
        self.frames = set()
        self.pose = _Tally("annotations contain no tool masks")
        self.detection = _Tally("no ground-truth boxes")

    def add(self, frame_id, predictions, ann: FrameAnnotation | None = None) -> None:
        """Match one frame's (order, class_id, confidence, amodal mask)
        predictions against its annotation; a frame without one only adds
        false positives.

        Raises:
            InputError: the frame was annotated before.
        """
        tools = {}
        boxes = {}
        if ann is not None:
            if frame_id in self.frames:
                raise InputError(f"frame {frame_id} is annotated twice")
            self.frames.add(frame_id)
            for cls in sorted(ann.tool_masks.keys() | ann.amodal_masks.keys()):
                vis, amodal = ann.visible_masks.get(cls), ann.amodal_masks.get(cls)
                removed = (
                    vis is not None
                    and amodal is not None
                    and visibility_fraction(vis, amodal) < MIN_VISIBILITY
                )
                if cls in ann.tool_masks:
                    self.pose.gt.setdefault(cls, {})[frame_id] = removed
                    tools[cls] = occlusion_subtract(ann.tool_masks[cls], ann.hand_mask)
                box = amodal.bbox() if amodal is not None else None
                if box is not None:
                    self.detection.gt.setdefault(cls, {})[frame_id] = removed
                    boxes[cls] = box
        for order, cls, confidence, mask in predictions:
            iou = box_iou = None
            if cls in tools:
                iou = mask_iou(occlusion_subtract(mask, ann.hand_mask), tools[cls])
            if cls in boxes:
                box_iou = bbox_iou(mask.bbox(), boxes[cls])
            self.pose.preds.setdefault(cls, []).append((order, confidence, frame_id, iou))
            self.detection.preds.setdefault(cls, []).append(
                (order, confidence, frame_id, box_iou)
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
    frames = payload.get("frames") if isinstance(payload, dict) else None
    if not isinstance(frames, list):
        raise ParseError(f"{index_path}: annotation index must be an object with a 'frames' list")
    for pos, entry in enumerate(frames):
        where = f"entry {pos}"
        try:
            where = f"frame {entry['frame_id']}"
            masks = {
                int(cls): read_mask_pgm(root / p) for cls, p in entry["masks"].items()
            }
            ann = FrameAnnotation(
                frame_id=int(entry["frame_id"]),
                tool_masks=masks,
                hand_mask=read_mask_pgm(root / entry["hand_mask"]),
                visible_masks=masks,
                amodal_masks={
                    int(cls): read_mask_pgm(root / p)
                    for cls, p in entry.get("amodal", {}).items()
                },
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{index_path}: malformed annotation, {where}: {exc}") from None
        yield ann
