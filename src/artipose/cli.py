"""Command-line front end for reproducible experiments.

Subcommands: ``simgen`` renders a synthetic sequence with ground truth,
``estimate`` solves per-object poses from the stored correspondence
maps, ``evaluate`` scores predictions with occlusion-aware AP,
``adapt`` runs pseudo-label rounds, and ``losses`` reports the training
loss breakdown of stored predictions.  Every command writes an
effective-config snapshot next to its outputs; identical inputs and
seeds reproduce outputs byte for byte.  Exit codes: 0 success, 2 bad
input or configuration, 3 runtime failure.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import (
    DEFAULT_MIXING_RATIO,
    FilterThresholds,
    RenderEstimator,
    adaptation_loop,
    encode_estimate,
    load_detections,
    load_estimates,
    solve_object,
    write_pseudo_labels,
)
from .camera import BBox, ego_to_allo, encode_translation, matrix_to_rot6d
from .errors import ArtiposeError, ConfigError, InputError
from .formats import canonical_json
from .losses import (
    DEFAULT_NUM_POINTS,
    GroundTruth,
    LossBreakdown,
    LossWeights,
    PosePrediction,
    loss_total,
)
from .meshes import (
    articulate,
    load_model_manifest,
    normalize_vertices,
    sample_surface_points,
    save_model_manifest,
)
from .metrics import Matches, iter_annotations
from .pnp import pairs_from_map
from .raster import rasterize_crop, render_amodal, render_correspondence
from .simulate import (
    CROP_OUT_SIZE,
    DEFAULT_CAMERA,
    OccluderConfig,
    SceneConfig,
    export_gt,
    generate_sequence,
    load_correspondence,
    load_dataset,
    needle_holder_model,
    tweezers_model,
)
from .tracking import Detection


def _read_config(path):
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


@contextmanager
def _config_errors(what):
    """Report a config value that fails to convert or validate as a ConfigError."""
    try:
        yield
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from None


def _from_config(record, doc):
    """``record`` from a config dict: each field is ``float(doc[name])``,
    or its default when ``doc`` lacks it."""
    with _config_errors(f"{record.__name__} config"):
        return record(**{f.name: float(doc.get(f.name, f.default)) for f in fields(record)})


def _config_int(doc, name, default):
    """``doc[name]`` (or ``default``) if it is a JSON integer: a fraction
    such as 2.7 is refused rather than truncated."""
    value = doc.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _non_negative(convert):
    """argparse type: ``convert(text)`` if it is finite and >= 0."""

    def parse(text):
        value = convert(text)
        if not (math.isfinite(value) and value >= 0):
            raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _config_sha256(effective):
    return hashlib.sha256(canonical_json(effective).encode()).hexdigest()


def _write_snapshot(path, command, effective):
    payload = {
        "command": command,
        "version": __version__,
        "config_sha256": _config_sha256(effective),
        "effective": effective,
    }
    Path(path).write_text(canonical_json(payload))


def _input_record(path, snapshot_dir, read=None):
    """An input as a snapshot records it: its path relative to the
    snapshot's directory, and the sha256 of the file read from it
    (``read``, or the input itself)."""
    digest = hashlib.sha256()
    with open(read or path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return {
        "path": Path(os.path.relpath(path, snapshot_dir)).as_posix(),
        "sha256": digest.hexdigest(),
    }


def _dataset_record(dataset_dir, snapshot_dir):
    return _input_record(dataset_dir, snapshot_dir, Path(dataset_dir) / "scene_gt.json")


def _require_file(path, kind):
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{kind} not found: {path}")
    return path


def _open_dataset(dataset_dir):
    return load_dataset(_require_file(Path(dataset_dir) / "scene_gt.json", "dataset"))


def _dataset_models(ds):
    if not ds.model_paths:
        raise InputError("dataset lists no model manifests")
    models = [load_model_manifest(_require_file(p, "model manifest")) for p in ds.model_paths]
    return models, {m.class_id: m for m in models}


# ---------------------------------------------------------------------------
# simgen


def cmd_simgen(args):
    cfg = _read_config(args.config)
    models = (needle_holder_model(), tweezers_model())
    with _config_errors("simgen config"):
        frames_n = args.frames if args.frames is not None else _config_int(cfg, "frames", 200)
        seed = args.seed if args.seed is not None else _config_int(cfg, "seed", 0)
        occ_cfg = cfg.get("occluders", {})
        occ_enabled = bool(occ_cfg.get("enabled", True)) and not args.no_occluders
        occluder = OccluderConfig(
            enabled=occ_enabled,
            count_range=tuple(occ_cfg.get("count_range", (1, 2))),
            size_range=tuple(occ_cfg.get("size_range", (0.015, 0.04))),
        )
        depth_range = tuple(cfg.get("depth_range", (0.75, 1.05)))
        scene = SceneConfig(
            models=models,
            camera=DEFAULT_CAMERA,
            depth_range=depth_range,
            occluder=occluder,
            seed=seed,
        )
    rendered = generate_sequence(scene, frames_n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = ("needle_holder", "tweezers")
    rel_paths = []
    for model, name in zip(models, names):
        manifest = save_model_manifest(model, out / "models", name)
        rel_paths.append(str(manifest.relative_to(out)))
    export_gt(rendered, out, scene.camera, rel_paths)
    _write_snapshot(
        out / "simgen_config.json",
        "simgen",
        {
            "frames": frames_n,
            "seed": seed,
            "depth_range": list(depth_range),
            "occluders": asdict(occluder),
            "camera": asdict(scene.camera),
            "models": rel_paths,
        },
    )
    print(f"wrote {frames_n} frames to {out}")
    return 0


# ---------------------------------------------------------------------------
# estimate


def _estimate_frame(frame, ds, models, sigma, seed):
    """(estimate records, failure class names) of a frame's objects."""
    records = []
    skipped = []
    for obj in frame.objects:
        cmap = load_correspondence(obj.corr_path, obj.crop)
        # read outside the try: a model without a box fails the command
        box = models[obj.model_index].corr_box
        try:
            res, confidence = solve_object(
                pairs_from_map(cmap, box),
                ds.camera,
                sigma,
                seed,
                frame.frame_id,
                obj.class_id,
            )
        except InputError:
            raise
        except ArtiposeError as exc:
            skipped.append(type(exc).__name__)
            continue
        records.append(
            encode_estimate(frame.frame_id, obj.class_id, confidence, obj.articulation, res)
        )
    return records, skipped


def cmd_estimate(args):
    ds = _open_dataset(args.dataset)
    models, _ = _dataset_models(ds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    results = [_estimate_frame(frame, ds, models, args.noise_sigma, args.seed) for frame in ds.frames]
    failures = Counter(name for _, names in results for name in names)
    lines = [json.dumps(rec, sort_keys=True) for recs, _ in results for rec in recs]
    out.write_text("\n".join(lines) + ("\n" if lines else ""))
    _write_snapshot(
        out.with_name(out.stem + "_config.json"),
        "estimate",
        {
            "dataset": _dataset_record(args.dataset, out.parent),
            "noise_sigma": args.noise_sigma,
            "seed": args.seed,
        },
    )
    skipped = f"{failures.total()} skipped"
    if failures:
        skipped += ": " + ", ".join(f"{name} {n}" for name, n in sorted(failures.items()))
    print(f"wrote {len(lines)} estimates to {out} ({skipped})")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _frame_predictions(frame_id, keys, estimates, models_by_class, camera):
    """(order, class_id, confidence, amodal mask) of a frame's renderable
    (order, class_id) ``keys``, popped from ``estimates``."""
    preds = []
    for order, class_id in keys:
        est = estimates.pop((frame_id, class_id))
        mesh = articulate(models_by_class[class_id], est.articulation)
        try:
            mask = render_amodal(mesh, est.pose, camera)
        except InputError:
            raise
        except ArtiposeError:
            continue
        preds.append((order, class_id, est.class_confidence, mask))
    return preds


def _ap_payload(report):
    return {
        "per_class": {str(cls): ap for cls, ap in sorted(report.per_class_ap.items())},
        "mean": report.mean_ap,
    }


def _format_report_txt(payload):
    lines = [
        f"artipose evaluation (version {payload['version']})",
        f"config sha256: {payload['config_sha256']}",
        "",
        f"pose AP (mean over IoU {payload['iou_thresholds'][0]:.2f}..{payload['iou_thresholds'][-1]:.2f}):",
    ]
    for cls, ap in payload["pose_ap"]["per_class"].items():
        lines.append(f"  class {cls}: {ap:.4f}")
    lines.append(f"  mean: {payload['pose_ap']['mean']:.4f}")
    lines.append("detection AP:")
    for cls, ap in payload["detection_ap"]["per_class"].items():
        lines.append(f"  class {cls}: {ap:.4f}")
    lines.append(f"  mean: {payload['detection_ap']['mean']:.4f}")
    lines.append("")
    lines.append(
        f"{payload['n_predictions']} predictions over {payload['n_frames']} frames"
    )
    return "\n".join(lines) + "\n"


def cmd_evaluate(args):
    """Score predictions one annotated frame at a time: each frame's masks
    and renders are dropped once matched, so memory stays flat."""
    ds = _open_dataset(args.dataset)
    _, models_by_class = _dataset_models(ds)
    frames = iter_annotations(
        _require_file(Path(args.dataset) / "annotations.json", "annotations")
    )
    estimates = load_estimates(_require_file(args.predictions, "predictions file"))
    by_frame = {}
    for order, (frame_id, class_id) in enumerate(sorted(estimates)):
        if class_id not in models_by_class:
            raise InputError(f"prediction for unknown class {class_id}")
        by_frame.setdefault(frame_id, []).append((order, class_id))
    matches = Matches()
    for ann in frames:
        keys = by_frame.pop(ann.frame_id, [])
        preds = _frame_predictions(ann.frame_id, keys, estimates, models_by_class, ds.camera)
        matches.add(ann.frame_id, preds, ann)
    for frame_id, keys in by_frame.items():
        preds = _frame_predictions(frame_id, keys, estimates, models_by_class, ds.camera)
        matches.add(frame_id, preds)
    pose_report = matches.pose.report()
    det_report = matches.detection.report()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    effective = {
        "dataset": _dataset_record(args.dataset, out.parent),
        "predictions": _input_record(args.predictions, out.parent),
    }
    payload = {
        "version": __version__,
        "config_sha256": _config_sha256(effective),
        "iou_thresholds": list(pose_report.thresholds),
        "pose_ap": _ap_payload(pose_report),
        "detection_ap": _ap_payload(det_report),
        "n_predictions": sum(map(len, matches.pose.preds.values())),
        "n_frames": len(matches.frames),
    }
    out.write_text(canonical_json(payload))
    out.with_suffix(".txt").write_text(_format_report_txt(payload))
    _write_snapshot(out.with_name(out.stem + "_config.json"), "evaluate", effective)
    print(
        f"pose mean AP {pose_report.mean_ap:.4f}, "
        f"detection mean AP {det_report.mean_ap:.4f} -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# adapt


def cmd_adapt(args):
    ds = _open_dataset(args.dataset)
    _, models_by_class = _dataset_models(ds)
    gt_boxes = {
        (frame.frame_id, obj.class_id): obj.bbox_amodal
        for frame in ds.frames
        for obj in frame.objects
    }
    if args.detections is not None:
        detections = load_detections(_require_file(args.detections, "detections file"))
    else:
        rng = np.random.default_rng([args.seed, 977])
        detections = []
        for frame in ds.frames:
            for obj in frame.objects:
                box = obj.bbox_amodal
                detections.append(
                    Detection(
                        frame_id=frame.frame_id,
                        class_id=obj.class_id,
                        confidence=1.0,
                        bbox=BBox(
                            cx=box.cx + rng.normal(0.0, args.box_jitter * box.w),
                            cy=box.cy + rng.normal(0.0, args.box_jitter * box.h),
                            w=max(box.w * (1.0 + rng.normal(0.0, args.box_jitter)), 4.0),
                            h=max(box.h * (1.0 + rng.normal(0.0, args.box_jitter)), 4.0),
                        ),
                    )
                )
    estimator = RenderEstimator(
        ds.frames,
        models_by_class,
        ds.camera,
        sigma=args.noise_sigma,
        seed=args.seed,
    )
    cfg = _read_config(args.config)
    thresholds = _from_config(FilterThresholds, cfg.get("thresholds", {}))
    with _config_errors("mixing_ratio"):
        mixing_ratio = float(cfg.get("mixing_ratio", DEFAULT_MIXING_RATIO))
    if not 0.0 <= mixing_ratio <= 1.0:
        raise ConfigError(f"mixing_ratio must be in [0, 1], got {mixing_ratio}")
    results = adaptation_loop(
        detections,
        estimator,
        models_by_class,
        ds.camera,
        thresholds,
        rounds=args.rounds,
        gt_boxes=gt_boxes,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metric_rows = []
    for i, (detection_labels, pose_labels, metrics) in enumerate(results, start=1):
        write_pseudo_labels(
            out / f"labels_round{i}.json", detection_labels, pose_labels, thresholds, mixing_ratio
        )
        metric_rows.append({"round": i, **asdict(metrics)})
    (out / "metrics.json").write_text(canonical_json({"rounds": metric_rows}))
    _write_snapshot(
        out / "adapt_config.json",
        "adapt",
        {
            "dataset": _dataset_record(args.dataset, out),
            "detections": None if args.detections is None else _input_record(args.detections, out),
            "rounds": args.rounds,
            "seed": args.seed,
            "noise_sigma": args.noise_sigma,
            "box_jitter": args.box_jitter,
            "thresholds": asdict(thresholds),
            "mixing_ratio": mixing_ratio,
        },
    )
    last = metric_rows[-1]
    print(
        f"{len(results)} round(s): selection rate {last['selection_rate']:.2f}, "
        f"{last['n_pose_labels']} pose labels -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# losses


def _class_logits(confidence, class_id, n_classes):
    p = min(max(confidence, 1e-6), 1.0 - 1e-6)
    logits = np.full(n_classes, math.log((1.0 - p) / max(n_classes - 1, 1)))
    logits[class_id] = math.log(p)
    return logits


def _losses_for_object(obj, est, model, box, camera, weights, pts, n_classes):
    crop = obj.crop
    center = (crop.cx, crop.cy)
    gt_corr = load_correspondence(obj.corr_path, crop)
    gt_mesh = articulate(model, obj.articulation)
    gt_crop_masks = rasterize_crop([(gt_mesh, obj.pose)], camera, crop, CROP_OUT_SIZE)
    gt = GroundTruth(
        R=ego_to_allo(obj.pose.R, center, camera),
        site=encode_translation(obj.pose.t, crop, camera),
        articulation=obj.articulation,
        class_id=obj.class_id,
        corr=gt_corr.data.astype(np.float64),
        mask_vis=gt_corr.valid.data.astype(np.float64),
        mask_full=gt_crop_masks[0].data.astype(np.float64),
    )
    pred_mesh = articulate(model, est.articulation)
    coords = normalize_vertices(pred_mesh, box)
    pred_corr = render_correspondence(
        pred_mesh, coords, est.pose, camera, crop, CROP_OUT_SIZE
    )
    # with one mesh, the visible and the full mask are the same pixels
    pred_full = pred_corr.valid.data.astype(np.float64)
    pred = PosePrediction(
        rot6d=matrix_to_rot6d(ego_to_allo(est.pose.R, center, camera)),
        site=encode_translation(est.pose.t, crop, camera),
        articulation=est.articulation,
        class_logits=_class_logits(est.class_confidence, est.class_id, n_classes),
        corr=pred_corr.data.astype(np.float64),
        mask_vis=pred_full,
        mask_full=pred_full,
    )
    return loss_total(pred, gt, weights, pts)


def cmd_losses(args):
    ds = _open_dataset(args.dataset)
    models, models_by_class = _dataset_models(ds)
    estimates = load_estimates(_require_file(args.predictions, "predictions file"))
    weights = _from_config(LossWeights, _read_config(args.weights))
    pts = {
        m.class_id: sample_surface_points(articulate(m, 0.5), DEFAULT_NUM_POINTS, seed=0)
        for m in models
    }
    objects = {
        (frame.frame_id, obj.class_id): obj
        for frame in ds.frames
        for obj in frame.objects
    }
    n_classes = max(2, max(models_by_class) + 1)
    rows = []
    skipped = 0
    for key in sorted(estimates):
        if key not in objects:
            raise InputError(f"prediction without ground truth: frame {key[0]} class {key[1]}")
        obj = objects[key]
        est = estimates[key]
        model = models_by_class[key[1]]
        # read outside the try: a model without a box fails the command
        box = model.corr_box
        try:
            breakdown = _losses_for_object(
                obj,
                est,
                model,
                box,
                ds.camera,
                weights,
                pts[key[1]],
                n_classes,
            )
        except InputError:
            raise
        except ArtiposeError:
            skipped += 1
            continue
        rows.append({"frame_id": key[0], "class": key[1], **asdict(breakdown)})
    if not rows:
        raise InputError("no prediction produced a loss value")
    means = {f.name: float(np.mean([r[f.name] for r in rows])) for f in fields(LossBreakdown)}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    effective = {
        "dataset": _dataset_record(args.dataset, out.parent),
        "predictions": _input_record(args.predictions, out.parent),
        "weights": asdict(weights),
    }
    payload = {
        "version": __version__,
        "config_sha256": _config_sha256(effective),
        "weights": effective["weights"],
        "mean": means,
        "per_object": rows,
        "n_skipped": skipped,
    }
    out.write_text(canonical_json(payload))
    _write_snapshot(out.with_name(out.stem + "_config.json"), "losses", effective)
    print(f"mean total loss {means['total']:.4f} over {len(rows)} objects -> {out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="artipose",
        description="Synthetic articulated-tool pose experiments.",
    )
    parser.add_argument("--version", action="version", version=f"artipose {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simgen", help="render a synthetic ground-truth sequence")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--frames", type=int, help="number of frames")
    p.add_argument("--seed", type=_non_negative(int), help="generator seed")
    p.add_argument("--no-occluders", action="store_true", help="disable occluders")

    p = sub.add_parser("estimate", help="solve poses from stored correspondence maps")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output JSONL file")
    p.add_argument("--noise-sigma", type=_non_negative(float), default=0.0, help="correspondence pixel noise")
    p.add_argument("--seed", type=_non_negative(int), default=0)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True, help="estimate JSONL file")
    p.add_argument("--out", required=True, help="report JSON path (a .txt sibling is written too)")

    p = sub.add_parser("adapt", help="run pseudo-label adaptation rounds")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--detections", help="detection JSONL; synthesized from GT when absent")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--seed", type=_non_negative(int), default=0)
    p.add_argument("--noise-sigma", type=_non_negative(float), default=0.0)
    p.add_argument("--box-jitter", type=_non_negative(float), default=0.1, help="relative box jitter for synthesized detections")

    p = sub.add_parser("losses", help="loss breakdown of predictions vs ground truth")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--weights", help="JSON file with w_pose/w_geom/w_cat/w_art")
    return parser


@functools.cache
def _parser():
    """``build_parser()``, built once per process."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up at call time, so that a rebound ``cmd_*`` is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return 2
    except ArtiposeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
