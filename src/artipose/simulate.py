"""Procedural scene and sequence generator with exact ground truth.

Two hinged tools walk smoothly through disjoint image lanes while
ellipsoid occluders ride near their hinges as hand stand-ins.  Every
frame is rendered to visibility masks, amodal masks, a hand mask, and
per-object correspondence crops normalized to each model's
``corr_box``, all reproducible bit for bit from the seed.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .camera import BBox, CameraIntrinsics, Pose, project_points, random_rotation, rotation_about_axis
from .errors import ConfigError, EmptyRender, ParseError
from .formats import canonical_json, decode_pose, encode_pose, read_fmap, write_fmap, write_mask_pgm
from .meshes import (
    ArticulatedModel,
    TriMesh,
    articulate,
    box_mesh,
    ellipsoid_mesh,
    normalize_vertices,
    unit_sphere,
)
from .raster import CorrespondenceMap, MaskImage, rasterize_scene, render_correspondence

DEFAULT_CAMERA = CameraIntrinsics(f=800.0, px=320.0, py=240.0, width=640, height=480)
MAX_ROT_STEP = math.radians(2.0)
MAX_TRANS_STEP = 0.005
MAX_ART_STEP = 0.02
CROP_SCALE = 1.1
CROP_OUT_SIZE = 64
# occluder anchors stay within this fraction of the model box diagonal of
# the hinge so each occluder keeps riding its own tool
OCC_ANCHOR_FRAC = 0.35
SPHERE_SUBDIVISIONS = 2


def square_crop(bbox: BBox) -> BBox:
    """Square crop window around a box, matching the training-crop shape:
    ``CROP_SCALE`` times the box's longer side."""
    side = CROP_SCALE * max(bbox.w, bbox.h)
    return BBox(cx=bbox.cx, cy=bbox.cy, w=side, h=side)


@dataclass(frozen=True)
class OccluderConfig:
    enabled: bool = True
    count_range: tuple = (1, 2)
    size_range: tuple = (0.015, 0.04)

    def __post_init__(self):
        lo, hi = self.count_range
        if not (0 <= lo <= hi):
            raise ConfigError(f"count_range must satisfy 0 <= lo <= hi, got {self.count_range}")
        slo, shi = self.size_range
        if not (0.0 < slo <= shi):
            raise ConfigError(f"size_range must satisfy 0 < lo <= hi, got {self.size_range}")


@dataclass(frozen=True)
class SceneConfig:
    models: tuple
    camera: CameraIntrinsics = DEFAULT_CAMERA
    depth_range: tuple = (0.75, 1.05)
    occluder: OccluderConfig = field(default_factory=OccluderConfig)
    seed: int = 0

    def __post_init__(self):
        if not self.models:
            raise ConfigError("at least one model is required")
        object.__setattr__(self, "models", tuple(self.models))
        zmin, zmax = self.depth_range
        if not (0.0 < zmin < zmax):
            raise ConfigError(f"depth_range must satisfy 0 < zmin < zmax, got {self.depth_range}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def needle_holder_model() -> ArticulatedModel:
    """Hinged two-box stand-in for a needle holder (class 0)."""
    return ArticulatedModel(
        part_fixed=box_mesh(center=(0.0, -0.0375, 0.0), size=(0.04, 0.075, 0.02)),
        part_moving=box_mesh(center=(0.0, 0.0225, 0.0), size=(0.036, 0.045, 0.018)),
        hinge_origin=np.zeros(3),
        hinge_axis=np.array([1.0, 0.0, 0.0]),
        angle_min=0.0,
        angle_max=0.6,
        class_id=0,
    )


def tweezers_model() -> ArticulatedModel:
    """Hinged two-box stand-in for tweezers (class 1)."""
    return ArticulatedModel(
        part_fixed=box_mesh(center=(0.0, -0.035, 0.0), size=(0.044, 0.07, 0.022)),
        part_moving=box_mesh(center=(0.0, 0.0275, 0.0), size=(0.04, 0.055, 0.02)),
        hinge_origin=np.zeros(3),
        hinge_axis=np.array([1.0, 0.0, 0.0]),
        angle_min=0.0,
        angle_max=0.6,
        class_id=1,
    )


def _footprint_radius(corr_box, config: SceneConfig) -> float:
    lo, hi = corr_box
    corners = np.array([[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])])
    r = float(np.linalg.norm(corners, axis=1).max())
    if config.occluder.enabled:
        diag = float(np.linalg.norm(hi - lo))
        r = max(r, OCC_ANCHOR_FRAC * diag + config.occluder.size_range[1])
    return r


def sample_pose(rng, config: SceneConfig, region) -> Pose:
    """Random pose: uniform rotation, center uniform in ``region`` and in
    depth.

    ``region`` bounds the projected center in pixels as (x_lo, x_hi,
    y_lo, y_hi), such as a tool's lane from ``_lane_regions``.
    """
    cam = config.camera
    x_lo, x_hi, y_lo, y_hi = region
    u = rng.uniform(x_lo, x_hi)
    v = rng.uniform(y_lo, y_hi)
    z = rng.uniform(config.depth_range[0], config.depth_range[1])
    t = np.array([(u - cam.px) * z / cam.f, (v - cam.py) * z / cam.f, z])
    return Pose(R=random_rotation(rng), t=t)


@dataclass
class _Occluder:
    mesh: TriMesh
    rotation: np.ndarray
    offset: np.ndarray

    def world_pose(self, tool: Pose) -> Pose:
        return Pose(R=tool.R @ self.rotation, t=tool.R @ self.offset + tool.t)


@dataclass
class RenderedObject:
    """Per-frame artifacts and ground truth for one tool."""

    class_id: int
    model_index: int
    pose: Pose
    articulation: float
    visible_mask: MaskImage
    amodal_mask: MaskImage
    corr: CorrespondenceMap
    visibility: float

    @property
    def bbox_amodal(self) -> BBox:
        return self.amodal_mask.bbox()

    @property
    def bbox_visible(self):
        return self.visible_mask.bbox()


@dataclass
class RenderedFrame:
    frame_id: int
    objects: list
    hand_mask: MaskImage


def _lane_regions(config: SceneConfig):
    cam = config.camera
    n = len(config.models)
    lane_w = cam.width / n
    regions = []
    for i, model in enumerate(config.models):
        r_m = _footprint_radius(model.corr_box, config)
        if r_m >= config.depth_range[0]:
            raise ConfigError(
                f"model {i} footprint radius {r_m:.3f} m reaches past the near depth bound"
            )
        # worst-case pixel radius: nearest allowed surface point
        r_px = cam.f * r_m / (config.depth_range[0] - r_m)
        x_lo = i * lane_w + r_px
        x_hi = (i + 1) * lane_w - r_px
        y_lo = r_px
        y_hi = cam.height - r_px
        if x_lo >= x_hi or y_lo >= y_hi:
            raise ConfigError(
                f"model {i} is too large for a {lane_w:.0f} px lane at depth {config.depth_range[0]}"
            )
        regions.append((x_lo, x_hi, y_lo, y_hi))
    return regions


def _center_pixel(pose: Pose, cam: CameraIntrinsics):
    uv = project_points(np.zeros((1, 3)), pose, cam)[0]
    return float(uv[0]), float(uv[1])


def _in_region(pose: Pose, cam, region, depth_range) -> bool:
    u, v = _center_pixel(pose, cam)
    x_lo, x_hi, y_lo, y_hi = region
    return x_lo <= u <= x_hi and y_lo <= v <= y_hi and depth_range[0] <= pose.t[2] <= depth_range[1]


def _unit_vector(rng) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def generate_sequence(config: SceneConfig, n_frames: int) -> list:
    """Simulate ``n_frames`` of smooth tool motion and render ground truth.

    Each tool walks inside its own image lane (rotation steps up to 2
    degrees, translation up to 5 mm, articulation up to 0.02 per frame;
    steps that would leave the lane or the depth range are skipped), so
    tools never overlap each other; only occluders ever cover tool pixels.

    Raises:
        ConfigError: a model cannot fit its lane.
    """
    if n_frames < 1:
        raise ConfigError(f"n_frames must be >= 1, got {n_frames}")
    cam = config.camera
    # lane sizes, occluder offsets and correspondence normalization all
    # derive from each model's articulation-free corr_box
    regions = _lane_regions(config)
    ss = np.random.SeedSequence(config.seed)
    rng_pose, rng_walk, rng_occ = (np.random.default_rng(s) for s in ss.spawn(3))

    poses = [sample_pose(rng_pose, config, region) for region in regions]
    states = [float(rng_pose.uniform(0.0, 1.0)) for _ in config.models]

    sphere = unit_sphere(SPHERE_SUBDIVISIONS)
    occluders = []
    for model in config.models:
        group = []
        if config.occluder.enabled:
            lo, hi = model.corr_box
            diag = float(np.linalg.norm(hi - lo))
            count = int(rng_occ.integers(config.occluder.count_range[0], config.occluder.count_range[1] + 1))
            for _ in range(count):
                radii = rng_occ.uniform(*config.occluder.size_range, size=3)
                offset = _unit_vector(rng_occ) * rng_occ.uniform(0.1, OCC_ANCHOR_FRAC) * diag
                group.append(
                    _Occluder(
                        mesh=ellipsoid_mesh((0.0, 0.0, 0.0), radii, sphere),
                        rotation=random_rotation(rng_occ),
                        offset=offset,
                    )
                )
        occluders.append(group)

    frames = []
    for frame_id in range(n_frames):
        if frame_id > 0:
            for k in range(len(config.models)):
                axis = _unit_vector(rng_walk)
                angle = rng_walk.uniform(0.0, MAX_ROT_STEP)
                step_dir = _unit_vector(rng_walk)
                step_len = rng_walk.uniform(0.0, MAX_TRANS_STEP)
                art_step = rng_walk.uniform(-MAX_ART_STEP, MAX_ART_STEP)
                new_pose = Pose(
                    R=rotation_about_axis(axis, angle) @ poses[k].R,
                    t=poses[k].t + step_dir * step_len,
                )
                if _in_region(new_pose, cam, regions[k], config.depth_range):
                    poses[k] = new_pose
                else:
                    poses[k] = Pose(R=new_pose.R, t=poses[k].t)
                states[k] = float(np.clip(states[k] + art_step, 0.0, 1.0))

        meshes = [articulate(model, states[k]) for k, model in enumerate(config.models)]
        scene = [(meshes[k], poses[k]) for k in range(len(meshes))]
        for k, group in enumerate(occluders):
            for occ in group:
                scene.append((occ.mesh, occ.world_pose(poses[k])))
        # one pass over the frame and one over each tool's crop
        visible_masks, amodal_masks = rasterize_scene(scene, cam)
        n_obj = len(config.models)
        hand_data = np.zeros((cam.height, cam.width), dtype=np.uint8)
        for m in visible_masks[n_obj:]:
            x0, y0, x1, y1 = m.window
            hand_data[y0:y1, x0:x1] |= m.data
        hand_mask = MaskImage(cam.width, cam.height, hand_data).tight()

        objects = []
        for k, model in enumerate(config.models):
            visible = visible_masks[k].tight()
            amodal = amodal_masks[k].tight()
            box = amodal.bbox()
            if box is None:
                raise EmptyRender(f"tool {k} covers no pixel")
            coords = normalize_vertices(meshes[k], model.corr_box)
            others = scene[:k] + scene[k + 1 :]
            corr = render_correspondence(
                meshes[k], coords, poses[k], cam, square_crop(box), CROP_OUT_SIZE, others
            )
            objects.append(
                RenderedObject(
                    class_id=model.class_id,
                    model_index=k,
                    pose=poses[k],
                    articulation=states[k],
                    visible_mask=visible,
                    amodal_mask=amodal,
                    corr=corr,
                    visibility=visible.pixel_count() / amodal.pixel_count(),
                )
            )
        frames.append(RenderedFrame(frame_id=frame_id, objects=objects, hand_mask=hand_mask))
    return frames


def export_gt(frames, out_dir, camera: CameraIntrinsics, model_paths=()) -> Path:
    """Write all frame artifacts plus scene_gt.json and annotations.json.

    Masks go to ``masks/`` as PGM, correspondence maps to ``fmaps/`` as
    4-channel FMAP (three coordinates plus validity).  Returns the
    scene_gt.json path.

    Raises:
        ConfigError: two objects share a class (annotations key by class).
    """
    out_dir = Path(out_dir)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)
    (out_dir / "fmaps").mkdir(parents=True, exist_ok=True)
    gt_frames = []
    ann_frames = []
    for frame in frames:
        classes = [obj.class_id for obj in frame.objects]
        if len(set(classes)) != len(classes):
            raise ConfigError("duplicate class in one frame; annotations key by class")
        hand_rel = f"masks/{frame.frame_id:06d}_hand.pgm"
        write_mask_pgm(frame.hand_mask, out_dir / hand_rel)
        entries = []
        ann_masks = {}
        ann_amodal = {}
        for obj in frame.objects:
            vis_rel = f"masks/{frame.frame_id:06d}_obj{obj.model_index}_vis.pgm"
            full_rel = f"masks/{frame.frame_id:06d}_obj{obj.model_index}_full.pgm"
            corr_rel = f"fmaps/{frame.frame_id:06d}_obj{obj.model_index}.fmap"
            write_mask_pgm(obj.visible_mask, out_dir / vis_rel)
            write_mask_pgm(obj.amodal_mask, out_dir / full_rel)
            packed = np.dstack(
                [obj.corr.data, obj.corr.valid.data.astype(np.float32)]
            )
            write_fmap(packed, out_dir / corr_rel)
            entries.append(
                {
                    "class": int(obj.class_id),
                    "model": int(obj.model_index),
                    **encode_pose(obj.pose),
                    "articulation": float(obj.articulation),
                    "bbox_amodal": obj.bbox_amodal.as_list(),
                    "bbox_visible": None if obj.bbox_visible is None else obj.bbox_visible.as_list(),
                    "visibility": float(obj.visibility),
                    "crop": obj.corr.crop.as_list(),
                    "visible_mask": vis_rel,
                    "amodal_mask": full_rel,
                    "corr_map": corr_rel,
                }
            )
            ann_masks[str(obj.class_id)] = vis_rel
            ann_amodal[str(obj.class_id)] = full_rel
        gt_frames.append(
            {"frame_id": frame.frame_id, "hand_mask": hand_rel, "objects": entries}
        )
        ann_frames.append(
            {
                "frame_id": frame.frame_id,
                "masks": ann_masks,
                "amodal": ann_amodal,
                "hand_mask": hand_rel,
            }
        )
    payload = {
        "camera": {
            "f": float(camera.f),
            "px": float(camera.px),
            "py": float(camera.py),
            "width": camera.width,
            "height": camera.height,
        },
        "models": list(model_paths),
        "frames": gt_frames,
    }
    gt_path = out_dir / "scene_gt.json"
    gt_path.write_text(canonical_json(payload))
    (out_dir / "annotations.json").write_text(canonical_json({"frames": ann_frames}))
    return gt_path


@dataclass(frozen=True)
class ObjectGT:
    """One object's ground truth as loaded back from scene_gt.json."""

    class_id: int
    model_index: int
    pose: Pose
    articulation: float
    bbox_amodal: BBox
    bbox_visible: BBox
    visibility: float
    crop: BBox
    visible_mask_path: Path
    amodal_mask_path: Path
    corr_path: Path


@dataclass(frozen=True)
class FrameGT:
    frame_id: int
    hand_mask_path: Path
    objects: tuple


@dataclass(frozen=True)
class SceneDataset:
    root: Path
    camera: CameraIntrinsics
    model_paths: tuple
    frames: tuple


def load_dataset(scene_gt_path) -> SceneDataset:
    """Read scene_gt.json back into poses, boxes, and artifact paths.

    Raises:
        ParseError: missing or malformed fields, or an ``R`` that is not
            a rotation, with the frame id and object index.
    """
    scene_gt_path = Path(scene_gt_path)
    root = scene_gt_path.parent
    try:
        payload = json.loads(scene_gt_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene_gt is not valid JSON: {exc}") from None
    where = ""
    try:
        cam = payload["camera"]
        camera = CameraIntrinsics(
            f=float(cam["f"]),
            px=float(cam["px"]),
            py=float(cam["py"]),
            width=int(cam["width"]),
            height=int(cam["height"]),
        )
        frames = []
        for pos, entry in enumerate(payload["frames"]):
            where = f" (frame entry {pos})"
            frame_id = int(entry["frame_id"])
            objects = []
            for index, rec in enumerate(entry["objects"]):
                where = f" (frame {frame_id}, object {index})"
                visible = rec["bbox_visible"]
                objects.append(
                    ObjectGT(
                        class_id=int(rec["class"]),
                        model_index=int(rec["model"]),
                        pose=decode_pose(rec),
                        articulation=float(rec["articulation"]),
                        bbox_amodal=BBox.from_list(rec["bbox_amodal"]),
                        bbox_visible=None if visible is None else BBox.from_list(visible),
                        visibility=float(rec["visibility"]),
                        crop=BBox.from_list(rec["crop"]),
                        visible_mask_path=root / rec["visible_mask"],
                        amodal_mask_path=root / rec["amodal_mask"],
                        corr_path=root / rec["corr_map"],
                    )
                )
            where = f" (frame {frame_id})"
            frames.append(
                FrameGT(
                    frame_id=frame_id,
                    hand_mask_path=root / entry["hand_mask"],
                    objects=tuple(objects),
                )
            )
        where = " (models)"
        models = payload.get("models", [])
        if not isinstance(models, list) or not all(isinstance(p, str) for p in models):
            raise ValueError(f"expected a list of manifest paths, got {models!r}")
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise ParseError(f"{scene_gt_path}: malformed scene_gt{where}: {exc}") from None
    return SceneDataset(
        root=root,
        camera=camera,
        model_paths=tuple(root / p for p in models),
        frames=tuple(frames),
    )


def load_correspondence(corr_path, crop: BBox) -> CorrespondenceMap:
    """Rebuild a CorrespondenceMap from a 4-channel FMAP and its crop box."""
    arr = read_fmap(corr_path)
    if arr.ndim != 3 or arr.shape[2] != 4:
        raise ParseError(f"expected a 4-channel FMAP, got shape {arr.shape}")
    h, w = arr.shape[:2]
    valid = MaskImage(w, h, (arr[:, :, 3] > 0.5).astype(np.uint8))
    return CorrespondenceMap(width=w, height=h, data=arr[:, :, :3], valid=valid, crop=crop)
