"""Scene generator checks: sampling bounds, motion limits, lane
separation, export round-trips, and pose recovery from rendered maps."""

import hashlib
import json
import math

import numpy as np
import pytest

from artipose import raster, simulate
from artipose.camera import BBox, Pose, bbox_iou, check_rotation, geodesic_angle
from artipose.errors import ConfigError, DegenerateMesh, ParseError
from artipose.formats import canonical_json, encode_pose, read_mask_pgm
from artipose.meshes import (
    ArticulatedModel,
    TriMesh,
    articulate,
    normalize_vertices,
    tight_bbox,
)
from artipose.metrics import iter_annotations, mask_iou, occlusion_subtract
from artipose.pnp import pairs_from_map, pnp_ransac
from artipose.raster import (
    _Grid,
    _raster_core,
    rasterize_crop,
    render_amodal,
    render_correspondence,
)
from artipose.simulate import (
    CROP_OUT_SIZE,
    DEFAULT_CAMERA,
    MAX_ART_STEP,
    MAX_ROT_STEP,
    MAX_TRANS_STEP,
    OccluderConfig,
    SceneConfig,
    export_gt,
    generate_sequence,
    load_correspondence,
    load_dataset,
    needle_holder_model,
    sample_pose,
    tweezers_model,
)


def two_tool_config(seed=7, occluders=True):
    return SceneConfig(
        models=(needle_holder_model(), tweezers_model()),
        occluder=OccluderConfig(enabled=occluders),
        seed=seed,
    )


@pytest.fixture(scope="module")
def walk():
    """One long occluded sequence shared by the motion tests."""
    return generate_sequence(two_tool_config(seed=11), 60)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """Short occluder-free sequence exported to disk."""
    frames = generate_sequence(two_tool_config(seed=3, occluders=False), 5)
    out = tmp_path_factory.mktemp("clean")
    gt_path = export_gt(frames, out, DEFAULT_CAMERA)
    return frames, gt_path


class TestConfigValidation:
    def test_depth_range_order(self):
        with pytest.raises(ConfigError):
            SceneConfig(models=(needle_holder_model(),), depth_range=(1.0, 0.5))

    def test_depth_range_positive(self):
        with pytest.raises(ConfigError):
            SceneConfig(models=(needle_holder_model(),), depth_range=(-0.2, 0.5))

    def test_models_required(self):
        with pytest.raises(ConfigError):
            SceneConfig(models=())

    def test_occluder_count_range(self):
        with pytest.raises(ConfigError):
            OccluderConfig(count_range=(3, 1))

    def test_occluder_size_range(self):
        with pytest.raises(ConfigError):
            OccluderConfig(size_range=(0.0, 0.02))

    def test_frame_count_positive(self):
        with pytest.raises(ConfigError):
            generate_sequence(two_tool_config(), 0)

    def test_oversized_model_rejected(self):
        cfg = SceneConfig(models=(needle_holder_model(),), depth_range=(0.09, 0.2))
        with pytest.raises(ConfigError):
            generate_sequence(cfg, 1)


class TestSamplePose:
    def test_depth_and_center_bounds(self):
        cfg = two_tool_config()
        rng = np.random.default_rng(0)
        cam = cfg.camera
        region = (10.0, cam.width - 10.0, 10.0, cam.height - 10.0)
        for _ in range(500):
            pose = sample_pose(rng, cfg, region)
            check_rotation(pose.R)
            assert cfg.depth_range[0] <= pose.t[2] <= cfg.depth_range[1]
            u = cam.f * pose.t[0] / pose.t[2] + cam.px
            v = cam.f * pose.t[1] / pose.t[2] + cam.py
            assert 10.0 <= u <= cam.width - 10.0
            assert 10.0 <= v <= cam.height - 10.0

    def test_region_respected(self):
        cfg = two_tool_config()
        rng = np.random.default_rng(1)
        cam = cfg.camera
        for _ in range(200):
            pose = sample_pose(rng, cfg, region=(100.0, 140.0, 200.0, 230.0))
            u = cam.f * pose.t[0] / pose.t[2] + cam.px
            v = cam.f * pose.t[1] / pose.t[2] + cam.py
            assert 100.0 <= u <= 140.0
            assert 200.0 <= v <= 230.0

    def test_rotation_axes_cover_sphere(self):
        # Rayleigh statistic 3n|mean axis|^2 is chi^2(3) under uniformity;
        # 11.35 is the 99th percentile
        cfg = two_tool_config()
        rng = np.random.default_rng(2)
        axes = []
        for _ in range(10000):
            R = sample_pose(rng, cfg, (0.0, cfg.camera.width, 0.0, cfg.camera.height)).R
            a = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
            n = np.linalg.norm(a)
            if n > 1e-8:
                axes.append(a / n)
        axes = np.array(axes)
        m = axes.mean(axis=0)
        stat = 3.0 * len(axes) * float(m @ m)
        assert stat < 11.35


class TestSequenceMotion:
    def test_single_frame(self):
        frames = generate_sequence(two_tool_config(), 1)
        assert len(frames) == 1
        assert frames[0].frame_id == 0
        assert len(frames[0].objects) == 2

    def test_deterministic_per_seed(self):
        a = generate_sequence(two_tool_config(seed=5), 4)
        b = generate_sequence(two_tool_config(seed=5), 4)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.hand_mask.data, fb.hand_mask.data)
            for oa, ob in zip(fa.objects, fb.objects):
                assert np.array_equal(oa.pose.R, ob.pose.R)
                assert np.array_equal(oa.pose.t, ob.pose.t)
                assert oa.articulation == ob.articulation
                assert np.array_equal(oa.corr.data, ob.corr.data)

    def test_seed_changes_scene(self):
        a = generate_sequence(two_tool_config(seed=5), 1)
        b = generate_sequence(two_tool_config(seed=6), 1)
        assert not np.array_equal(a[0].objects[0].pose.t, b[0].objects[0].pose.t)

    def test_step_limits(self, walk):
        for prev, cur in zip(walk, walk[1:]):
            for po, co in zip(prev.objects, cur.objects):
                assert geodesic_angle(po.pose.R, co.pose.R) <= MAX_ROT_STEP + 1e-9
                assert np.linalg.norm(co.pose.t - po.pose.t) <= MAX_TRANS_STEP + 1e-12
                assert abs(co.articulation - po.articulation) <= MAX_ART_STEP + 1e-12

    def test_depth_stays_bounded(self, walk):
        for frame in walk:
            for obj in frame.objects:
                assert 0.75 <= obj.pose.t[2] <= 1.05

    def test_tools_never_overlap_each_other(self, walk):
        for frame in walk:
            a, b = frame.objects
            assert int(np.sum(a.amodal_mask.full() & b.amodal_mask.full())) == 0

    def test_consecutive_boxes_track(self, walk):
        for prev, cur in zip(walk, walk[1:]):
            for po, co in zip(prev.objects, cur.objects):
                assert bbox_iou(po.bbox_amodal, co.bbox_amodal) > 0.7

    def test_visibility_matches_masks(self, walk):
        for frame in walk[:10]:
            for obj in frame.objects:
                expected = obj.visible_mask.pixel_count() / obj.amodal_mask.pixel_count()
                assert obj.visibility == pytest.approx(expected)

    def test_occluders_cost_some_pixels(self, walk):
        lost = sum(
            obj.amodal_mask.pixel_count() - obj.visible_mask.pixel_count()
            for frame in walk
            for obj in frame.objects
        )
        assert lost > 0
        assert any(frame.hand_mask.pixel_count() > 0 for frame in walk)

    def test_no_occluders_means_full_visibility(self):
        frames = generate_sequence(two_tool_config(seed=3, occluders=False), 5)
        for frame in frames:
            assert frame.hand_mask.pixel_count() == 0
            for obj in frame.objects:
                assert np.array_equal(obj.visible_mask.full(), obj.amodal_mask.full())
                assert obj.visibility == 1.0


class TestCorrespondenceRecovery:
    def test_map_solves_back_to_pose(self, walk):
        models = (needle_holder_model(), tweezers_model())
        for frame in walk[:3]:
            for obj in frame.objects:
                box = models[obj.model_index].corr_box
                pairs = pairs_from_map(obj.corr, box)
                res = pnp_ransac(pairs, DEFAULT_CAMERA, seed=0)
                assert geodesic_angle(res.pose.R, obj.pose.R) < math.radians(0.1)
                assert np.linalg.norm(res.pose.t - obj.pose.t) < 1e-3

    def test_corr_bbox_matches_articulated_meshes(self):
        # the box of every sampled articulated mesh, bit for bit
        for model in (needle_holder_model(), tweezers_model()):
            boxes = [
                tight_bbox(articulate(model, float(a)))
                for a in np.linspace(0.0, 1.0, 21)
            ]
            lo, hi = model.corr_box
            assert lo.tobytes() == (np.min([b[0] for b in boxes], axis=0) - 1e-4).tobytes()
            assert hi.tobytes() == (np.max([b[1] for b in boxes], axis=0) + 1e-4).tobytes()

    def test_flat_tool_has_no_corr_bbox(self):
        # both parts in one plane, hinged about its normal: every sampled
        # articulation stays flat
        faces = np.array([[0, 1, 2], [1, 3, 2]])
        quad = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float) * 0.02
        model = ArticulatedModel(
            part_fixed=TriMesh(quad - [0.0, 0.02, 0.0], faces),
            part_moving=TriMesh(quad, faces),
            hinge_origin=np.zeros(3),
            hinge_axis=np.array([0.0, 0.0, 1.0]),
        )
        with pytest.raises(DegenerateMesh, match="extent"):
            model.corr_box

    def test_valid_pixels_lie_inside_visible_mask_fraction(self, walk):
        # occluded pixels are dropped from the map, so validity cannot
        # exceed the visible share of the crop by much
        obj = walk[0].objects[0]
        assert 0 < obj.corr.valid.pixel_count() <= obj.corr.width * obj.corr.height


def _composed_frame(scene, n_obj, corr_boxes, cam=DEFAULT_CAMERA):
    """One frame composed as it was before passes were shared: a
    full-frame scene pass, then per tool an amodal render, a lone
    correspondence render and a scene pass over its crop, whose valid
    masks are ANDed.  The oracle for ``generate_sequence``."""
    _, owner, _, _ = _raster_core(scene, cam, _Grid.full_image(cam.width, cam.height))
    hand = (owner >= n_obj).astype(np.uint8)
    objects = []
    for k in range(n_obj):
        mesh, pose = scene[k]
        amodal = render_amodal(mesh, pose, cam)
        crop = simulate.square_crop(amodal.bbox())
        coords = normalize_vertices(mesh, corr_boxes[k])
        corr = render_correspondence(mesh, coords, pose, cam, crop, simulate.CROP_OUT_SIZE)
        crop_masks = rasterize_crop(scene, cam, crop, simulate.CROP_OUT_SIZE)
        valid = corr.valid.data & crop_masks[k].data
        objects.append(((owner == k).astype(np.uint8), amodal.full(), crop, corr.data, valid))
    return hand, objects


def _assert_matches_composition(monkeypatch, config, n_frames, edit_scene=None):
    """Render a sequence and check every frame against the oracle, bit
    for bit.  ``edit_scene(scene)`` may add meshes to a frame's scene
    before it is rendered."""
    scenes = []
    render = simulate.rasterize_scene

    def recording(scene, camera):
        if edit_scene is not None:
            edit_scene(scene)
        scenes.append(list(scene))
        return render(scene, camera)

    monkeypatch.setattr(simulate, "rasterize_scene", recording)
    frames = generate_sequence(config, n_frames)
    corr_boxes = [m.corr_box for m in config.models]
    n_obj = len(config.models)
    for frame, scene in zip(frames, scenes):
        hand, objects = _composed_frame(scene, n_obj, corr_boxes)
        assert np.array_equal(frame.hand_mask.full(), hand)
        for obj, (visible, amodal, crop, data, valid) in zip(frame.objects, objects):
            assert np.array_equal(obj.visible_mask.full(), visible)
            assert np.array_equal(obj.amodal_mask.full(), amodal)
            assert obj.corr.crop == crop
            assert obj.corr.data.tobytes() == data.tobytes()
            assert np.array_equal(obj.corr.valid.data, valid)
            assert obj.visibility == visible.sum() / amodal.sum()
    return frames, scenes


# probe depth 25/64 m: f / z = 2048 exactly, so the projection of a
# probe vertex whose x and y are multiples of 1/2048 is exact
PROBE_Z = 25.0 / 64.0


def _probe(x, y, pointing):
    """A small tetrahedron in front of the tools whose tip projects
    exactly to image point (x, y), every other vertex lying to its left
    (``pointing`` +1) or to its right (-1)."""
    cam = DEFAULT_CAMERA
    tip = np.array([(x - cam.px) / 2048.0, (y - cam.py) / 2048.0, PROBE_Z])
    back = tip - [pointing / 256.0, 0.0, 0.0]
    vertices = np.array([tip, back - [0.0, 1 / 512.0, 0.0], back + [0.0, 1 / 512.0, 0.0], back + [0.0, 0.0, 1 / 1024.0]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    return TriMesh(vertices, faces), Pose(R=np.eye(3), t=np.zeros(3))


def _inner_crop(amodal):
    """A square crop whose first and last pixel-center columns cross the
    tool at the crop's row 32: it spans the inside of the tool's longest
    pixel run, at whole pixels and with a power-of-two grid step, so
    every grid coordinate below is exact."""
    full = amodal.full()
    runs = [
        (b - a, a, b, r)
        for r, row in enumerate(full)
        for a, b in np.flatnonzero(np.diff(np.r_[0, row, 0])).reshape(-1, 2)
    ]
    _, a, b, row = max(runs)
    step = 2.0 ** math.floor(math.log2((b - a - 2) / CROP_OUT_SIZE))
    side = CROP_OUT_SIZE * step
    y0 = row + 0.5 - 32.5 * step
    return BBox(cx=a + 1 + side / 2.0, cy=y0 + side / 2.0, w=side, h=side)


class TestOnePassPerGrid:
    """generate_sequence shares one pass per grid, with the bits of the
    frame composed one mesh-by-grid pass at a time."""

    def test_two_occluders_per_tool(self, monkeypatch):
        config = SceneConfig(
            models=(needle_holder_model(), tweezers_model()),
            occluder=OccluderConfig(count_range=(2, 2)),
            seed=21,
        )
        frames, scenes = _assert_matches_composition(monkeypatch, config, 6)
        assert all(len(scene) == 6 for scene in scenes)
        assert any(obj.visibility < 1.0 for frame in frames for obj in frame.objects)

    def test_no_occluders(self, monkeypatch):
        _assert_matches_composition(monkeypatch, two_tool_config(seed=22, occluders=False), 4)

    def test_tool_cut_by_the_frame_edge(self, monkeypatch):
        # lanes hugging the left and the bottom edge: each tool's center
        # stays within 4 px of the border, so the tool and its crop
        # reach past it
        cam = DEFAULT_CAMERA
        lanes = [(0.0, 4.0, 150.0, 330.0), (420.0, 560.0, cam.height - 4.0, float(cam.height))]
        monkeypatch.setattr(simulate, "_lane_regions", lambda config: lanes)
        frames, _ = _assert_matches_composition(monkeypatch, two_tool_config(seed=23), 4)
        for frame in frames:
            left, bottom = frame.objects
            assert left.amodal_mask.window[0] == 0 and left.corr.crop.x0 < 0
            assert bottom.amodal_mask.window[3] == cam.height and bottom.corr.crop.y1 > cam.height

    def test_mesh_on_the_crop_cull_boundary(self, monkeypatch):
        # each tool's crop lies inside the tool; per crop, one probe's
        # rightmost vertex sits on the pixel center (0.5, 32.5) of the
        # crop grid and another's leftmost on (63.5, 32.5).  Neither may
        # be skipped: each takes its pixel from the tool behind it.
        cam = DEFAULT_CAMERA
        crops = {}

        def crop_for(bbox):
            return crops[bbox]

        def add_probes(scene):
            for mesh, pose in scene[:2]:
                amodal = render_amodal(mesh, pose, cam)
                crop = crops[amodal.bbox()] = _inner_crop(amodal)
                grid = _Grid.from_crop(crop, CROP_OUT_SIZE)
                for gx, pointing in ((0.5, 1), (CROP_OUT_SIZE - 0.5, -1)):
                    probe = _probe(crop.x0 + gx * grid.sx, crop.y0 + 32.5 * grid.sy, pointing)
                    v = probe[0].vertices
                    x = (cam.f * v[:, 0] / v[:, 2] + cam.px - grid.x0) / grid.sx
                    y = (cam.f * v[:, 1] / v[:, 2] + cam.py - grid.y0) / grid.sy
                    assert (x[0], y[0]) == (gx, 32.5)
                    assert x[0] == (x.max() if pointing > 0 else x.min())
                    scene.append(probe)

        monkeypatch.setattr(simulate, "square_crop", crop_for)
        frames, _ = _assert_matches_composition(monkeypatch, two_tool_config(seed=24), 3, add_probes)
        for frame in frames:
            for obj in frame.objects:
                # the tool covers both tip pixels, and the probes own them
                assert (obj.corr.data[32, [0, -1]] > 0).all()
                assert not obj.corr.valid.data[32, [0, -1]].any()

    def test_one_scene_pass_and_one_crop_pass_per_tool(self, monkeypatch):
        passes = []
        core = raster._raster_core

        def counting(meshes, camera, grid, attributes=None, attr_mesh=0):
            passes.append((len(meshes), grid.sx, grid.width, attr_mesh if attributes is not None else None))
            return core(meshes, camera, grid, attributes, attr_mesh)

        def forbidden(*args, **kwargs):
            raise AssertionError("generate_sequence renders a mesh on its own")

        monkeypatch.setattr(raster, "_raster_core", counting)
        monkeypatch.setattr(raster, "render_amodal", forbidden)
        monkeypatch.setattr(raster, "rasterize_crop", forbidden)
        config = SceneConfig(
            models=(needle_holder_model(), tweezers_model()),
            occluder=OccluderConfig(count_range=(2, 2)),
            seed=25,
        )
        generate_sequence(config, 2)
        for frame in (passes[:3], passes[3:]):
            (n, sx, width, attr), *crops = frame
            assert (n, sx, attr) == (6, 1.0, None) and width < DEFAULT_CAMERA.width
            assert [(n, width, attr) for n, _, width, attr in crops] == [(6, CROP_OUT_SIZE, 0), (6, CROP_OUT_SIZE, 1)]
        assert len(passes) == 6


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestExport:
    def test_roundtrip_fields(self, clean_run):
        frames, gt_path = clean_run
        ds = load_dataset(gt_path)
        assert ds.camera == DEFAULT_CAMERA
        assert len(ds.frames) == len(frames)
        for frame, loaded in zip(frames, ds.frames):
            assert loaded.frame_id == frame.frame_id
            for obj, rec in zip(frame.objects, loaded.objects):
                assert rec.class_id == obj.class_id
                assert np.array_equal(rec.pose.R, obj.pose.R)
                assert np.abs(rec.pose.t - obj.pose.t).max() < 1e-12
                assert rec.articulation == obj.articulation
                assert rec.visibility == obj.visibility
                assert rec.bbox_amodal == obj.bbox_amodal
                assert rec.crop == obj.corr.crop

    def test_masks_and_maps_roundtrip(self, clean_run):
        frames, gt_path = clean_run
        ds = load_dataset(gt_path)
        obj = frames[2].objects[1]
        rec = ds.frames[2].objects[1]
        assert np.array_equal(read_mask_pgm(rec.visible_mask_path).full(), obj.visible_mask.full())
        assert np.array_equal(read_mask_pgm(rec.amodal_mask_path).full(), obj.amodal_mask.full())
        cmap = load_correspondence(rec.corr_path, rec.crop)
        assert np.array_equal(cmap.data, obj.corr.data)
        assert np.array_equal(cmap.valid.data, obj.corr.valid.data)
        assert cmap.crop == obj.corr.crop

    def test_rerender_from_loaded_pose(self, clean_run):
        frames, gt_path = clean_run
        ds = load_dataset(gt_path)
        models = (needle_holder_model(), tweezers_model())
        rec = ds.frames[3].objects[0]
        mesh = articulate(models[rec.model_index], rec.articulation)
        mask = render_amodal(mesh, rec.pose, ds.camera)
        assert mask_iou(mask, frames[3].objects[0].amodal_mask) >= 0.99

    def test_annotations_feed_the_metrics_loader(self, clean_run):
        frames, gt_path = clean_run
        bundle = list(iter_annotations(gt_path.parent / "annotations.json"))
        assert [a.frame_id for a in bundle] == [f.frame_id for f in frames]
        ann = bundle[0]
        assert set(ann.tool_masks) == {0, 1}
        vis = occlusion_subtract(ann.tool_masks[0], ann.hand_mask)
        assert np.array_equal(vis.full(), frames[0].objects[0].visible_mask.full())

    def test_export_bytes_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            frames = generate_sequence(two_tool_config(seed=21), 3)
            export_gt(frames, tmp_path / sub, DEFAULT_CAMERA)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_scene_gt_is_canonical(self, clean_run):
        _, gt_path = clean_run
        text = gt_path.read_text()
        assert canonical_json(json.loads(text)) == text

    def test_duplicate_class_rejected(self, tmp_path):
        frames = generate_sequence(
            SceneConfig(models=(needle_holder_model(), needle_holder_model()), seed=0), 1
        )
        with pytest.raises(ConfigError):
            export_gt(frames, tmp_path, DEFAULT_CAMERA)

    def test_malformed_scene_gt(self, tmp_path):
        path = tmp_path / "scene_gt.json"
        path.write_text("{\"frames\": [{\"oops\": 1}]}")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_pose_records_round_trip_bytes(self, clean_run):
        # a loaded pose encodes back to the bytes it was read from
        _, gt_path = clean_run
        payload = json.loads(gt_path.read_text())
        ds = load_dataset(gt_path)
        for entry, frame in zip(payload["frames"], ds.frames):
            for rec, obj in zip(entry["objects"], frame.objects):
                written = {"R": rec["R"], "t_mm": rec["t_mm"]}
                assert json.dumps(encode_pose(obj.pose)) == json.dumps(written)

    def test_scaled_rotation_rejected(self, tmp_path, clean_run):
        _, gt_path = clean_run
        payload = json.loads(gt_path.read_text())
        rec = payload["frames"][1]["objects"][0]
        rec["R"] = [1.001 * v for v in rec["R"]]
        path = tmp_path / "scene_gt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="not a rotation"):
            load_dataset(path)

    def test_bad_object_named_by_frame_and_index(self, tmp_path, clean_run):
        _, gt_path = clean_run
        for frame, index, field, edit, message in (
            (1, 0, "R", lambda R: [1.001 * v for v in R], "R is not a rotation"),
            (2, 1, "bbox_amodal", lambda box: box[:3], "not enough values to unpack"),
        ):
            payload = json.loads(gt_path.read_text())
            rec = payload["frames"][frame]["objects"][index]
            rec[field] = edit(rec[field])
            path = tmp_path / "scene_gt.json"
            path.write_text(json.dumps(payload))
            frame_id = payload["frames"][frame]["frame_id"]
            with pytest.raises(ParseError, match=f"frame {frame_id}, object {index}\\): {message}"):
                load_dataset(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "scene_gt.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_load_correspondence_needs_validity_channel(self, tmp_path, clean_run):
        frames, gt_path = clean_run
        rec = load_dataset(gt_path).frames[0].objects[0]
        from artipose.formats import read_fmap, write_fmap

        arr = read_fmap(rec.corr_path)
        bad = tmp_path / "bad.fmap"
        write_fmap(arr[:, :, :3], bad)
        with pytest.raises(ParseError):
            load_correspondence(bad, rec.crop)
