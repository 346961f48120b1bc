"""Release acceptance checks.

Each test measures one numeric guarantee the package ships with, appends
a single verdict line (with the measured margins) to the terminal
summary, and fails if the guarantee is not met.  Run with
``pytest tests/test_acceptance.py -v``; the verdict lines appear in an
"acceptance criteria" section at the end of the run.
"""

import hashlib
import json
import math
import time
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from artipose.adaptation import RenderEstimator, adaptation_round, select_pseudo_frames
from artipose.camera import (
    BBox,
    Pose,
    Rot6D,
    allo_to_ego,
    decode_translation,
    ego_to_allo,
    encode_translation,
    geodesic_angle,
    matrix_to_rot6d,
    project_points,
    random_rotation,
    rot6d_to_matrix,
    rotation_about_axis,
)
from artipose.cli import main
from artipose.errors import ArtiposeError
from artipose.losses import (
    loss_articulation,
    loss_category,
    loss_center,
    loss_corr,
    loss_depth,
    loss_mask,
    loss_rotation,
)
from artipose.meshes import articulate, normalize_vertices
from artipose.metrics import IOU_THRESHOLDS, FrameAnnotation, Matches, mean_ap
from artipose.pnp import CorrSet, pairs_from_map, pnp_ransac
from artipose.raster import MaskImage, render_amodal, render_correspondence
from artipose.simulate import (
    DEFAULT_CAMERA,
    SceneConfig,
    generate_sequence,
    needle_holder_model,
    sample_pose,
    tweezers_model,
)
from artipose.tracking import Detection, run_tracker


def _verdict(report, n, name, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    report.append(line)
    print(line)
    assert ok, line


def test_criterion_1_round_trips(criteria_report):
    n = 10**4
    cam = DEFAULT_CAMERA
    rng = np.random.default_rng(1)
    rotations = [random_rotation(rng) for _ in range(n)]
    centers = np.stack([rng.uniform(10, 630, n), rng.uniform(10, 470, n)], axis=1)
    boxes = [
        BBox(cx=rng.uniform(60, 580), cy=rng.uniform(60, 420), w=rng.uniform(20, 200), h=rng.uniform(20, 200))
        for _ in range(n)
    ]
    ts = np.stack(
        [rng.uniform(-0.25, 0.25, n), rng.uniform(-0.2, 0.2, n), rng.uniform(0.3, 2.0, n)], axis=1
    )

    start = time.perf_counter()
    worst_rot = 0.0
    for R in rotations:
        back = rot6d_to_matrix(matrix_to_rot6d(R))
        worst_rot = max(worst_rot, float(np.abs(back - R).max()))
    worst_view = 0.0
    for R, c in zip(rotations, centers):
        back = allo_to_ego(ego_to_allo(R, c, cam), c, cam)
        worst_view = max(worst_view, float(np.abs(back - R).max()))
    worst_site = 0.0
    for t, box in zip(ts, boxes):
        back = decode_translation(encode_translation(t, box, cam), box, cam)
        worst_site = max(worst_site, float(np.abs(back - t).max()))
    elapsed = time.perf_counter() - start

    ok = worst_rot < 1e-12 and worst_view < 1e-12 and worst_site < 1e-12 and elapsed < 1.0
    _verdict(
        criteria_report,
        1,
        "representation round trips",
        ok,
        f"max err rot6d {worst_rot:.2e}, viewpoint {worst_view:.2e}, "
        f"translation {worst_site:.2e} over {n} each in {elapsed:.2f}s",
    )


def test_criterion_2_rot6d_validity(criteria_report):
    rng = np.random.default_rng(2)
    worst_orth = 0.0
    worst_det = 0.0
    for _ in range(10**4):
        v = rng.standard_normal(6)
        R = rot6d_to_matrix(Rot6D(r1=v[:3], r2=v[3:]))
        worst_orth = max(worst_orth, float(np.linalg.norm(R.T @ R - np.eye(3), "fro")))
        worst_det = max(worst_det, abs(float(np.linalg.det(R)) - 1.0))
    worst_scale = 0.0
    for _ in range(1000):
        v = rng.standard_normal(6)
        s1, s2 = rng.uniform(0.1, 10.0, 2)
        base = rot6d_to_matrix(Rot6D(r1=v[:3], r2=v[3:]))
        scaled = rot6d_to_matrix(Rot6D(r1=v[:3] * s1, r2=v[3:] * s2))
        worst_scale = max(worst_scale, float(np.abs(scaled - base).max()))
    ok = worst_orth < 1e-9 and worst_det < 1e-9 and worst_scale < 1e-12
    _verdict(
        criteria_report,
        2,
        "rot6d decode validity",
        ok,
        f"max orthogonality gap {worst_orth:.2e}, det gap {worst_det:.2e}, "
        f"scale sensitivity {worst_scale:.2e}",
    )


def test_criterion_3_exact_map_recovery(criteria_report):
    models = (needle_holder_model(), tweezers_model())
    boxes = [m.corr_box for m in models]
    cam = DEFAULT_CAMERA
    cfg = SceneConfig(models=models, depth_range=(0.6, 1.2), seed=0)
    rng = np.random.default_rng(33)
    n_trials = 1000
    n_ok = 0
    start = time.perf_counter()
    for k in range(n_trials):
        i = k % 2
        mesh = articulate(models[i], float(rng.uniform(0.0, 1.0)))
        try:
            pose = sample_pose(rng, cfg, region=(80, 560, 80, 400))
            amodal = render_amodal(mesh, pose, cam)
            box = amodal.bbox()
            side = 1.1 * max(box.w, box.h)
            crop = BBox(cx=box.cx, cy=box.cy, w=side, h=side)
            coords = normalize_vertices(mesh, boxes[i])
            cmap = render_correspondence(mesh, coords, pose, cam, crop, 64)
            res = pnp_ransac(pairs_from_map(cmap, boxes[i]), cam, seed=k)
        except ArtiposeError:
            continue
        rot_err = geodesic_angle(res.pose.R, pose.R)
        rel_t = float(np.linalg.norm(res.pose.t - pose.t) / np.linalg.norm(pose.t))
        if rot_err < 1e-3 and rel_t < 1e-3:
            n_ok += 1
    elapsed = time.perf_counter() - start
    ok = n_ok >= 990 and elapsed < 120.0
    _verdict(
        criteria_report,
        3,
        "pose from exact rendered maps",
        ok,
        f"{n_ok}/{n_trials} within 1e-3 (need >= 990) in {elapsed:.1f}s",
    )


def test_criterion_4_contamination_robustness(criteria_report):
    cam = DEFAULT_CAMERA
    rng = np.random.default_rng(44)
    n_pts, n_bad = 300, 90
    rot_errs = []
    flagged = 0
    for trial in range(500):
        pose = Pose(
            R=random_rotation(rng),
            t=np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), rng.uniform(0.5, 1.2)]),
        )
        pts = rng.uniform(0.0, 0.1, (n_pts, 3))
        uv = project_points(pts, pose, cam)
        idx = rng.choice(n_pts, n_bad, replace=False)
        uv[idx, 0] = rng.uniform(0, cam.width, n_bad)
        uv[idx, 1] = rng.uniform(0, cam.height, n_bad)
        res = pnp_ransac(CorrSet(pts, uv), cam, seed=trial)
        rot_errs.append(math.degrees(geodesic_angle(pose.R, res.pose.R)))
        errs = np.linalg.norm(project_points(pts, res.pose, cam) - uv, axis=1)
        flagged += int((errs[idx] >= 2.0).sum())
    median_rot = float(np.median(rot_errs))
    flag_rate = flagged / (500 * n_bad)
    ok = median_rot < 0.5 and flag_rate >= 0.95
    _verdict(
        criteria_report,
        4,
        "30% corrupted correspondences",
        ok,
        f"median rotation error {median_rot:.2e} deg, {flag_rate:.4f} of corrupted flagged",
    )


def _fd_grad(f, x0, h=1e-6):
    x0 = np.asarray(x0, dtype=float).ravel()
    g = np.empty(x0.size)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def _rel_gap(analytic, numeric):
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))


def test_criterion_5_loss_contracts(criteria_report):
    rng = np.random.default_rng(55)
    pts = rng.uniform(-0.05, 0.05, (12, 3))
    R = random_rotation(rng)
    axis = np.array([0.0, 0.0, 1.0])

    zero_ok = (
        loss_rotation(R, R, pts)[0] == 0.0
        and loss_rotation(rotation_about_axis(axis, 0.3) @ R, R, pts)[0] > 0.0
        and loss_center((0.2, -0.1), (0.2, -0.1))[0] == 0.0
        and loss_center((0.3, -0.1), (0.2, -0.1))[0] > 0.0
        and loss_depth(1.4, 1.4)[0] == 0.0
        and loss_depth(1.5, 1.4)[0] > 0.0
        and loss_articulation(0.6, 0.6)[0] == 0.0
        and loss_articulation(0.7, 0.6)[0] > 0.0
        and loss_category([800.0, 0.0], 0)[0] == 0.0
        and loss_category([1.0, 0.0], 1)[0] > 0.0
    )
    gv = rng.integers(0, 2, (6, 6)).astype(float)
    gf = np.clip(gv + rng.integers(0, 2, (6, 6)), 0, 1).astype(float)
    zero_ok = zero_ok and loss_mask(gv, gf, gv, gf)[0] == 0.0
    zero_ok = zero_ok and loss_mask(np.clip(gv + 0.25, 0, 1), gf, gv, gf)[0] > 0.0
    gc = rng.uniform(0.0, 1.0, (5, 5, 3))
    ones = np.ones((5, 5))
    zero_ok = zero_ok and loss_corr(gc, gc, ones)[0] == 0.0
    zero_ok = zero_ok and loss_corr(gc + 0.05, gc, ones)[0] > 0.0

    worst = {}
    gaps = []
    for _ in range(100):
        R_bar = random_rotation(rng)
        while True:
            R_hat = random_rotation(rng)
            if np.abs(pts @ (R_hat - R_bar).T).min() > 1e-3:
                break
        _, grad = loss_rotation(R_hat, R_bar, pts)
        num = _fd_grad(lambda x: loss_rotation(x.reshape(3, 3), R_bar, pts)[0], R_hat)
        gaps.append(_rel_gap(grad, num))
    worst["rotation"] = max(gaps)

    gaps = []
    for _ in range(100):
        gt_xy = rng.uniform(-1.0, 1.0, 2)
        pred_xy = gt_xy + rng.uniform(0.05, 0.5, 2) * rng.choice([-1.0, 1.0], 2)
        _, grad = loss_center(pred_xy, gt_xy)
        num = _fd_grad(lambda x: loss_center(x, gt_xy)[0], pred_xy)
        gaps.append(_rel_gap(grad, num))
    worst["center"] = max(gaps)

    gaps = []
    for _ in range(100):
        gt_z = rng.uniform(0.5, 1.5)
        pred_z = gt_z + rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
        _, grad = loss_depth(pred_z, gt_z)
        num = _fd_grad(lambda x: loss_depth(x[0], gt_z)[0], [pred_z])
        gaps.append(_rel_gap([grad], num))
    worst["depth"] = max(gaps)

    gaps = []
    for _ in range(100):
        gvm = rng.integers(0, 2, (6, 6)).astype(float)
        gfm = np.clip(gvm + rng.integers(0, 2, (6, 6)), 0, 1).astype(float)
        pvm = rng.uniform(0.05, 0.95, (6, 6))
        pfm = rng.uniform(0.05, 0.95, (6, 6))
        _, (grad_v, grad_f) = loss_mask(pvm, pfm, gvm, gfm)
        num = _fd_grad(
            lambda x: loss_mask(x[:36].reshape(6, 6), x[36:].reshape(6, 6), gvm, gfm)[0],
            np.concatenate([pvm.ravel(), pfm.ravel()]),
        )
        gaps.append(_rel_gap(np.concatenate([grad_v.ravel(), grad_f.ravel()]), num))
    worst["mask"] = max(gaps)

    gaps = []
    for _ in range(100):
        gt_map = rng.uniform(0.0, 1.0, (5, 5, 3))
        vis = rng.integers(0, 2, (5, 5)).astype(float)
        if vis.sum() == 0:
            vis[0, 0] = 1.0
        pred_map = gt_map + rng.uniform(0.05, 0.3, gt_map.shape) * rng.choice([-1.0, 1.0], gt_map.shape)
        _, grad = loss_corr(pred_map, gt_map, vis)
        num = _fd_grad(lambda x: loss_corr(x.reshape(5, 5, 3), gt_map, vis)[0], pred_map)
        gaps.append(_rel_gap(grad, num))
    worst["corr"] = max(gaps)

    gaps = []
    for _ in range(100):
        gt_a = rng.uniform(0.0, 1.0)
        pred_a = gt_a + rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
        _, grad = loss_articulation(pred_a, gt_a)
        num = _fd_grad(lambda x: loss_articulation(x[0], gt_a)[0], [pred_a])
        gaps.append(_rel_gap([grad], num))
    worst["articulation"] = max(gaps)

    gaps = []
    for _ in range(100):
        logits = rng.normal(0.0, 2.0, 4)
        cls = int(rng.integers(0, 4))
        _, grad = loss_category(logits, cls)
        num = _fd_grad(lambda x: loss_category(x, cls)[0], logits)
        gaps.append(_rel_gap(grad, num))
    worst["category"] = max(gaps)

    gt_off = rng.uniform(0.2, 0.7, (8, 8, 3))
    offset_value, _ = loss_corr(gt_off + 0.1, gt_off, np.ones((8, 8)))
    offset_err = abs(offset_value - 0.3)

    worst_gap = max(worst.values())
    ok = zero_ok and worst_gap < 1e-4 and offset_err < 1e-9
    _verdict(
        criteria_report,
        5,
        "loss values and gradients",
        ok,
        f"zero-at-truth {zero_ok}, worst FD gap {worst_gap:.2e} "
        f"({max(worst, key=worst.get)}), 0.1-offset err {offset_err:.2e}",
    )


def test_criterion_6_ap_arithmetic(criteria_report):
    m1 = mean_ap({0: 0.784, 1: 0.805})
    # published tables round half up in decimal, which binary round() does not
    m1_table = Decimal(repr(m1)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    m2 = mean_ap([0.841, 0.877])
    thresholds_ok = IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    gt_data = np.zeros((480, 640), dtype=np.uint8)
    gt_data[10:60, 10:110] = 1
    pred_data = np.zeros((480, 640), dtype=np.uint8)
    pred_data[10:60, 10:82] = 1
    annotation = FrameAnnotation(
        frame_id=0,
        tool_masks={0: MaskImage(640, 480, gt_data)},
        hand_mask=MaskImage(640, 480, np.zeros((480, 640), dtype=np.uint8)),
    )
    matches = Matches()
    matches.add(0, [(0, 0, 0.9, MaskImage(640, 480, pred_data))], annotation)
    partial = matches.pose.report().mean_ap

    ok = (
        m1 == 0.7945
        and m1_table == Decimal("0.795")
        and abs(m2 - 0.859) < 1e-12
        and thresholds_ok
        and abs(partial - 0.5) < 1e-12
    )
    _verdict(
        criteria_report,
        6,
        "AP arithmetic",
        ok,
        f"mean({{0.784, 0.805}})={m1!r} rounds to {m1_table}, "
        f"mean({{0.841, 0.877}})={m2!r}, thresholds {'exact' if thresholds_ok else 'WRONG'}, "
        f"IoU-0.72 single prediction AP {partial}",
    )


def test_criterion_7_noise_sweep(tmp_path, criteria_report):
    start = time.perf_counter()
    ds = tmp_path / "ds"
    assert main(["simgen", "--out", str(ds), "--frames", "200", "--seed", "7"]) == 0
    aps = []
    for sigma in ("0", "0.5", "1", "2"):
        pred = tmp_path / f"preds_{sigma}.jsonl"
        rep = tmp_path / f"report_{sigma}.json"
        assert main(
            ["estimate", "--dataset", str(ds), "--out", str(pred), "--seed", "0", "--noise-sigma", sigma]
        ) == 0
        assert main(
            ["evaluate", "--dataset", str(ds), "--predictions", str(pred), "--out", str(rep)]
        ) == 0
        aps.append(json.loads(rep.read_text())["pose_ap"]["mean"])
    elapsed = time.perf_counter() - start
    non_increasing = all(aps[i] >= aps[i + 1] - 1e-9 for i in range(len(aps) - 1))
    ok = aps[0] >= 0.99 and aps[2] >= 0.90 and non_increasing and elapsed < 600.0
    _verdict(
        criteria_report,
        7,
        "200-frame noise sweep",
        ok,
        "mean AP " + ", ".join(f"{a:.4f}" for a in aps) + f" at sigma 0/0.5/1/2 in {elapsed:.0f}s",
    )


def test_criterion_8_adaptation_gain(criteria_report):
    models = {0: needle_holder_model(), 1: tweezers_model()}
    frames = generate_sequence(SceneConfig(models=(models[0], models[1]), seed=88), 100)
    rng = np.random.default_rng(888)
    dets = []
    gt_boxes = {}
    for f in frames:
        for obj in f.objects:
            box = obj.bbox_amodal
            gt_boxes[(f.frame_id, obj.class_id)] = box
            dets.append(
                Detection(
                    f.frame_id,
                    obj.class_id,
                    1.0,
                    BBox(
                        cx=box.cx + rng.normal(0.0, 0.1 * box.w),
                        cy=box.cy + rng.normal(0.0, 0.1 * box.h),
                        w=max(box.w * (1.0 + rng.normal(0.0, 0.1)), 5.0),
                        h=max(box.h * (1.0 + rng.normal(0.0, 0.1)), 5.0),
                    ),
                )
            )
    estimator = RenderEstimator(
        frames, models, DEFAULT_CAMERA, sigma=0.5, seed=1
    )
    _, _, metrics = adaptation_round(dets, estimator, models, DEFAULT_CAMERA, gt_boxes=gt_boxes)
    gain = metrics.mean_refined_iou - metrics.mean_input_iou

    script = [
        Detection(k, 0, 0.95, BBox(cx=200, cy=150, w=100, h=100)) for k in range(10) if k != 3
    ]
    picked = [d.frame_id for d in select_pseudo_frames(run_tracker(script), conf_min=0.5)]
    streak_ok = picked == [2, 6, 7, 8, 9]

    ok = gain >= 0.05 and streak_ok
    _verdict(
        criteria_report,
        8,
        "box refinement gain",
        ok,
        f"IoU {metrics.mean_input_iou:.3f} -> {metrics.mean_refined_iou:.3f} "
        f"(gain {gain:.3f}, need >= 0.05), streak-3 selection {picked}",
    )


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_9_reproducible_artifacts(tmp_path, criteria_report):
    root = tmp_path / "pipe"
    ds = root / "ds"
    preds = root / "preds.jsonl"
    report = root / "report.json"
    digests = []
    for _ in range(2):
        assert main(["simgen", "--out", str(ds), "--frames", "4", "--seed", "19"]) == 0
        assert main(
            ["estimate", "--dataset", str(ds), "--out", str(preds), "--seed", "3", "--noise-sigma", "0.5"]
        ) == 0
        assert main(
            ["evaluate", "--dataset", str(ds), "--predictions", str(preds), "--out", str(report)]
        ) == 0
        assert main(
            ["adapt", "--dataset", str(ds), "--out", str(root / "adapt"), "--rounds", "1", "--seed", "2", "--noise-sigma", "0.5"]
        ) == 0
        digests.append(_tree_digest(root))
    ok = digests[0] == digests[1]
    _verdict(
        criteria_report,
        9,
        "byte-identical reruns",
        ok,
        f"full-pipeline tree digests {'match' if ok else 'DIFFER'} ({digests[0][:12]})",
    )
