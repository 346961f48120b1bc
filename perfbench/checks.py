"""Correctness checks on artipose outputs, computed apart from the program.

Every check reads the files a command wrote with this module's own
parsers and re-derives what the file should hold from its own formulas:
the pinhole projection, the tight box of a mask, the geodesic rotation
angle, the loss sums, the adapt gates and the AP mean.  Nothing here
imports artipose, so a fault in the program's readers or helpers cannot
hide a fault in its outputs.

Each ``check_*`` function returns ``(attempted, failed, problems)``:
``attempted`` lists the operation keys it looked at (a frame id for
simgen, a ``(frame_id, class)`` pair elsewhere), ``failed`` the subset
that has no output or fails a check, and ``problems`` one message per
fault.  ``check_report`` has no per-object operations and returns only
problems.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

# Model boxes are sampled at this many hinge openings and padded, as the
# correspondence-map format specifies.
BOX_SAMPLES = 21
BOX_PAD = 1e-4
# A decoded FMAP pixel must project back within this many crop pixels of
# the pixel centre it was rendered at.
FMAP_TOL_CROP_PX = 1.0
ROTATION_TOL = 1e-9
# An estimate's rotation and translation errors may reach this many times
# the spread that pixel noise sigma gives a least-squares pose refit on
# the correspondences inside the program's 2 px inlier band, plus a floor
# for sigma = 0.  README.md gives the derivation and the measured errors
# the factor leaves a margin over.
POSE_TOL_SPREADS = 25.0
INLIER_PX = 2.0
ROT_TOL_FLOOR_DEG = 0.01
TRANS_TOL_FLOOR_MM = 0.1
# The adapt gates as documented for the default configuration.
GATES = {"conf_min": 0.85, "outlier_max_frac": 0.25, "reproj_max_px": 3.0}
AP_TOL = 1e-12


# ---------------------------------------------------------------------------
# file readers


def read_fmap(path):
    blob = Path(path).read_bytes()
    if blob[:4] != b"FMAP":
        raise ValueError(f"{path}: no FMAP magic")
    w, h, c = struct.unpack_from("<III", blob, 4)
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(h, w, c)


def read_pgm(path):
    blob = Path(path).read_bytes()
    fields = blob.split(maxsplit=4)
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    w, h = int(fields[1]), int(fields[2])
    data = np.frombuffer(blob[len(blob) - w * h :], dtype=np.uint8)
    return data.reshape(h, w) == 255


def obj_vertices(path):
    rows = [line.split()[1:4] for line in Path(path).read_text().splitlines() if line.startswith("v ")]
    return np.array(rows, dtype=float)


def model_box(manifest_path):
    """Box holding the model at every sampled hinge opening, padded."""
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text())
    fixed = obj_vertices(manifest_path.parent / doc["fixed_mesh"])
    moving = obj_vertices(manifest_path.parent / doc["moving_mesh"])
    origin = np.array(doc["hinge_origin"], dtype=float)
    axis = np.array(doc["hinge_axis"], dtype=float)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    points = [fixed]
    for a in np.linspace(0.0, 1.0, BOX_SAMPLES):
        angle = doc["angle_min"] + a * (doc["angle_max"] - doc["angle_min"])
        rot = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        points.append((moving - origin) @ rot.T + origin)
    points = np.concatenate(points)
    return doc["class_id"], points.min(axis=0) - BOX_PAD, points.max(axis=0) + BOX_PAD


def load_scene(dataset):
    """scene_gt.json plus the model box of each class."""
    dataset = Path(dataset)
    gt = json.loads((dataset / "scene_gt.json").read_text())
    boxes = {}
    for rel in gt["models"]:
        cls, lo, hi = model_box(dataset / rel)
        boxes[cls] = (lo, hi)
    return gt, boxes


# ---------------------------------------------------------------------------
# geometry


def tight_box(mask):
    """[cx, cy, w, h] of the set pixels, or None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    w = float(cols[-1] - cols[0] + 1)
    h = float(rows[-1] - rows[0] + 1)
    return [cols[0] + 0.5 * w, rows[0] + 0.5 * h, w, h]


def rotation_error_deg(r_est, r_gt):
    c = (np.trace(np.asarray(r_gt).T @ np.asarray(r_est)) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, c))))


def decode_fmap(fmap, box):
    """Pixel rows, columns and model points of the valid FMAP pixels."""
    ii, jj = np.nonzero(fmap[:, :, 3] > 0.5)
    lo, hi = box
    return ii, jj, lo + fmap[ii, jj, :3].astype(float) * (hi - lo)


def pose_spread(points, rot, t_m, camera, sigma):
    """RMS rotation error (degrees) and translation error (mm) of a
    least-squares pose refit on the inliers among ``points`` under pixel
    noise ``sigma``.

    First-order: the pose covariance is sigma^2 (J^T J)^-1 / p, with J the
    Jacobian of the projected points with respect to a rotation increment
    (applied on the left) and the translation, at the true pose, and p the
    share of points whose noise stays inside the inlier band.
    """
    rp = points @ rot.T
    cam = rp + t_m
    z = cam[:, 2]
    zero = np.zeros_like(z)
    du = np.stack([camera["f"] / z, zero, -camera["f"] * cam[:, 0] / z**2], axis=1)
    dv = np.stack([zero, camera["f"] / z, -camera["f"] * cam[:, 1] / z**2], axis=1)
    jac = np.empty((2 * len(points), 6))
    # d(cam)/dw = -[rp]x, so d(pixel)/dw = rp x d(pixel)/d(cam)
    jac[0::2, :3] = np.cross(rp, du)
    jac[1::2, :3] = np.cross(rp, dv)
    jac[0::2, 3:] = du
    jac[1::2, 3:] = dv
    inlier_share = -math.expm1(-0.5 * (INLIER_PX / sigma) ** 2) if sigma > 0 else 1.0
    cov = sigma**2 / inlier_share * np.linalg.pinv(jac.T @ jac)
    return math.degrees(math.sqrt(np.trace(cov[:3, :3]))), 1000.0 * math.sqrt(np.trace(cov[3:, 3:]))


def fmap_reprojection_px(fmap, crop, box, rot, t_m, camera):
    """Largest distance, in crop pixels, from a decoded valid FMAP pixel's
    projection to the centre of the pixel that holds it; None if no pixel
    is valid."""
    ii, jj, pts = decode_fmap(fmap, box)
    if ii.size == 0:
        return None
    cam = pts @ rot.T + t_m
    u = camera["f"] * cam[:, 0] / cam[:, 2] + camera["px"]
    v = camera["f"] * cam[:, 1] / cam[:, 2] + camera["py"]
    cx, cy, w, h = crop
    step_u = w / fmap.shape[1]
    step_v = h / fmap.shape[0]
    u0 = cx - 0.5 * w + (jj + 0.5) * step_u
    v0 = cy - 0.5 * h + (ii + 0.5) * step_v
    return float(max(np.abs(u - u0).max() / step_u, np.abs(v - v0).max() / step_v))


# ---------------------------------------------------------------------------
# per-stage checks


def check_simgen(dataset):
    """Every frame of a simgen dataset, one operation per frame."""
    dataset = Path(dataset)
    gt, boxes = load_scene(dataset)
    attempted, failed, problems = [], set(), []
    for frame in gt["frames"]:
        fid = frame["frame_id"]
        attempted.append(fid)

        def fault(msg):
            failed.add(fid)
            problems.append(f"simgen frame {fid}: {msg}")

        hand = read_pgm(dataset / frame["hand_mask"])
        amodal = {o["class"]: read_pgm(dataset / o["amodal_mask"]) for o in frame["objects"]}
        for obj in frame["objects"]:
            cls = obj["class"]
            rot = np.array(obj["R"], dtype=float).reshape(3, 3)
            if np.abs(rot.T @ rot - np.eye(3)).max() > ROTATION_TOL or abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL:
                fault(f"class {cls} rotation is not orthonormal with det +1")
            vis = read_pgm(dataset / obj["visible_mask"])
            if (vis & ~amodal[cls]).any():
                fault(f"class {cls} visible mask leaves its amodal mask")
            if (vis & hand).any():
                fault(f"class {cls} visible mask overlaps the hand mask")
            for other, other_mask in amodal.items():
                if other != cls and (vis & other_mask).any():
                    fault(f"class {cls} visible mask overlaps class {other}")
            if tight_box(amodal[cls]) != obj["bbox_amodal"]:
                fault(f"class {cls} amodal box is not the tight box of its mask")
            if tight_box(vis) != obj["bbox_visible"]:
                fault(f"class {cls} visible box is not the tight box of its mask")
            err = fmap_reprojection_px(
                read_fmap(dataset / obj["corr_map"]),
                obj["crop"],
                boxes[cls],
                rot,
                np.array(obj["t_mm"], dtype=float) / 1000.0,
                gt["camera"],
            )
            if err is not None and not err <= FMAP_TOL_CROP_PX:
                fault(f"class {cls} FMAP pixel projects {err:.3f} crop px from its centre")
    return attempted, failed, problems


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def check_estimates(dataset, predictions, sigma, errors=None):
    """Each ground-truth object against its estimate line.

    Appends ``(rotation_deg, translation_mm, rotation_share,
    translation_share)`` per estimate to ``errors`` when given, the shares
    being each error as a fraction of its tolerance.
    """
    dataset = Path(dataset)
    gt, boxes = load_scene(dataset)
    preds = {(p["frame_id"], p["class"]): p for p in read_jsonl(predictions)}
    attempted, failed, problems = [], set(), []
    for frame in gt["frames"]:
        for obj in frame["objects"]:
            key = (frame["frame_id"], obj["class"])
            attempted.append(key)
            pred = preds.get(key)
            if pred is None:
                failed.add(key)
                problems.append(f"estimate {key}: no estimate")
                continue
            rot = np.reshape(obj["R"], (3, 3))
            rot_err = rotation_error_deg(np.reshape(pred["R"], (3, 3)), rot)
            trans_err = float(np.linalg.norm(np.subtract(pred["t_mm"], obj["t_mm"])))
            _, _, points = decode_fmap(read_fmap(dataset / obj["corr_map"]), boxes[obj["class"]])
            n_valid = len(points)
            rot_spread, trans_spread = pose_spread(points, rot, np.divide(obj["t_mm"], 1000.0), gt["camera"], sigma)
            rot_tol = ROT_TOL_FLOOR_DEG + POSE_TOL_SPREADS * rot_spread
            trans_tol = TRANS_TOL_FLOOR_MM + POSE_TOL_SPREADS * trans_spread
            if errors is not None:
                errors.append((rot_err, trans_err, rot_err / rot_tol, trans_err / trans_tol))
            msgs = []
            if not rot_err <= rot_tol:
                msgs.append(f"rotation error {rot_err:.3f} deg above {rot_tol:.3f}")
            if not trans_err <= trans_tol:
                msgs.append(f"translation error {trans_err:.3f} mm above {trans_tol:.3f}")
            if pred["inliers"] + pred["outliers"] != n_valid:
                msgs.append(
                    f"inliers + outliers = {pred['inliers'] + pred['outliers']}, "
                    f"FMAP holds {n_valid} valid pixels"
                )
            if msgs:
                failed.add(key)
                problems.extend(f"estimate {key}: {m}" for m in msgs)
    return attempted, failed, problems


def check_losses(report, expected_keys):
    """Each loss row's sums, and one row per expected object."""
    doc = json.loads(Path(report).read_text())
    w = doc["weights"]
    rows = {(r["frame_id"], r["class"]): r for r in doc["per_object"]}
    attempted, failed, problems = list(expected_keys), set(), []
    for key in attempted:
        r = rows.get(key)
        if r is None:
            failed.add(key)
            problems.append(f"losses {key}: no loss row")
            continue
        pose = (r["rotation"] + r["center"]) + r["depth"]
        geom = r["corr"] + r["mask"]
        total = ((w["w_pose"] * pose + w["w_geom"] * geom) + w["w_cat"] * r["category"]) + w["w_art"] * r["articulation"]
        if (r["pose"], r["geom"], r["total"]) != (pose, geom, total):
            failed.add(key)
            problems.append(f"losses {key}: total {r['total']!r} is not its weighted sum {total!r}")
    return attempted, failed, problems


def check_labels(adapt_dir):
    """Every pose label in every round passes the three adapt gates."""
    attempted, failed, problems = [], set(), []
    for path in sorted(Path(adapt_dir).glob("labels_round*.json")):
        doc = json.loads(path.read_text())
        if doc["thresholds"] != GATES:
            problems.append(f"{path.name}: thresholds {doc['thresholds']} differ from {GATES}")
        for lab in doc["pose_labels"]:
            key = (lab["frame_id"], lab["class"])
            attempted.append(key)
            total = lab["inliers"] + lab["outliers"]
            if not (
                lab["confidence"] >= GATES["conf_min"]
                and total > 0
                and lab["outliers"] / total <= GATES["outlier_max_frac"]
                and lab["reproj_err"] <= GATES["reproj_max_px"]
            ):
                failed.add(key)
                problems.append(f"{path.name} {key}: pose label fails an adapt gate")
    return attempted, failed, problems


def check_report(report):
    """Each mean AP in an evaluate report equals the mean over its classes."""
    doc = json.loads(Path(report).read_text())
    problems = []
    for name in ("pose_ap", "detection_ap"):
        values = list(doc[name]["per_class"].values())
        if not values or abs(doc[name]["mean"] - sum(values) / len(values)) > AP_TOL:
            problems.append(f"evaluate: {name} mean {doc[name]['mean']} is not the mean over classes")
    return problems
