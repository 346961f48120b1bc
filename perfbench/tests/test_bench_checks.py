"""Each benchmark check passes real outputs and rejects a corrupted copy."""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from artipose.cli import main  # noqa: E402

SIGMA = 0.5


def cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A two-frame dataset with its estimate, evaluate and losses outputs."""
    root = tmp_path_factory.mktemp("bench")
    ds = root / "ds"
    cli("simgen", "--out", ds, "--frames", 2, "--seed", 3)
    cli("estimate", "--dataset", ds, "--out", root / "pred.jsonl", "--noise-sigma", SIGMA)
    cli("evaluate", "--dataset", ds, "--predictions", root / "pred.jsonl", "--out", root / "report.json")
    cli("losses", "--dataset", ds, "--predictions", root / "pred.jsonl", "--out", root / "losses.json")
    return root


def copy(src, tmp_path):
    dst = tmp_path / src.name
    if src.is_dir():
        shutil.copytree(src, dst)
    else:
        shutil.copy(src, dst)
    return dst


def edit_json(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def first_object(doc):
    return doc["frames"][0]["objects"][0]


def rewrite_pgm(path, fn):
    mask = checks.read_pgm(path).copy()
    fn(mask)
    h, w = mask.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + (mask.astype(np.uint8) * 255).tobytes())


def simgen_problems(ds):
    attempted, failed, problems = checks.check_simgen(ds)
    assert attempted == [0, 1]
    assert bool(failed) == bool(problems)
    return " ".join(problems)


def test_simgen_outputs_pass(run):
    assert simgen_problems(run / "ds") == ""


def test_simgen_rejects_moved_fmap_pixel(run, tmp_path):
    ds = copy(run / "ds", tmp_path)
    path = ds / first_object(json.loads((ds / "scene_gt.json").read_text()))["corr_map"]
    blob = bytearray(path.read_bytes())
    fmap = np.frombuffer(bytes(blob), dtype="<f4", offset=16).reshape(64, 64, 4).copy()
    i, j = np.argwhere(fmap[:, :, 3] > 0.5)[0]
    fmap[i, j, :3] = 1.0 - fmap[i, j, :3]
    path.write_bytes(bytes(blob[:16]) + fmap.astype("<f4").tobytes())
    assert "FMAP pixel projects" in simgen_problems(ds)


def test_simgen_rejects_visible_outside_amodal(run, tmp_path):
    ds = copy(run / "ds", tmp_path)
    obj = first_object(json.loads((ds / "scene_gt.json").read_text()))
    amodal = checks.read_pgm(ds / obj["amodal_mask"])
    i, j = np.argwhere(~amodal)[0]
    rewrite_pgm(ds / obj["visible_mask"], lambda m: m.__setitem__((i, j), True))
    assert "leaves its amodal mask" in simgen_problems(ds)


def test_simgen_rejects_visible_under_hand(run, tmp_path):
    ds = copy(run / "ds", tmp_path)
    gt = json.loads((ds / "scene_gt.json").read_text())
    vis = checks.read_pgm(ds / first_object(gt)["visible_mask"])
    i, j = np.argwhere(vis)[0]
    rewrite_pgm(ds / gt["frames"][0]["hand_mask"], lambda m: m.__setitem__((i, j), True))
    assert "overlaps the hand mask" in simgen_problems(ds)


def test_simgen_rejects_overlapping_tools(run, tmp_path):
    ds = copy(run / "ds", tmp_path)
    gt = json.loads((ds / "scene_gt.json").read_text())
    first, second = gt["frames"][0]["objects"][:2]
    vis = checks.read_pgm(ds / first["visible_mask"])
    i, j = np.argwhere(vis)[0]
    rewrite_pgm(ds / second["amodal_mask"], lambda m: m.__setitem__((i, j), True))
    assert "overlaps class" in simgen_problems(ds)


def test_simgen_rejects_loose_box(run, tmp_path):
    ds = copy(run / "ds", tmp_path)
    edit_json(ds / "scene_gt.json", lambda d: first_object(d)["bbox_amodal"].__setitem__(2, first_object(d)["bbox_amodal"][2] + 1.0))
    assert "amodal box is not the tight box" in simgen_problems(ds)


def test_simgen_rejects_scaled_rotation(run, tmp_path):
    ds = copy(run / "ds", tmp_path)
    edit_json(ds / "scene_gt.json", lambda d: first_object(d).__setitem__("R", [1.001 * v for v in first_object(d)["R"]]))
    assert "not orthonormal" in simgen_problems(ds)


def estimate_problems(run, pred):
    attempted, failed, problems = checks.check_estimates(run / "ds", pred, SIGMA)
    assert len(attempted) == 4
    assert bool(failed) == bool(problems)
    return " ".join(problems)


def edit_first_estimate(pred, fn):
    lines = pred.read_text().splitlines()
    rec = json.loads(lines[0])
    fn(rec)
    lines[0] = json.dumps(rec)
    pred.write_text("\n".join(lines) + "\n")


def test_estimates_pass(run):
    assert estimate_problems(run, run / "pred.jsonl") == ""


def test_estimates_reject_rotated_pose(run, tmp_path):
    pred = copy(run / "pred.jsonl", tmp_path)
    c, s = np.cos(0.2), np.sin(0.2)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    edit_first_estimate(pred, lambda r: r.__setitem__("R", (turn @ np.reshape(r["R"], (3, 3))).ravel().tolist()))
    assert "rotation error" in estimate_problems(run, pred)


def test_estimates_reject_shifted_pose(run, tmp_path):
    pred = copy(run / "pred.jsonl", tmp_path)
    edit_first_estimate(pred, lambda r: r["t_mm"].__setitem__(2, r["t_mm"][2] + 50.0))
    assert "translation error" in estimate_problems(run, pred)


def test_estimates_reject_miscounted_support(run, tmp_path):
    pred = copy(run / "pred.jsonl", tmp_path)
    edit_first_estimate(pred, lambda r: r.__setitem__("outliers", r["outliers"] + 1))
    assert "valid pixels" in estimate_problems(run, pred)


def test_estimates_reject_missing_object(run, tmp_path):
    pred = copy(run / "pred.jsonl", tmp_path)
    pred.write_text("\n".join(pred.read_text().splitlines()[1:]) + "\n")
    assert "no estimate" in estimate_problems(run, pred)


def loss_problems(report):
    keys = [(f, c) for f in (0, 1) for c in (0, 1)]
    _, failed, problems = checks.check_losses(report, keys)
    assert bool(failed) == bool(problems)
    return " ".join(problems)


def test_losses_pass(run):
    assert loss_problems(run / "losses.json") == ""


def test_losses_reject_total_off_its_sum(run, tmp_path):
    report = copy(run / "losses.json", tmp_path)
    edit_json(report, lambda d: d["per_object"][0].__setitem__("total", d["per_object"][0]["total"] * (1 + 1e-12)))
    assert "weighted sum" in loss_problems(report)


def test_losses_reject_missing_row(run, tmp_path):
    report = copy(run / "losses.json", tmp_path)
    edit_json(report, lambda d: d["per_object"].pop())
    assert "no loss row" in loss_problems(report)


LABEL = {"frame_id": 3, "class": 0, "confidence": 0.9, "inliers": 90, "outliers": 10, "reproj_err": 0.6}


@pytest.mark.parametrize(
    "change",
    [None, {"confidence": 0.8}, {"outliers": 40}, {"reproj_err": 3.5}],
)
def test_labels_gates(tmp_path, change):
    label = dict(LABEL, **(change or {}))
    doc = {"pose_labels": [label], "thresholds": dict(checks.GATES)}
    (tmp_path / "labels_round1.json").write_text(json.dumps(doc))
    attempted, failed, problems = checks.check_labels(tmp_path)
    assert attempted == [(3, 0)]
    assert bool(failed) == bool(problems) == (change is not None)


def test_report_passes_and_rejects_bad_mean(run, tmp_path):
    assert checks.check_report(run / "report.json") == []
    report = copy(run / "report.json", tmp_path)
    edit_json(report, lambda d: d["pose_ap"].__setitem__("mean", d["pose_ap"]["mean"] - 1e-6))
    assert "pose_ap mean" in " ".join(checks.check_report(report))


class IdleCli:
    """Stands in for artipose.cli: every command exits with ``code`` and writes nothing."""

    def __init__(self, code):
        self.code = code

    def main(self, argv):
        return self.code


def pipeline_runner(run, tmp_path, code):
    """A pipeline-clean runner whose input 0 has the fixture's estimate and
    evaluate outputs and no losses.json."""
    workload = workloads.PipelineClean(seed=1, work=tmp_path)
    shutil.copytree(run / "ds", workload.dataset(0))
    (workload.out(0) / "estimate").mkdir(parents=True)
    shutil.copy(run / "pred.jsonl", workload.out(0) / "estimate" / "pred.jsonl")
    (workload.out(0) / "evaluate").mkdir()
    shutil.copy(run / "report.json", workload.out(0) / "evaluate" / "report.json")
    return workloads.Runner(workload, IdleCli(code))


@pytest.mark.parametrize("code", [0, 1])
def test_runner_fails_every_object_without_output(run, tmp_path, code):
    runner = pipeline_runner(run, tmp_path, code)
    runner.round(0)
    assert (runner.attempted, runner.failed) == (4, 4)
    expected = "losses.json" if code == 0 else "exited non-zero"
    assert any(expected in msg for msg in runner.run_problems)
