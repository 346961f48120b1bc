"""Command-line behavior: exit codes, snapshots, reproducibility, and
the small end-to-end pipeline."""

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artipose import cli
from artipose.adaptation import encode_estimate, load_estimates
from artipose.cli import main
from artipose.formats import read_fmap, write_fmap


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    assert main(["simgen", "--out", str(out), "--frames", "8", "--seed", "5"]) == 0
    return out


@pytest.fixture(scope="module")
def predictions(dataset):
    out = dataset.parent / "preds.jsonl"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out), "--seed", "0"]) == 0
    return out


class TestExitCodes:
    def test_missing_dataset(self, tmp_path, capsys):
        rc = main(["estimate", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "p.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_predictions(self, dataset, tmp_path):
        rc = main(
            ["evaluate", "--dataset", str(dataset), "--predictions", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 2

    def test_bad_config_json(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        rc = main(["simgen", "--out", str(tmp_path / "out"), "--config", str(bad), "--frames", "1"])
        assert rc == 2

    def test_runtime_failure_is_exit_3(self, dataset, predictions, tmp_path):
        # valid inputs, but the annotation index holds no frames, so
        # scoring has nothing to match against
        broken = tmp_path / "ds"
        broken.mkdir()
        (broken / "scene_gt.json").write_text((dataset / "scene_gt.json").read_text())
        models_dir = broken / "models"
        models_dir.mkdir()
        for p in (dataset / "models").iterdir():
            (models_dir / p.name).write_bytes(p.read_bytes())
        (broken / "annotations.json").write_text('{"frames": []}\n')
        rc = main(
            ["evaluate", "--dataset", str(broken), "--predictions", str(predictions), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 3

    def test_scaled_gt_rotation_is_exit_2(self, dataset, predictions, tmp_path, capsys):
        # 1.001 is off by a little; NaN compares false to any bound
        for scale in (1.001, float("nan")):
            payload = json.loads((dataset / "scene_gt.json").read_text())
            rec = payload["frames"][2]["objects"][1]
            rec["R"] = [scale * v for v in rec["R"]]
            broken = tmp_path / f"ds{scale}"
            broken.mkdir()
            (broken / "scene_gt.json").write_text(json.dumps(payload))
            rc = main(
                ["losses", "--dataset", str(broken), "--predictions", str(predictions), "--out", str(tmp_path / "l.json")]
            )
            assert rc == 2
            assert "not a rotation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault", ["negative_frame_id", "mask_size", "index_not_object", "masks_not_object", "amodal_not_object"]
    )
    def test_malformed_annotation_is_exit_2(self, fault, dataset, predictions, tmp_path, capsys):
        broken = tmp_path / "ds"
        shutil.copytree(dataset, broken)
        index = json.loads((broken / "annotations.json").read_text())
        entry = index["frames"][1]
        if fault == "negative_frame_id":
            entry["frame_id"] = -1
        elif fault == "mask_size":
            (broken / "small.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
            entry["masks"]["0"] = "small.pgm"
        elif fault == "index_not_object":
            index = index["frames"]
        elif fault == "masks_not_object":
            entry["masks"] = list(entry["masks"].values())
        else:
            entry["amodal"] = list(entry["amodal"].values())
        (broken / "annotations.json").write_text(json.dumps(index))
        out = tmp_path / "out" / "r.json"
        rc = main(["evaluate", "--dataset", str(broken), "--predictions", str(predictions), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{broken / 'annotations.json'}: " in err
        if fault != "index_not_object":
            frame_id = -1 if fault == "negative_frame_id" else 1
            assert f"malformed annotation, frame {frame_id}:" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hinge_axis", [0.0, 0.0, 2.0]),
            ("angle_min", 0.6),
            ("class_id", "zero"),
            ("hinge_origin", [0.0, 0.0]),
            ("fixed_mesh", 5),
            (None, 5),
            ("hinge_axis", [float("nan"), 0.0, 0.0]),
            ("hinge_origin", [0.0, float("nan"), 0.0]),
            ("angle_max", float("inf")),
        ],
        ids=[
            "non_unit_axis",
            "empty_angle_range",
            "non_integer_class",
            "short_origin",
            "numeric_mesh_path",
            "not_object",
            "nan_axis",
            "nan_origin",
            "inf_angle",
        ],
    )
    def test_malformed_model_manifest_is_exit_2(self, field, value, dataset, tmp_path, capsys):
        # angle_min 0.6 meets the manifest's angle_max 0.6; a None field
        # stands for the whole manifest
        broken = tmp_path / "ds"
        shutil.copytree(dataset, broken)
        manifest = broken / "models" / "needle_holder.json"
        doc = json.loads(manifest.read_text())
        if field is None:
            doc = value
        else:
            doc[field] = value
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "out" / "p.jsonl"
        rc = main(["estimate", "--dataset", str(broken), "--out", str(out)])
        assert rc == 2
        assert f"{manifest}: " in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "line, bad",
        [("f ", "f 1 1 2"), ("v ", "v 0 0 x")],
        ids=["zero_area_face", "bad_vertex_number"],
    )
    def test_malformed_mesh_file_is_exit_2(self, line, bad, dataset, tmp_path, capsys):
        # the first face or vertex line of a part's OBJ file gets broken
        broken = tmp_path / "ds"
        shutil.copytree(dataset, broken)
        obj = broken / "models" / "needle_holder_fixed.obj"
        lines = obj.read_text().splitlines()
        first = next(i for i, text in enumerate(lines) if text.startswith(line))
        lines[first] = bad
        obj.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out" / "p.jsonl"
        rc = main(["estimate", "--dataset", str(broken), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{broken / 'models' / 'needle_holder.json'}: {obj}: " in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["estimate", "losses"])
    def test_non_finite_fmap_is_exit_2(self, command, dataset, predictions, tmp_path, capsys):
        broken = tmp_path / "ds"
        shutil.copytree(dataset, broken)
        fmap = broken / "fmaps" / "000001_obj0.fmap"
        data = read_fmap(fmap)
        i, j = np.argwhere(data[..., 3] > 0)[0]
        data[i, j, 0] = np.nan
        write_fmap(data, fmap)
        out = tmp_path / "out" / "r.json"
        argv = [command, "--dataset", str(broken), "--out", str(out)]
        if command == "losses":
            argv += ["--predictions", str(predictions)]
        rc = main(argv)
        assert rc == 2
        assert f"{fmap}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("models", [[1], "abc"], ids=["number", "string"])
    def test_malformed_model_list_is_exit_2(self, models, dataset, tmp_path, capsys):
        broken = tmp_path / "ds"
        shutil.copytree(dataset, broken)
        payload = json.loads((broken / "scene_gt.json").read_text())
        payload["models"] = models
        (broken / "scene_gt.json").write_text(json.dumps(payload))
        out = tmp_path / "out" / "p.jsonl"
        rc = main(["estimate", "--dataset", str(broken), "--out", str(out)])
        assert rc == 2
        assert f"{broken / 'scene_gt.json'}: malformed scene_gt (models):" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_repeated_estimate_is_exit_2(self, dataset, predictions, tmp_path, capsys):
        lines = predictions.read_text().splitlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("\n".join(lines + lines[5:6]) + "\n")
        rc = main(
            ["evaluate", "--dataset", str(dataset), "--predictions", str(doubled), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert f":{len(lines) + 1}: second estimate" in capsys.readouterr().err
        # a line whose pose is not finite is as malformed as a repeated one
        for field, value, message in [
            ("R", float("nan"), "R is not a rotation"),
            ("t_mm", float("nan"), "t_mm is not finite"),
            ("t_mm", float("inf"), "t_mm is not finite"),
        ]:
            rec = json.loads(lines[5])
            rec[field] = [value] * len(rec[field])
            broken = tmp_path / "broken.jsonl"
            broken.write_text("\n".join(lines[:5] + [json.dumps(rec)] + lines[6:]) + "\n")
            for command in ("evaluate", "losses"):
                out = tmp_path / command / "r.json"
                rc = main([command, "--dataset", str(dataset), "--predictions", str(broken), "--out", str(out)])
                assert rc == 2, (command, field, value)
                assert f":6: bad estimate record: {message}" in capsys.readouterr().err
                assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["simgen", "estimate", "adapt"])
    def test_negative_seed_is_exit_2(self, command, dataset, tmp_path, capsys):
        argv = {
            "simgen": ["simgen", "--out", str(tmp_path / "out"), "--frames", "1"],
            "estimate": ["estimate", "--dataset", str(dataset), "--out", str(tmp_path / "out" / "p.jsonl")],
            "adapt": ["adapt", "--dataset", str(dataset), "--out", str(tmp_path / "out")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jitter", ["-0.1", "nan"])
    def test_bad_box_jitter_is_exit_2(self, jitter, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["adapt", "--dataset", str(dataset), "--out", str(tmp_path / "out"), "--box-jitter", jitter])
        assert exc.value.code == 2
        assert "--box-jitter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "adapt"])
    @pytest.mark.parametrize("sigma", ["-0.5", "nan", "inf"])
    def test_bad_noise_sigma_is_exit_2(self, command, sigma, dataset, tmp_path, capsys):
        out = {"estimate": tmp_path / "out" / "p.jsonl", "adapt": tmp_path / "out"}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(dataset), "--out", str(out), f"--noise-sigma={sigma}"])
        assert exc.value.code == 2
        assert "--noise-sigma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "box",
        [[float("nan"), 100, 50, 50], [float("inf"), 100, 50, 50], [100, 100, float("inf"), 50]],
        ids=["nan_cx", "inf_cx", "inf_w"],
    )
    def test_non_finite_detection_box_is_exit_2(self, box, dataset, tmp_path, capsys):
        good = {"frame_id": 0, "class": 0, "confidence": 1.0, "bbox": [100, 100, 50, 50]}
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(good) + "\n" + json.dumps({**good, "frame_id": 1, "bbox": box}) + "\n")
        rc = main(["adapt", "--dataset", str(dataset), "--out", str(tmp_path / "out"), "--detections", str(dets)])
        assert rc == 2
        assert ":2: bad detection record: box values must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cfg, flags",
        [
            ({"depth_range": [0.8, 0.9, 1.0]}, ["--frames", "1"]),
            ({"seed": -1}, ["--frames", "1"]),
            ({}, ["--frames", "0"]),
            ({"frames": 2.7}, []),
            ({"seed": 2.7}, ["--frames", "1"]),
            ({"frames": True}, []),
        ],
        ids=["depth_range", "config_seed", "zero_frames", "fractional_frames", "fractional_seed", "boolean_frames"],
    )
    def test_bad_simgen_config_writes_nothing(self, cfg, flags, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simgen", "--out", str(tmp_path / "out"), "--config", str(path), *flags])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_loss_weight_is_exit_2(self, dataset, predictions, tmp_path, capsys):
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps({"w_geom": -1.0}))
        rc = main(
            ["losses", "--dataset", str(dataset), "--predictions", str(predictions), "--out", str(tmp_path / "l.json"), "--weights", str(weights)]
        )
        assert rc == 2
        assert "bad LossWeights config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg",
        [{"thresholds": {"conf_min": "high"}}, {"thresholds": [0.5]}, {"mixing_ratio": "half"}, {"mixing_ratio": 1.5}],
        ids=["threshold_text", "thresholds_list", "mixing_text", "mixing_range"],
    )
    def test_bad_adapt_config_is_exit_2_before_any_round(self, cfg, dataset, tmp_path, monkeypatch, capsys):
        import artipose.cli as cli

        rounds = []
        monkeypatch.setattr(cli, "adaptation_loop", lambda *a, **k: rounds.append(a) or [])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["adapt", "--dataset", str(dataset), "--out", str(tmp_path / "out"), "--config", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert rounds == []

    def test_console_script_missing_input(self):
        proc = subprocess.run(
            [sys.executable, "-m", "artipose.cli", "losses", "--dataset", "/does/not/exist", "--predictions", "x", "--out", "y"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr


def test_a_rebound_command_runs_after_the_parser_is_built(dataset, tmp_path, monkeypatch):
    # the parser is built once per process; the command is looked up by
    # name on each call, so a wrapper bound after a first call still runs
    out = tmp_path / "p.jsonl"
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_estimate", lambda args: seen.append(args.out) or 7)
    assert main(["estimate", "--dataset", str(dataset), "--out", str(out)]) == 7
    assert seen == [str(out)]
    assert cli._parser() is cli._parser()


class TestSimgen:
    def test_reproducible_trees(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["simgen", "--out", str(tmp_path / sub), "--frames", "3", "--seed", "9"]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_snapshot_written(self, dataset):
        snap = json.loads((dataset / "simgen_config.json").read_text())
        assert snap["command"] == "simgen"
        assert snap["version"]
        assert len(snap["config_sha256"]) == 64
        assert snap["effective"]["frames"] == 8
        assert snap["effective"]["seed"] == 5

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frames": 2, "seed": 3}))
        out = tmp_path / "out"
        assert main(["simgen", "--out", str(out), "--config", str(cfg), "--seed", "4"]) == 0
        snap = json.loads((out / "simgen_config.json").read_text())
        assert snap["effective"]["frames"] == 2
        assert snap["effective"]["seed"] == 4


class TestEstimate:
    def test_covers_every_object(self, dataset, predictions):
        lines = [json.loads(l) for l in predictions.read_text().splitlines()]
        assert len(lines) == 16
        keys = {(r["frame_id"], r["class"]) for r in lines}
        assert keys == {(f, c) for f in range(8) for c in (0, 1)}
        for rec in lines:
            assert rec["converged"]
            assert rec["reproj_err"] < 0.5

    def test_lines_round_trip_bytes(self, predictions):
        # each line decodes to an estimate that encodes to the same bytes
        estimates = load_estimates(predictions)
        for line in predictions.read_text().splitlines():
            rec = json.loads(line)
            est = estimates[(rec["frame_id"], rec["class"])]
            again = encode_estimate(rec["frame_id"], est.class_id, est.class_confidence, est.articulation, est.pnp)
            assert json.dumps(again, sort_keys=True) == line

    def test_rerun_identical(self, dataset, predictions, tmp_path):
        again = tmp_path / "again.jsonl"
        assert main(["estimate", "--dataset", str(dataset), "--out", str(again), "--seed", "0"]) == 0
        assert again.read_bytes() == predictions.read_bytes()

    def test_summary_names_failure_classes(self, tmp_path, capsys):
        # an object whose map keeps five valid pixels cannot be solved; the
        # summary line says why
        ds = tmp_path / "ds"
        assert main(["simgen", "--out", str(ds), "--frames", "1", "--seed", "5", "--no-occluders"]) == 0
        gt = json.loads((ds / "scene_gt.json").read_text())
        fmap = ds / gt["frames"][0]["objects"][0]["corr_map"]
        data = read_fmap(fmap)
        rows, cols = np.nonzero(data[:, :, 3] > 0.5)
        data[rows[5:], cols[5:], 3] = 0.0
        write_fmap(data, fmap)
        capsys.readouterr()
        out = tmp_path / "pred.jsonl"
        assert main(["estimate", "--dataset", str(ds), "--out", str(out)]) == 0
        assert "(1 skipped: TooFewCorrespondences 1)" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1

    def test_noise_changes_output(self, dataset, predictions, tmp_path):
        noisy = tmp_path / "noisy.jsonl"
        assert main(
            ["estimate", "--dataset", str(dataset), "--out", str(noisy), "--seed", "0", "--noise-sigma", "1.0"]
        ) == 0
        assert noisy.read_bytes() != predictions.read_bytes()


class TestEvaluate:
    def test_clean_pipeline_is_perfect(self, dataset, predictions, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(
            ["evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--out", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["pose_ap"]["mean"] == pytest.approx(1.0)
        assert report["detection_ap"]["mean"] == pytest.approx(1.0)
        assert report["iou_thresholds"][0] == 0.5
        assert report["iou_thresholds"][-1] == pytest.approx(0.95)
        assert len(report["config_sha256"]) == 64
        txt = report_path.with_suffix(".txt").read_text()
        assert "pose AP" in txt
        assert report["version"] in txt

    def test_rerun_identical(self, dataset, predictions, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(
                ["evaluate", "--dataset", str(dataset), "--predictions", str(predictions), "--out", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()


# A process's ru_maxrss starts from the memory of the process that spawned
# it, so the command runs as the child of a small interpreter, which
# reports its children's peak.
_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "subprocess.run([sys.executable, '-m', 'artipose.cli', *sys.argv[1:]], check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def test_evaluate_memory_does_not_grow_with_frames(tmp_path):
    # evaluate streams frame by frame: a fresh process peaks at the same
    # RSS on 6 and on 24 frames (whole-sequence loading added ~2 MiB a frame)
    peaks = {}
    for frames in (6, 24):
        ds = tmp_path / f"ds{frames}"
        pred = tmp_path / f"pred{frames}.jsonl"
        assert main(["simgen", "--out", str(ds), "--frames", str(frames), "--seed", "3", "--no-occluders"]) == 0
        assert main(["estimate", "--dataset", str(ds), "--out", str(pred)]) == 0
        argv = ["evaluate", "--dataset", str(ds), "--predictions", str(pred), "--out", str(tmp_path / f"r{frames}.json")]
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True, check=True
        )
        peaks[frames] = int(proc.stdout.split()[-1]) / 1024.0
    assert abs(peaks[24] - peaks[6]) < 2.0, peaks


class TestLosses:
    def test_zero_noise_floor(self, dataset, predictions, tmp_path):
        out = tmp_path / "losses.json"
        assert main(
            ["losses", "--dataset", str(dataset), "--predictions", str(predictions), "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        mean = report["mean"]
        assert mean["rotation"] < 1e-6
        assert mean["center"] < 1e-6
        assert mean["depth"] < 1e-6
        assert mean["corr"] < 1e-6
        assert mean["articulation"] == 0.0
        assert len(report["per_object"]) == 16
        assert report["n_skipped"] == 0

    def test_weights_scale_total(self, dataset, predictions, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps({"w_geom": 2.0}))
        base = tmp_path / "base.json"
        doubled = tmp_path / "doubled.json"
        main(["losses", "--dataset", str(dataset), "--predictions", str(predictions), "--out", str(base)])
        main(
            ["losses", "--dataset", str(dataset), "--predictions", str(predictions), "--out", str(doubled), "--weights", str(wfile)]
        )
        m0 = json.loads(base.read_text())["mean"]
        m1 = json.loads(doubled.read_text())["mean"]
        assert m1["geom"] == pytest.approx(m0["geom"])
        assert m1["total"] == pytest.approx(m0["total"] + m0["geom"])


class TestAdapt:
    def test_round_outputs(self, dataset, tmp_path):
        out = tmp_path / "adapt"
        assert main(
            ["adapt", "--dataset", str(dataset), "--out", str(out), "--rounds", "2", "--seed", "0"]
        ) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["rounds"]) == 2
        first = metrics["rounds"][0]
        assert first["selection_rate"] == 1.0
        assert first["mean_refined_iou"] >= 0.95
        labels = json.loads((out / "labels_round1.json").read_text())
        assert labels["mixing_ratio"] == pytest.approx(0.3)
        assert len(labels["pose_labels"]) == first["n_pose_labels"]
        snap = json.loads((out / "adapt_config.json").read_text())
        assert snap["effective"]["rounds"] == 2

    def test_rerun_identical(self, dataset, tmp_path):
        for sub in ("x", "y"):
            assert main(
                ["adapt", "--dataset", str(dataset), "--out", str(tmp_path / sub), "--rounds", "1", "--seed", "2", "--noise-sigma", "0.5"]
            ) == 0
        assert tree_digest(tmp_path / "x") == tree_digest(tmp_path / "y")


def test_trees_do_not_depend_on_their_directory(tmp_path):
    # the config snapshots record each input relative to themselves, with
    # the sha256 of what was read, so one pipeline run in two directories
    # writes the same bytes
    digests = []
    for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
        ds, preds = root / "ds", root / "preds.jsonl"
        assert main(["simgen", "--out", str(ds), "--frames", "2", "--seed", "19"]) == 0
        for argv in (
            ["estimate", "--dataset", str(ds), "--out", str(preds), "--noise-sigma", "0.5"],
            ["evaluate", "--dataset", str(ds), "--predictions", str(preds), "--out", str(root / "eval" / "report.json")],
            ["losses", "--dataset", str(ds), "--predictions", str(preds), "--out", str(root / "losses.json")],
            ["adapt", "--dataset", str(ds), "--out", str(root / "adapt"), "--rounds", "1", "--noise-sigma", "0.5"],
        ):
            assert main(argv) == 0
        digests.append(tree_digest(root))
    assert digests[0] == digests[1]
    snap = json.loads((root / "eval" / "report_config.json").read_text())
    assert snap["effective"]["dataset"] == {
        "path": "../ds",
        "sha256": hashlib.sha256((ds / "scene_gt.json").read_bytes()).hexdigest(),
    }
    assert snap["effective"]["predictions"]["path"] == "../preds.jsonl"


def _perfbench_checks():
    """The benchmark's output checks, loaded from their file: its pose
    tolerance is the measure of a correct pose."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed7") / "ds"
    assert main(["simgen", "--out", str(out), "--frames", "20", "--seed", "7"]) == 0
    return out


class TestNoisyPoses:
    def test_sigma_3_skips_no_object(self, seed7, tmp_path, capsys):
        # a fixed 2 px inlier band left 18 of these 40 objects without
        # consensus
        out = tmp_path / "pred.jsonl"
        assert main(["estimate", "--dataset", str(seed7), "--out", str(out), "--noise-sigma", "3"]) == 0
        assert "(0 skipped)" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 40

    @pytest.mark.parametrize("sigma", ["0.5", "2"])
    def test_every_estimate_converges(self, seed7, sigma, tmp_path):
        # Levenberg-Marquardt runs whose every damped try at the minimum
        # moved the cost only by rounding reported a stall: 2 of these 40
        # estimates at 0.5 px and 4 at 2 px
        out = tmp_path / "pred.jsonl"
        assert main(["estimate", "--dataset", str(seed7), "--out", str(out), "--noise-sigma", sigma]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 40
        assert [(r["frame_id"], r["class"]) for r in records if not r["converged"]] == []

    def test_sigma_2_adapt_keeps_correct_pose_labels(self, seed7, tmp_path):
        # with confidence the share of points in a fixed 2 px band (~0.39
        # at 2 px noise), no label passed the 0.85 gate
        checks = _perfbench_checks()
        out = tmp_path / "adapt"
        assert main(["adapt", "--dataset", str(seed7), "--out", str(out), "--noise-sigma", "2"]) == 0
        attempted, failed, problems = checks.check_labels(out)
        assert attempted and not failed, problems
        gt, boxes = checks.load_scene(seed7)
        truth = {(f["frame_id"], o["class"]): o for f in gt["frames"] for o in f["objects"]}
        for path in sorted(out.glob("labels_round*.json")):
            for lab in json.loads(path.read_text())["pose_labels"]:
                obj = truth[(lab["frame_id"], lab["class"])]
                rot = np.reshape(obj["R"], (3, 3))
                _, _, points = checks.decode_fmap(checks.read_fmap(seed7 / obj["corr_map"]), boxes[obj["class"]])
                rot_spread, trans_spread = checks.pose_spread(
                    points, rot, np.divide(obj["t_mm"], 1000.0), gt["camera"], 2.0
                )
                rot_err = checks.rotation_error_deg(np.reshape(lab["R"], (3, 3)), rot)
                trans_err = float(np.linalg.norm(np.subtract(lab["t_mm"], obj["t_mm"])))
                assert rot_err <= checks.ROT_TOL_FLOOR_DEG + checks.POSE_TOL_SPREADS * rot_spread, lab
                assert trans_err <= checks.TRANS_TOL_FLOOR_MM + checks.POSE_TOL_SPREADS * trans_spread, lab

    def test_occluded_nearly_planar_views_are_not_mirrored(self, tmp_path):
        # two occluders per tool leave some views 7-12 % visible and nearly
        # planar; 10 of these 24 estimates came out 103-112 degrees off
        checks = _perfbench_checks()
        ds = tmp_path / "ds"
        pred = tmp_path / "pred.jsonl"
        scene = Path(checks.__file__).with_name("scene.json")
        assert main(["simgen", "--out", str(ds), "--config", str(scene), "--frames", "12", "--seed", "7010"]) == 0
        assert main(["estimate", "--dataset", str(ds), "--out", str(pred), "--noise-sigma", "0.5", "--seed", "7010"]) == 0
        attempted, failed, problems = checks.check_estimates(ds, pred, 0.5)
        assert len(attempted) == 24 and not failed, problems

    @pytest.mark.parametrize("sigma", ["0", "1", "2", "3"])
    def test_coplanar_support_is_solved(self, sigma, tmp_path, capsys):
        # class 0 of this frame shows only one flat face: every model point
        # it holds lies on one plane, where the six-point linear solve had
        # no unique solution, so the object was skipped at every sigma
        checks = _perfbench_checks()
        ds = tmp_path / "ds"
        pred = tmp_path / "pred.jsonl"
        scene = Path(checks.__file__).with_name("scene.json")
        assert main(["simgen", "--out", str(ds), "--config", str(scene), "--frames", "1", "--seed", "6024"]) == 0
        capsys.readouterr()
        assert main(["estimate", "--dataset", str(ds), "--out", str(pred), "--noise-sigma", sigma]) == 0
        assert "(0 skipped)" in capsys.readouterr().out
        attempted, failed, problems = checks.check_estimates(ds, pred, float(sigma))
        assert len(attempted) == 2 and not failed, problems
