"""The benchmark's workload processes.

``run.py`` starts this file in three modes, each a fresh process:

- ``generate``: writes the workload's input datasets with the program's
  own ``simgen`` command and records their digest;
- ``setup``: imports the package, loads the workload's datasets and
  models, prints ``ready`` and exits, so that ``run.py`` can time set-up;
- ``run``: the same set-up, one untimed warm-up round, then timed rounds
  of the workload's commands, each round's outputs checked between
  rounds.  It writes its result as JSON to ``<work>/result.json``.

A round runs the workload's commands in-process through
``artipose.cli.main``, on one input.  Rounds cycle over the inputs, so
every run attempts whole rounds; a revisited input must give the same
output bytes as its first visit, which is when its outputs are checked.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# Occluded sequences carry two occluders per tool, so that the rendering
# cost of a round does not hinge on a drawn occluder count.
SCENE_CONFIG = HERE / "scene.json"


def tree_digest(path):
    """sha256 over the relative names and bytes of every file under ``path``."""
    h = hashlib.sha256()
    path = Path(path)
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


class Workload:
    """One workload: its inputs, its rounds and the checks on their outputs.

    ``inputs`` is the number of distinct round inputs, ``min_rounds`` the
    fewest timed rounds a run makes (whatever ``--seconds`` says) and
    ``trace_rounds`` the fixed number a traced run repeats, so that its
    counts repeat exactly for a seed.
    """

    name = ""
    simgen_flags = ()
    inputs = 1
    min_rounds = 1
    trace_rounds = 1
    frames_per_round = 1

    def __init__(self, seed, work):
        self.seed = seed
        self.work = Path(work)

    def round_input(self, r):
        return r % self.inputs

    def input_seed(self, index):
        # simgen, estimate noise and adapt's box jitter all draw from this
        # seed, so that the inputs of one run are independent draws
        return self.seed * 1000 + index

    def dataset(self, index):
        return self.work / "data" / f"d{index:02d}"

    def generate(self, cli, part, parts):
        for i in range(part, self.inputs, parts):
            argv = ["simgen", "--out", str(self.dataset(i)), "--config", str(SCENE_CONFIG), "--frames", str(self.frames_per_round), "--seed", str(self.input_seed(i)), *self.simgen_flags]
            if cli.main(argv) != 0:
                raise SystemExit(f"simgen failed on {argv}")

    def input_digests(self):
        return {"simgen": tree_digest(self.work / "data")}

    def setup(self):
        from artipose.meshes import load_model_manifest
        from artipose.simulate import load_dataset

        models = {}
        for i in range(self.inputs):
            ds = load_dataset(self.dataset(i) / "scene_gt.json")
            for path in ds.model_paths:
                models[str(path)] = load_model_manifest(path)
        return models

    def commands(self, index):
        """[(stage, argv, output path)] for the round on input ``index``."""
        raise NotImplementedError

    def operations(self, index):
        """The operation keys a round on input ``index`` attempts."""
        gt = json.loads((self.dataset(index) / "scene_gt.json").read_text())
        return [(f["frame_id"], o["class"]) for f in gt["frames"] for o in f["objects"]]

    def check(self, index):
        """(attempted, failed, problems, extra) for the outputs of input ``index``."""
        raise NotImplementedError


class Simgen(Workload):
    """Renders and writes a fresh two-tool sequence with occluders per round."""

    name = "simgen"
    frames_per_round = 8
    min_rounds = 3
    trace_rounds = 10

    def generate(self, cli, part, parts):
        pass

    def input_digests(self):
        return {}

    def setup(self):
        from artipose.simulate import needle_holder_model, tweezers_model

        return needle_holder_model(), tweezers_model()

    def round_input(self, r):
        # every round renders a new sequence
        return r

    def commands(self, index):
        out = self.work / "out" / "simgen"
        argv = ["simgen", "--out", str(out), "--config", str(SCENE_CONFIG), "--frames", str(self.frames_per_round), "--seed", str(self.input_seed(index))]
        return [("simgen", argv, out)]

    def operations(self, index):
        return list(range(self.frames_per_round))

    def check(self, index):
        attempted, failed, problems = checks.check_simgen(self.work / "out" / "simgen")
        return attempted, failed, problems, {}


class EstimateNoisy(Workload):
    """Estimates both tools of a one-frame dataset at sigma 2 px per round."""

    name = "estimate-noisy"
    sigma = 2.0
    inputs = 20
    min_rounds = 20
    trace_rounds = 10
    frames_per_round = 1

    def out(self, index):
        return self.work / "out" / f"d{index:02d}"

    def commands(self, index):
        pred = self.out(index) / "estimate" / "pred.jsonl"
        return [
            (
                "estimate",
                ["estimate", "--dataset", str(self.dataset(index)), "--out", str(pred), "--noise-sigma", str(self.sigma), "--seed", str(self.input_seed(index))],
                pred.parent,
            )
        ]

    def check(self, index):
        errors = []
        attempted, failed, problems = checks.check_estimates(
            self.dataset(index), self.out(index) / "estimate" / "pred.jsonl", self.sigma, errors
        )
        return attempted, failed, problems, {"errors": errors}


class PipelineClean(EstimateNoisy):
    """estimate at sigma 0.5 px, then evaluate, losses and adapt, per round
    on one 12-frame sequence without occluders.

    With occluders, estimate at this sigma returns mirror poses of some
    heavily occluded views (see README.md), so no occluder is drawn.
    """

    name = "pipeline-clean"
    simgen_flags = ("--no-occluders",)
    sigma = 0.5
    inputs = 11
    min_rounds = 11
    trace_rounds = 4
    frames_per_round = 12

    def commands(self, index):
        ds = str(self.dataset(index))
        seed = str(self.input_seed(index))
        out = self.out(index)
        pred = str(out / "estimate" / "pred.jsonl")
        return [
            ("estimate", ["estimate", "--dataset", ds, "--out", pred, "--noise-sigma", str(self.sigma), "--seed", seed], out / "estimate"),
            ("evaluate", ["evaluate", "--dataset", ds, "--predictions", pred, "--out", str(out / "evaluate" / "report.json")], out / "evaluate"),
            ("losses", ["losses", "--dataset", ds, "--predictions", pred, "--out", str(out / "losses" / "losses.json")], out / "losses"),
            ("adapt", ["adapt", "--dataset", ds, "--out", str(out / "adapt"), "--noise-sigma", str(self.sigma), "--seed", seed], out / "adapt"),
        ]

    def check(self, index):
        attempted, failed, problems, extra = super().check(index)
        out = self.out(index)
        _, loss_failed, loss_problems = checks.check_losses(out / "losses" / "losses.json", attempted)
        _, label_failed, label_problems = checks.check_labels(out / "adapt")
        failed |= loss_failed | label_failed
        problems += loss_problems + label_problems
        extra["run_problems"] = checks.check_report(out / "evaluate" / "report.json")
        report = json.loads((out / "evaluate" / "report.json").read_text())
        extra["pose_ap"] = report["pose_ap"]["mean"]
        rounds = json.loads((out / "adapt" / "metrics.json").read_text())["rounds"]
        extra["pseudo_labels"] = rounds[-1]["n_pose_labels"]
        return attempted, failed, problems, extra


WORKLOADS = {w.name: w for w in (Simgen, EstimateNoisy, PipelineClean)}


class Runner:
    """Runs rounds of one workload, checking each input's first outputs."""

    def __init__(self, workload, cli):
        self.w = workload
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.run_problems = []
        self.first = {}  # input index -> (stage digests, failed count, attempted count)
        self.errors = []
        self.pose_ap = []
        self.pseudo_labels = 0
        self.stage_wall = {}

    def round(self, r, timed=True):
        """Run round ``r``; returns its wall time."""
        index = self.w.round_input(r)
        commands = self.w.commands(index)
        start = perf_counter()
        codes = []
        for stage, argv, _ in commands:
            t = perf_counter()
            codes.append(self.cli.main(argv))
            self.stage_wall[stage] = self.stage_wall.get(stage, 0.0) + perf_counter() - t
        wall = perf_counter() - start
        if any(codes):
            self.run_problems.append(f"round {r}: exit codes {codes}")
        digests = {stage: tree_digest(out) for stage, _, out in commands}
        if index not in self.first:
            attempted, failed, problems, extra = self.checked(index, any(codes))
            self.problems.extend(problems)
            self.run_problems.extend(extra.get("run_problems", []))
            self.errors.extend(extra.get("errors", []))
            if "pose_ap" in extra:
                self.pose_ap.append(extra["pose_ap"])
                self.pseudo_labels += extra["pseudo_labels"]
            self.first[index] = (digests, len(failed), len(attempted))
        elif digests != self.first[index][0]:
            self.run_problems.append(f"round {r}: outputs differ from the first run on input {index}")
        if timed:
            self.attempted += self.first[index][2]
            self.failed += self.first[index][1]
        return wall

    def checked(self, index, exited_nonzero):
        """The workload's check of input ``index``; every operation of the
        input fails when a command exited non-zero or an output is missing
        or unreadable."""
        problem = "a command exited non-zero"
        if not exited_nonzero:
            try:
                return self.w.check(index)
            except (OSError, ValueError) as exc:
                problem = str(exc)
        attempted = self.w.operations(index)
        msg = f"input {index}: no checkable output: {problem}"
        return attempted, set(attempted), [msg], {"run_problems": [msg]}

    def stage_digests(self, rounds):
        """Per stage, sha256 over the first visits of ``rounds`` inputs."""
        out = {}
        for key in sorted(self.first)[:rounds]:
            for stage, digest in self.first[key][0].items():
                out.setdefault(stage, hashlib.sha256()).update(digest.encode())
        return {stage: h.hexdigest() for stage, h in out.items()}


def run(args):
    import numpy as np

    import artipose.cli as cli

    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    runner = Runner(workload, cli)
    # warm-up: the first input once, untimed and uncounted
    runner.round(0, timed=False)
    result = {"numpy": np.__version__}
    if not args.trace:
        rates = []
        r = 0
        start = perf_counter()
        while r < workload.min_rounds or perf_counter() - start < args.seconds:
            rates.append(workload.frames_per_round / runner.round(r))
            r += 1
        result["frames_per_s"] = statistics.median(rates)
        result["round_rates"] = rates
    else:
        from spans import Tracer

        k = workload.trace_rounds
        plain = sum(runner.round(r) for r in range(k))
        tracer = Tracer()
        tracer.install()
        runner.stage_wall = {}
        traced = sum(runner.round(r) for r in range(k))
        result["layers"] = layer_metrics(tracer, runner, plain, traced, k * workload.frames_per_round)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
        run_problems=runner.run_problems[:20],
        digests=dict(workload.input_digests(), **runner.stage_digests(workload.min_rounds)),
        stage_wall_s=runner.stage_wall,
    )
    if runner.errors:
        result["rot_err_deg_median"] = statistics.median(e[0] for e in runner.errors)
        result["trans_err_mm_median"] = statistics.median(e[1] for e in runner.errors)
        result["rot_tol_share_max"] = max(e[2] for e in runner.errors)
        result["trans_tol_share_max"] = max(e[3] for e in runner.errors)
    if runner.pose_ap:
        result["pose_ap"] = statistics.fmean(runner.pose_ap)
        result["pseudo_labels"] = runner.pseudo_labels
    (workload.work / "result.json").write_text(json.dumps(result))


def layer_metrics(tracer, runner, plain, traced, frames):
    """Per-layer metrics of a traced run, named module.function.quantity."""
    g = tracer.get
    m = {}

    def calls_self(name, quantities=("calls", "self_s")):
        s = g(name)
        if "calls" in quantities:
            m[f"{name}.calls"] = s.calls
        if "self_s" in quantities:
            m[f"{name}.self_s"] = s.self

    for fn in ("rasterize_scene", "rasterize_crop", "render_amodal", "render_correspondence"):
        calls_self(f"raster.{fn}")
    full = g("raster.rasterize_scene")
    m["raster.full_frame.tri_per_s"] = full.work / full.total if full.total else 0.0
    crop_tris = g("raster.rasterize_crop").work + g("raster.render_correspondence").work
    crop_time = g("raster.rasterize_crop").total + g("raster.render_correspondence").total
    m["raster.crop.tri_per_s"] = crop_tris / crop_time if crop_time else 0.0

    calls_self("pnp.pnp_ransac")
    m["pnp.pnp_ransac.ms_median"] = tracer.median_ms("pnp.pnp_ransac")
    m["pnp.pnp_ransac.failed"] = g("pnp.pnp_ransac").failed
    m["pnp.pnp_dlt.calls"] = g("pnp.pnp_dlt").calls
    ransac = g("pnp.pnp_ransac").calls
    m["pnp.dlt_per_ransac"] = g("pnp.pnp_dlt").calls / ransac if ransac else 0.0
    calls_self("pnp.pairs_from_map")
    m["pnp.pairs_from_map.points"] = g("pnp.pairs_from_map").work
    errors = runner.errors
    m["pnp.pnp_ransac.rot_err_deg_median"] = statistics.median(e[0] for e in errors) if errors else 0.0
    m["pnp.pnp_ransac.trans_err_mm_median"] = statistics.median(e[1] for e in errors) if errors else 0.0

    for fn in ("read_fmap", "write_fmap", "read_mask_pgm", "write_mask_pgm"):
        calls_self(f"formats.{fn}")
        m[f"formats.{fn}.bytes"] = g(f"formats.{fn}").work

    for fn in ("load_annotation_bundle", "pose_ap_report", "detection_ap"):
        calls_self(f"metrics.{fn}", ("self_s",))
    m["metrics.mask_iou.calls"] = g("metrics.mask_iou").calls
    m["metrics.pose_ap_report.mean_ap"] = statistics.fmean(runner.pose_ap) if runner.pose_ap else 0.0

    for name in (
        "losses.loss_total",
        "tracking.run_tracker",
        "adaptation.adaptation_round",
        "adaptation.refine_bbox",
        "adaptation.RenderEstimator.__call__",
        "simulate.generate_sequence",
        "simulate.export_gt",
        "simulate.load_dataset",
        "simulate.load_correspondence",
        "meshes.articulate",
        "meshes.load_model_manifest",
    ):
        calls_self(name)
    m["adaptation.filter_pose_labels.kept"] = runner.pseudo_labels

    for cmd in ("simgen", "estimate", "evaluate", "losses", "adapt"):
        m[f"cli.cmd_{cmd}.wall_s"] = g(f"cli.cmd_{cmd}").total

    from spans import MODULES

    for module in MODULES:
        m[f"{module}.self_s"] = tracer.module_self(module)
    m["trace.wall_s"] = traced
    m["trace.remainder_s"] = traced - tracer.self_total()
    m["trace.overhead_s"] = traced - plain
    m["trace.frames"] = frames
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("generate", "setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", type=int, default=0, help="generate every parts-th input from this one")
    p.add_argument("--parts", type=int, default=1)
    args = p.parse_args(argv)
    if args.mode == "run":
        run(args)
        return 0
    import artipose.cli as cli

    workload = WORKLOADS[args.workload](args.seed, args.work)
    if args.mode == "generate":
        workload.generate(cli, args.part, args.parts)
    else:
        workload.setup()
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
