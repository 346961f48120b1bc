"""Run one benchmark workload at one seed and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload simgen --seed 1 --seconds 25 --trace 0

Every step runs in a fresh single-threaded process: the program's own
``simgen`` first writes the workload's inputs, several set-up probes time
the import and the loading of those inputs, then the measured process
times rounds of the workload's commands and checks their outputs.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it holds the host details, the artifact digests and the
per-round figures, which are not metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("simgen", "estimate-noisy", "pipeline-clean")
# Set-up probes, half before and half after the measured run so that
# their median spans the host's drift over the run.
SETUP_PROBES = 8
# Input generation is not measured; two processes halve its wall time.
GENERATORS = 2
# A run must end within 180 s; leave room to clean up.
DEADLINE_S = 170.0
# Numeric libraries stay on one thread, hash order is fixed, and the
# package is imported from the checkout's sources.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env(root):
    env = dict(os.environ, **CHILD_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = perf_counter() + seconds

    def left(self):
        left = self.end - perf_counter()
        if left <= 0:
            raise TimeoutError("benchmark ran past its deadline")
        return left


def child(args, work, mode, env, *extra, **popen):
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work", str(work),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    return subprocess.Popen(cmd, env=env, **popen)


def wait(proc, deadline, what):
    try:
        code = proc.wait(timeout=deadline.left())
    except (subprocess.TimeoutExpired, TimeoutError):
        proc.kill()
        proc.wait()
        raise TimeoutError(f"{what} ran past the deadline") from None
    if code != 0:
        raise RuntimeError(f"{what} exited with code {code}")


def setup_probe(args, work, env, deadline):
    """Seconds from spawning a fresh process to its set-up being done."""
    start = perf_counter()
    proc = child(args, work, "setup", env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        proc.stdout.close()
        wait(proc, deadline, "set-up probe")
    if line.strip() != "ready":
        raise RuntimeError("set-up probe did not report ready")
    return elapsed


def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest(root):
    h = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def metric_values(listed, values):
    """The metrics ``listed`` in BENCHMARK.json, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "artipose" / "cli.py").is_file():
        print("error: run from the root of an artipose checkout (src/artipose not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = Deadline(DEADLINE_S)
    env = child_env(root)
    work = Path("perfbench") / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    procs = []
    try:
        procs += [
            child(args, work, "generate", env, "--part", str(k), "--parts", str(GENERATORS), stdout=subprocess.DEVNULL)
            for k in range(GENERATORS)
        ]
        for proc in procs:
            wait(proc, deadline, "input generation")
        # the first probe also pays for compiling the package's bytecode
        setup_probe(args, work, env, deadline)
        probes = [setup_probe(args, work, env, deadline) for _ in range(SETUP_PROBES // 2)]
        procs.append(child(args, work, "run", env, stdout=subprocess.DEVNULL))
        wait(procs[-1], deadline, "measured run")
        result = json.loads((work / "result.json").read_text())
        probes += [setup_probe(args, work, env, deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        setup_s = statistics.median(probes)
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    for msg in result["problems"] + result["run_problems"]:
        print(f"check: {msg}", file=sys.stderr)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "git_sha": git_sha(root),
            "src_sha256": src_digest(root),
        },
        "digests": result["digests"],
        "setup_probes_s": probes,
        "stage_wall_s": result["stage_wall_s"],
        "round_rates": result.get("round_rates"),
        "accuracy": {k: result[k] for k in ("rot_err_deg_median", "trans_err_mm_median", "rot_tol_share_max", "trans_tol_share_max", "pose_ap", "pseudo_labels") if k in result},
    }
    print(json.dumps({"details": details}))
    if args.trace:
        metrics = metric_values(spec["per_layer"], result["layers"])
    else:
        values = {"setup_s": setup_s, "frames_per_s": result["frames_per_s"], "peak_rss_mb": result["peak_rss_mb"]}
        metrics = metric_values(spec["end_to_end"], values)
    print(json.dumps({
        "correct": not result["run_problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
