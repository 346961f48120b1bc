"""Run two sets of benchmark runs of the same code and compare them.

Usage, from the root of a source checkout:

    python3 perfbench/compare.py --runs 10

Each set runs every workload in BENCHMARK.json once per seed (seeds
1..runs), one run after another, and the second set starts when the
first has ended.  For each workload and end-to-end metric the report
gives each set's median and quartiles (``statistics.quantiles(values,
n=4)``) and their spread, the quartile distance as a share of the median.
A metric agrees when the spread of each set stays within the metric's
bound in BENCHMARK.json and the two medians differ, in either direction,
by at most the bound as a share of the first.  The share of failed
operations must be the same in both sets.  Every run's output lines are
appended to ``perfbench/.work/compare-runs.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOG = Path("perfbench") / ".work" / "compare-runs.jsonl"
SETS = 2


def one_run(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    with LOG.open("a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "elapsed_s": elapsed, "lines": lines}) + "\n")
    return json.loads(lines[-1]), elapsed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload and set, one seed each")
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    LOG.parent.mkdir(parents=True, exist_ok=True)

    sets = []
    for s in range(SETS):
        results = {w: [] for w in workloads}
        for seed in range(1, args.runs + 1):
            for w in workloads:
                res, elapsed = one_run(spec, w, seed)
                results[w].append(res)
                print(f"set {s + 1} {w} seed {seed} ({elapsed:.0f} s): correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        sets.append(results)

    ok = True
    report = []
    for w in workloads:
        shares = [sum(r["failed"] for r in st[w]) / sum(r["attempted"] for r in st[w]) for st in sets]
        correct = all(r["correct"] for st in sets for r in st[w])
        line = {"workload": w, "failed_share": shares, "correct": correct, "metrics": {}}
        ok &= correct and len(set(shares)) == 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first, second = (summary([r["metrics"][name]["value"] for r in st[w]]) for st in sets)
            shift = abs(second["median"] - first["median"]) / first["median"]
            verdict = first["spread"] <= bound and second["spread"] <= bound and shift <= bound
            ok &= verdict
            line["metrics"][name] = {"sets": [first, second], "shift": shift, "bound": bound, "agree": verdict}
            print(f"{w:15s} {name:14s} bound {bound:.2f} "
                  + " | ".join(f"median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f}" for s in (first, second))
                  + f" | shift {shift:.3f}  {'agree' if verdict else 'DISAGREE'}")
        report.append(line)
    (LOG.parent / "compare-report.json").write_text(json.dumps(report, indent=2))
    print("all metrics agree" if ok else "some metric disagrees")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
