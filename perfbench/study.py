#!/usr/bin/env python3
"""Steadiness study: back-to-back runs of each workload on distinct seeds.

    python3 perfbench/study.py [--runs 10] [--first-seed 101] [--workload NAME ...]

For every end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, i.e. the distance between
the quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  It also prints the per-run steal seconds and involuntary
context switches from each run's record, so a noisy run can be explained.
Every run is kept; none is discarded or re-seeded.  Raw results are appended
to $CARGO_TARGET_DIR/perfbench-out/study.jsonl (default .bench_build/...).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    ok = True
    for name in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print("%s seed %d: exit code %d" % (name, seed, proc.returncode))
                return 1
            lines = proc.stdout.strip().splitlines()
            run = {"workload": name, "seed": seed, "wall_s": time.time() - start,
                   "record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}
            runs.append(run)
            with open(os.path.join(out_dir, "study.jsonl"), "a") as f:
                f.write(json.dumps(run) + "\n")
        print("\n%s: %d runs, seeds %d-%d, wall %.0f-%.0f s" % (
            name, len(runs), args.first_seed, args.first_seed + args.runs - 1,
            min(r["wall_s"] for r in runs), max(r["wall_s"] for r in runs)))
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            print("| %s | %.6g | %.6g | %.6g | %.3f | %.2f |" % (
                m["name"], med, q1, q3, spread, m["bound"]))
        print("correct: %s" % all(r["result"]["correct"] for r in runs))
        print("steal_s: %s" % [r["record"]["steal_s"] for r in runs])
        print("involuntary_csw: %s" % [r["record"]["involuntary_csw"] for r in runs])
        ok = ok and all(r["result"]["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
