#!/usr/bin/env python3
"""Builds and runs the TPA serving benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The first call builds the library sources
under src/ together with the benchmark binary (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset.  A run prints its host and traffic record as one JSON line, then the
result object as the last line of standard output.  Build logs and
diagnostics go to standard error.  --smoke runs every workload at a toy
scale, traced and untraced, and checks every metric name and unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


class Failure(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tpa.h")):
        raise Failure("library sources not found under " + os.path.join(ROOT, "src"))
    out = os.path.join(build_root(), "perfbench")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr, env=env,
                   check=True)
    return os.path.join(out, "tpa_perfbench")


def source_identity():
    """The git commit when the checkout is a repository, and always a digest
    of the library sources (an exported checkout carries no .git)."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_child(cmd):
    """Runs one benchmark process; returns its stdout lines.  The process is
    killed and reaped on timeout or interruption."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise Failure("%s exited with code %d" % (os.path.basename(cmd[0]), proc.returncode))
    return [line for line in out.splitlines() if line.strip()]


def check_result(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise Failure("result keys: %s" % sorted(result))
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != names:
        raise Failure("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(names) - set(got)), sorted(set(got) - set(names)),
            sorted(k for k in names if k in got and got[k] != names[k])))
    for k, v in result["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            raise Failure("metric %s has no numeric value" % k)


def run_once(binary, workload, seed, seconds, trace, toy, identity):
    """One run of one workload; returns (record, result)."""
    out_dir = os.path.join(build_root(), "perfbench-out")
    tmp = os.path.join(build_root(), "perfbench-tmp", "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--toy", "1" if toy else "0",
              "--dir", tmp]
    try:
        if workload == "coldstart-open-fp32":
            run_child([binary, "prepare"] + common)
        cmd = [binary, "run"] + common + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            cmd += ["--trace-out", os.path.join(out_dir, "trace-%s-%d.json" % (workload, seed))]
        lines = run_child(cmd)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(lines) < 2:
        raise Failure("benchmark printed no result")
    record = json.loads(lines[-2])["record"]
    record["git_sha"], record["src_sha256"] = identity
    result = json.loads(lines[-1])
    with open(os.path.join(out_dir, "records.jsonl"), "a") as f:
        f.write(json.dumps({"record": record, "result": result}) + "\n")
    return record, result


def smoke(binary, spec, identity):
    for w in spec["workloads"]:
        for trace in (0, 1):
            record, result = run_once(binary, w["name"], 1, 1, trace, True, identity)
            check_result(result, spec, trace)
            if not result["correct"] or result["failed"]:
                raise Failure("%s trace=%d failed its correctness checks" % (w["name"], trace))
            if not record["seeds_non_isolated"]:
                raise Failure("%s drew an isolated seed" % w["name"])
            log("smoke ok: %s trace=%d (%d metrics)" % (w["name"], trace, len(result["metrics"])))
    tmp = os.path.join(build_root(), "perfbench-tmp")
    if os.path.isdir(tmp) and os.listdir(tmp):
        raise Failure("temporary snapshot directories were left behind: %s" % os.listdir(tmp))
    print(json.dumps({"smoke": "ok"}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    def interrupted(signum, frame):
        raise Failure("interrupted by signal %d" % signum)
    signal.signal(signal.SIGTERM, interrupted)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not args.smoke and args.workload not in names:
            raise Failure("--workload must be one of %s" % names)
        binary = build()
        identity = source_identity()
        if args.smoke:
            smoke(binary, spec, identity)
            return 0
        record, result = run_once(binary, args.workload, args.seed, args.seconds,
                                  args.trace, False, identity)
        check_result(result, spec, args.trace)
    except (Failure, OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
