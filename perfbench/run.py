#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library under src/ plus
the driver in this directory) into .bench_build/perfbench on first use, then
runs one workload under a wall-clock watchdog. The driver's output is passed
through; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. A run the watchdog has to
kill ends as a failed run (correct=false, exit code 1) instead of hanging.

Workloads: ycsb_closed, durable_put, failover (see BENCHMARK.json
for why each exists).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dpr_perfbench")
RUN_BUDGET_S = 170  # every run must end within 180 s
BUILD_BUDGET_S = 840  # the first run of a checkout also builds


def build():
    """Configures (once) and builds the driver; output goes to a log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "dpr_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_BUDGET_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("%s\n" % e)
                rc = 1
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
        if not os.path.exists(os.path.join(BUILD_DIR, "dpr_perfbench")):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
        return False
    return True


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def failed_run(reason):
    sys.stderr.write("perfbench: %s\n" % reason)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        sys.stderr.write("perfbench: --seconds must be in [1, 120]\n")
        return 2

    start = time.monotonic()
    if not build():
        return 2
    want = expected_metrics(args.trace)
    tmp_dir = os.path.join(ROOT, ".bench_build", "tmp",
                           "%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp_dir", tmp_dir]
    budget = max(30.0, RUN_BUDGET_S - (time.monotonic() - start))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        return failed_run("watchdog: run exceeded %.0f s and was killed"
                          % budget)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    shutil.rmtree(tmp_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        return failed_run("driver exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return failed_run("driver printed no result line")
    if set(result.get("metrics", {})) != want:
        return failed_run("metrics %s do not match BENCHMARK.json %s"
                          % (sorted(result.get("metrics", {})), sorted(want)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
