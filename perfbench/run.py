#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the perfbench harness against the enclosing checkout (CMake, into
.bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload rmat_pagerank --seed 1 --seconds 30 --trace 0

The harness prints its runs, a metric table, and as the last stdout line
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--workload all, each workload runs in its own process and a table of every
end-to-end metric, fail_rate included, follows.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Workload rationale: why each exists, the layers it loads and bypasses, and
# a held-out seed kept back for confirming later claims.
with open(os.path.join(HERE, "workloads.json")) as _f:
    WORKLOADS = list(json.load(_f))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, capture):
    """Runs cmd in its own process group; the whole group is killed and
    reaped if it overruns `timeout` or this script is stopped."""
    proc = subprocess.Popen(cmd, cwd=REPO, text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.STDOUT if capture == "merged" else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "cluster.h")):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail("no chaos sources next to the benchmark (missing %s); run from a "
                 "checkout of the repository" % needed, code=2)
    if shutil.which("cmake") is None:
        fail("cmake not found", code=2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        for cmd in steps:
            code, out = run_child(cmd, BUILD_TIMEOUT_S, capture="merged")
            if code != 0:
                sys.stderr.write(out)
                fail("build step failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, capture):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", RESULTS_DIR]
    code, out = run_child(cmd, RUN_TIMEOUT_S, capture="stdout" if capture else None)
    if code != 0:
        fail("%s exited with code %d" % (workload, code), code=code if code > 0 else 1)
    return out


def print_all(seed, seconds):
    """Runs every workload untraced and prints its end-to-end metrics."""
    rows = []
    for workload in WORKLOADS:
        out = run_workload(workload, seed, seconds, 0, capture=True)
        rows.append((workload, json.loads(out.strip().splitlines()[-1])))
    for workload, result in rows:
        print(workload + ("" if result["correct"] else "  (INCORRECT)"))
        for name, metric in result["metrics"].items():
            print("  %-22s %16.6f %s" % (name, metric["value"], metric["unit"]))
        print("  %-22s %16.6f %s" % ("fail_rate", result["failed"] / result["attempted"],
                                     "ratio"))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", code=2)
    # Turn SIGTERM into an exit so run_child's cleanup stops the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    if args.workload == "all":
        return print_all(args.seed, args.seconds)
    run_workload(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
