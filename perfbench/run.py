#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark in Release into .bench_build/ at the
repository root (only the first run compiles), runs the oracle's
self-test, then runs the workload and prints its result as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without printing a result when the build, the oracle's
self-test or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("search_ann", "search_exact", "train")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(threads):
    """Configures (once) and builds; build output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(threads)])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                log("build step failed: " + " ".join(step))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under " + os.path.join(ROOT, "src"))
        return 1
    threads = cpu_count()
    if not build(threads):
        return 1
    oracle_test = subprocess.run([os.path.join(BUILD, "oracle_test")],
                                 stdout=sys.stderr, timeout=60)
    if oracle_test.returncode != 0:
        log("oracle self-test failed")
        return 1

    # The library's pool serves the load. search_ann also has a generator
    # thread, so it leaves that thread a CPU.
    env = dict(os.environ)
    pool = threads - 1 if args.workload == "search_ann" else threads
    env["TMN_NUM_THREADS"] = str(max(pool, 1))
    workdir = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(workdir)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log("benchmark exited with %d" % run.returncode)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
