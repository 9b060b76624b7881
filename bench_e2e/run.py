#!/usr/bin/env python3
"""Build and run the end-to-end REST benchmark of the qcenv daemon.

Run from the repository root:

    python3 bench_e2e/run.py --workload <hybrid_loop|ingest_drain|busy_qpu> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the qcenv library and the benchmark
(CMake, Release) under .bench_build/bench_e2e; later runs rebuild only what
changed. Every run executes the benchmark's statistics self-test first and
then the benchmark, whose last stdout line is the JSON result. Exits
non-zero, printing no result, when the sources, the build or the self-test
fail, and with the benchmark's own code otherwise. An untraced run that the
host robbed of too much CPU (exit 3) is measured again, in a fresh process,
while attempts fit in ATTEMPT_BUDGET_S; if none is quiet enough, the attempt
with the least steal is reported, since a run must end with a result.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hybrid_loop", "ingest_drain", "busy_qpu")
RUN_TIMEOUT_S = 170
ATTEMPT_BUDGET_S = 120
NOISY_HOST = 3


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(command) + "\n")
        log.flush()
        return subprocess.run(command, stdout=log, stderr=subprocess.STDOUT).returncode


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_logged(configure, log_path) != 0:
            # Configure again next time rather than build a half-made tree.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            fail("configure failed; see " + log_path)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "-j", jobs], log_path) != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
            os.path.join(ROOT, "src", "daemon", "daemon.hpp")):
        fail("qcenv sources not found next to " + HERE)
    # Whoever terminates this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build_dir = os.path.join(ROOT, ".bench_build", "bench_e2e")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "bench_e2e_selftest")],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("statistics self-test failed")

    # Per invocation, so runs that overlap in one checkout never share data.
    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    command = [os.path.join(build_dir, "bench_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", work_dir]
    started = time.monotonic()
    noisy = []  # (steal, stdout) of each attempt that exited NOISY_HOST
    while True:
        began = time.monotonic()
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S - (began - started))
        except subprocess.TimeoutExpired:
            fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if done.returncode != NOISY_HOST:
            sys.stdout.write(done.stdout)
            sys.exit(done.returncode)
        steal = re.search(r"cpu_steal_frac=([0-9.]+)", done.stdout)
        noisy.append((float(steal.group(1)) if steal else 1.0, done.stdout))
        now = time.monotonic()
        # Another attempt as long as this one must still fit in the budget.
        if (now - started) + (now - began) > ATTEMPT_BUDGET_S:
            break
        print("bench_e2e: measuring again", file=sys.stderr)
    print("bench_e2e: no quiet attempt; reporting the least disturbed", file=sys.stderr)
    sys.stdout.write(min(noisy)[1])
    sys.exit(0)


if __name__ == "__main__":
    main()
