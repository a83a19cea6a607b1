#!/usr/bin/env python3
"""Build and run the Prism benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the program's src/
tree with it) into $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. The last line of standard output is the run's JSON result; the
report and build log go to standard error. Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "prism_db.h")):
        fail("the program's sources (src/) are not in this checkout")
    out = os.path.join(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")),
        "perfbench")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache) and configured_source(cache) != os.path.realpath(HERE):
        # A build tree copied or moved with its checkout: CMake refuses a
        # cache made for another source directory, so start afresh.
        shutil.rmtree(out)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def configured_source(cache):
    with open(cache, errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    exe = build()
    # A session of its own, so a timeout stops the server process too.
    proc = subprocess.Popen(
        [exe, "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    got = list(result["metrics"])
    want = expected_metrics(a.trace)
    if got != want:
        fail(f"printed metrics {got} differ from BENCHMARK.json's {want}")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
