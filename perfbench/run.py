#!/usr/bin/env python3
"""Build and run the MITTS repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the simulator sources it links) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("saturated", "shaped", "fig12_sweep", "cloud_diurnal")
# Inputs whose bytes decide what the benchmark measures.
DIGEST_INPUTS = ("src", "perfbench", "sweeps/fig12.sweep",
                 "scenarios/diurnal200.scn")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the benchmark's inputs (paths and bytes)."""
    h = hashlib.sha256()
    for item in DIGEST_INPUTS:
        top = os.path.join(ROOT, item)
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(top) for f in names)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--root", ROOT,
           "--work", os.path.join(build_dir, "work"),
           "--commit", commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
