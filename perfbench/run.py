#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload logit_mha --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds perfbench (and the simulator sources it
links) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs it, and prints its JSON result as the last
line of stdout. Build output and per-rep timings go to stderr. Exits non-zero
without a result line if the build or the run fails. With --trace 1 the spans
of the traced reps are written to spans-<workload>.json in the build
directory. BENCHMARK.md describes the workloads and metrics.
"""

import argparse
import ctypes
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, <sys/personality.h>


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    # Runs started side by side share one build directory: build one at a time.
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench")


def fixed_layout():
    """Turns address-space randomisation off for the child about to exec.

    With a random layout, each process lands its hot data at different
    cache alignments, and run_s moved with it from process to process.
    Where the call is not available the run goes on with a random layout.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traffic-seed", type=int, default=None,
                    help="serve_openloop schedule seed (default: pinned)")
    args = ap.parse_args()

    try:
        out_dir = build_dir()
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", out_dir]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.json")]
    if args.traffic_seed is not None:
        cmd += ["--traffic-seed", str(args.traffic_seed)]
    env = dict(os.environ)
    env.pop("LLAMCAT_FASTPATH_STATS", None)  # perfbench sets it when tracing
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          preexec_fn=fixed_layout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    json.loads(lines[-1])  # a malformed result line must not pass as one
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
