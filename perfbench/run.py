#!/usr/bin/env python3
"""Step-level training benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload tiny-train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds perfbench_step from the checkout's sources into .bench_build/,
runs one workload and passes its output through: the last stdout line is
the JSON result. Build output goes to stderr. --self-check runs every
workload for a few fixed steps in three processes (two untraced, one
traced) and checks that the gate passes and that the first steps repeat
bit for bit across them.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_step"
RESULTS_DIR = BUILD_DIR / "results"
WORKLOADS = ["tiny-train", "mid-train", "mid-tp2", "mid-pp2-fwd"]
RUN_TIMEOUT_S = 170

# Knobs that change what the runtime does; the benchmark measures defaults.
REFUSED_ENV = [
    "SLAPO_ALLOC", "SLAPO_MEMPLAN", "SLAPO_TRACE", "SLAPO_OP_PROFILE",
    "SLAPO_STEP_REPORT", "SLAPO_MEM_BUDGET", "SLAPO_FAILPOINTS",
    "SLAPO_LINT", "SLAPO_BUCKET_BYTES",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"runtime sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench_step", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, steps, src_id):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(RESULTS_DIR), "--source-id", src_id]
    if steps:
        cmd += ["--steps", str(steps)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    record = RESULTS_DIR / f"{workload}-seed{seed}-trace{trace}.txt"
    record.write_text(proc.stdout)
    return proc.stdout, json.loads(lines[-1])


def info_value(output, key):
    for line in output.splitlines():
        for field in line.split():
            if field.startswith(key + "="):
                return field.split("=", 1)[1]
    return None


def self_check(src_id):
    ok = True
    for workload in WORKLOADS:
        runs = [run_binary(workload, 7, 1, trace, 3, src_id)
                for trace in (0, 0, 1)]
        digests = {info_value(out, "first_steps_digest") for out, _ in runs}
        passed = all(res["correct"] and res["failed"] == 0 for _, res in runs)
        repeat = len(digests) == 1
        print(f"self-check {workload}: gate={'pass' if passed else 'FAIL'} "
              f"repeat={'pass' if repeat else 'FAIL'}")
        ok = ok and passed and repeat
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload for a few steps and check it")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        fail("refusing to run with " + ", ".join(refused) +
             " set; the benchmark measures the runtime's defaults")

    build()
    src_id = source_id()
    if args.self_check:
        return self_check(src_id)
    output, _ = run_binary(args.workload, args.seed, args.seconds, args.trace,
                           0, src_id)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
