#!/usr/bin/env python3
"""End-to-end broker benchmark: build, run one workload, print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload telemetry-small --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the library's serving-path
sources plus the bench binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset. The workloads and their
rates are defined in perfbench/cpp/workload.cpp (see perfbench/README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The exit code is non-zero when any
delivery failed or the benchmark could not run.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the bench binary; output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--extra", nargs=argparse.REMAINDER, default=[],
                    help="further flags passed to the bench binary (self-test settings)")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    scratch = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)

    cmd = [binary, "run",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scratch", scratch] + args.extra
    # The bench binary and the broker and format service it spawns share a
    # fresh process group, so a run that overstays can be stopped whole.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc)
    # A run with failed deliveries still prints its result line (correct
    # is false), then exits non-zero.
    print(out.rstrip("\n"), flush=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
