#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/CMakeLists.txt (the simulator library,
the catnap_sim worker and the perfbench binary) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the binary. Its last stdout line is the JSON result; build
output goes to stderr. Exits non-zero without a result when the
simulator sources are missing, the build fails or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark targets."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "perfbench", "catnap_sim"],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference-only", action="store_true",
                    help="print the serial reference digests and exit")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found beside "
                 "perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    # Relative, so the daemon's Unix socket path stays short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", build_dir, "--work-dir", work_dir,
           "--reference", os.path.join(HERE, "reference_digests.txt")]
    if args.reference_only:
        cmd.append("--reference-only")
    # A process group of its own, so a timeout also stops its workers.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
