#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pair_sweep --seed 1 \
        --seconds 25 --trace 0

The first call configures and builds the simulator library, occamy-serve
and the perfbench program under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only re-check the build. Build
output goes to stderr, so the last stdout line is perfbench's JSON
result. Any build or run failure exits non-zero.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "perfbench")
    jobs = str(os.cpu_count() or 1)

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(build, ignore_errors=True)
            return 1
    if subprocess.call(["cmake", "--build", build, "-j", jobs,
                        "--target", "perfbench"], stdout=sys.stderr) != 0:
        return 1

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass

    program = os.path.join(build, "perfbench")
    workdir = os.path.join(build_root, "perfbench-work")
    args = sys.argv[1:] + ["--workdir", workdir, "--commit", commit]
    sys.stdout.flush()
    return subprocess.call([program] + args)


if __name__ == "__main__":
    sys.exit(main())
