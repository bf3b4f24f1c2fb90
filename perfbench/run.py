#!/usr/bin/env python3
"""Build and run the Tango end-to-end benchmark.

    python3 perfbench/run.py --workload fabric_commit|fleet_learn|fault_soak \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library sources under src/ together with the benchmark program
(perfbench.cpp) in a Release build under .bench_build/perfbench; later calls
only re-check it.
Build output goes to standard error, so the last line of standard output is
the program's JSON result. Traced runs (--trace 1) also write their spans to
.bench_build/spans-<workload>-<seed>.json.

Exits non-zero without a result when the sources are missing, the build
fails, or an output check of the run fails.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("fabric_commit", "fleet_learn", "fault_soak")


def run(cmd, **kwargs):
    """Run cmd in its own process group; stop the whole group if interrupted."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    """Configure once, then build; serialized across concurrent callers."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "--build", BUILD, "-j", jobs]]
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"])
        # Keep the compiler's temporary files inside the checkout too.
        tmp = os.path.join(BUILD_ROOT, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            if run(cmd, stdout=sys.stderr, env=env) != 0:
                raise RuntimeError("%s failed" % " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    # A termination request unwinds through run()'s finally, which stops the
    # running build or benchmark program before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 1 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        exe = build()
    except (OSError, RuntimeError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            BUILD_ROOT, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
