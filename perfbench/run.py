#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

Workloads: modeled-sweep, target-run.

The first call configures and builds perfbench/ (the liftcpp libraries
from src/ plus perfbench.cpp) into .bench_build/perfbench; later calls
only re-check the build. The binary's report is passed through; its
last line is one JSON object with the keys correct, attempted, failed
and metrics. A binary that crashes is reported as one failed operation
and the script exits non-zero. When the sources cannot be built the
script exits non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("modeled-sweep", "target-run")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as build_log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT,
                                cwd=root).returncode
            if rc != 0:
                build_log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log(f"build step failed ({rc}): {' '.join(cmd)}")
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced grids and benchmark sets (self-test only)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        return 1

    work_dir = os.path.join(root, ".bench_build", "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    # Freed memory stays in each process (perfbench and the compilers it
    # spawns) for reuse instead of going back to the kernel: on a virtual
    # machine every page the kernel hands out again faults through the
    # host. On a 4-vCPU KVM guest, with glibc's defaults every kernel
    # execution mmap'ed its grid buffers afresh; a target-run round of
    # executions spent about 4 s beside its 3 s of kernel time, against
    # about 1 s with this setting, and the steal time of fault-heavy
    # steps varied from run to run.
    env = dict(os.environ, TMPDIR=work_dir,
               GLIBC_TUNABLES="glibc.malloc.mmap_max=0:"
                              "glibc.malloc.trim_threshold=68719476736")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    # A terminated run.py takes the binary (and the binary's compiler
    # children, which it waits for) down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=root, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"perfbench exceeded {RUN_TIMEOUT_S} s and was killed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    sys.stdout.write("".join(line + "\n" for line in lines))
    if result is None:
        # A crash (e.g. a signal inside a JIT'd kernel) is a failed
        # operation, never a masked one.
        log(f"perfbench exited with status {proc.returncode}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}), flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
