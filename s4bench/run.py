#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 s4bench/run.py --workload core_cold --seed 1 --seconds 20 --trace 0
    python3 s4bench/run.py --selftest

Run from the repository root. The build tree is $CARGO_TARGET_DIR when
set, else .bench_build; traced runs write their span files and per-layer
tables to .bench_out. The run is pinned to RUN_CPUS CPUs. Build output
goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the build fails or the run breaks its time limit.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# CPUs a run is pinned to. On an oversubscribed virtual machine a process
# that keeps several vCPUs busy gets them stolen by the host, and thread
# hand-offs between vCPUs then wait on the hypervisor; one CPU keeps the
# multi-threaded served_rw and fleet_skew repeatable (see README.md).
RUN_CPUS = 1


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, target)


def main(argv):
    if argv == ["--selftest"]:
        binary = build("s4bench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build("s4bench")
    if binary is None:
        return 1
    cmd = [binary] + argv + ["--out", os.path.join(ROOT, ".bench_out")]
    cpus = set(sorted(os.sched_getaffinity(0))[:RUN_CPUS])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
