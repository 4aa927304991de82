#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload ds_single|fig_sweep|serve_open \
        --seed N --seconds S --trace 0|1 [--smoke] [--plant-mismatch]

Run from the repository root. Builds the simulator and the benchmark
program (dsperf) under .bench_build/perfbench on first use, prints one
`host {...}` line naming the host and the run, then dsperf's output,
whose last line is the JSON result. The exit status is dsperf's: 0
when every op passed the correctness gate, non-zero otherwise. With
--trace 1 the run's spans are kept in .bench_build/spans/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
# Leaves the contract's 180 s per run for build checks and start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build dsperf and dsserve."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no simulator sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "dsperf", "dsserve"],
                   stdout=sys.stderr, check=True)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=ROOT, timeout=10)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 \
            and out.stdout else None
    except (OSError, subprocess.SubprocessError, IndexError):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    paths.append(os.path.join(ROOT, "tools", "dsserve.cc"))
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_info(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": first_line(["git", "rev-parse", "HEAD"])
        if os.path.exists(os.path.join(ROOT, ".git")) else None,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["ds_single", "fig_sweep", "serve_open"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny budgets (self-test)")
    p.add_argument("--plant-mismatch", action="store_true",
                   help="corrupt one digest; the gate must fail the run")
    args = p.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    print("host " + json.dumps(host_info(args), sort_keys=True), flush=True)

    work = os.path.join(os.path.relpath(BUILD_ROOT, os.getcwd()),
                        f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "dsperf"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}",
           f"--dsserve={os.path.join(BUILD, 'dsserve')}",
           f"--work-dir={work}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")

    # Own process group, so a timeout also stops the spawned daemons.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"dsperf exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        spans = os.path.join(work, f"spans-{args.workload}.jsonl")
        if os.path.exists(spans):
            keep = os.path.join(BUILD_ROOT, "spans")
            os.makedirs(keep, exist_ok=True)
            name = f"{args.workload}-seed{args.seed}-{int(time.time())}"
            shutil.move(spans, os.path.join(keep, name + ".jsonl"))
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
