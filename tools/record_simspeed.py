#!/usr/bin/env python3
"""Record the simulator-speed trajectory point: BENCH_simspeed.json.

Runs the single-run timing benchmarks and the sweep benchmarks of
bench/simspeed and writes google-benchmark's JSON, with the host added
to its "context" (nproc, CPU model, compiler, build type, git commit),
to BENCH_simspeed.json at the repository root:

    cmake -B build -S . && cmake --build build -j
    tools/record_simspeed.py [--build-dir build] [--out FILE]

Compare two recordings (say, a parent commit's and a change's) with

    tools/benchdiff.py old/BENCH_simspeed.json BENCH_simspeed.json

Exit status: 0 on success, 2 when simspeed is missing or fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILTER = "Timing|Sweep"


def first_line(cmd, cwd=None):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    lines = out.strip().splitlines()
    return lines[0] if lines else None


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_context(build_dir):
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": first_line([compiler, "--version"]) if compiler
        else None,
        # An empty cached build type means the project default.
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE")
        or "RelWithDebInfo",
        # "<sha>-dirty" when the tree has uncommitted changes.
        "git_commit": first_line(["git", "describe", "--always",
                                  "--dirty", "--abbrev=40"], cwd=ROOT),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    ap.add_argument("--out",
                    default=os.path.join(ROOT, "BENCH_simspeed.json"))
    args = ap.parse_args()

    simspeed = os.path.join(args.build_dir, "bench", "simspeed")
    if not os.access(simspeed, os.X_OK):
        print(f"record_simspeed: {simspeed} not built", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        raw = os.path.join(tmp, "simspeed.json")
        cmd = [simspeed, f"--benchmark_filter={FILTER}",
               f"--benchmark_out={raw}", "--benchmark_out_format=json"]
        if subprocess.run(cmd).returncode != 0:
            print("record_simspeed: simspeed failed", file=sys.stderr)
            return 2
        with open(raw) as f:
            data = json.load(f)
    context = data.setdefault("context", {})
    context.update(host_context(args.build_dir))
    # Keep the recording free of the recording machine's paths.
    context["executable"] = os.path.relpath(simspeed, ROOT)
    with open(args.out, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")
    print(f"record_simspeed: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
