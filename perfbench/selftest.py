#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs a smoke-size pass of every workload in BENCHMARK.json, untraced
and traced, and checks that each run passes the correctness gate and
prints every end-to-end (untraced) or per-layer (traced) metric with
its name and unit. Then plants a digest mismatch and checks that the
gate fails the run: a non-zero exit and a result with failed > 0.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(name, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace} passes the gate"
                  + ("" if code == 0 else f" (exit {code}: {err[-400:]})"))
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[group]}
            missing = [n for n in want if n not in metrics]
            wrong = [n for n in want if n in metrics
                     and metrics[n]["unit"] != want[n]]
            extra = [n for n in metrics if n not in want]
            check(not missing and not wrong and not extra,
                  f"{name} trace={trace} prints every {group} metric with "
                  f"its unit (missing {missing}, wrong unit {wrong}, "
                  f"undeclared {extra})")
            check(all(isinstance(v["value"], (int, float))
                      for v in metrics.values()),
                  f"{name} trace={trace} metric values are numbers")

    name = bench["workloads"][0]["name"]
    code, result, _ = run(name, 0, "--plant-mismatch")
    check(code != 0 and result is not None and result["failed"] > 0
          and not result["correct"],
          f"{name}: a planted digest mismatch fails the gate")
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
