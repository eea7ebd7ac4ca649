#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json at its tiny size, untraced and
traced, and checks that each run passes its correctness checks and
prints the contract's result line: exactly the keys correct, attempted,
failed and metrics, with every end-to-end metric (untraced) or every
per-layer metric (traced) named in BENCHMARK.json, each with its unit.

Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for wl in bench["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = bench["command"] + [
                "--workload", wl["name"], "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, timeout=900)
            tag = "%s trace=%d" % (wl["name"], trace)
            before = len(failures)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append("%s: exit %d\n%s" % (
                    tag, proc.returncode, proc.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append("%s: result keys %s" % (tag, sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0 \
                    or result["attempted"] < 1:
                failures.append("%s: not correct: %s" % (tag, lines[-1]))
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[group]}
            if sorted(metrics) != sorted(want):
                failures.append("%s: metric names differ: missing %s, extra %s"
                                % (tag, sorted(set(want) - set(metrics)),
                                   sorted(set(metrics) - set(want))))
            for name, unit in want.items():
                m = metrics.get(name, {})
                if m.get("unit") != unit or not isinstance(
                        m.get("value"), (int, float)) \
                        or not math.isfinite(m["value"]):
                    failures.append("%s: bad %s: %s" % (tag, name, m))
                if group == "end_to_end" and m.get("value") == 0:
                    failures.append("%s: %s is 0" % (tag, name))
            if not any(l.startswith("sim_digest ") for l in lines):
                failures.append("%s: no sim_digest line" % tag)
            print("ok  " if len(failures) == before else "FAIL", tag,
                  flush=True)
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
