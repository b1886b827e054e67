#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny sizes (about a minute after the build).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that
  * an untraced run is correct and prints every end-to-end metric, with its unit;
  * a traced run is correct and prints every per-layer metric, with its unit;
  * a run whose results are deliberately corrupted fails its output checks.
Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, corrupt=0):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
           "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, text = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if result is None:
                problems.append("%s: exited non-zero:\n%s" % (label, text))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: not correct: %s" % (label, result))
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                problems.append("%s: metrics %s, expected %s" % (label, printed, expected))
            for name, unit in expected.items():
                if not any(line.split()[:1] == [name] and unit in line.split()
                           for line in text.splitlines()):
                    problems.append("%s: no '%s ... %s' line" % (label, name, unit))
        result, text = run(workload, 0, corrupt=1)
        if result is None or result["correct"] or result["failed"] == 0:
            problems.append("%s: a corrupted result passed its output checks" % workload)
        print("%-14s %s" % (workload, "checked"), flush=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
