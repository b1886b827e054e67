#!/usr/bin/env python3
"""FLINT benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload casestudy --seed 3 --seconds 15 --trace 0

Builds perfbench_driver (and the libraries under src/) into .bench_build/,
then runs the driver once per iteration, each in a fresh process, until
--seconds have passed (at least MIN_ITERATIONS times). Every iteration sets
the workload up from the seed and runs it, so set-up is measured as often as
the run itself. Timings are CPU time, scaled by the host speed that the
driver's probe measured right after the iteration. Prints one line per metric, then the simulated outputs, and
as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (untraced
iterations only); --trace 1 alternates untraced and traced iterations and
reports the per-layer metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

MIN_ITERATIONS = 3          # untraced iterations per run (traced runs: 2 of each)
# The driver's host-speed probe takes about this long on the 4-vCPU Xeon VM
# the benchmark was tuned on. Timings are reported in seconds of that host at
# that speed; see "Clocks and host-speed correction" in README.md.
PROBE_REF_S = 0.05
HARD_LIMIT_S = 120.0        # start no iteration after this, whatever --seconds says
ITERATION_TIMEOUT_S = 30.0  # one driver process


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs]]
    generated = [os.path.join(BUILD_DIR, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def run_driver(args, traced):
    """One iteration in its own process; the parsed JSON line, or None if it failed."""
    work = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--size", args.size,
           "--corrupt", str(args.corrupt), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: iteration timed out:", " ".join(cmd))
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: iteration failed (exit %d): %s" % (proc.returncode, proc.stderr.strip()))
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench: iteration printed no result:", proc.stdout[-500:])
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def corrected(r, key):
    """A timing of one iteration, scaled by the host speed its probe measured."""
    return r[key] * PROBE_REF_S / r["probe_s"]


def end_to_end(runs):
    """Per-iteration values, each metric reported as the median over iterations."""
    return {
        "setup_s": [corrected(r, "setup_s") for r in runs],
        "run_s": [corrected(r, "run_s") for r in runs],
        "wall_s": [corrected(r, "setup_s") + corrected(r, "run_s") for r in runs],
        "updates_per_s": [r["updates"] / corrected(r, "run_s") for r in runs],
        "round_ms_p50": [corrected(r, "round_ms_p50") for r in runs],
        "round_ms_p95": [corrected(r, "round_ms_p95") for r in runs],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
    }


def per_layer(plain, traced):
    values = {}
    for name in traced[0]["layers"]:
        values[name] = [r["layers"][name] for r in traced]
    values["trace.overhead"] = [median([corrected(r, "run_s") for r in traced]) /
                                median([corrected(r, "run_s") for r in plain])]
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="self-test: damage every result before its output check")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("perfbench: unknown workload " + args.workload)
    build()

    started = time.monotonic()
    deadline = started + args.seconds
    plain, traced = [], []
    attempted = failed = 0
    schedule = [False, True] if args.trace else [False]
    minimum = 2 if args.trace else MIN_ITERATIONS
    while True:
        now = time.monotonic()
        enough = len(plain) >= minimum and len(traced) >= (minimum if args.trace else 0)
        if (now >= deadline and enough) or now - started >= HARD_LIMIT_S:
            break
        for is_traced in schedule:
            attempted += 1
            r = run_driver(args, is_traced)
            if r is None:
                failed += 1
                continue
            for c in r["failed_checks"]:
                log("perfbench: output check failed: %s: %s" % (c["name"], c["detail"]))
            if r["failed_checks"]:
                failed += 1
            (traced if is_traced else plain).append(r)
    if not plain or (args.trace and not traced):
        raise SystemExit("perfbench: no iteration of %s completed" % args.workload)

    # Every iteration ran the same seed, so every simulated output must agree,
    # traced or not: a disagreeing repeat is a failed run.
    hashes = [r["result_hash"] for r in plain + traced]
    majority = max(set(hashes), key=hashes.count)
    mismatched = sum(h != majority for h in hashes)
    if mismatched:
        log("perfbench: %d of %d runs disagree on result_hash" % (mismatched, len(hashes)))
        failed += mismatched

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    metrics = {}
    for m in spec[section]:
        samples = values[m["name"]]
        metrics[m["name"]] = {"value": median(samples), "unit": m["unit"]}
        print("%-32s %14.6g %-6s (median of %d)" % (m["name"], median(samples), m["unit"],
                                                     len(samples)))
    if args.trace:
        for name in sorted(traced[0]["span_self_s"]):
            print("self time of span %-26s %12.6f s (median of %d)" % (
                name, median([r["span_self_s"].get(name, 0.0) for r in traced]), len(traced)))
    print("uncorrected CPU time: setup_s %.6f  run_s %.6f  probe_s %.6f (medians of %d)" % (
        median([r["setup_s"] for r in plain]), median([r["run_s"] for r in plain]),
        median([r["probe_s"] for r in plain]), len(plain)))
    round_samples = sum(r["round_samples"] for r in plain)
    print("round_ms samples: %d intervals over %d iterations" % (round_samples, len(plain)))
    first = plain[0]
    print("result_hash: %s  sim.virtual_h: %.6f" % (majority, first["virtual_h"]))
    for name, value in sorted(first["model_metric"].items()):
        print("model_metric.%s: %s AUPR" % (name, value))
    print("fail_rate: %d/%d" % (failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
