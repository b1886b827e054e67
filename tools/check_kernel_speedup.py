#!/usr/bin/env python3
"""Gate the SIMD kernel win: every `scalars.kernels.*.speedup_vs_scalar` leaf
in a BENCH_micro_kernels artifact must meet the floor (default 2.0x).

Usage:
  tools/check_kernel_speedup.py BENCH_micro_kernels.json [--min 2.0]

Training-shape cases (`kernels.<kernel>_<M>x<K>x<N>.*`, the case-study
models' 16-row GEMMs) are printed but not gated: a call there does 16 to 8k
multiply-adds in well under a microsecond, so call overhead rather than
vector width bounds the ratio, and it is the end-to-end benchmark that
judges them (DESIGN.md §16.5).

The artifact's `kernels.simd_active` scalar records whether the sweep ran a
SIMD path; on a `--kernels=scalar` run every speedup is ~1.0 by construction,
so the gate passes with a note instead of failing. Absolute GB/s / GFLOP/s
leaves are machine-dependent and deliberately not checked here — CI diffs
them against bench/baselines/ with a loose prefix threshold via
flint_compare, while this script owns the hard >=Nx requirement.

Exit: 0 all kernels at or above the floor (or scalar-pinned run),
      1 at least one kernel below it (or no speedup leaves found),
      2 IO/usage problem.
"""

import argparse
import json
import re
import sys

SUFFIX = ".speedup_vs_scalar"
TRAINING_SHAPE = re.compile(r"_\d+x\d+x\d+$")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", help="BENCH_micro_kernels.json path")
    ap.add_argument("--min", type=float, default=2.0,
                    help="minimum required speedup (default: %(default)s)")
    args = ap.parse_args()

    try:
        with open(args.artifact, encoding="utf-8") as f:
            scalars = json.load(f).get("scalars", {})
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_kernel_speedup: cannot read {args.artifact}: {e}",
              file=sys.stderr)
        return 2

    if scalars.get("kernels.simd_active", 1.0) == 0.0:
        print("check_kernel_speedup: scalar-pinned run (kernels.simd_active=0), "
              "speedup gate skipped")
        return 0

    speedups = {k[len("kernels."):-len(SUFFIX)]: v for k, v in scalars.items()
                if k.startswith("kernels.") and k.endswith(SUFFIX)}
    if not speedups:
        print("check_kernel_speedup: no kernels.*.speedup_vs_scalar scalars "
              f"in {args.artifact}", file=sys.stderr)
        return 1

    failures = []
    for name in sorted(speedups):
        if TRAINING_SHAPE.search(name):
            print(f"  {name:<22} {speedups[name]:6.2f}x  (training shape, not gated)")
            continue
        ok = speedups[name] >= args.min
        print(f"  {name:<22} {speedups[name]:6.2f}x  "
              f"{'ok' if ok else f'BELOW {args.min}x'}")
        if not ok:
            failures.append(name)

    if failures:
        print(f"check_kernel_speedup: {len(failures)}/{len(speedups)} kernels "
              f"below the {args.min}x floor: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    gated = sum(1 for name in speedups if not TRAINING_SHAPE.search(name))
    print(f"check_kernel_speedup: {gated} kernels at >= {args.min}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
