#!/usr/bin/env bash
# Streaming-trace scale smoke (DESIGN.md §17), two gates:
#
#   1. Equivalence: with --chunk-clients forced low enough that the
#      streaming generator spills to disk and merges the chunks back batch
#      by batch, a `--mode stream` run and a `--mode materialized` run of
#      bench_scale must produce identical simulations — flint_compare at 0%
#      tolerance on every deterministic scalar (wall rates and RSS readings
#      exempted: the modes legitimately differ there; bounding RSS is the
#      point). Two sizes: 2,000 clients in one merge batch, and 20,000
#      clients over 3 days with a 4,096-session merge budget. The run pulls
#      ~28k sessions whatever the population (200 rounds), so only a budget
#      below that makes it cross merge-batch boundaries.
#   2. Capacity: a >=100k-client streaming run must complete and
#      schema-validate. Sized so sanitizer lanes (which run full ctest) cover
#      the spill/merge/pool paths at real scale on every PR.
#   3. Attribution: that run's ledger must spread its clients over at least
#      two device tiers and two executors. A streaming run that books every
#      client under one label is mislabelling them (DESIGN.md §17.5).
#
# Usage: scale_smoke_test.sh <bench_scale-binary> <source-dir> [python]
set -euo pipefail

bench=${1:?usage: scale_smoke_test.sh <bench_scale-binary> <source-dir> [python]}
src=${2:?missing source dir}
py=${3:-python3}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

stream_vs_materialized() {
  local clients=$1 chunk=$2 budget=$3
  echo "== streaming (spilled) vs materialized must be bit-identical: $clients clients =="
  "$bench" --clients "$clients" --days 3 --chunk-clients "$chunk" --spill-dir "$work" \
           --read-buffer-sessions "$budget" \
           --mode stream --artifact-out "$work/stream.json" > /dev/null
  "$bench" --clients "$clients" --days 3 --chunk-clients "$chunk" \
           --mode materialized --artifact-out "$work/materialized.json" > /dev/null
  "$py" "$src/tools/validate_trace.py" --artifact "$work/stream.json" \
                                       --artifact "$work/materialized.json"
  "$py" "$src/tools/flint_compare.py" "$work/stream.json" "$work/materialized.json" \
        --default-rel 0 \
        --threshold "scalars.rate.=1.0" \
        --threshold "scalars.rss.=1.0"
}
stream_vs_materialized 2000 256 65536
stream_vs_materialized 20000 2048 4096

echo "== leftover spill directories would leak a temp file per run =="
leftovers=$(find "$work" -maxdepth 1 -name 'flint-sessions-*' | wc -l)
if [ "$leftovers" -ne 0 ]; then
  echo "spill directories not cleaned up:" >&2
  find "$work" -maxdepth 1 -name 'flint-sessions-*' >&2
  exit 1
fi

echo "== >=100k-client streaming run must complete =="
"$bench" --clients 100000 --spill-dir "$work" \
         --artifact-out "$work/scale100k.json" > /dev/null
"$py" "$src/tools/validate_trace.py" --artifact "$work/scale100k.json"

echo "== the 100k-client ledger must label clients across tiers and executors =="
"$py" - "$work/scale100k.json" <<'EOF'
import json
import sys

ledger = json.load(open(sys.argv[1]))["ledger"]
tiers = [r["key"] for r in ledger["by_tier"] if r["clients"] > 0]
executors = [r["key"] for r in ledger["by_executor"] if r["clients"] > 0]
print(f"tiers with clients: {tiers}; executors with clients: {len(executors)}")
if len(tiers) < 2 or len(executors) < 2:
    sys.exit("every client booked under one tier or on one executor")
EOF

echo "scale smoke: OK"
