#!/usr/bin/env bash
# End-to-end observability gate: run the quickstart example with profiling
# enabled in a scratch directory, then validate the emitted Chrome trace and
# metrics JSONL against the trace-event schema and the minimum series set the
# instrumentation sweep guarantees, and check that the run artifact records
# the run's wall time. Registered as the `quickstart_trace` ctest entry.
#
# Usage: scripts/quickstart_trace_test.sh <quickstart-binary> [python3]
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
QUICKSTART="${1:?usage: quickstart_trace_test.sh <quickstart-binary> [python3]}"
PYTHON="${2:-python3}"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/flint_quickstart_trace.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$QUICKSTART" --trace-out trace.json --metrics-out metrics.jsonl > quickstart.out

"$PYTHON" "$REPO/tools/validate_trace.py" \
  --trace trace.json --metrics metrics.jsonl --min-series 10 \
  --require sim.queue_depth \
  --require sim.pick_latency_us \
  --require fl.staleness \
  --require feature.cache.hits \
  --require feature.cache.misses \
  --require store.checkpoint_write_us

# flint_compare ignores wall_time_s, so only this check notices a 0 there.
"$PYTHON" - quickstart_report/run_artifact.json <<'EOF'
import json
import sys

wall = json.load(open(sys.argv[1], encoding="utf-8"))["wall_time_s"]
if not wall > 0:
    sys.exit(f"quickstart_trace_test: run_artifact.json wall_time_s is {wall}, expected > 0")
EOF

echo "quickstart_trace_test: OK"
