#!/usr/bin/env bash
# Runs the bench_micro google-benchmark suite and emits BENCH_micro.json
# (items/sec for the per-transaction checker paths plus the old-vs-new
# data-structure comparisons). The perf trajectory of this repo is the
# series of these artifacts over PRs.
#
# Usage: bench/run_micro.sh [build_dir] [output_json]
#   build_dir    defaults to ./build-bench (configured+built Release here
#                if missing). A dir with another CMAKE_BUILD_TYPE (empty
#                counts as Release) is refused; see release_guard.sh. Set
#                CHRONOS_BENCH_ALLOW_NONRELEASE=1 to override (CI smoke
#                only verifies the harness runs, not the numbers).
#   output_json  defaults to ./BENCH_micro.json
#
# CHRONOS_BENCH_SCALE (default 1) scales the figure benches, not this
# suite; bench_micro sizes are fixed so numbers stay comparable across
# runs.
set -euo pipefail

BUILD_DIR="${1:-build-bench}"
OUT="${2:-BENCH_micro.json}"
FILTER="${BENCH_FILTER:-BM_AionPerTxn|BM_AionPerTxnDelayed|BM_ShardedAionPerTxn|BM_DurableRunnerPerTxn|BM_WalLogStep|BM_ExportState|BM_HistoryReaderNext|BM_HistoryReaderScanHeaders|BM_ChronosPerTxn|BM_VersionedKv|BM_VersionedKvLookupRecent|BM_MapKv|BM_OngoingIndexGcHotKey|BM_OngoingIndexOverlap|BM_AionFootprint}"
MIN_TIME="${BENCH_MIN_TIME:-0.5}"

source "$(dirname "$0")/release_guard.sh"
ensure_release_build "$BUILD_DIR" "${CHRONOS_BENCH_ALLOW_NONRELEASE:-0}"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_micro >/dev/null

BIN="$BUILD_DIR/bench_micro"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found after build" >&2
  exit 1
fi

"$BIN" --benchmark_filter="$FILTER" \
       --benchmark_min_time="$MIN_TIME" \
       --benchmark_format=json >"$OUT"

python3 - "$OUT" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
print(f"wrote {sys.argv[1]}:")
for b in d.get("benchmarks", []):
    ips = b.get("items_per_second")
    if ips:
        print(f"  {b['name']:<32} {ips:>14,.0f} items/s")
    else:
        print(f"  {b['name']:<32} {b['real_time']:>10.0f} {b['time_unit']}")
EOF
