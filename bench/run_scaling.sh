#!/usr/bin/env bash
# Multicore scaling artifact: BM_ShardedAionPerTxn across shard counts
# {1,2,4,8} in a Release build, emitting BENCH_scaling.json plus the
# computed speedup of 4 shards over 1.
#
# On a machine with >= 4 cores the script FAILS (exit 1) when that
# speedup is below CHRONOS_SCALING_MIN (default 2.0) — this is the CI
# gate that keeps the sharded pipeline an actual parallel speedup, not
# just a coordination tax. With fewer cores the ratio is printed for the
# record only (the pipeline cannot scale past the core count).
#
# Usage: bench/run_scaling.sh [build_dir] [output_json]
#   build_dir    defaults to ./build-bench (configured+built Release here
#                if missing; non-Release dirs are refused, empty counts as
#                Release: see release_guard.sh)
#   output_json  defaults to ./BENCH_scaling.json
set -euo pipefail

BUILD_DIR="${1:-build-bench}"
OUT="${2:-BENCH_scaling.json}"
MIN_TIME="${BENCH_MIN_TIME:-0.5}"
MIN_SPEEDUP="${CHRONOS_SCALING_MIN:-2.0}"

source "$(dirname "$0")/release_guard.sh"
ensure_release_build "$BUILD_DIR"
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_micro >/dev/null

"$BUILD_DIR/bench_micro" \
    --benchmark_filter='BM_ShardedAionPerTxn' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=json >"$OUT"

python3 - "$OUT" "$MIN_SPEEDUP" <<'EOF'
import json, os, sys

d = json.load(open(sys.argv[1]))
need = float(sys.argv[2])
ips = {}
for b in d.get("benchmarks", []):
    if "items_per_second" not in b:
        continue
    # Names look like BM_ShardedAionPerTxn/shards:4.
    shards = int(b["name"].rsplit(":", 1)[1])
    ips[shards] = b["items_per_second"]
if 1 not in ips:
    print("error: no 1-shard baseline in the benchmark output", file=sys.stderr)
    sys.exit(1)

print(f"wrote {sys.argv[1]}:")
for s in sorted(ips):
    print(f"  shards={s:<2} {ips[s]:>14,.0f} items/s   "
          f"speedup={ips[s] / ips[1]:5.2f}x")

cores = os.cpu_count() or 1
speedup = ips[4] / ips[1] if 4 in ips else 0.0
if cores >= 4:
    if speedup < need:
        print(f"FAIL: 4-shard speedup {speedup:.2f}x < required "
              f"{need:.2f}x on {cores} cores", file=sys.stderr)
        sys.exit(1)
    print(f"OK: 4-shard speedup {speedup:.2f}x >= {need:.2f}x "
          f"(cores={cores})")
else:
    print(f"note: only {cores} core(s); 4-shard speedup {speedup:.2f}x "
          f"recorded, gate ({need:.2f}x) not enforced")
EOF
