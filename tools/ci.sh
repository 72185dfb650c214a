#!/usr/bin/env bash
# Tier-1 verify plus bench smokes: configure, build everything, run the
# full ctest suite, then a tiny bench_micro pass and the e2ebench smoke
# so a perf-path compile or runtime regression cannot land silently.
# Run from the repo root.
#
# A blocking lint stage (tools/chronos_lint) runs right after the build:
# banned determinism tokens, ring alignas/ordering contracts, include
# hygiene. Skip with CHRONOS_CI_LINT=0.
#
# A ThreadSanitizer pass then rebuilds the concurrent suites (the SPSC
# ring pipeline and the sharded checker) in a separate build dir and
# runs them under TSan, so a data race in the coordinator->shard fan-out
# cannot land silently either. Skip with CHRONOS_CI_TSAN=0; run only the
# TSan stage with CHRONOS_CI_TSAN_ONLY=1 (the workflow's dedicated job).
#
# AddressSanitizer (+LSan) and UBSan passes rebuild the whole tree in
# their own build dirs and run the full ctest suite plus a fixed-seed
# fuzz/explore smoke, with libstdc++ precondition checks
# (-D_GLIBCXX_ASSERTIONS) on so a broken library contract aborts.
# Skip with CHRONOS_CI_ASAN=0 / CHRONOS_CI_UBSAN=0;
# run just one with CHRONOS_CI_ASAN_ONLY=1 / CHRONOS_CI_UBSAN_ONLY=1.
#
# A bounded-memory gate then checks that the peak RSS of an online run
# with GC and of a plain offline run does not grow with the history
# beyond what each design allows (tools/peak_rss measures it).
#
# Usage: tools/ci.sh [build_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"

# Standalone lint build (LINT_ONLY mode, the workflow's dedicated job):
# its own dir so it cannot clobber an existing full configuration.
run_lint() {
  local dir="${BUILD_DIR}-lint"
  cmake -B "$dir" -S . -DCHRONOS_BUILD_TESTS=OFF \
        -DCHRONOS_BUILD_BENCH=OFF -DCHRONOS_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j --target chronos_lint
  echo "lint: chronos_lint over the full tree"
  "$dir/chronos_lint" --root=.
}

# Full-tree sanitizer pass: rebuild everything under $2, run the whole
# ctest suite, then a fixed-seed (deterministic) fuzz + explore smoke so
# the tool mainlines and the differential oracle run sanitized too.
run_san() {
  local name="$1" flags="$2"
  local dir="${BUILD_DIR}-${name}"
  # Per-config flags overridden for the same reason as run_tsan below:
  # keep -O1 codegen and asserts alive under the sanitizer.
  cmake -B "$dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$flags" \
        -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
        -DCMAKE_EXE_LINKER_FLAGS="$flags" \
        -DCHRONOS_BUILD_BENCH=OFF -DCHRONOS_BUILD_TOOLS=ON \
        -DCHRONOS_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  echo "$name: fixed-seed fuzz + explore smoke"
  "$dir/chronos_fuzz" --seeds=40 --out-dir="$dir/fuzz-smoke"
  "$dir/chronos_explore" --repro=tests/corpus/fig11_stale_read.repro \
                         --out-dir="$dir/explore-out"
  "$dir/chronos_explore" --sweep-seeds=5 --out-dir="$dir/explore-out"
}

run_asan() { run_san asan "-fsanitize=address -D_GLIBCXX_ASSERTIONS"; }
run_ubsan() {
  run_san ubsan \
    "-fsanitize=undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS"
}

# The threaded test binaries TSan covers; extend when adding concurrent
# suites (this list is the single source for local runs and CI). The
# checkpoint suites run DurableRunner's background checkpoint writer.
TSAN_TESTS=(spsc_ring_test online_test sharded_aion_test
            sharded_property_test list_parity_test pipeline_health_test
            explore_oracle_test checkpoint_test recovery_killpoint_test)

run_tsan() {
  local tsan_dir="${BUILD_DIR}-tsan"
  # Per-config flags are overridden too: the default RelWithDebInfo ones
  # would append -O2 -DNDEBUG after CMAKE_CXX_FLAGS, silently undoing the
  # -O1 (TSan-friendly codegen) and disabling asserts in the suites.
  cmake -B "$tsan_dir" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
        -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
        -DCHRONOS_BUILD_BENCH=OFF -DCHRONOS_BUILD_TOOLS=ON \
        -DCHRONOS_BUILD_EXAMPLES=OFF
  cmake --build "$tsan_dir" -j --target "${TSAN_TESTS[@]}" chronos_explore
  local t
  for t in "${TSAN_TESTS[@]}"; do
    echo "tsan: $t"
    "$tsan_dir/$t"
  done
  # Bounded schedule exploration under TSan: a fixed history set through
  # the full adversarial matrix (forced stalls, capacity-2 rings,
  # per-arrival restore) — certifies the stall-hook plumbing and the
  # verdict-invariance loop race-free. Any flip fails the stage and
  # leaves its .repro + .schedule sidecar under $tsan_dir/explore-out.
  echo "tsan: chronos_explore bounded exploration"
  "$tsan_dir/chronos_explore" --repro=tests/corpus/fig11_stale_read.repro \
                              --out-dir="$tsan_dir/explore-out"
  "$tsan_dir/chronos_explore" --repro=tests/corpus/gc_straggler.repro \
                              --out-dir="$tsan_dir/explore-out"
  "$tsan_dir/chronos_explore" --repro=tests/corpus/list_stale_read.repro \
                              --out-dir="$tsan_dir/explore-out"
  # Mixed-isolation entries: per-transaction RC tags ride through the
  # sharded pipeline under TSan, and the RC no-registration footprint
  # exercises the wider DPOR commutativity (PR 9).
  "$tsan_dir/chronos_explore" --repro=tests/corpus/mixed_rc_session.repro \
                              --out-dir="$tsan_dir/explore-out"
  "$tsan_dir/chronos_explore" --repro=tests/corpus/mixed_rc_dup.repro \
                              --out-dir="$tsan_dir/explore-out"
  "$tsan_dir/chronos_explore" --sweep-seeds=10 \
                              --out-dir="$tsan_dir/explore-out"
}

if [[ "${CHRONOS_CI_LINT_ONLY:-0}" == "1" ]]; then
  run_lint
  echo "ci.sh: OK (lint only)"
  exit 0
fi
if [[ "${CHRONOS_CI_TSAN_ONLY:-0}" == "1" ]]; then
  run_tsan
  echo "ci.sh: OK (tsan only)"
  exit 0
fi
if [[ "${CHRONOS_CI_ASAN_ONLY:-0}" == "1" ]]; then
  run_asan
  echo "ci.sh: OK (asan only)"
  exit 0
fi
if [[ "${CHRONOS_CI_UBSAN_ONLY:-0}" == "1" ]]; then
  run_ubsan
  echo "ci.sh: OK (ubsan only)"
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

# Blocking lint gate, before the (longer) test stages: a banned token or
# a broken ring contract fails in seconds, not minutes.
if [[ "${CHRONOS_CI_LINT:-1}" != "0" ]]; then
  echo "lint: chronos_lint over the full tree"
  "$BUILD_DIR/chronos_lint" --root=.
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Crash-recovery stage: the exhaustive kill-point sweep. The tier-1
# ctest run above already covers a bounded sweep plus the corrupt-
# checkpoint / corrupt-WAL / corrupt-spill fixtures; this pass re-runs
# the durability suites killing the checker at EVERY event boundary and
# a much larger set of random WAL byte truncations (~30s). Skip with
# CHRONOS_CI_KILLPOINT=0.
if [[ "${CHRONOS_CI_KILLPOINT:-1}" != "0" ]]; then
  echo "crash-recovery: exhaustive kill-point sweep"
  CHRONOS_KILLPOINT_EXHAUSTIVE=1 "$BUILD_DIR/recovery_killpoint_test"
  "$BUILD_DIR/checkpoint_test"
  # The same contract at the CLI on a mixed-level history: a WAL-only
  # --resume of a durable run replays every arrival with its iso= tag,
  # so it must print the uninterrupted run's verdict, stats and
  # flip-flop count.
  # Prints the verdict, stats and flip-flop lines of one delayed durable
  # run of history $1 with checkpoint dir $2 (further flags after them).
  durable_run() {
    local hist="$1" dir="$2" rc=0
    shift 2
    "$BUILD_DIR/chronos_check" --in="$hist" --online \
        --delay-mean=20 --delay-stddev=10 --timeout-ms=50 --stats \
        --checkpoint-dir="$dir" "$@" >"$dir.out" || rc=$?
    if [[ $rc != 0 && $rc != 3 ]]; then
      echo "chronos_check $* exited $rc" >&2
      return 1
    fi
    grep -E '^(violations|stats):' "$dir.out"
    grep -oE '[0-9]+ flip-flops' "$dir.out"
  }
  echo "crash-recovery: mixed-level durable --resume"
  mix_dir="$BUILD_DIR/mixed-resume"
  rm -rf "$mix_dir"
  mkdir -p "$mix_dir"
  "$BUILD_DIR/chronos_gen" --out="$mix_dir/mix.hist" --txns=3000 \
                           --mix=si:40,ser:20,rc:20,ra:20 --seed=7 >/dev/null
  durable_run "$mix_dir/mix.hist" "$mix_dir/ckpt" --checkpoint-every=0 \
      >"$mix_dir/uninterrupted.txt"
  durable_run "$mix_dir/mix.hist" "$mix_dir/ckpt" --checkpoint-every=0 \
      --resume >"$mix_dir/resumed.txt"
  diff "$mix_dir/uninterrupted.txt" "$mix_dir/resumed.txt"
  # The checkpointed path at the CLI: a copy of a finished run's dir
  # resumes from its newest checkpoint, replays the WAL past it (GC
  # passes included), and must print the same verdict, stats and
  # flip-flop count and leave the same spill epochs, byte for byte.
  echo "crash-recovery: checkpointed durable --resume"
  ck_dir="$BUILD_DIR/ckpt-resume"
  rm -rf "$ck_dir"
  mkdir -p "$ck_dir"
  "$BUILD_DIR/chronos_gen" --out="$ck_dir/reg.hist" --txns=3000 \
                           --seed=11 >/dev/null
  ck_flags=(--gc-every=200 --gc-target=500 --checkpoint-every=700)
  durable_run "$ck_dir/reg.hist" "$ck_dir/ckpt" "${ck_flags[@]}" \
      >"$ck_dir/uninterrupted.txt"
  cp -r "$ck_dir/ckpt" "$ck_dir/copy"
  durable_run "$ck_dir/reg.hist" "$ck_dir/copy" "${ck_flags[@]}" --resume \
      >"$ck_dir/resumed.txt"
  diff "$ck_dir/uninterrupted.txt" "$ck_dir/resumed.txt"
  diff -r "$ck_dir/ckpt/spill" "$ck_dir/copy/spill"
  # --resume skips the recovered run's arrivals by count, so an --in
  # shorter than that run must fail rather than print the recovered
  # state's verdict as if the run had finished.
  echo "crash-recovery: --resume with a shorter --in exits 1"
  "$BUILD_DIR/chronos_gen" --out="$ck_dir/short.hist" --txns=1000 \
                           --seed=11 >/dev/null
  cp -r "$ck_dir/ckpt" "$ck_dir/short"
  rc=0
  "$BUILD_DIR/chronos_check" --in="$ck_dir/short.hist" --online \
      --checkpoint-dir="$ck_dir/short" "${ck_flags[@]}" --resume \
      >"$ck_dir/short.out" 2>&1 || rc=$?
  if [[ $rc != 1 ]]; then
    echo "--resume with a 1000-txn --in exited $rc, expected 1" >&2
    cat "$ck_dir/short.out" >&2
    exit 1
  fi
  # A real process death. The kill-point suites crash in-process by
  # destroying the runner, whose destructor writes the WAL's pending
  # group; SIGKILL loses the steps logged since the last group write.
  # --resume refeeds them from --in by count and must print what the
  # uninterrupted run printed, wherever the kill lands.
  echo "crash-recovery: SIGKILL mid-run, then --resume"
  kill_dir="$BUILD_DIR/kill-resume"
  rm -rf "$kill_dir"
  mkdir -p "$kill_dir"
  "$BUILD_DIR/chronos_gen" --out="$kill_dir/reg.hist" --txns=30000 \
                           --seed=13 >/dev/null
  kill_flags=(--gc-every=500 --gc-target=2000 --checkpoint-every=3000)
  durable_run "$kill_dir/reg.hist" "$kill_dir/ref" "${kill_flags[@]}" \
      >"$kill_dir/uninterrupted.txt"
  "$BUILD_DIR/chronos_check" --in="$kill_dir/reg.hist" --online \
      --delay-mean=20 --delay-stddev=10 --timeout-ms=50 \
      --checkpoint-dir="$kill_dir/ckpt" "${kill_flags[@]}" >/dev/null &
  victim=$!
  killed=0
  while kill -0 "$victim" 2>/dev/null; do
    if [[ $(stat -c %s "$kill_dir/ckpt/wal.log" 2>/dev/null || echo 0) \
          -gt 1048576 ]]; then
      kill -9 "$victim" && killed=1
      break
    fi
    sleep 0.002
  done
  wait "$victim" || true
  if [[ $killed != 1 ]]; then
    echo "chronos_check finished before its WAL passed 1 MB" >&2
    exit 1
  fi
  durable_run "$kill_dir/reg.hist" "$kill_dir/ckpt" "${kill_flags[@]}" \
      --resume >"$kill_dir/resumed.txt"
  grep -E '^recovered:' "$kill_dir/ckpt.out"
  diff "$kill_dir/uninterrupted.txt" "$kill_dir/resumed.txt"
fi

# Bounded-memory gate: --online streams its input, so with GC its peak
# RSS is the checker's live window plus the collector's reorder buffers
# and does not grow with the history: the 150k-txn run may peak at most
# 15% above the 30k-txn run. The offline check streams the file in two
# passes, so its peak RSS is the event window plus pass 1's timestamp
# registry, which grows by design (8 B per timestamp plus vector
# doubling): the 150k run may peak at most 15% above the 30k run plus
# 32 B per extra txn. A whole-file load (~0.6 KB per txn) fails both.
# Histories from e2ebench's generator flags at 30k and 150k txns (both
# past the ~12.5k-txn window a 1000 ms EXT timeout keeps unfinalized).
# Peaks are read by tools/peak_rss (fork/exec/wait4), whose own few-MB
# RSS is the floor of a child's ru_maxrss; measured from Python that
# floor is Python's ~14 MB, above the offline check's true peak.
echo "bounded memory: online and offline peak RSS at 30k and 150k txns"
mem_dir="$BUILD_DIR/mem-gate"
rm -rf "$mem_dir"
mkdir -p "$mem_dir"
for n in 30000 150000; do
  "$BUILD_DIR/chronos_gen" --out="$mem_dir/h$n.hist" --txns=$n \
      --workload=default --sessions=50 --ops=15 --keys=1000 --reads=0.5 \
      --dist=zipf --fault=stale_read --fault-prob=0.001 --seed=4 \
      --fault-seed=4 >/dev/null
done
python3 - "$BUILD_DIR/peak_rss" "$BUILD_DIR/chronos_check" "$mem_dir" <<'PY'
import subprocess
import sys

peak_rss, check, work = sys.argv[1], sys.argv[2], sys.argv[3]
SMALL, LARGE = 30000, 150000
# mode -> (flags, allowance in bytes per txn beyond the 30k run)
MODES = {
    "online": (["--online", "--timeout-ms=1000", "--gc-every=500",
                "--gc-target=2000"], 0),
    "offline": ([], 32),
}


def peak_mb(txns, flags):
    p = subprocess.run([peak_rss, check, f"--in={work}/h{txns}.hist", *flags],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if p.returncode not in (0, 3):
        sys.exit(f"chronos_check {' '.join(flags)} on {txns} txns "
                 f"exited {p.returncode}: {p.stderr}")
    kb = [l for l in p.stderr.splitlines() if l.startswith("peak_rss: ")]
    return int(kb[-1].split()[1]) / 1024.0


failed = []
for mode, (flags, per_txn) in MODES.items():
    small, large = peak_mb(SMALL, flags), peak_mb(LARGE, flags)
    limit = 1.15 * small + per_txn * (LARGE - SMALL) / 2**20
    print(f"bounded memory: {mode} peak RSS {small:.1f} MB at 30k txns, "
          f"{large:.1f} MB at 150k (limit {limit:.1f} MB)")
    if large > limit:
        failed.append(mode)
if failed:
    sys.exit(f"bounded memory: the 150k-txn run peaks above its limit "
             f"({', '.join(failed)})")
PY

# Differential-fuzz smoke (fixed seed blocks, deterministic): 200 seeded
# chaos scenarios through every checker, then a list-only pass over a
# wider seed block (~10% of scenarios are list workloads, so this walks
# ~60 list histories through the full online matrix at similar cost),
# plus a corpus replay. Any unexplained cross-checker disagreement fails
# the build and leaves the shrunk .repro under $BUILD_DIR/fuzz-smoke/.
if [[ -x "$BUILD_DIR/chronos_fuzz" ]]; then
  "$BUILD_DIR/chronos_fuzz" --seeds=200 --out-dir="$BUILD_DIR/fuzz-smoke"
  "$BUILD_DIR/chronos_fuzz" --seeds=600 --seed-start=1000 --list-only \
                            --out-dir="$BUILD_DIR/fuzz-smoke"
  # Mixed-isolation pass (fixed seed block, deterministic): only the
  # scenarios whose workload carries a per-transaction si/rc/ra level
  # mix (~25%), so this walks ~100 mixed histories through the online
  # matrix plus the ChronosMixed offline reference (divergence entries
  # D8/D9) at similar cost.
  "$BUILD_DIR/chronos_fuzz" --seeds=400 --seed-start=2000 --mix-only \
                            --out-dir="$BUILD_DIR/fuzz-smoke"
  # Forced checkpoint/restore pass (fixed seed block, deterministic):
  # every scenario restores a 2-shard checker from a mid-stream state
  # image (rule ckpt-restore-identity), so a checkpoint layout change
  # that loses state fails here rather than in the extended fuzz job.
  "$BUILD_DIR/chronos_fuzz" --seeds=150 --seed-start=3000 --ckpt \
                            --out-dir="$BUILD_DIR/fuzz-smoke"
  "$BUILD_DIR/chronos_fuzz" --corpus=tests/corpus \
                            --out-dir="$BUILD_DIR/fuzz-smoke"
else
  echo "chronos_fuzz not built (tools disabled); skipping fuzz smoke"
fi

# Bench smoke: minimal runtime, just proves the binaries execute. The
# tier-1 build leaves CMAKE_BUILD_TYPE empty, which CMakeLists.txt builds
# as Release; the guard is still waived so a build dir configured with
# another type smokes too — these numbers are never recorded.
if [[ -x "$BUILD_DIR/bench_micro" ]]; then
  CHRONOS_BENCH_ALLOW_NONRELEASE=1 \
  BENCH_MIN_TIME=0.01 \
  BENCH_FILTER='BM_AionPerTxn/2000|BM_AionPerTxnDelayed/2000|BM_ShardedAionPerTxn/shards:2|BM_DurableRunnerPerTxn/2000|BM_VersionedKvLookup/10000|BM_VersionedKvLookupRecent/10000|BM_OngoingIndexGcHotKey/1000|BM_OngoingIndexOverlap/1000' \
    bench/run_micro.sh "$BUILD_DIR" "$BUILD_DIR/BENCH_micro_smoke.json"
else
  echo "bench_micro not built (google-benchmark missing); skipping smoke"
fi

# Benchmark smoke: e2ebench/run.py builds its own tree (.bench_build/)
# and runs every BENCHMARK.json workload at 2k txns, checking each
# verdict against its reference. It is the only build of
# e2ebench/trace_layers.cc, which compiles against the online checker
# headers, so this stage catches an API change that breaks the benchmark.
echo "e2ebench: smoke"
python3 e2ebench/run.py --smoke

if [[ "${CHRONOS_CI_TSAN:-1}" != "0" ]]; then
  run_tsan
fi

if [[ "${CHRONOS_CI_ASAN:-1}" != "0" ]]; then
  run_asan
fi

if [[ "${CHRONOS_CI_UBSAN:-1}" != "0" ]]; then
  run_ubsan
fi

echo "ci.sh: OK"
