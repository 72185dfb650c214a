// chronos_check's command line, parsed whole before anything runs: an
// unknown flag or a rejected value exits 2 before the input is opened or
// a checker is constructed.
#ifndef CHRONOS_TOOLS_CHECK_ARGS_H_
#define CHRONOS_TOOLS_CHECK_ARGS_H_

#include <cstdint>
#include <limits>
#include <string>

#include "flags.h"

#include "core/types.h"
#include "online/sharded_aion.h"

namespace chronos::tools {

struct CheckArgs {
  std::string in;
  std::string level = "si";  ///< as given; "list" runs mode kSi
  IsolationLevel mode = IsolationLevel::kSi;
  uint64_t max_report = 20;
  uint64_t gc_every = 0;
  uint64_t gc_target = 0;
  bool online = false;
  bool stats = false;
  uint64_t timeout_ms = 5000;
  std::string spill_dir;
  uint64_t delay_mean_ms = 0;
  uint64_t delay_stddev_ms = 0;
  uint64_t shards = 1;
  std::string checkpoint_dir;  ///< empty: not durable
  uint64_t checkpoint_every = 5000;
  bool resume = false;
  uint64_t memory_ceiling = 0;
};

/// Parses `argv` into `*args`. False, with `*err` naming the flag, on an
/// argument that is not one of chronos_check's flags, a missing --in, an
/// unknown --level, or a numeric value that is not a whole unsigned
/// decimal (--shards also at most ShardedAion::kMaxShards).
inline bool ParseCheckArgs(int argc, char** argv, CheckArgs* args,
                           std::string* err) {
  // --pre-stage-workers= is accepted and ignored: e2ebench/run.py still
  // passes it, until the benchmark's next change drops it (ROADMAP item
  // 1(e)).
  if (const char* bad = UnknownFlag(
          argc, argv,
          {"--in=", "--level=", "--max-report=", "--gc-every=", "--gc-target=",
           "--timeout-ms=", "--delay-mean=", "--delay-stddev=", "--shards=",
           "--checkpoint-every=", "--memory-ceiling=", "--online", "--stats",
           "--resume", "--spill=", "--checkpoint-dir=", "--help",
           "--pre-stage-workers="})) {
    *err = std::string("unknown flag '") + bad + "'";
    return false;
  }
  const char* in = FlagValue(argc, argv, "--in");
  if (!in) {
    *err = "--in=FILE is required";
    return false;
  }
  args->in = in;
  if (const char* level = FlagValue(argc, argv, "--level")) {
    args->level = level;
  }
  if (args->level != "list" &&
      !ParseRunLevel(args->level.c_str(), &args->mode, err)) {
    *err = "--level=" + args->level + ": " + *err;
    return false;
  }
  constexpr uint64_t kAny = std::numeric_limits<uint64_t>::max();
  const struct {
    const char* name;
    uint64_t* out;
    uint64_t max;
  } numeric[] = {
      {"--max-report", &args->max_report, kAny},
      {"--gc-every", &args->gc_every, kAny},
      {"--gc-target", &args->gc_target, kAny},
      {"--timeout-ms", &args->timeout_ms, kAny},
      {"--delay-mean", &args->delay_mean_ms, kAny},
      {"--delay-stddev", &args->delay_stddev_ms, kAny},
      {"--shards", &args->shards, online::ShardedAion::kMaxShards},
      {"--checkpoint-every", &args->checkpoint_every, kAny},
      {"--memory-ceiling", &args->memory_ceiling, kAny},
  };
  for (const auto& f : numeric) {
    if (!ParseU64Flag(argc, argv, f.name, *f.out, f.max, f.out, err)) {
      return false;
    }
  }
  args->online = HasFlag(argc, argv, "--online");
  args->stats = HasFlag(argc, argv, "--stats");
  args->resume = HasFlag(argc, argv, "--resume");
  if (const char* spill = FlagValue(argc, argv, "--spill")) {
    args->spill_dir = spill;
  }
  if (const char* dir = FlagValue(argc, argv, "--checkpoint-dir")) {
    args->checkpoint_dir = dir;
  }
  return true;
}

}  // namespace chronos::tools

#endif  // CHRONOS_TOOLS_CHECK_ARGS_H_
