// Strict numeric flag parsing (tools/flags.h) and chronos_check's whole
// command line (tools/check_args.h). Only the parsers run here, so a
// rejected value is seen before any checker or thread could exist; the
// subprocess cases check that chronos_check exits 2 before it opens its
// input.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "check_args.h"
#include "flags.h"

namespace chronos::tools {
namespace {

// argv for the parsers: argv[0] plus `flags`.
class Argv {
 public:
  explicit Argv(std::vector<std::string> flags) : strings_(std::move(flags)) {
    strings_.insert(strings_.begin(), "tool");
    for (std::string& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, U64AcceptsWholeUnsignedDecimals) {
  const std::pair<const char*, uint64_t> good[] = {
      {"0", 0}, {"7", 7}, {"0500", 500}, {"18446744073709551615", ~0ull}};
  for (const auto& [text, value] : good) {
    Argv a({std::string("--n=") + text});
    uint64_t v = 1;
    std::string err;
    EXPECT_TRUE(ParseU64Flag(a.argc(), a.argv(), "--n", 9, ~0ull, &v, &err))
        << text << ": " << err;
    EXPECT_EQ(v, value) << text;
  }
  Argv absent({"--m=3"});
  uint64_t v = 0;
  std::string err;
  EXPECT_TRUE(ParseU64Flag(absent.argc(), absent.argv(), "--n", 9, ~0ull, &v,
                           &err));
  EXPECT_EQ(v, 9u);
}

TEST(FlagsTest, U64RejectsAnythingElseNamingTheFlag) {
  for (const char* text : {"", "abc", "5OO", "-1", "+5", " 5", "5 ", "5ms",
                           "1e3", "0x10", "2.5", "18446744073709551616"}) {
    Argv a({std::string("--timeout-ms=") + text});
    uint64_t v = 42;
    std::string err;
    EXPECT_FALSE(ParseU64Flag(a.argc(), a.argv(), "--timeout-ms", 5000, ~0ull,
                              &v, &err))
        << text;
    EXPECT_EQ(v, 42u) << text;
    EXPECT_EQ(err.rfind(std::string("--timeout-ms=") + text + ":", 0), 0u)
        << err;
  }
  Argv over({"--shards=65"});
  uint64_t v = 0;
  std::string err;
  EXPECT_FALSE(
      ParseU64Flag(over.argc(), over.argv(), "--shards", 1, 64, &v, &err));
  EXPECT_EQ(err, "--shards=65: expected a whole unsigned number of at most 64");
}

TEST(FlagsTest, DoubleAcceptsOnlyWholeFiniteNumbers) {
  const std::pair<const char*, double> good[] = {
      {"0.5", 0.5}, {"1e-3", 1e-3}, {"-2", -2.0}};
  for (const auto& [text, value] : good) {
    Argv a({std::string("--reads=") + text});
    double v = 0;
    std::string err;
    EXPECT_TRUE(ParseDoubleFlag(a.argc(), a.argv(), "--reads", 9, &v, &err))
        << text;
    EXPECT_EQ(v, value) << text;
  }
  for (const char* text : {"", "abc", "0.5x", " 0.5", "inf", "nan"}) {
    Argv a({std::string("--reads=") + text});
    double v = 7;
    std::string err;
    EXPECT_FALSE(ParseDoubleFlag(a.argc(), a.argv(), "--reads", 9, &v, &err))
        << text;
    EXPECT_EQ(v, 7) << text;
    EXPECT_EQ(err, std::string("--reads=") + text + ": expected a number");
  }
}

TEST(CheckArgsTest, ParsesEveryOption) {
  Argv a({"--in=h.hist", "--level=ser", "--online", "--timeout-ms=1000",
          "--gc-every=500", "--gc-target=2000", "--shards=64",
          "--checkpoint-dir=d", "--checkpoint-every=7", "--resume",
          "--memory-ceiling=1048576", "--delay-mean=20", "--delay-stddev=10",
          "--spill=s", "--stats", "--max-report=3"});
  CheckArgs args;
  std::string err;
  ASSERT_TRUE(ParseCheckArgs(a.argc(), a.argv(), &args, &err)) << err;
  EXPECT_EQ(args.in, "h.hist");
  EXPECT_EQ(args.mode, CheckMode::kSer);
  EXPECT_TRUE(args.online && args.resume && args.stats);
  EXPECT_EQ(args.timeout_ms, 1000u);
  EXPECT_EQ(args.gc_every, 500u);
  EXPECT_EQ(args.gc_target, 2000u);
  EXPECT_EQ(args.shards, 64u);
  EXPECT_EQ(args.checkpoint_dir, "d");
  EXPECT_EQ(args.checkpoint_every, 7u);
  EXPECT_EQ(args.memory_ceiling, 1048576u);
  EXPECT_EQ(args.delay_mean_ms, 20u);
  EXPECT_EQ(args.delay_stddev_ms, 10u);
  EXPECT_EQ(args.spill_dir, "s");
  EXPECT_EQ(args.max_report, 3u);
}

TEST(CheckArgsTest, RejectsSilentMisreadings) {
  // Each of these used to run: a 0 ms timeout, GC every 5 arrivals, and
  // 2^64-1 shards clamped to 64 threads.
  const std::pair<const char*, const char*> bad[] = {
      {"--timeout-ms=abc", "--timeout-ms=abc: "},
      {"--gc-every=5OO", "--gc-every=5OO: "},
      {"--shards=-1", "--shards=-1: "},
      {"--shards=65", "--shards=65: "},
      {"--checkpoint-every=1k", "--checkpoint-every=1k: "},
      {"--level=rc", "--level=rc: "},
  };
  for (const auto& [flag, prefix] : bad) {
    Argv a({"--in=h.hist", "--online", flag});
    CheckArgs args;
    std::string err;
    EXPECT_FALSE(ParseCheckArgs(a.argc(), a.argv(), &args, &err)) << flag;
    EXPECT_EQ(err.rfind(prefix, 0), 0u) << err;
  }
  Argv no_in({"--online"});
  CheckArgs args;
  std::string err;
  EXPECT_FALSE(ParseCheckArgs(no_in.argc(), no_in.argv(), &args, &err));
}

TEST(CheckArgsTest, ChronosCheckExitsTwoBeforeOpeningItsInput) {
  const std::string bin = std::string(CHRONOS_BUILD_DIR) + "/chronos_check";
  if (FILE* f = fopen(bin.c_str(), "rb")) {
    fclose(f);
  } else {
    GTEST_SKIP() << "chronos_check not built";
  }
  // The input does not exist: a load error would exit 1.
  for (const char* flag :
       {"--shards=-1", "--timeout-ms=abc", "--gc-every=5OO"}) {
    const std::string cmd =
        bin + " --in=/nonexistent.hist --online " + flag + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[512];
    while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    const int status = pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << flag;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flag << ": " << out;
    EXPECT_EQ(out.rfind(flag, 0), 0u) << out;
  }
}

}  // namespace
}  // namespace chronos::tools
