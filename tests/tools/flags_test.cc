// Strict numeric flag parsing (tools/flags.h), the run level, the
// known-flags check, and chronos_check's whole command line
// (tools/check_args.h). Only the parsers run here, so a rejected value
// is seen before any checker or thread could exist; the subprocess cases
// check that chronos_check exits 2 before it opens its input, that all
// four tools exit 2 naming a flag they do not know or a value they do
// not take, and that chronos_gen and chronos_check take every flag
// e2ebench/run.py passes them.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
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

// The path of `tool` in the build tree, or "" when it is not built.
std::string ToolPath(const std::string& tool) {
  const std::string bin = std::string(CHRONOS_BUILD_DIR) + "/" + tool;
  FILE* f = fopen(bin.c_str(), "rb");
  if (f == nullptr) return "";
  fclose(f);
  return bin;
}

struct ToolRun {
  int status = -1;  ///< exit status; -1 unless the tool exited
  std::string out;  ///< stdout and stderr
};

ToolRun RunTool(const std::string& bin, const std::string& args) {
  ToolRun r;
  FILE* pipe = popen((bin + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) r.out += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) r.status = WEXITSTATUS(status);
  return r;
}

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

TEST(FlagsTest, RunLevelIsSiOrSer) {
  IsolationLevel level = IsolationLevel::kUnspecified;
  std::string err;
  ASSERT_TRUE(ParseRunLevel("si", &level, &err)) << err;
  EXPECT_EQ(level, IsolationLevel::kSi);
  ASSERT_TRUE(ParseRunLevel("ser", &level, &err)) << err;
  EXPECT_EQ(level, IsolationLevel::kSer);
  // rc and ra are per-transaction tags only; "default" is how an
  // untagged transaction's level prints, not a level.
  for (const char* v : {"rc", "ra", "default", "SER", ""}) {
    level = IsolationLevel::kUnspecified;
    err.clear();
    EXPECT_FALSE(ParseRunLevel(v, &level, &err)) << v;
    EXPECT_EQ(level, IsolationLevel::kUnspecified) << v;
    EXPECT_NE(err.find(v), std::string::npos) << v << ": " << err;
  }
}

TEST(FlagsTest, UnknownFlagNamesTheFirstArgumentNotListed) {
  const auto unknown = [](std::vector<std::string> flags) {
    Argv a(std::move(flags));
    const char* bad = UnknownFlag(a.argc(), a.argv(), {"--in=", "--list"});
    return std::string(bad ? bad : "");
  };
  EXPECT_EQ(unknown({}), "");
  EXPECT_EQ(unknown({"--in=h.hist", "--list", "--in="}), "");
  EXPECT_EQ(unknown({"--in=h.hist", "--ser", "--bogus"}), "--ser");
  EXPECT_EQ(unknown({"--list=1"}), "--list=1");  // a switch takes no value
  EXPECT_EQ(unknown({"--in"}), "--in");          // a value flag needs one
  EXPECT_EQ(unknown({"--inx=3"}), "--inx=3");
  EXPECT_EQ(unknown({"h.hist"}), "h.hist");
}

TEST(ToolFlagsTest, UnknownRetiredAndBadValuesExitTwoNamingTheFlag) {
  const std::string tmp = ::testing::TempDir();
  const std::string gen = "--txns=20 --out=" + tmp + "flags_test.hist ";
  const std::string repro = std::string(CHRONOS_TEST_SRCDIR) +
                            "/tests/corpus/ser_write_skew.repro";
  const std::string fuzz = "--out-dir=" + tmp + "flags_test_fuzz ";
  const struct {
    const char* tool;
    std::string args;
    const char* named;  // what the message must name
  } cases[] = {
      {"chronos_gen", gen + "--bogus=1", "--bogus=1"},
      {"chronos_gen", gen + "--ser", "--ser"},
      {"chronos_gen", gen + "--dist=unifrom", "--dist=unifrom"},
      {"chronos_gen", gen + "--hlc=3x", "--hlc=3x"},
      {"chronos_gen", gen + "--hlc=0", "--hlc=0"},
      {"chronos_gen", gen + "--level=rc", "--level=rc"},
      {"chronos_fuzz", fuzz + "--seeds=1 --bogus=1", "--bogus=1"},
      {"chronos_fuzz", fuzz + "--repro=" + repro + " --ser", "--ser"},
      {"chronos_fuzz", fuzz + "--repro=" + repro + " --mode=ser",
       "--mode=ser"},
      {"chronos_fuzz", fuzz + "--seeds=1 --level=ser", "--level"},
      {"chronos_explore", "--repro=" + repro + " --bogus", "--bogus"},
      {"chronos_explore", "--repro=" + repro + " --ser", "--ser"},
      {"chronos_explore", "--repro=" + repro + " --mode=ser", "--mode=ser"},
      {"chronos_explore", "--repro=" + repro + " --level=ra", "--level=ra"},
  };
  for (const auto& c : cases) {
    const std::string bin = ToolPath(c.tool);
    if (bin.empty()) GTEST_SKIP() << c.tool << " not built";
    const ToolRun r = RunTool(bin, c.args);
    EXPECT_EQ(r.status, 2) << c.tool << " " << c.args << ": " << r.out;
    EXPECT_NE(r.out.find(c.named), std::string::npos)
        << c.tool << " " << c.args << ": " << r.out;
  }
}

TEST(ToolFlagsTest, ChronosGenTakesTheBenchmarkFlags) {
  // The generator flags e2ebench/run.py passes (GEN_FLAGS and per-history
  // flags), plus --level=ser.
  const std::string bin = ToolPath("chronos_gen");
  if (bin.empty()) GTEST_SKIP() << "chronos_gen not built";
  const std::string out = ::testing::TempDir() + "flags_test_gen.hist";
  const ToolRun r = RunTool(
      bin,
      "--out=" + out + " --txns=50 --workload=default --sessions=50 "
      "--ops=15 --keys=1000 --reads=0.5 --dist=zipf --fault=stale_read "
      "--fault-prob=0.001 --seed=4 --fault-seed=4 --level=ser");
  EXPECT_EQ(r.status, 0) << r.out;
  std::remove(out.c_str());
}

TEST(ToolFlagsTest, ChronosCheckTakesTheBenchmarkFlags) {
  // Each flag set e2ebench/run.py's check_flags builds (offline, online,
  // sharded, durable), with --stats; the durable one with
  // --checkpoint-dir, then again with --resume.
  const std::string bin = ToolPath("chronos_check");
  if (bin.empty()) GTEST_SKIP() << "chronos_check not built";
  const std::string in = "--in=" + std::string(CHRONOS_TEST_SRCDIR) +
                         "/tests/corpus/fig11_stale_read.repro --stats ";
  const std::string dir = ::testing::TempDir() + "flags_test_durable";
  std::filesystem::remove_all(dir);
  const std::string online = "--online --delay-mean=20 --delay-stddev=10";
  const std::string durable =
      "--online --shards=1 --pre-stage-workers=1 --timeout-ms=1000 "
      "--checkpoint-every=12000 --gc-every=500 --gc-target=2000 "
      "--checkpoint-dir=" + dir;
  for (const std::string& flags :
       {std::string(), online, online + " --shards=2 --pre-stage-workers=1",
        durable, durable + " --resume"}) {
    const ToolRun r = RunTool(bin, in + flags);
    EXPECT_TRUE(r.status == 0 || r.status == 3) << flags << ": " << r.out;
  }
  std::filesystem::remove_all(dir);
}

TEST(ToolFlagsTest, ChronosCheckRejectsMisspelledFlags) {
  // Each used to run on a clean history and exit 0: no GC, the default
  // timeout, one shard.
  const std::string bin = ToolPath("chronos_check");
  if (bin.empty()) GTEST_SKIP() << "chronos_check not built";
  const std::string in = "--in=" + std::string(CHRONOS_TEST_SRCDIR) +
                         "/tests/corpus/clean_si.repro --online ";
  for (const char* flag : {"--gc-evry=500", "--timout-ms=1", "--shard=2"}) {
    const ToolRun r = RunTool(bin, in + flag);
    EXPECT_EQ(r.status, 2) << flag << ": " << r.out;
    EXPECT_NE(r.out.find(std::string("unknown flag '") + flag + "'"),
              std::string::npos)
        << r.out;
  }
}

TEST(ToolFlagsTest, ChronosGenRejectsDefaultKnobsWithAnotherWorkload) {
  // twitter, rubis and tpcc have shapes of their own: a default-workload
  // knob would be ignored, so it exits 2 naming the knob. The flags every
  // workload takes still work.
  const std::string bin = ToolPath("chronos_gen");
  if (bin.empty()) GTEST_SKIP() << "chronos_gen not built";
  const std::string out = ::testing::TempDir() + "flags_test_apps.hist";
  const std::string base = "--out=" + out + " --txns=40 ";
  const struct {
    std::string args;
    const char* named;
  } cases[] = {
      {"--workload=rubis --list", "--list"},
      {"--workload=twitter --sessions=5", "--sessions"},
      {"--workload=tpcc --ops=3", "--ops"},
      {"--workload=rubis --keys=5", "--keys"},
      {"--workload=twitter --reads=0.9", "--reads"},
      {"--workload=tpcc --dist=uniform", "--dist"},
      {"--workload=rubis --txns=200 --list --dist=uniform --keys=5", "--list"},
  };
  for (const auto& c : cases) {
    const ToolRun r = RunTool(bin, base + c.args);
    EXPECT_EQ(r.status, 2) << c.args << ": " << r.out;
    EXPECT_NE(r.out.find(c.named), std::string::npos) << c.args << ": "
                                                      << r.out;
    EXPECT_NE(r.out.find("--workload=default only"), std::string::npos)
        << c.args << ": " << r.out;
  }
  for (const char* w : {"twitter", "rubis", "tpcc"}) {
    const ToolRun r = RunTool(
        bin, base + "--workload=" + w +
                 " --seed=3 --level=ser --fault=stale_read --fault-prob=0.01 "
                 "--fault-seed=2 --mix=si:50");
    EXPECT_EQ(r.status, 0) << w << ": " << r.out;
  }
  std::remove(out.c_str());
}

TEST(ToolFlagsTest, ChronosFuzzRejectsLevelWhenTheSidecarDecides) {
  // A .meta sidecar's seed decides the replay scenario, its level
  // included: an explicit --level is a conflict, not a setting to drop.
  const std::string bin = ToolPath("chronos_fuzz");
  if (bin.empty()) GTEST_SKIP() << "chronos_fuzz not built";
  const std::string tmp = ::testing::TempDir();
  const std::string repro = tmp + "flags_test_sidecar.repro";
  {
    FILE* in = fopen((std::string(CHRONOS_TEST_SRCDIR) +
                      "/tests/corpus/ser_write_skew.repro")
                         .c_str(),
                     "rb");
    ASSERT_NE(in, nullptr);
    FILE* out = fopen(repro.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), in)) > 0) fwrite(buf, 1, n, out);
    fclose(in);
    fclose(out);
    FILE* meta = fopen((repro + ".meta").c_str(), "w");
    ASSERT_NE(meta, nullptr);
    fputs("seed=1\n", meta);
    fclose(meta);
  }
  const std::string args =
      "--out-dir=" + tmp + "flags_test_fuzz --repro=" + repro;
  for (const char* level : {"ser", "si"}) {
    const ToolRun r = RunTool(bin, args + " --level=" + level);
    EXPECT_EQ(r.status, 2) << level << ": " << r.out;
    EXPECT_NE(r.out.find(std::string("--level=") + level + " conflicts with " +
                         repro + ".meta"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("repro "), std::string::npos) << r.out;
  }
  const ToolRun sidecar = RunTool(bin, args);
  EXPECT_NE(sidecar.status, 2) << sidecar.out;
  EXPECT_NE(sidecar.out.find("replaying under fuzz scenario"),
            std::string::npos)
      << sidecar.out;
  std::remove((repro + ".meta").c_str());
  // Without the sidecar --level=ser applies: every checker reports the
  // write skew.
  const ToolRun plain = RunTool(bin, args + " --level=ser");
  EXPECT_EQ(plain.status, 0) << plain.out;
  EXPECT_NE(plain.out.find("chronos: DETECT total=1 EXT=1"),
            std::string::npos)
      << plain.out;
  std::remove(repro.c_str());
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
  EXPECT_EQ(args.mode, IsolationLevel::kSer);
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
  // An argument that is none of chronos_check's flags, misspelled or
  // given a value it does not take.
  for (const char* flag : {"--gc-evry=500", "--online=1", "--inn=h.hist"}) {
    Argv a({"--in=h.hist", flag});
    EXPECT_FALSE(ParseCheckArgs(a.argc(), a.argv(), &args, &err)) << flag;
    EXPECT_EQ(err, std::string("unknown flag '") + flag + "'");
  }
  Argv retired({"--in=h.hist", "--pre-stage-workers=1"});
  EXPECT_TRUE(ParseCheckArgs(retired.argc(), retired.argv(), &args, &err))
      << err;
}

TEST(CheckArgsTest, ChronosCheckExitsTwoBeforeOpeningItsInput) {
  const std::string bin = ToolPath("chronos_check");
  if (bin.empty()) GTEST_SKIP() << "chronos_check not built";
  // The input does not exist: a load error would exit 1.
  for (const char* flag :
       {"--shards=-1", "--timeout-ms=abc", "--gc-every=5OO"}) {
    const ToolRun r =
        RunTool(bin, std::string("--in=/nonexistent.hist --online ") + flag);
    EXPECT_EQ(r.status, 2) << flag << ": " << r.out;
    EXPECT_EQ(r.out.rfind(flag, 0), 0u) << r.out;
  }
}

}  // namespace
}  // namespace chronos::tools
