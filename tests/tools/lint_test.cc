// Regression harness for tools/chronos_lint: every rule must fire
// exactly once against its planted-violation fixture, the suppression
// escape must be honored, and the real tree must stay clean.
//
// The linter is exercised as a subprocess (the same way ci.sh runs it)
// so exit codes and output formatting are covered too. Fixture trees
// live under tests/tools/fixtures/<case>/ and mirror the src/ layout
// the per-directory rule tables key on.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

std::string LintBinary() {
  return std::string(CHRONOS_BUILD_DIR) + "/chronos_lint";
}

bool BinaryExists() {
  std::FILE* f = std::fopen(LintBinary().c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

LintResult RunLint(const std::string& args) {
  LintResult result;
  std::string cmd = LintBinary() + " " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string FixtureRoot(const std::string& name) {
  return std::string(CHRONOS_TEST_SRCDIR) + "/tests/tools/fixtures/" + name;
}

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

struct LintCase {
  const char* fixture;
  const char* rule;
};

// Prints the strings, not the pointers gtest would show for a pair of
// const char*, so the listed test name does not change with the load
// address from run to run.
void PrintTo(const LintCase& c, std::ostream* os) {
  *os << c.fixture << " -> " << c.rule;
}

class LintFixtureTest : public ::testing::TestWithParam<LintCase> {
 protected:
  void SetUp() override {
    if (!BinaryExists()) GTEST_SKIP() << "chronos_lint not built";
  }
};

// Each planted-violation fixture trips its rule exactly once and
// nothing else, and the run exits 1 (findings present).
TEST_P(LintFixtureTest, RuleFiresExactlyOnce) {
  const std::string fixture = GetParam().fixture;
  const std::string rule = GetParam().rule;
  LintResult r = RunLint("--root=" + FixtureRoot(fixture));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(CountOccurrences(r.output, ": " + rule + ": "), 1u) << r.output;
  EXPECT_NE(r.output.find("chronos_lint: 1 finding(s)"), std::string::npos)
      << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtureTest,
    ::testing::Values(
        LintCase{"banned_clock", "banned-clock"},
        LintCase{"banned_random", "banned-random"},
        LintCase{"ptr_ordered_container", "ptr-ordered-container"},
        LintCase{"ring_alignas", "ring-alignas"},
        LintCase{"atomic_order", "atomic-explicit-order"},
        LintCase{"seqcst_waiter", "seqcst-waiter-only"},
        LintCase{"ring_single_producer", "ring-single-producer"},
        LintCase{"ring_single_producer_payload", "ring-single-producer"},
        LintCase{"footprint_lockfree", "footprint-lockfree"},
        LintCase{"include_guard", "include-guard"},
        LintCase{"assert_style", "assert-style"},
        LintCase{"unknown_allow", "unknown-allow"}),
    [](const ::testing::TestParamInfo<LintCase>& param_info) {
      return std::string(param_info.param.fixture);
    });

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!BinaryExists()) GTEST_SKIP() << "chronos_lint not built";
  }
};

// A valid allow() escape silences the finding and is reported as an
// honored suppression, so escapes stay visible in the summary.
TEST_F(LintTest, AllowEscapeSuppressesAndIsCounted) {
  LintResult r = RunLint("--root=" + FixtureRoot("suppressed"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 suppression(s) honored"), std::string::npos)
      << r.output;
}

// The shipped tree must lint clean — this is the same gate ci.sh runs,
// kept in-suite so `ctest` alone catches a freshly introduced violation.
TEST_F(LintTest, RealTreeIsClean) {
  LintResult r = RunLint("--root=" + std::string(CHRONOS_TEST_SRCDIR));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("chronos_lint: 0 finding(s)"), std::string::npos)
      << r.output;
}

// --list-rules names every rule the fixtures cover; keeps the registry,
// docs, and fixture matrix from drifting apart silently.
TEST_F(LintTest, ListRulesCoversFixtureMatrix) {
  LintResult r = RunLint("--list-rules");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule :
       {"banned-clock", "banned-random", "ptr-ordered-container",
        "ring-alignas", "atomic-explicit-order", "seqcst-waiter-only",
        "ring-single-producer", "footprint-lockfree", "include-guard",
        "assert-style", "unknown-allow"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << "missing rule: " << rule;
  }
}

// Usage errors are distinct from lint findings: exit 2, not 1.
TEST_F(LintTest, BadFlagExitsWithUsageError) {
  LintResult r = RunLint("--no-such-flag");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST_F(LintTest, MissingRootExitsWithUsageError) {
  LintResult r = RunLint("--root=/nonexistent/lint/root");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

}  // namespace
