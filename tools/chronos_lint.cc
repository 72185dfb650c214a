// chronos_lint: repository-specific static checks for the determinism
// and concurrency contracts that generic tooling cannot express (see
// ROADMAP "Static analysis"). The checker's whole recovery and
// exploration story rests on "verdicts are a pure function of the input
// stream": wall-clock reads, unseeded randomness, or pointer-keyed
// iteration order anywhere on a verdict path would silently break it,
// and a second producer on an SPSC ring would corrupt the pipeline.
// Clang's -Wthread-safety enforces the ownership half of that story;
// this linter enforces the textual half — banned tokens per directory,
// cache-line alignment of shared ring atomics, explicit memory orders,
// and the single-producer call-site allowlists.
//
// Usage:
//   chronos_lint --root=DIR [--compdb=FILE] [--list-rules]
//
// Scans src/, tools/, tests/, bench/ under DIR (plus any in-tree files
// named by the compile_commands.json, which catches generated sources).
// Directories named `fixtures` are skipped: they hold the linter's own
// planted-violation test data (tests/tools/fixtures/<rule>/), linted by
// pointing --root at the fixture itself. Findings go to stdout as
// `path:line: rule-id: message`. Exit 0 when clean, 1 with findings,
// 2 on usage/IO errors.
//
// Suppressions: `// chronos-lint: allow(<rule-id>)` on the offending line
// or in the comment block directly above it. Every honored suppression
// is counted and reported; an allow() naming an unknown rule is itself
// a finding (unknown-allow), so stale escapes cannot rot silently.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Rule {
  const char* id;
  const char* what;
};

// The registry: ids are stable (they appear in allow() escapes and in
// ROADMAP's rule table).
const Rule kRules[] = {
    {"banned-clock",
     "no wall/steady clock reads in src/core, src/online, src/explore "
     "(verdicts must be a pure function of the input stream)"},
    {"banned-random",
     "no ambient randomness (rand, random_device, mt19937) in src/core, "
     "src/online, src/explore; seeded PRNGs live in fuzz/workload"},
    {"ptr-ordered-container",
     "no pointer-keyed std::map/std::set in src/ (iteration order would "
     "depend on the allocator)"},
    {"ring-alignas",
     "every std::atomic member of the SPSC ring carries an explicit "
     "alignas (false sharing between the ring sides)"},
    {"atomic-explicit-order",
     "atomic ops in the ring and the sharded pipeline name their "
     "memory_order explicitly (no seq_cst-by-default)"},
    {"seqcst-waiter-only",
     "memory_order_seq_cst in the ring only on waiter-flag statements "
     "(the documented park/wake protocol)"},
    {"ring-single-producer",
     "ring operations in sharded_aion.cc only from the functions that "
     "own that ring side (the SPSC contract)"},
    {"footprint-lockfree",
     "GetFootprint bodies take no locks and no barriers (they run "
     "inside the GC policy check)"},
    {"include-guard",
     "canonical include guards: CHRONOS_<PATH>_H_ with src/ stripped"},
    {"assert-style",
     "no bare assert() in src/ (disabled under NDEBUG; prefer explicit "
     "handling, escape deliberate unreachable-guards)"},
    {"unknown-allow", "chronos-lint: allow() names a registered rule"},
};

bool KnownRule(const std::string& id) {
  for (const Rule& r : kRules) {
    if (id == r.id) return true;
  }
  return false;
}

struct Finding {
  std::string file;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string msg;
};

struct FileCtx {
  std::string rel;                // forward-slash path relative to root
  std::vector<std::string> raw;   // as read
  std::vector<std::string> code;  // comments and string literals blanked
  // Per line: raw content is only comments/whitespace (escape blocks).
  std::vector<bool> comment_only;
  // Per line: rule ids named by chronos-lint: allow(...) on that line.
  std::vector<std::vector<std::string>> allows;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Blanks comments and string/char literals so token rules cannot match
// inside them. Tracks block comments across lines.
std::vector<std::string> StripCode(const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block = false;
  for (const std::string& line : raw) {
    std::string code(line.size(), ' ');
    for (size_t i = 0; i < line.size();) {
      if (in_block) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        char quote = c;
        code[i] = quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            code[i] = quote;
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = c;
      ++i;
    }
    out.push_back(std::move(code));
  }
  return out;
}

bool IsBlank(const std::string& s) {
  return std::all_of(s.begin(), s.end(),
                     [](unsigned char c) { return std::isspace(c); });
}

FileCtx LoadFile(const fs::path& root, const fs::path& path) {
  FileCtx ctx;
  ctx.rel = fs::relative(path, root).generic_string();
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ctx.raw.push_back(line);
  }
  ctx.code = StripCode(ctx.raw);
  static const std::regex kAllow(R"(chronos-lint:\s*allow\(([A-Za-z0-9_-]+)\))");
  ctx.comment_only.resize(ctx.raw.size());
  ctx.allows.resize(ctx.raw.size());
  for (size_t i = 0; i < ctx.raw.size(); ++i) {
    ctx.comment_only[i] = !IsBlank(ctx.raw[i]) && IsBlank(ctx.code[i]);
    auto begin = std::sregex_iterator(ctx.raw[i].begin(), ctx.raw[i].end(),
                                      kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      ctx.allows[i].push_back((*it)[1].str());
    }
  }
  return ctx;
}

// A finding at `line` (0-based) is suppressed by an allow(rule) on the
// same line or anywhere in the contiguous comment block directly above.
bool Suppressed(const FileCtx& ctx, size_t line, const std::string& rule,
                size_t* suppressions) {
  auto has = [&](size_t i) {
    for (const std::string& id : ctx.allows[i]) {
      if (id == rule) return true;
    }
    return false;
  };
  if (has(line)) {
    ++*suppressions;
    return true;
  }
  for (size_t i = line; i > 0 && ctx.comment_only[i - 1];) {
    --i;
    if (has(i)) {
      ++*suppressions;
      return true;
    }
  }
  return false;
}

class Linter {
 public:
  void Report(const FileCtx& ctx, size_t line0, const char* rule,
              std::string msg) {
    if (Suppressed(ctx, line0, rule, &suppressions_)) return;
    findings_.push_back({ctx.rel, line0 + 1, rule, std::move(msg)});
  }

  // Joins the statement starting at the opening paren found at/after
  // `col` on `line0` until parens balance (multi-line calls).
  static std::string JoinCall(const FileCtx& ctx, size_t line0, size_t col) {
    std::string joined;
    int depth = 0;
    bool opened = false;
    for (size_t i = line0; i < ctx.code.size(); ++i) {
      const std::string& l = ctx.code[i];
      size_t start = (i == line0) ? col : 0;
      for (size_t j = start; j < l.size(); ++j) {
        joined.push_back(l[j]);
        if (l[j] == '(') {
          ++depth;
          opened = true;
        } else if (l[j] == ')') {
          --depth;
          if (opened && depth == 0) return joined;
        }
      }
      joined.push_back('\n');
      if (i - line0 > 20) break;  // malformed; bail out
    }
    return joined;
  }

  void CheckBannedTokens(const FileCtx& ctx) {
    const bool critical = StartsWith(ctx.rel, "src/core/") ||
                          StartsWith(ctx.rel, "src/online/") ||
                          StartsWith(ctx.rel, "src/explore/");
    if (!critical) return;
    // Wall-clock timing is legitimate exactly where we *measure* the
    // checker (never where we decide): the Stopwatch utility and the
    // pipeline's throughput meter.
    const bool clock_ok =
        ctx.rel == "src/core/stats.h" || ctx.rel == "src/online/pipeline.cc";
    static const std::regex kClock(
        R"(std::chrono::(steady|system|high_resolution)_clock|\bgettimeofday\b|\btime\s*\(\s*(NULL|nullptr|0|\))|\bclock\s*\(\s*\))");
    static const std::regex kRandom(
        R"(\brand\s*\(|\bsrand\s*\(|\brandom_device\b|\bmt19937)");
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      if (!clock_ok && std::regex_search(ctx.code[i], kClock)) {
        Report(ctx, i, "banned-clock",
               "wall/steady clock read on a determinism-critical path");
      }
      if (std::regex_search(ctx.code[i], kRandom)) {
        Report(ctx, i, "banned-random",
               "ambient randomness on a determinism-critical path");
      }
    }
  }

  void CheckPtrOrderedContainers(const FileCtx& ctx) {
    if (!StartsWith(ctx.rel, "src/")) return;
    static const std::regex kPtrKey(R"(std::(map|set)\s*<[^<>,]*\*)");
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      if (std::regex_search(ctx.code[i], kPtrKey)) {
        Report(ctx, i, "ptr-ordered-container",
               "pointer-keyed ordered container: iteration order depends "
               "on the allocator");
      }
    }
  }

  void CheckRingAlignas(const FileCtx& ctx) {
    if (ctx.rel != "src/online/spsc_ring.h") return;
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      const std::string& l = ctx.code[i];
      if (l.find("std::atomic<") == std::string::npos) continue;
      if (l.find("alignas(") == std::string::npos) {
        Report(ctx, i, "ring-alignas",
               "std::atomic ring member without an explicit alignas");
      }
    }
  }

  void CheckAtomicOrders(const FileCtx& ctx) {
    if (ctx.rel != "src/online/spsc_ring.h" &&
        ctx.rel != "src/online/sharded_aion.cc") {
      return;
    }
    static const std::regex kOp(
        R"(\.\s*(load|store|fetch_add|fetch_sub|exchange|compare_exchange_\w+)\s*\()");
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      auto begin = std::sregex_iterator(ctx.code[i].begin(), ctx.code[i].end(),
                                        kOp);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        size_t col = static_cast<size_t>(it->position()) + it->length() - 1;
        std::string call = JoinCall(ctx, i, col);
        if (call.find("memory_order") == std::string::npos) {
          Report(ctx, i, "atomic-explicit-order",
                 "atomic " + (*it)[1].str() +
                     " without an explicit memory_order");
        }
      }
    }
  }

  void CheckSeqCstWaiterOnly(const FileCtx& ctx) {
    if (ctx.rel != "src/online/spsc_ring.h") return;
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      if (ctx.code[i].find("memory_order_seq_cst") == std::string::npos) {
        continue;
      }
      if (ctx.code[i].find("waiting_") == std::string::npos) {
        Report(ctx, i, "seqcst-waiter-only",
               "seq_cst outside the waiter-flag protocol (the ring's only "
               "sanctioned use)");
      }
    }
  }

  // Tracks `ShardedAion::Function` definitions by brace depth and
  // restricts every ring operation to the functions that own that ring
  // side. This is the textual complement of the -Wthread-safety roles:
  // the annotations prove a role is held, the allowlist pins down *who*
  // may legally assume it.
  void CheckRingSingleProducer(const FileCtx& ctx) {
    if (ctx.rel != "src/online/sharded_aion.cc") return;
    // Keys are `<ring>.<side op>`: Stage stands for every staging call
    // (Stage, TryStage, Push) and Pop for every pop (Pop, PopBatch,
    // PopInto).
    static const std::map<std::string, std::set<std::string>> kAllowed = {
        // Per-shard command rings and payload rings: the caller
        // produces, the worker consumes.
        {"ring.Stage", {"StageHeader"}},
        {"ring.Publish", {"PublishShard"}},
        {"ring.Close", {"~ShardedAion"}},
        {"ring.Pop", {"WorkerLoop"}},
        {"payload.Stage", {"StagePayload"}},
        {"payload.Publish", {"PublishShard"}},
        {"payload.Close", {"~ShardedAion"}},
        {"payload.Pop", {"WorkerLoop"}},
    };
    // A definition line is `... ShardedAion::Name(...`; the last match
    // wins (qualified return types also match). Thread-entry bindings
    // like `&ShardedAion::WorkerLoop,` carry no `(` and do not match.
    static const std::regex kDef(R"(ShardedAion::(~?\w+)\s*\()");
    static const std::regex kOp(
        R"((?:^|[^\w.])((?:\w+(?:\.|->))?(ring|payload)\.(Stage|TryStage|Publish|Push|Pop|PopBatch|PopInto|Close))\s*\()");
    std::string current;
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      const std::string& l = ctx.code[i];
      auto defs = std::sregex_iterator(l.begin(), l.end(), kDef);
      std::string last;
      for (auto it = defs; it != std::sregex_iterator(); ++it) {
        last = (*it)[1].str();
      }
      if (!last.empty()) current = last;
      auto begin = std::sregex_iterator(l.begin(), l.end(), kOp);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        std::string op = (*it)[3].str();
        if (op == "TryStage" || op == "Push") op = "Stage";
        if (op == "PopBatch" || op == "PopInto") op = "Pop";
        const std::string key = (*it)[2].str() + "." + op;
        auto allowed = kAllowed.find(key);
        if (allowed == kAllowed.end() || allowed->second.count(current) == 0) {
          Report(ctx, i, "ring-single-producer",
                 key + " from " +
                     (current.empty() ? "file scope" :
                                        "ShardedAion::" + current) +
                     " violates the ring ownership allowlist");
        }
      }
    }
  }

  void CheckFootprintLockfree(const FileCtx& ctx) {
    if (!StartsWith(ctx.rel, "src/online/") || !EndsWith(ctx.rel, ".cc")) {
      return;
    }
    static const std::regex kDef(R"(\w+::GetFootprint\s*\()");
    static const std::regex kBanned(
        R"(\bmutex\b|\bMutex\b|MutexLock|lock_guard|unique_lock|scoped_lock|\block\b|\bLock\b|WaitAll)");
    // Depth is tracked relative to the definition line (the file-level
    // namespace braces put every function at depth >= 1).
    bool in_footprint = false;
    bool entered = false;
    int depth = 0;
    int base = 0;
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      const std::string& l = ctx.code[i];
      if (!in_footprint && std::regex_search(l, kDef)) {
        in_footprint = true;
        entered = false;
        base = depth;
      }
      if (in_footprint && entered && std::regex_search(l, kBanned)) {
        Report(ctx, i, "footprint-lockfree",
               "lock or barrier on the GetFootprint path (it runs inside "
               "the GC policy check)");
      }
      for (char c : l) {
        if (c == '{') {
          ++depth;
          if (in_footprint) entered = true;
        }
        if (c == '}') --depth;
      }
      if (in_footprint && entered && depth <= base) in_footprint = false;
    }
  }

  void CheckIncludeGuard(const FileCtx& ctx) {
    if (!EndsWith(ctx.rel, ".h")) return;
    std::string stem = ctx.rel;
    if (StartsWith(stem, "src/")) stem = stem.substr(4);
    std::string guard = "CHRONOS_";
    for (char c : stem) {
      guard.push_back(std::isalnum(static_cast<unsigned char>(c))
                          ? static_cast<char>(
                                std::toupper(static_cast<unsigned char>(c)))
                          : '_');
    }
    guard.push_back('_');
    bool saw_ifndef = false;
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      const std::string& l = ctx.code[i];
      size_t pos = l.find("#ifndef");
      if (pos == std::string::npos) continue;
      saw_ifndef = true;
      std::istringstream ss(l.substr(pos + 7));
      std::string got;
      ss >> got;
      if (got != guard) {
        Report(ctx, i, "include-guard",
               "guard is " + got + ", expected " + guard);
      } else if (i + 1 >= ctx.code.size() ||
                 ctx.code[i + 1].find("#define " + guard) ==
                     std::string::npos) {
        Report(ctx, i, "include-guard",
               "#ifndef " + guard + " not followed by its #define");
      }
      break;  // only the first #ifndef is the guard
    }
    if (!saw_ifndef && !ctx.raw.empty()) {
      Report(ctx, 0, "include-guard", "header has no include guard");
    }
  }

  void CheckAssertStyle(const FileCtx& ctx) {
    if (!StartsWith(ctx.rel, "src/")) return;
    static const std::regex kAssert(R"((^|[^\w_])assert\s*\()");
    for (size_t i = 0; i < ctx.code.size(); ++i) {
      if (ctx.code[i].find("static_assert") != std::string::npos) continue;
      if (std::regex_search(ctx.code[i], kAssert)) {
        Report(ctx, i, "assert-style",
               "bare assert() compiles out under NDEBUG");
      }
    }
  }

  void CheckUnknownAllows(const FileCtx& ctx) {
    for (size_t i = 0; i < ctx.allows.size(); ++i) {
      for (const std::string& id : ctx.allows[i]) {
        if (!KnownRule(id)) {
          findings_.push_back({ctx.rel, i + 1, "unknown-allow",
                               "allow(" + id + ") names no registered rule"});
        }
      }
    }
  }

  void LintFile(const FileCtx& ctx) {
    ++files_scanned_;
    CheckBannedTokens(ctx);
    CheckPtrOrderedContainers(ctx);
    CheckRingAlignas(ctx);
    CheckAtomicOrders(ctx);
    CheckSeqCstWaiterOnly(ctx);
    CheckRingSingleProducer(ctx);
    CheckFootprintLockfree(ctx);
    CheckIncludeGuard(ctx);
    CheckAssertStyle(ctx);
    CheckUnknownAllows(ctx);
  }

  int Finish() {
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    for (const Finding& f : findings_) {
      std::printf("%s:%zu: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.msg.c_str());
    }
    std::printf(
        "chronos_lint: %zu finding(s), %zu suppression(s) honored, "
        "%zu file(s) scanned\n",
        findings_.size(), suppressions_, files_scanned_);
    return findings_.empty() ? 0 : 1;
  }

 private:
  std::vector<Finding> findings_;
  size_t suppressions_ = 0;
  size_t files_scanned_ = 0;
};

bool LintableName(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

// Minimal compile_commands.json scan: every `"file": "..."` entry. The
// format is machine-written by CMake, so a targeted scan beats hauling
// in a JSON parser the toolchain image may not have.
std::vector<std::string> CompdbFiles(const std::string& path) {
  std::vector<std::string> files;
  std::ifstream in(path);
  if (!in) return files;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  static const std::regex kFile(R"re("file"\s*:\s*"([^"]+)")re");
  auto begin = std::sregex_iterator(text.begin(), text.end(), kFile);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    files.push_back((*it)[1].str());
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg = ".";
  std::string compdb;
  bool list_rules = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--root=")) {
      root_arg = arg.substr(7);
    } else if (StartsWith(arg, "--compdb=")) {
      compdb = arg.substr(9);
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else {
      std::fprintf(stderr,
                   "usage: chronos_lint --root=DIR [--compdb=FILE] "
                   "[--list-rules]\n");
      return 2;
    }
  }
  if (list_rules) {
    for (const Rule& r : kRules) std::printf("%s: %s\n", r.id, r.what);
    return 0;
  }

  std::error_code ec;
  fs::path root = fs::canonical(root_arg, ec);
  if (ec) {
    std::fprintf(stderr, "chronos_lint: cannot open root %s\n",
                 root_arg.c_str());
    return 2;
  }

  std::set<std::string> paths;  // absolute, deduplicated, sorted
  for (const char* dir : {"src", "tools", "tests", "bench"}) {
    fs::path d = root / dir;
    if (!fs::is_directory(d, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(d, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory(ec) && it->path().filename() == "fixtures") {
        it.disable_recursion_pending();  // linter test data, linted solo
        continue;
      }
      if (it->is_regular_file(ec) && LintableName(it->path())) {
        paths.insert(fs::canonical(it->path(), ec).string());
      }
    }
  }
  if (!compdb.empty()) {
    for (const std::string& f : CompdbFiles(compdb)) {
      fs::path p = fs::canonical(f, ec);
      if (ec) continue;
      // Only files inside the tree; system headers and generated
      // out-of-tree sources are not ours to lint.
      if (StartsWith(p.generic_string(), root.generic_string() + "/") &&
          LintableName(p)) {
        paths.insert(p.string());
      }
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "chronos_lint: nothing to scan under %s\n",
                 root.string().c_str());
    return 2;
  }

  Linter linter;
  for (const std::string& p : paths) {
    linter.LintFile(LoadFile(root, fs::path(p)));
  }
  return linter.Finish();
}
