#include "fuzz/corpus.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/violation.h"
#include "hist/codec.h"

namespace chronos::fuzz {
namespace {

bool ClassIndex(const std::string& name, size_t* out) {
  static const struct {
    const char* name;
    ViolationType type;
  } kClasses[] = {
      {"SESSION", ViolationType::kSession},
      {"INT", ViolationType::kInt},
      {"EXT", ViolationType::kExt},
      {"NOCONFLICT", ViolationType::kNoConflict},
      {"TSORDER", ViolationType::kTsOrder},
      {"TSDUP", ViolationType::kTsDuplicate},
  };
  for (const auto& c : kClasses) {
    if (name == c.name) {
      *out = static_cast<size_t>(c.type);
      return true;
    }
  }
  return false;
}

}  // namespace

Corpus LoadCorpus(const std::string& dir) {
  Corpus corpus;
  const std::string manifest_path = dir + "/manifest.txt";
  std::ifstream in(manifest_path);
  if (!in) {
    corpus.error = "cannot open " + manifest_path;
    return corpus;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tokens(line);
    CorpusEntry entry;
    if (!(tokens >> entry.file) || entry.file[0] == '#') continue;
    if (!(tokens >> entry.tag)) {
      corpus.error = manifest_path + ":" + std::to_string(lineno) +
                     ": missing divergence tag";
      return corpus;
    }
    std::string kv;
    while (tokens >> kv) {
      size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        corpus.error = manifest_path + ":" + std::to_string(lineno) +
                       ": malformed token '" + kv + "'";
        return corpus;
      }
      std::string key = kv.substr(0, eq);
      std::string value = kv.substr(eq + 1);
      size_t cls;
      if (key == "blackbox") {
        if (value != "accept" && value != "detect") {
          corpus.error = manifest_path + ":" + std::to_string(lineno) +
                         ": blackbox must be accept|detect, got '" + value +
                         "'";
          return corpus;
        }
        entry.blackbox_detect = value == "detect";
      } else if (key == "iso") {
        if (value != "mixed") {
          corpus.error = manifest_path + ":" + std::to_string(lineno) +
                         ": iso must be mixed, got '" + value + "'";
          return corpus;
        }
        entry.mixed = true;
      } else if (key == "mode") {
        if (value != "si" && value != "ser") {
          corpus.error = manifest_path + ":" + std::to_string(lineno) +
                         ": mode must be si|ser, got '" + value + "'";
          return corpus;
        }
        entry.level =
            value == "ser" ? IsolationLevel::kSer : IsolationLevel::kSi;
      } else if (ClassIndex(key, &cls)) {
        entry.expected[cls] = std::strtoull(value.c_str(), nullptr, 10);
      } else {
        corpus.error = manifest_path + ":" + std::to_string(lineno) +
                       ": unknown key '" + key + "'";
        return corpus;
      }
    }
    hist::CodecStatus st =
        hist::LoadHistory(dir + "/" + entry.file, &entry.history);
    if (!st.ok) {
      corpus.error = entry.file + ": " + st.message;
      return corpus;
    }
    if (entry.mixed != HistoryHasLevelTags(entry.history)) {
      corpus.error = entry.file + ": iso=mixed manifest tag " +
                     (entry.mixed ? "set but the history has no"
                                  : "missing but the history has") +
                     " per-transaction isolation tags";
      return corpus;
    }
    corpus.entries.push_back(std::move(entry));
  }
  if (corpus.entries.empty()) {
    corpus.error = manifest_path + ": no corpus entries";
  }
  return corpus;
}

}  // namespace chronos::fuzz
