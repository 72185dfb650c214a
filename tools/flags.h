// Minimal --flag=value parsing shared by the CLI tools (chronos_gen,
// chronos_check, chronos_fuzz, chronos_explore), plus the one run-level
// flag they all take, --level=si|ser, parsed into an IsolationLevel.
// Numeric flags are parsed strictly: a value that is not a whole number
// exits 2 with a message naming the flag, instead of checking with a
// silent 0. A tool that lists its flags (RejectUnknownFlags) exits 2 on
// any other argument, so a misspelled or retired flag is not ignored.
#ifndef CHRONOS_TOOLS_FLAGS_H_
#define CHRONOS_TOOLS_FLAGS_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>

#include "core/types.h"

namespace chronos::tools {

inline const char* FlagValue(int argc, char** argv, const char* name) {
  size_t len = strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// True when `arg` is one of `flags`. An entry ending in '=' ("--in=")
/// takes a value; any other ("--list") is a switch and matches only
/// itself.
inline bool FlagListed(const char* arg,
                       std::initializer_list<const char*> flags) {
  for (const char* k : flags) {
    const size_t len = strlen(k);
    if (k[len - 1] == '=' ? strncmp(arg, k, len) == 0 : strcmp(arg, k) == 0) {
      return true;
    }
  }
  return false;
}

/// The first argument that is none of `known`, or nullptr.
inline const char* UnknownFlag(int argc, char** argv,
                               std::initializer_list<const char*> known) {
  for (int i = 1; i < argc; ++i) {
    if (!FlagListed(argv[i], known)) return argv[i];
  }
  return nullptr;
}

/// The first argument that is one of `flags`, or nullptr.
inline const char* FirstFlagOf(int argc, char** argv,
                               std::initializer_list<const char*> flags) {
  for (int i = 1; i < argc; ++i) {
    if (FlagListed(argv[i], flags)) return argv[i];
  }
  return nullptr;
}

/// UnknownFlag that exits 2 naming the argument.
inline void RejectUnknownFlags(const char* tool, int argc, char** argv,
                               std::initializer_list<const char*> known) {
  if (const char* bad = UnknownFlag(argc, argv, known)) {
    std::fprintf(stderr, "%s: unknown flag '%s'\n", tool, bad);
    std::exit(2);
  }
}

/// Reads `name=N`: `*out` is N, or `def` when the flag is absent. False,
/// with `*err` naming the flag, unless N is a whole unsigned decimal (no
/// sign, space or suffix) no greater than `max`.
inline bool ParseU64Flag(int argc, char** argv, const char* name,
                         uint64_t def, uint64_t max, uint64_t* out,
                         std::string* err) {
  const char* v = FlagValue(argc, argv, name);
  if (!v) {
    *out = def;
    return true;
  }
  const char* end = v + strlen(v);
  uint64_t n = 0;
  auto [p, ec] = std::from_chars(v, end, n);
  if (ec == std::errc() && p == end && n <= max) {
    *out = n;
    return true;
  }
  *err = std::string(name) + "=" + v + ": expected a whole unsigned number";
  if (ec == std::errc() && p == end) {
    *err += " of at most " + std::to_string(max);
  } else if (ec == std::errc::result_out_of_range) {
    *err += " below 2^64";
  }
  return false;
}

/// ParseU64Flag for tools whose whole command line is parsed as it goes:
/// a rejected value exits 2.
inline uint64_t U64Flag(int argc, char** argv, const char* name,
                        uint64_t def) {
  uint64_t v = 0;
  std::string err;
  if (!ParseU64Flag(argc, argv, name, def,
                    std::numeric_limits<uint64_t>::max(), &v, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  return v;
}

/// Reads `name=X`: `*out` is X, or `def` when the flag is absent. False,
/// with `*err` naming the flag, unless X is a whole finite number.
inline bool ParseDoubleFlag(int argc, char** argv, const char* name,
                            double def, double* out, std::string* err) {
  const char* v = FlagValue(argc, argv, name);
  if (!v) {
    *out = def;
    return true;
  }
  char* end = nullptr;
  const double x = strtod(v, &end);
  // strtod would skip leading space; nothing else may surround the number.
  if (end == v || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(*v)) || !std::isfinite(x)) {
    *err = std::string(name) + "=" + v + ": expected a number";
    return false;
  }
  *out = x;
  return true;
}

/// ParseDoubleFlag that exits 2 on a rejected value.
inline double DoubleFlag(int argc, char** argv, const char* name,
                         double def) {
  double x = 0;
  std::string err;
  if (!ParseDoubleFlag(argc, argv, name, def, &x, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    std::exit(2);
  }
  return x;
}

/// Run-level isolation parsing for every CLI tool. Only si and ser are
/// valid run-level defaults; rc and ra exist solely as per-transaction
/// tags (Transaction::iso), so naming them here gets a specific
/// explanation rather than "unknown level".
inline bool ParseRunLevel(const char* v, IsolationLevel* level,
                          std::string* err) {
  if (strcmp(v, "si") == 0) {
    *level = IsolationLevel::kSi;
    return true;
  }
  if (strcmp(v, "ser") == 0) {
    *level = IsolationLevel::kSer;
    return true;
  }
  if (strcmp(v, "rc") == 0 || strcmp(v, "ra") == 0) {
    *err = std::string(v) +
           " is a per-transaction isolation level: tag individual "
           "transactions (iso=" + v +
           " in the history file, or --mix=" + v +
           ":<pct> in chronos_gen); the run-level default must be si or "
           "ser";
    return false;
  }
  *err = "unknown isolation level '" + std::string(v) +
         "' (expected si, ser, rc, or ra)";
  return false;
}

/// Reads `--level=si|ser` (si when absent); any other value exits 2.
inline IsolationLevel RunLevelFlag(int argc, char** argv) {
  IsolationLevel level = IsolationLevel::kSi;
  std::string err;
  const char* v = FlagValue(argc, argv, "--level");
  if (v && !ParseRunLevel(v, &level, &err)) {
    std::fprintf(stderr, "--level=%s: %s\n", v, err.c_str());
    std::exit(2);
  }
  return level;
}

/// Parses a --mix=si:70,ser:10,rc:10,ra:10 spec (any subset of levels,
/// any order; percentages must sum to at most 100 — the remainder stays
/// untagged and follows the run-level default). Out-params instead of a
/// workload::LevelMix so this header stays free of the workload layer.
inline bool ParseLevelMixSpec(const char* v, uint32_t* si, uint32_t* ser,
                              uint32_t* rc, uint32_t* ra, std::string* err) {
  *si = *ser = *rc = *ra = 0;
  const std::string spec(v);
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string part = spec.substr(pos, comma - pos);
    const size_t colon = part.find(':');
    if (part.empty() || colon == std::string::npos) {
      *err = "bad --mix component '" + part +
             "' (expected <level>:<percent>, e.g. si:70,rc:30)";
      return false;
    }
    const std::string name = part.substr(0, colon);
    uint32_t* slot = name == "si"    ? si
                     : name == "ser" ? ser
                     : name == "rc"  ? rc
                     : name == "ra"  ? ra
                                     : nullptr;
    if (!slot) {
      *err = "unknown isolation level '" + name +
             "' in --mix (expected si, ser, rc, or ra)";
      return false;
    }
    if (*slot != 0) {
      *err = "duplicate level '" + name + "' in --mix";
      return false;
    }
    char* end = nullptr;
    const char* digits = part.c_str() + colon + 1;
    unsigned long pct = strtoul(digits, &end, 10);
    if (end == digits || *end != '\0' || pct == 0 || pct > 100) {
      *err = "bad percentage in --mix component '" + part +
             "' (expected an integer in [1, 100])";
      return false;
    }
    *slot = static_cast<uint32_t>(pct);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  if (*si + *ser + *rc + *ra > 100) {
    *err = "--mix percentages sum to " +
           std::to_string(*si + *ser + *rc + *ra) +
           " (must be at most 100; the remainder stays untagged)";
    return false;
  }
  return true;
}

}  // namespace chronos::tools

#endif  // CHRONOS_TOOLS_FLAGS_H_
