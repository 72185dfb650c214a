// Text serialization of histories. The offline benches measure the
// "loading" stage of Fig. 8/9/24 through this codec; the format is
// line-oriented so histories are diffable and easy to inspect:
//
//   chronos-history v1 sessions=<n> txns=<m>
//   T <tid> <sid> <sno> <start_ts> <commit_ts> <nops> [iso=<level>]
//   R <key> <value>        (one line per op, in program order)
//   W <key> <value>
//   A <key> <elem>
//   L <key> <n> <e1> ... <en>
//   # end txns=<m>
//
// The optional trailing `iso=<si|ser|rc|ra>` tags the transaction's own
// isolation level (Transaction::iso); absent means run-level default, so
// histories saved before mixed-level support load (and re-save)
// byte-identically.
//
// This module owns the grammar of a transaction block (the T line and its
// op lines). WAL records (online/checkpoint.h) embed the same blocks in
// their own framing, through AppendTxnBlock, ParseTxnLine and ParseOpLine.
#ifndef CHRONOS_HIST_CODEC_H_
#define CHRONOS_HIST_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/types.h"

namespace chronos::hist {

/// Success/error result for codec operations.
struct CodecStatus {
  bool ok = true;
  std::string message;

  static CodecStatus Ok() { return {}; }
  static CodecStatus Error(std::string msg) { return {false, std::move(msg)}; }
};

/// Appends `t`'s block to `out`: its T line (with ` iso=` when tagged)
/// and one line per op.
void AppendTxnBlock(const Transaction& t, std::string* out);

/// Parses a T line, without its '\n', into `t` and sets `*nops` to the op
/// count it declares. Reserves room for those ops only as far as
/// `bytes_left`, the input after the line, can hold them.
CodecStatus ParseTxnLine(std::string_view line, uint64_t bytes_left,
                         Transaction* t, size_t* nops);

/// Parses one R/W/A/L line, without its '\n', and appends the op to `t`.
CodecStatus ParseOpLine(std::string_view line, Transaction* t);

/// Writes `history` to `path`, overwriting.
CodecStatus SaveHistory(const History& history, const std::string& path);

/// Reads a history written by SaveHistory, one line at a time. Validates
/// structure (counts, op tags) and reports the first malformed line.
CodecStatus LoadHistory(const std::string& path, History* out);

}  // namespace chronos::hist

#endif  // CHRONOS_HIST_CODEC_H_
