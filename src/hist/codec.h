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
//
// Files are read by one parser, HistoryReader. It reads the file through
// one reused 256 KiB buffer, which grows only for a longer line, so a
// reader holds one buffer, never the whole file. One scanner parses the
// common lines (an untagged T line, an R or W line) straight from the
// buffer's bytes, for both passes; every other line goes to ParseTxnLine
// or ParseOpLine, which decide its acceptance and write every error.
// LoadHistory is a loop over the reader; the online collector
// (hist/collector.h) and the offline CHRONOS stream (hist/event_stream.h)
// read from it without ever holding the history, after a pre-pass over
// the T lines (ScanHeaders) that measures how far the file is from
// timestamp order.
#ifndef CHRONOS_HIST_CODEC_H_
#define CHRONOS_HIST_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
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
/// and one line per op. The buffer is sized once, to TxnBlockBound(t),
/// and trimmed to the bytes written.
void AppendTxnBlock(const Transaction& t, std::string* out);

/// The most bytes `t`'s block can take.
size_t TxnBlockBound(const Transaction& t);

/// Writes `t`'s block at `p`, which has room for TxnBlockBound(t) bytes,
/// and returns the end of what it wrote: AppendTxnBlock for a caller
/// that frames the block in a buffer of its own (the WAL record).
char* WriteTxnBlock(const Transaction& t, char* p);

/// Parses a T line, without its '\n', into `t` and sets `*nops` to the op
/// count it declares. Reserves room for those ops only as far as
/// `bytes_left`, the input after the line, can hold them.
CodecStatus ParseTxnLine(std::string_view line, uint64_t bytes_left,
                         Transaction* t, size_t* nops);

/// Parses one R/W/A/L line, without its '\n', and appends the op to `t`.
CodecStatus ParseOpLine(std::string_view line, Transaction* t);

/// Reads '\n'-terminated lines of an open file through one reused
/// buffer of kBlockBytes, each read filling what the lines returned so
/// far freed, so a reader holds one buffer (larger only while one line
/// is longer), never the whole file. Each read also finds the buffer's
/// last '\n' (`whole`): every line before it is complete, so a scanner
/// can parse them straight from the buffer. HistoryReader reads history
/// files through it and online::ReadWal the WAL.
struct LineReader {
  /// The buffer's size and the most each read asks for. The buffer grows
  /// only when one line fills it.
  static constexpr size_t kBlockBytes = size_t{1} << 18;
  /// Zero bytes kept after the data, so a scanner may load 32 bytes from
  /// any position before `whole`.
  static constexpr size_t kPadBytes = 32;

  explicit LineReader(FILE* file) : f(file) {}

  /// The next line without its '\n', valid until the next call. False at
  /// the end of the input, also after a last line with no '\n' (a torn
  /// file). Defined here, so the per-line call inlines into both readers.
  bool Next(std::string_view* line) {
    while (pos == whole) {
      if (!Fill()) return false;
    }
    const char* b = data() + pos;
    const size_t len = static_cast<size_t>(
        static_cast<const char*>(std::memchr(b, '\n', whole - pos)) - b);
    *line = std::string_view(b, len);
    consumed += len + 1;
    pos += len + 1;
    ++lines;
    return true;
  }

  /// The next line that starts with 'T' or '#'; call it at the start of a
  /// line. In a well-formed history those bytes open only the T lines and
  /// the footer, so it searches for them rather than for each line's end
  /// (most lines are short op lines). `lines` does not count what it
  /// skips.
  bool NextMarked(std::string_view* line);

  /// Drops the bytes returned so far and reads more after the rest. False
  /// at the end of the input.
  bool Fill();

  /// Drops every buffered byte and reads on from byte `offset` of the
  /// file, which `consumed` then counts from. False when the file cannot
  /// seek there.
  bool Seek(uint64_t offset);

  const char* data() const { return buf.get(); }

  FILE* f;
  std::unique_ptr<char[]> buf;
  size_t cap = 0;         ///< bytes buf has room for
  size_t size = 0;        ///< bytes read into buf
  size_t pos = 0;         ///< start of the next line in buf
  size_t whole = 0;       ///< one past buf's last '\n' (0 when none)
  uint64_t consumed = 0;  ///< file bytes returned as lines
  uint64_t lines = 0;
};

/// Writes `history` to `path`, overwriting.
CodecStatus SaveHistory(const History& history, const std::string& path);

/// Pull reader over a file written by SaveHistory. Open validates the
/// header; each Next yields one validated transaction block; the mandatory
/// `# end txns=<m>` footer must match the header's count and the blocks
/// read. Errors name the first malformed line.
class HistoryReader {
 public:
  HistoryReader();
  ~HistoryReader();
  HistoryReader(const HistoryReader&) = delete;
  HistoryReader& operator=(const HistoryReader&) = delete;

  /// Opens `path` and reads its header line.
  CodecStatus Open(const std::string& path);

  /// Overwrites `*t` with the next transaction, keeping the capacity of
  /// its op vector for a caller that recycles one. False at the footer
  /// once its counts check out, and at the first error: status() tells
  /// which.
  bool Next(Transaction* t);

  /// A light pre-pass over the open file, in file order up to the first
  /// '#' line (where Next stops). It runs on Next's buffer; Next then
  /// reads on from its line, from the file as it is after the pass.
  /// `header` gets each T line that parses, as a transaction with no ops,
  /// and the op count the line declares. When it returns true, the
  /// block's op lines are parsed into that transaction and, if they all
  /// parse, handed to `ops`; other op lines are skipped unparsed. It reads
  /// the same open file as Next, so it sees the same bytes. It validates
  /// nothing else; a malformed file is Next's error. False, without a
  /// call, when the input cannot seek.
  bool ScanHeaders(
      const std::function<bool(const Transaction&, size_t nops)>& header,
      const std::function<void(const Transaction&)>& ops = {});

  /// Reads every block left into `*out` (after Open: the whole history).
  CodecStatus ReadAll(History* out);

  const CodecStatus& status() const { return status_; }
  uint32_t num_sessions() const { return num_sessions_; }
  uint64_t declared_txns() const { return declared_txns_; }
  /// False for an input that cannot seek (a pipe): it can be read once.
  bool seekable() const { return seekable_; }
  /// The file's size in bytes, 0 for an input that cannot seek (a
  /// pipe); bounds every reserve taken from a count in the file.
  uint64_t size() const { return size_; }

 private:
  /// Stops the reader with `st` as its final status; returns false.
  bool End(CodecStatus st);

  struct Input;  // the open file and its line buffer
  std::unique_ptr<Input> in_;
  std::string path_;
  CodecStatus status_;
  uint32_t num_sessions_ = 0;
  uint64_t declared_txns_ = 0;
  uint64_t read_ = 0;  // blocks returned so far
  bool seekable_ = false;  // a pipe can be read only once
  uint64_t size_ = 0;
  bool done_ = true;
};

/// Commit-order lag D: the most a commit_ts falls below the largest one
/// before it, fed in file order. No later transaction commits below
/// (largest commit_ts so far) - D.
struct CommitLag {
  Timestamp max_seen = 0;
  Timestamp lag = 0;

  void Add(Timestamp ts) {
    if (ts < max_seen) {
      lag = std::max(lag, max_seen - ts);
    } else {
      max_seen = ts;
    }
  }
};

/// Reads a history written by SaveHistory: Open, then ReadAll.
CodecStatus LoadHistory(const std::string& path, History* out);

}  // namespace chronos::hist

#endif  // CHRONOS_HIST_CODEC_H_
