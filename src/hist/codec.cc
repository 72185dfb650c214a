#include "hist/codec.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#ifdef _WIN32
#include <io.h>
#define chronos_fsync _commit
#define chronos_fileno _fileno
#else
#include <unistd.h>
#define chronos_fsync fsync
#define chronos_fileno fileno
#endif

namespace chronos::hist {

namespace {

// The shortest op line ("R 1 2\n") and transaction block ("T 1 0 0 1 2
// 0\n"): a count read from the input reserves no more entries than the
// bytes after it could hold.
constexpr uint64_t kMinOpLineBytes = 6;
constexpr uint64_t kMinTxnBlockBytes = 14;

constexpr std::string_view kOpTags = "RWAL";  // indexed by OpType

// The most bytes one " <integer>" field takes: a space and up to 20
// characters ("-9223372036854775808", "18446744073709551615").
constexpr size_t kMaxFieldBytes = 21;

template <typename Int>
char* WriteField(char* p, Int v) {
  *p++ = ' ';
  return std::to_chars(p, p + kMaxFieldBytes - 1, v).ptr;
}

// Consumes `prefix` and the decimal integer right after it from `*s`.
template <typename Int>
bool TakeField(std::string_view* s, std::string_view prefix, Int* v) {
  if (s->substr(0, prefix.size()) != prefix) return false;
  auto [p, ec] =
      std::from_chars(s->data() + prefix.size(), s->data() + s->size(), *v);
  if (ec != std::errc()) return false;
  s->remove_prefix(static_cast<size_t>(p - s->data()));
  return true;
}

// The first `c` in [s, e), or null.
const char* Find(const char* s, const char* e, char c) {
  return static_cast<const char*>(
      std::memchr(s, c, static_cast<size_t>(e - s)));
}

// Reads '\n'-terminated lines through one reused buffer, so a load holds
// one block of the file (or one longer line), never the whole file.
struct LineReader {
  explicit LineReader(FILE* file) : f(file) {}

  // The next line without its '\n', valid until the next call. False at
  // the end of the input, also after a last line with no '\n' (a torn
  // file).
  bool Next(std::string_view* line) {
    size_t nl;
    while ((nl = buf.find('\n', pos)) == std::string::npos) {
      if (!Fill()) return false;
    }
    *line = std::string_view(buf).substr(pos, nl - pos);
    consumed += nl + 1 - pos;
    pos = nl + 1;
    ++lines;
    return true;
  }

  // The next line that starts with 'T' or '#'; call it at the start of a
  // line. In a well-formed file those bytes open only the T lines and the
  // footer, so it searches for them rather than for each line's end
  // (most lines are short op lines). `lines` does not count what it
  // skips.
  bool NextMarked(std::string_view* line) {
    size_t from = pos;  // the bytes before `from` hold no marked line
    for (;;) {
      if (pos < buf.size() && (buf[pos] == 'T' || buf[pos] == '#')) {
        return Next(line);
      }
      const char* b = buf.data();
      const char* e = b + buf.size();
      const char* s = b + std::min(std::max(from, pos + 1), buf.size());
      while (s < e) {
        const char* t = Find(s, e, 'T');
        const char* c = Find(s, t ? t : e, '#');
        if (c == nullptr) c = t;
        if (c == nullptr) break;
        if (c[-1] == '\n') {
          const size_t at = static_cast<size_t>(c - b);
          consumed += at - pos;
          pos = at;
          return Next(line);
        }
        s = c + 1;
      }
      // None in the buffer: drop its whole lines and read on.
      const size_t last = buf.rfind('\n');
      if (last != std::string::npos && last >= pos) {
        consumed += last + 1 - pos;
        pos = last + 1;
      }
      from = buf.size() - pos;
      if (!Fill()) return false;
    }
  }

  // Drops the bytes returned so far and reads more after the rest. False
  // at the end of the input.
  bool Fill() {
    buf.erase(0, pos);
    pos = 0;
    const size_t have = buf.size();
    buf.resize(have + (1 << 16));
    buf.resize(have + fread(&buf[have], 1, buf.size() - have, f));
    return buf.size() != have;
  }

  FILE* f;
  std::string buf;
  size_t pos = 0;         // start of the next line in buf
  uint64_t consumed = 0;  // file bytes returned as lines
  uint64_t lines = 0;
};

// Empties a reused transaction for the next parse: ParseTxnLine sets
// every header field but the optional iso tag. The op vector keeps its
// capacity, so a recycled transaction parses without a malloc.
void ResetTxn(Transaction* t) {
  t->ops.clear();
  t->list_args.clear();
  t->iso = IsolationLevel::kUnspecified;
}

}  // namespace

size_t TxnBlockBound(const Transaction& t) {
  // The T line: its tag, six fields, the iso tag and the newline; each
  // op line: its tag, the key, a value or an L length, and the newline,
  // plus an L line's elements.
  size_t n = 2 + 6 * kMaxFieldBytes;
  if (t.iso != IsolationLevel::kUnspecified) {
    n += 5 + std::strlen(IsolationLevelName(t.iso));
  }
  n += t.ops.size() * (2 + 2 * kMaxFieldBytes);
  for (const Op& op : t.ops) {
    if (op.type == OpType::kReadList) {
      n += t.list_args[op.list_index].size() * kMaxFieldBytes;
    }
  }
  return n;
}

char* WriteTxnBlock(const Transaction& t, char* p) {
  *p++ = 'T';
  for (uint64_t v : {t.tid, uint64_t{t.sid}, t.sno, t.start_ts, t.commit_ts,
                     uint64_t{t.ops.size()}}) {
    p = WriteField(p, v);
  }
  if (t.iso != IsolationLevel::kUnspecified) {
    std::memcpy(p, " iso=", 5);
    const char* name = IsolationLevelName(t.iso);
    const size_t len = std::strlen(name);
    std::memcpy(p + 5, name, len);
    p += 5 + len;
  }
  *p++ = '\n';
  for (const Op& op : t.ops) {
    *p++ = kOpTags[static_cast<size_t>(op.type)];
    p = WriteField(p, op.key);
    if (op.type == OpType::kReadList) {
      const std::vector<Value>& elems = t.list_args[op.list_index];
      p = WriteField(p, elems.size());
      for (Value e : elems) p = WriteField(p, e);
    } else {
      p = WriteField(p, op.value);
    }
    *p++ = '\n';
  }
  return p;
}

void AppendTxnBlock(const Transaction& t, std::string* out) {
  const size_t at = out->size();
  out->resize(at + TxnBlockBound(t));
  char* begin = &(*out)[0];
  out->resize(static_cast<size_t>(WriteTxnBlock(t, begin + at) - begin));
}

CodecStatus ParseTxnLine(std::string_view line, uint64_t bytes_left,
                         Transaction* t, size_t* nops) {
  if (!TakeField(&line, "T ", &t->tid) || !TakeField(&line, " ", &t->sid) ||
      !TakeField(&line, " ", &t->sno) ||
      !TakeField(&line, " ", &t->start_ts) ||
      !TakeField(&line, " ", &t->commit_ts) ||
      !TakeField(&line, " ", nops)) {
    return CodecStatus::Error("malformed transaction header");
  }
  // Optional ` iso=<level>`; absent means run-level default
  // (Transaction::iso stays kUnspecified).
  if (!line.empty() &&
      (line.substr(0, 5) != " iso=" ||
       !IsolationLevelFromName(std::string(line.substr(5)), &t->iso))) {
    return CodecStatus::Error("bad transaction header suffix: " +
                              std::string(line));
  }
  t->ops.reserve(std::min<uint64_t>(*nops, bytes_left / kMinOpLineBytes));
  return CodecStatus::Ok();
}

CodecStatus ParseOpLine(std::string_view line, Transaction* t) {
  const size_t type = line.empty() ? kOpTags.npos : kOpTags.find(line[0]);
  if (type == kOpTags.npos) {
    return CodecStatus::Error("unknown op tag: " +
                              std::string(line.substr(0, 3)));
  }
  Op op;
  op.type = static_cast<OpType>(type);
  line.remove_prefix(1);
  uint64_t n = 0;
  if (!TakeField(&line, " ", &op.key) ||
      !(op.type == OpType::kReadList ? TakeField(&line, " ", &n)
                                     : TakeField(&line, " ", &op.value))) {
    return CodecStatus::Error("malformed op line");
  }
  if (op.type == OpType::kReadList) {
    // Every element takes at least two bytes (" e"), so a length the
    // line cannot hold is rejected before anything is allocated for it.
    if (n > line.size() / 2) return CodecStatus::Error("truncated list read");
    std::vector<Value> elems(n);
    size_t got = 0;
    while (got < n && TakeField(&line, " ", &elems[got])) ++got;
    if (got < n) return CodecStatus::Error("truncated list read");
    op.list_index = static_cast<uint32_t>(t->list_args.size());
    t->list_args.push_back(std::move(elems));
  }
  if (!line.empty()) return CodecStatus::Error("trailing bytes on op line");
  t->ops.push_back(op);
  return CodecStatus::Ok();
}

CodecStatus SaveHistory(const History& history, const std::string& path) {
  // Written tmp + fsync + rename so a crash mid-save leaves either the
  // previous file or the complete new one, never a torn prefix; the
  // footer lets LoadHistory reject a file truncated at a record boundary
  // (which would otherwise parse cleanly).
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  if (!f) return CodecStatus::Error("cannot open for write: " + tmp);
  const std::string count = std::to_string(history.txns.size());
  std::string buf = "chronos-history v1 sessions=" +
                    std::to_string(history.num_sessions) + " txns=" + count +
                    "\n";
  bool ok = true;
  auto write_buf = [&] {
    ok = fwrite(buf.data(), 1, buf.size(), f) == buf.size() && ok;
    buf.clear();
  };
  for (const Transaction& t : history.txns) {
    AppendTxnBlock(t, &buf);
    if (buf.size() >= (1 << 16)) write_buf();
  }
  buf += "# end txns=" + count + "\n";
  write_buf();
  ok = ok && fflush(f) == 0 && chronos_fsync(chronos_fileno(f)) == 0;
  ok = (fclose(f) == 0) && ok;
  if (!ok) {
    remove(tmp.c_str());
    return CodecStatus::Error("write failed: " + tmp);
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    remove(tmp.c_str());
    return CodecStatus::Error("rename failed: " + path);
  }
  return CodecStatus::Ok();
}

struct HistoryReader::Input {
  explicit Input(FILE* f) : file(f, fclose), lines(f) {}
  std::unique_ptr<FILE, int (*)(FILE*)> file;
  LineReader lines;
};

HistoryReader::HistoryReader() = default;
HistoryReader::~HistoryReader() = default;

bool HistoryReader::End(CodecStatus st) {
  status_ = std::move(st);
  done_ = true;
  in_.reset();
  return false;
}

CodecStatus HistoryReader::Open(const std::string& path) {
  path_ = path;
  done_ = false;
  FILE* f = fopen(path.c_str(), "r");
  if (!f) {
    End(CodecStatus::Error("cannot open for read: " + path));
    return status_;
  }
  in_ = std::make_unique<Input>(f);
  // An input that cannot seek (a pipe) reserves nothing and grows as
  // records arrive.
  if (fseek(f, 0, SEEK_END) == 0) {
    seekable_ = true;
    size_ = static_cast<uint64_t>(std::max(ftell(f), 0L));
    rewind(f);
  }
  std::string_view line;
  if (!in_->lines.Next(&line) ||
      !TakeField(&line, "chronos-history v1 sessions=", &num_sessions_) ||
      !TakeField(&line, " txns=", &declared_txns_) || !line.empty()) {
    End(CodecStatus::Error("bad header in " + path));
  }
  return status_;
}

bool HistoryReader::Next(Transaction* t) {
  if (done_) return false;
  LineReader& in = in_->lines;
  auto at_line = [&in](const std::string& what) {
    return CodecStatus::Error("line " + std::to_string(in.lines) + ": " +
                              what);
  };
  std::string_view line;
  // The footer is mandatory: without it, a file truncated exactly at a
  // record boundary is indistinguishable from a complete one.
  if (!in.Next(&line)) {
    return End(CodecStatus::Error(
        "missing end footer (truncated file?): " + path_));
  }
  if (!line.empty() && line[0] == '#') {
    uint64_t footer_txns = 0;
    if (!TakeField(&line, "# end txns=", &footer_txns) || !line.empty()) {
      return End(at_line("malformed footer"));
    }
    if (declared_txns_ != read_ || footer_txns != read_) {
      return End(CodecStatus::Error(
          "header declared " + std::to_string(declared_txns_) +
          " txns, footer " + std::to_string(footer_txns) + ", found " +
          std::to_string(read_)));
    }
    return End(CodecStatus::Ok());
  }
  ResetTxn(t);
  size_t nops = 0;
  CodecStatus st =
      ParseTxnLine(line, size_ - std::min(size_, in.consumed), t, &nops);
  for (size_t i = 0; st.ok && i < nops; ++i) {
    st = in.Next(&line) ? ParseOpLine(line, t)
                        : CodecStatus::Error("truncated operation list");
  }
  if (!st.ok) return End(at_line(st.message));
  ++read_;
  return true;
}

CodecStatus HistoryReader::ReadAll(History* out) {
  out->txns.clear();
  out->num_sessions = num_sessions_;
  out->txns.reserve(
      std::min<uint64_t>(declared_txns_ - std::min(declared_txns_, read_),
                         size_ / kMinTxnBlockBytes));
  Transaction t;
  while (Next(&t)) out->txns.push_back(std::move(t));
  return status_;
}

CodecStatus LoadHistory(const std::string& path, History* out) {
  out->txns.clear();
  out->num_sessions = 0;
  HistoryReader reader;
  if (!reader.Open(path).ok) return reader.status();
  return reader.ReadAll(out);
}

bool HistoryReader::ScanHeaders(
    const std::function<bool(const Transaction&, size_t nops)>& header,
    const std::function<void(const Transaction&)>& ops) {
  if (!in_ || !seekable_) return false;
  FILE* f = in_->file.get();
  // Next's LineReader holds what it has read past; only the file
  // position has to come back.
  const long resume_at = ftell(f);
  if (resume_at < 0 || fseek(f, 0, SEEK_SET) != 0) return false;
  LineReader in(f);
  std::string_view line;
  Transaction t;  // reused
  size_t nops = 0;
  while (in.NextMarked(&line) && line[0] != '#') {
    ResetTxn(&t);
    if (!ParseTxnLine(line, 0, &t, &nops).ok || !header(t, nops)) continue;
    bool parsed = true;
    for (size_t i = 0; parsed && i < nops; ++i) {
      parsed = in.Next(&line) && ParseOpLine(line, &t).ok;
    }
    if (parsed && ops) ops(t);
  }
  if (fseek(f, resume_at, SEEK_SET) != 0) {
    End(CodecStatus::Error("cannot seek back in " + path_));
  }
  return true;
}

}  // namespace chronos::hist
