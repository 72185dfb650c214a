#include "hist/codec.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

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

// The scanner of the common lines. Each Scan* function reads a line at
// `p` that ends in a '\n' inside a LineReader's buffer and returns the
// byte after that '\n', or null for a line it does not take. Its loops
// stop at any byte that is not a digit, so they never pass the '\n';
// its loads stay inside the buffer's padding. It takes a subset of what
// ParseTxnLine/ParseOpLine accept: no iso= tag, no A or L op, and at
// most 19 digits a field, so no field can overflow. It parses each line
// it takes to the fields they give. Every other line goes to them, so
// the scanner never decides an error.
constexpr int kMaxScannedDigits = 19;

// 1 to kMaxScannedDigits decimal digits at `p` into *v.
const char* ScanDigits(const char* p, uint64_t* v) {
  const char* const first = p;
  uint64_t x = 0;
  for (unsigned d; (d = static_cast<unsigned char>(*p) - unsigned{'0'}) < 10;
       ++p) {
    x = x * 10 + d;
  }
  if (p == first || p - first > kMaxScannedDigits) return nullptr;
  *v = x;
  return p;
}

// " <digits>" at `p` into *v.
const char* ScanField(const char* p, uint64_t* v) {
  return *p == ' ' ? ScanDigits(p + 1, v) : nullptr;
}

// "T <tid> <sid> <sno> <start_ts> <commit_ts> <nops>\n".
const char* ScanTxnLine(const char* p, Transaction* t, size_t* nops) {
  uint64_t sid = 0, n = 0;
  if (*p != 'T' || !(p = ScanField(p + 1, &t->tid)) ||
      !(p = ScanField(p, &sid)) || sid > UINT32_MAX ||
      !(p = ScanField(p, &t->sno)) || !(p = ScanField(p, &t->start_ts)) ||
      !(p = ScanField(p, &t->commit_ts)) || !(p = ScanField(p, &n)) ||
      n > SIZE_MAX || *p != '\n') {
    return nullptr;
  }
  t->sid = static_cast<SessionId>(sid);
  *nops = static_cast<size_t>(n);
  return p + 1;
}

#ifdef __SSE2__
// The 8 bytes at `p`, the first in the low byte (SSE2 implies x86, which
// is little-endian).
uint64_t Load8(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// The value of the `n` (1 to 8) digits at `p`: their 8 bytes as digit
// values, the first `n` shifted to the top, then reduced by multiplies
// (the SWAR reduction of fast_float's parse_eight_digits).
uint64_t ShortFieldValue(const char* p, int n) {
  uint64_t d = (Load8(p) ^ 0x3030303030303030) << (64 - 8 * n);
  d = d * 10 + (d >> 8);
  return (((d & 0x000000FF000000FF) * 0x000F424000000064) +
          (((d >> 16) & 0x000000FF000000FF) * 0x0000271000000001)) >>
         32;
}

// An R or W line of at most 16 bytes with fields of at most 8 digits,
// which is nearly every op line: one 16-byte load marks its '\n',
// spaces and digits as bit masks, so no loop runs per digit and no
// branch depends on a field's length.
const char* ScanShortRegisterOp(const char* p, Op* op) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  auto mask = [&v](char c) {
    return static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(v, _mm_set1_epi8(c))));
  };
  const unsigned nl = mask('\n');
  if (nl == 0) return nullptr;
  const int end = __builtin_ctz(nl);
  const unsigned line = (1u << end) - 1;
  const unsigned spaces = mask(' ') & line;
  // The space after the key; any later one fails the digit check.
  const unsigned second = spaces & ~2u;
  if ((spaces & 2u) == 0 || second == 0) return nullptr;
  const int sep = __builtin_ctz(second);
  const bool negative = p[sep + 1] == '-';
  const int value_at = sep + 1 + negative;
  const __m128i d = _mm_sub_epi8(v, _mm_set1_epi8('0'));
  const auto digits = static_cast<unsigned>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(_mm_min_epu8(d, _mm_set1_epi8(9)), d)));
  const unsigned want =
      (((1u << sep) - 1) & ~3u) | (line & ~((1u << value_at) - 1));
  if ((*p != 'R' && *p != 'W') || sep < 3 || sep > 10 || value_at >= end ||
      end - value_at > 8 || (digits & want) != want) {
    return nullptr;
  }
  op->type = *p == 'W' ? OpType::kWrite : OpType::kRead;
  op->key = ShortFieldValue(p + 2, sep - 2);
  const auto magnitude =
      static_cast<Value>(ShortFieldValue(p + value_at, end - value_at));
  op->value = negative ? -magnitude : magnitude;
  return p + end + 1;
}
#endif

// "R <key> <value>\n" or "W <key> <value>\n", the value with an optional
// '-'.
const char* ScanRegisterOp(const char* p, Op* op) {
#ifdef __SSE2__
  if (const char* end = ScanShortRegisterOp(p, op)) return end;
#endif
  if (*p != 'R' && *p != 'W') return nullptr;
  op->type = *p == 'W' ? OpType::kWrite : OpType::kRead;
  uint64_t key = 0, magnitude = 0;
  if (!(p = ScanField(p + 1, &key)) || *p != ' ') return nullptr;
  const bool negative = p[1] == '-';
  if (!(p = ScanDigits(p + 1 + negative, &magnitude)) || *p != '\n' ||
      magnitude > static_cast<uint64_t>(INT64_MAX)) {
    return nullptr;
  }
  op->key = key;
  op->value = negative ? -static_cast<Value>(magnitude)
                       : static_cast<Value>(magnitude);
  return p + 1;
}

// The first `c` in [s, e), or null.
const char* Find(const char* s, const char* e, char c) {
  return static_cast<const char*>(
      std::memchr(s, c, static_cast<size_t>(e - s)));
}

// Empties a reused transaction for the next parse: ParseTxnLine sets
// every header field but the optional iso tag. The op vector keeps its
// capacity, so a recycled transaction parses without a malloc.
void ResetTxn(Transaction* t) {
  t->ops.clear();
  t->list_args.clear();
  t->iso = IsolationLevel::kUnspecified;
}

// Takes the reader's next line as `t`'s T line when the scanner takes it
// from the buffer's whole lines: resets `t` for it and sets `*nops`.
// False, with nothing read, for any other line, which the caller hands
// to ParseTxnLine (or reads as the footer).
bool TakeTxnLine(LineReader* in, Transaction* t, size_t* nops) {
  if (in->pos == in->whole) return false;
  const char* const p = in->data() + in->pos;
  const char* const end = ScanTxnLine(p, t, nops);
  if (end == nullptr) return false;
  ResetTxn(t);
  const auto len = static_cast<size_t>(end - p);
  in->pos += len;
  in->consumed += len;
  ++in->lines;
  return true;
}

// Reads `nops` op lines into `t`: each run of whole lines in the buffer
// that the scanner takes straight from the bytes, and every other line
// through ParseOpLine, whose error is the result.
CodecStatus ReadOps(LineReader* in, size_t nops, Transaction* t) {
  Op op;
  for (size_t i = 0; i < nops;) {
    const char* const b = in->data();
    const char* const whole = b + in->whole;
    const char* const run = b + in->pos;
    const char* p = run;
    const size_t first = i;
    for (const char* next; i < nops && p < whole &&
                           (next = ScanRegisterOp(p, &op)) != nullptr;
         p = next, ++i) {
      t->ops.push_back(op);
    }
    const auto len = static_cast<size_t>(p - run);
    in->pos += len;
    in->consumed += len;
    in->lines += i - first;
    if (i == nops) break;
    std::string_view line;
    if (!in->Next(&line)) {
      return CodecStatus::Error("truncated operation list");
    }
    CodecStatus st = ParseOpLine(line, t);
    if (!st.ok) return st;
    ++i;
  }
  return CodecStatus::Ok();
}

}  // namespace

bool LineReader::NextMarked(std::string_view* line) {
  size_t from = pos;  // the bytes before `from` hold no marked line
  for (;;) {
    if (pos < size && (buf[pos] == 'T' || buf[pos] == '#')) {
      return Next(line);
    }
    const char* b = data();
    const char* e = b + size;
    const char* s = b + std::min(std::max(from, pos + 1), size);
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
    if (whole > pos) {
      consumed += whole - pos;
      pos = whole;
    }
    from = size - pos;
    if (!Fill()) return false;
  }
}

bool LineReader::Seek(uint64_t offset) {
  pos = size = whole = 0;
  consumed = offset;
  return offset <= static_cast<uint64_t>(LONG_MAX) &&
         fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
}

bool LineReader::Fill() {
  const size_t have = size - pos;
  if (have == cap) {
    // One line fills the buffer (or there is none yet): grow it.
    const size_t grown = std::max(kBlockBytes, 2 * cap);
    std::unique_ptr<char[]> bigger(new char[grown + kPadBytes]);
    if (have > 0) std::memcpy(bigger.get(), buf.get() + pos, have);
    buf = std::move(bigger);
    cap = grown;
  } else if (have > 0) {
    std::memmove(buf.get(), buf.get() + pos, have);
  }
  pos = 0;
  size = have + fread(buf.get() + have, 1, cap - have, f);
  std::memset(buf.get() + size, 0, kPadBytes);
  whole = size;
  while (whole > 0 && buf[whole - 1] != '\n') --whole;
  return size != have;
}

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
  size_t nops = 0;
  CodecStatus st;
  if (TakeTxnLine(&in, t, &nops)) {
    // ParseTxnLine's reserve, bounded the same way.
    t->ops.reserve(static_cast<size_t>(std::min<uint64_t>(
        nops, (size_ - std::min(size_, in.consumed)) / kMinOpLineBytes)));
  } else {
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
    st = ParseTxnLine(line, size_ - std::min(size_, in.consumed), t, &nops);
  }
  if (st.ok) st = ReadOps(&in, nops, t);
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
  // The pass runs on Next's reader, from the file's first byte; Next then
  // reads on from its line, from the file as it is after the pass.
  LineReader& in = in_->lines;
  const uint64_t resume_at = in.consumed;
  const uint64_t lines = in.lines;
  if (!in.Seek(0)) {
    End(CodecStatus::Error("cannot seek in " + path_));
    return true;
  }
  std::string_view line;
  Transaction t;  // reused
  while (in.NextMarked(&line) && line[0] != '#') {
    ResetTxn(&t);
    size_t nops = 0;
    // The line's '\n' follows it in the buffer, where the scanner stops.
    if (ScanTxnLine(line.data(), &t, &nops) == nullptr &&
        !ParseTxnLine(line, 0, &t, &nops).ok) {
      continue;
    }
    if (header(t, nops) && ReadOps(&in, nops, &t).ok && ops) ops(t);
  }
  in.lines = lines;
  if (!in.Seek(resume_at)) {
    End(CodecStatus::Error("cannot seek back in " + path_));
  }
  return true;
}

}  // namespace chronos::hist
