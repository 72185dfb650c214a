#include "online/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <string_view>

#include "core/state_io.h"
#include "hist/codec.h"

#ifdef _WIN32
#include <io.h>
#define chronos_fsync _commit
#define chronos_fileno _fileno
#else
#include <unistd.h>
#define chronos_fsync fsync
#define chronos_fileno fileno
#endif

namespace chronos::online {

namespace {

constexpr char kWalHeader[] = "chronos-wal v1\n";
constexpr uint64_t kCkptMagic = 0x43484B5054763201ULL;   // "CHKPTv2" + 1
constexpr uint64_t kCkptFooter = 0x454E44434B505401ULL;  // "ENDCKPT" + 1

bool ReadWholeFile(const std::string& path, std::string* out) {
  FILE* f = fopen(path.c_str(), "rb");
  if (!f) return false;
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  bool ok = !ferror(f);
  fclose(f);
  return ok;
}

// A WAL record's B line ("B <seq> T <now_ms> <gc> <gc_target> <shed>")
// and E line ("E <16 hex digits>"), at their longest.
constexpr size_t kStepLineBound = 4 + 5 * 21;
constexpr size_t kSumLineBytes = 19;

// Writes " <v>" at `p`; returns the end.
char* WriteU64(char* p, uint64_t v) {
  *p++ = ' ';
  return std::to_chars(p, p + 20, v).ptr;
}

// Writes "E <sum as 16 lowercase hex digits>\n" at `p`; returns the end.
char* WriteSumLine(char* p, uint64_t sum) {
  *p++ = 'E';
  *p++ = ' ';
  for (int i = 15; i >= 0; --i, sum >>= 4) p[i] = "0123456789abcdef"[sum & 15];
  p[16] = '\n';
  return p + 17;
}

bool Put(FILE* f, const std::string& bytes) {
  return fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
}

// tmp + fsync + rename: the destination either keeps its old content or
// holds the complete new content, never a torn prefix. `write` fills the
// tmp file.
template <typename Fn>
bool WriteFileAtomic(const std::string& path, Fn&& write) {
  std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = write(f) && fflush(f) == 0 &&
            chronos_fsync(chronos_fileno(f)) == 0;
  ok = (fclose(f) == 0) && ok;
  if (!ok) {
    remove(tmp.c_str());
    return false;
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// WalWriter

bool WalWriter::Open(const std::string& path, uint64_t truncate_to) {
  if (f_) return false;
  if (truncate_to > 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, truncate_to, ec);
    if (ec) return false;
  }
  f_ = fopen(path.c_str(), "ab");
  if (!f_) return false;
  long at = ftell(f_);
  if (at == 0) {
    if (fwrite(kWalHeader, 1, sizeof(kWalHeader) - 1, f_) !=
        sizeof(kWalHeader) - 1) {
      fclose(f_);
      f_ = nullptr;
      return false;
    }
  }
  return fflush(f_) == 0;
}

WalWriter::~WalWriter() {
  if (!f_) return;
  Flush();
  fclose(f_);
}

bool WalWriter::LogStep(uint64_t seq, uint64_t now_ms, bool gc,
                        uint64_t gc_target, bool shed, const Transaction& txn) {
  if (!f_) return false;
  // One pass into a buffer sized once: the B line, the block, the E line.
  const size_t at = pending_.size();
  pending_.resize(at + kStepLineBound + hist::TxnBlockBound(txn) +
                  kSumLineBytes);
  char* const record = &pending_[at];
  char* p = record;
  *p++ = 'B';
  p = WriteU64(p, seq);
  *p++ = ' ';
  *p++ = 'T';
  for (uint64_t v : {now_ms, uint64_t{gc}, gc_target, uint64_t{shed}}) {
    p = WriteU64(p, v);
  }
  *p++ = '\n';
  p = hist::WriteTxnBlock(txn, p);
  p = WriteSumLine(p, Fnv1a(record, static_cast<size_t>(p - record)));
  pending_.resize(at + static_cast<size_t>(p - record));
  return pending_.size() < kGroupBytes || Flush();
}

bool WalWriter::Flush() {
  if (!f_) return false;
  const bool ok = Put(f_, pending_) && fflush(f_) == 0;
  pending_.clear();
  return ok;
}

bool WalWriter::Sync() {
  return Flush() && chronos_fsync(chronos_fileno(f_)) == 0;
}

// ---------------------------------------------------------------------------
// ReadWal

bool ReadWal(const std::string& path,
             const std::function<void(const WalRecord&)>& on_record,
             uint64_t* valid_bytes) {
  *valid_bytes = 0;
  std::unique_ptr<FILE, int (*)(FILE*)> f(fopen(path.c_str(), "rb"),
                                          fclose);
  if (!f || fseek(f.get(), 0, SEEK_END) != 0) return false;
  // Bounds every reserve taken from a count in the file.
  const uint64_t size = static_cast<uint64_t>(std::max(ftell(f.get()), 0L));
  rewind(f.get());
  hist::LineReader in(f.get());
  std::string_view view;  // the header line lacks kWalHeader's '\n'
  if (!in.Next(&view) ||
      view != std::string_view(kWalHeader, sizeof(kWalHeader) - 2)) {
    return false;
  }
  *valid_bytes = in.consumed;
  // The current record's bytes from its 'B' line through its last body
  // line, newline included: what its E line's checksum covers.
  std::string record;
  std::string line;
  auto next = [&](bool summed) {
    if (!in.Next(&view)) return false;  // torn or end of file
    line.assign(view);
    if (summed) record.append(line).push_back('\n');
    return true;
  };
  for (;;) {
    record.clear();
    WalRecord rec;
    int gc = 0, shed = 0;
    size_t nops = 0;
    if (!next(true) ||
        sscanf(line.c_str(), "B %" SCNu64 " T %" SCNu64 " %d %" SCNu64 " %d",
               &rec.seq, &rec.now_ms, &gc, &rec.gc_target, &shed) != 5 ||
        !next(true) ||
        !hist::ParseTxnLine(line, size - std::min(size, in.consumed),
                            &rec.txn, &nops)
             .ok) {
      break;
    }
    rec.gc = gc != 0;
    rec.shed = shed != 0;
    bool body_ok = true;
    for (size_t i = 0; i < nops && body_ok; ++i) {
      body_ok = next(true) && hist::ParseOpLine(line, &rec.txn).ok;
    }
    uint64_t want = 0;
    if (!body_ok || !next(false) ||
        sscanf(line.c_str(), "E %" SCNx64, &want) != 1 ||
        Fnv1a(record.data(), record.size()) != want) {
      break;
    }
    on_record(rec);
    *valid_bytes = in.consumed;
  }
  return !ferror(f.get());
}

// ---------------------------------------------------------------------------
// CheckpointManager

CheckpointManager::CheckpointManager(std::string dir) : dir_(std::move(dir)) {
  for (const auto& [seq, path] : List(dir_)) {
    (void)path;
    if (seq >= next_seq_) next_seq_ = seq + 1;
  }
}

std::vector<std::pair<uint64_t, std::string>> CheckpointManager::List(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    int consumed = 0;
    if (sscanf(name.c_str(), "ckpt-%" SCNu64 ".ckpt%n", &seq, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      out.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool CheckpointManager::Write(const ShardedAion::StateImage& img,
                              uint64_t wal_seq, uint64_t events) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  char name[64];
  snprintf(name, sizeof(name), "/ckpt-%" PRIu64 ".ckpt", next_seq_);
  // Streamed piece by piece: the framing goes through `w`, which is
  // emptied into the file before each section, and every section is
  // written from the image itself rather than copied next to the rest.
  auto write = [&](FILE* f) {
    StateWriter w;
    w.U64(kCkptMagic);
    w.U64(next_seq_);
    w.U64(wal_seq);
    w.U64(events);
    w.U64(2 + img.shards.size());
    // Header checksum: the five leading u64s carry the replay metadata
    // (which WAL records the image covers) — a flipped bit there would
    // silently skip or double-replay records, so it must fail the load
    // just as loudly as a corrupt section.
    w.U64(Fnv1a(w.data().data(), w.data().size()));
    bool ok = true;
    auto section = [&](const std::string& s) {
      w.U64(s.size());
      ok = ok && Put(f, w.Take()) && Put(f, s);
      w.U64(Fnv1a(s.data(), s.size()));
    };
    section(img.ingress);
    section(img.coordinator);
    for (const std::string& s : img.shards) section(s);
    w.U64(kCkptFooter);
    return ok && Put(f, w.data());
  };
  if (!WriteFileAtomic(dir_ + name, write)) return false;
  ++next_seq_;

  auto all = List(dir_);
  while (all.size() > kKeep) {
    remove(all.front().second.c_str());
    all.erase(all.begin());
  }
  return true;
}

bool CheckpointManager::Load(const std::string& path, Loaded* out) {
  std::string data;
  if (!ReadWholeFile(path, &data)) return false;
  StateReader r(data);
  uint64_t magic = 0, nsections = 0, header_sum = 0;
  r.U64(magic);
  r.U64(out->ckpt_seq);
  r.U64(out->wal_seq);
  r.U64(out->events);
  r.U64(nsections);
  if (!r.ok() || magic != kCkptMagic || nsections < 2 || nsections > 2 + 64) {
    return false;
  }
  r.U64(header_sum);
  if (!r.ok() || header_sum != Fnv1a(data.data(), 40)) return false;
  auto section = [&r](std::string* s) {
    uint64_t sum = 0;
    r.Bytes(*s);
    r.U64(sum);
    return r.ok() && Fnv1a(s->data(), s->size()) == sum;
  };
  if (!section(&out->img.ingress) || !section(&out->img.coordinator)) {
    return false;
  }
  out->img.shards.resize(nsections - 2);
  for (std::string& s : out->img.shards) {
    if (!section(&s)) return false;
  }
  uint64_t footer = 0;
  r.U64(footer);
  if (footer != kCkptFooter || !r.ok() || !r.AtEnd()) return false;
  // The coordinator section leads with the shard count; cross-check it
  // against the section count so a truncated-and-repadded file can't
  // smuggle a mismatched geometry past the checksums.
  StateReader peek(out->img.coordinator);
  peek.U64(out->num_shards);
  return peek.ok() && out->num_shards == nsections - 2;
}

// ---------------------------------------------------------------------------
// DurableRunner

DurableRunner::DurableRunner(ShardedAion* checker, const Options& opts,
                             uint64_t start_seq, uint64_t start_events,
                             uint64_t wal_truncate_to)
    : checker_(checker),
      opts_(opts),
      ckpts_(opts.dir),
      next_seq_(start_seq),
      events_(start_events) {
  std::error_code ec;
  std::filesystem::create_directories(opts_.dir, ec);
  ok_ = wal_.Open(opts_.dir + "/wal.log", wal_truncate_to);
}

DurableRunner::~DurableRunner() { AwaitWrite(); }

bool DurableRunner::AwaitWrite() {
  if (!write_.valid()) return ok_;
  bool written = false;
  try {
    written = write_.get();
  } catch (const std::exception&) {
    // The write threw (allocation, directory listing): it failed like
    // any other, and the destructor must not rethrow it.
  }
  if (written) {
    ++checkpoints_;
  } else {
    ok_ = false;
  }
  return ok_;
}

bool DurableRunner::Checkpoint() {
  // At most one write in flight, so at most one image alive.
  if (!AwaitWrite()) return false;
  // The WAL must be durable up to the cut the image covers: otherwise a
  // crash could leave a checkpoint that references records the log lost.
  if (!wal_.Sync()) {
    ok_ = false;
    return false;
  }
  // The cut is an export command in every shard's stream: each worker
  // serializes its section when it reaches the command, while this
  // thread feeds on. The writer task collects the sections, then runs
  // the checksums, the file write, fsync, rename and retention, and
  // frees the image.
  write_ = std::async(
      std::launch::async,
      [this, pending = checker_->BeginExport(), wal_seq = next_seq_ - 1,
       events = events_]() mutable {
        const ShardedAion::StateImage img =
            checker_->CompleteExport(std::move(pending));
        return ckpts_.Write(img, wal_seq, events);
      });
  return true;
}

bool DurableRunner::Finish() {
  checker_->Finish();
  if (!wal_.Flush()) ok_ = false;
  return AwaitWrite();
}

bool DurableRunner::Feed(const Transaction& t, uint64_t now_ms) {
  if (!ok_) return false;
  checker_->OnTransaction(t, now_ms);
  ++events_;

  const bool gc = opts_.gc.Due(events_, *checker_);
  if (gc) checker_->GcToLiveTarget(opts_.gc.target_live);

  // Bounded-memory degradation, on a fixed cadence with the barrier-
  // exact footprint so the decision is a pure function of the event
  // prefix: GC as far as the safe watermark allows, then trim list
  // buffers below it.
  bool shed = false;
  if (opts_.memory_ceiling_bytes > 0 && events_ % kCeilingCheckEvery == 0 &&
      checker_->FootprintExact().approx_bytes > opts_.memory_ceiling_bytes) {
    shed = true;
    checker_->Gc(std::numeric_limits<Timestamp>::max());
    checker_->ShedMemory();
    ++sheds_;
  }

  // The whole step lands as one atomic record: a crash can lose the
  // step entirely (the caller refeeds it and the decisions above are
  // re-derived identically) but never split it.
  if (!wal_.LogStep(next_seq_, now_ms, gc, opts_.gc.target_live, shed, t)) {
    ok_ = false;
    return false;
  }
  ++next_seq_;

  if (shed) {
    if (!Checkpoint()) return false;  // persist the shrunken state
  } else if (opts_.checkpoint_every_events > 0 &&
             events_ % opts_.checkpoint_every_events == 0) {
    if (!Checkpoint()) return false;
  }
  return true;
}

}  // namespace chronos::online
