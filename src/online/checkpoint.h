// Crash-safe durability for the online checker: periodic checkpoints of
// the full ShardedAion state plus a write-ahead log of input events, so
// a killed checker process resumes verdict-identical to an uninterrupted
// run (see ROADMAP "Checkpoint & recovery").
//
// Determinism basis: every verdict, stat and watermark of the checker is
// a pure function of the arrival sequence (transaction, now_ms) and the
// driver's GC/shed decisions, all of which the WAL records. A checkpoint
// is therefore an image of one cut in that sequence: the caller
// serializes its sections at the cut and stages an export command in
// every shard's stream, and each worker serializes its section when it
// reaches the command (ShardedAion::BeginExport). Recovery = newest
// valid checkpoint + WAL replay of the records past its cut.
//
// Checkpoint file (ckpt-<seq>.ckpt, binary, written tmp+fsync+rename
// piece by piece, straight from the image's sections):
//   u64 magic | u64 ckpt_seq | u64 wal_seq | u64 events | u64 nsections
//   u64 fnv1a(previous 40 bytes)      header checksum (replay metadata)
//   per section: u64 len | bytes | u64 fnv1a(bytes)
//   u64 footer magic
// Sections are [ingress, coordinator, shard 0..N-1] in StateImage order;
// the coordinator section begins with the shard count, so recovery can
// size the checker without being told --shards. Each section's layout is
// stated once, by the components' Transfer functions (core/state_io.h);
// the format is still v2 ("CHKPTv2"). A checksum proves only that the
// bytes are the ones written, so the import bounds every count by the
// bytes left and checks offsets and enum fields: a checksum-valid but
// malformed section fails the import like a corrupt one. The two newest
// checkpoints are retained: a torn, corrupt or unimportable newest file
// falls back to its predecessor (plus a longer WAL replay).
//
// WAL (wal.log, text, one record per Feed step):
//   chronos-wal v1
//   B <seq> T <now_ms> <gc> <gc_target> <shed>
//   T <tid> <sid> <sno> ...     transaction block, written and parsed by
//   R|W|A|L ...                 hist/codec.h (iso= tag included)
//   E <fnv1a-hex>               checksum of the record body ('B'..'\n')
// Older WALs lack `iso=` and replay untagged; untagged records are
// unchanged, so the header stays `chronos-wal v1`.
// One record describes EVERYTHING the runner did for one arrival: feed
// the transaction, then (gc=1) GcToLiveTarget(gc_target), then (shed=1)
// the ceiling shed (max GC + list-buffer trim). The record is encoded
// AFTER those decisions, so the file holds either the whole step or
// none of it — there is no window where replay would feed the arrival
// but lose its GC/shed, which would fork the recovered state from the
// uninterrupted run.
// Whole records are written in groups: once WalWriter::kGroupBytes are
// pending, at every checkpoint cut (then fsynced, before the image is
// taken), at Finish and in the runner's destructor. No step is fsynced
// on its own, and a process crash loses the steps since the last group
// write. Steps lost that way are refed by the caller from its input, by
// count, like the step a crash interrupts; their decisions are
// re-derived deterministically (the GC cadence from the event count,
// the shed from the barrier-exact footprint). A record is torn only by a
// crash in the middle of a write: a torn tail (partial record, bad
// checksum) ends replay at the last valid record, and recovery
// truncates the file there before appending.
#ifndef CHRONOS_ONLINE_CHECKPOINT_H_
#define CHRONOS_ONLINE_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"
#include "core/types.h"
#include "online/sharded_aion.h"

namespace chronos::online {

/// One parsed WAL record: a full Feed step.
struct WalRecord {
  uint64_t seq = 0;
  uint64_t now_ms = 0;
  Transaction txn;
  bool gc = false;          ///< GcToLiveTarget(gc_target) after the feed
  uint64_t gc_target = 0;
  bool shed = false;        ///< ceiling shed (max GC + trim) after that
};

/// Appends checksummed records to a WAL file. Not thread-safe; owned by
/// the driver thread. Records are encoded into a pending buffer and
/// written whole, in groups: when kGroupBytes are pending, at Flush and
/// Sync, and in the destructor.
class WalWriter {
 public:
  static constexpr size_t kGroupBytes = 64 << 10;

  WalWriter() = default;
  WalWriter(const WalWriter&) = delete;  // one owner writes the file
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for append, writing the header when the file is new
  /// (or empty). `truncate_to` > 0 first truncates the file to that many
  /// bytes — recovery uses it to drop a torn tail before resuming.
  bool Open(const std::string& path, uint64_t truncate_to = 0);
  /// Writes the pending records, then closes the file.
  ~WalWriter();

  /// Appends one step's record to the pending group, writing the group
  /// to the OS once it holds kGroupBytes. False when that write fails.
  bool LogStep(uint64_t seq, uint64_t now_ms, bool gc, uint64_t gc_target,
               bool shed, const Transaction& txn);
  bool LogStep(const WalRecord& rec) {
    return LogStep(rec.seq, rec.now_ms, rec.gc, rec.gc_target, rec.shed,
                   rec.txn);
  }
  /// Writes the pending records to the OS.
  bool Flush();
  /// Flush, then fsync (checkpoint boundaries).
  bool Sync();

 private:
  FILE* f_ = nullptr;
  std::string pending_;  ///< whole records not yet written
};

/// Parses a WAL file record by record, holding only the current record,
/// and hands each valid record to `on_record` in order. `valid_bytes`
/// receives the file offset just past the last valid record (the
/// truncation point for resuming). Returns false when the file cannot be
/// opened, its header is wrong or a read fails (records before a failed
/// read have been handed over) — a torn tail is a normal, expected
/// outcome, not an error.
bool ReadWal(const std::string& path,
             const std::function<void(const WalRecord&)>& on_record,
             uint64_t* valid_bytes);

/// Checkpoint writer/loader for one durability directory.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir);

  /// Checkpoints kept: a torn or corrupt newest one falls back to its
  /// predecessor.
  static constexpr size_t kKeep = 2;

  /// Writes `img` as the next checkpoint (tmp + fsync + rename), then
  /// prunes to the kKeep newest. `wal_seq` is the last WAL record the
  /// image covers and `events` the arrival count it covers.
  bool Write(const ShardedAion::StateImage& img, uint64_t wal_seq,
             uint64_t events);

  uint64_t next_seq() const { return next_seq_; }
  const std::string& dir() const { return dir_; }

  /// A successfully parsed and checksum-verified checkpoint.
  struct Loaded {
    ShardedAion::StateImage img;
    uint64_t ckpt_seq = 0;
    uint64_t wal_seq = 0;
    uint64_t events = 0;
    size_t num_shards = 0;
  };
  /// Strict load: any framing, length or checksum mismatch fails.
  static bool Load(const std::string& path, Loaded* out);

  /// (seq, path) of every ckpt-<seq>.ckpt in `dir`, ascending by seq.
  static std::vector<std::pair<uint64_t, std::string>> List(
      const std::string& dir);

 private:
  std::string dir_;
  uint64_t next_seq_ = 1;
};

/// Drives a ShardedAion durably: every Feed step (arrival + GcPolicy
/// decision + ceiling decision) becomes one atomic WAL record, checkpoints are
/// cut every `checkpoint_every_events` arrivals, and when
/// `memory_ceiling_bytes` is exceeded the runner GCs, sheds list memory
/// (the bounded-memory degradation path), and checkpoints the shrunken
/// state. A kill at any byte of this sequence recovers
/// verdict-identical via Recover() (online/recovery.h).
///
/// A checkpoint is cut on the driver thread (WAL group write + fsync,
/// then ShardedAion::BeginExport, which stages an export command in
/// every shard's stream and serializes the caller's sections) and
/// finished by a background task: it collects the shard sections as the
/// workers pass their export commands (CompleteExport), then writes the
/// file, at most one at a time: the next cut, Finish and the destructor
/// wait for the write in flight. The task reads the checker, so the
/// checker must outlive the runner. A crash before the rename leaves the
/// previous checkpoint newest, which only lengthens the WAL replay. A
/// failed write makes ok() false; the step that cuts the next
/// checkpoint, or Finish, reports it.
class DurableRunner {
 public:
  /// Ceiling checks run every this-many events with the barrier-exact
  /// footprint: the check is deterministic (so replay and refeed make
  /// the same shed decisions) at the cost of one pipeline drain per
  /// check; the footprint can overshoot the ceiling by at most the
  /// growth of one check interval.
  static constexpr size_t kCeilingCheckEvery = 16;

  struct Options {
    std::string dir;                     ///< checkpoints + wal.log
    uint64_t checkpoint_every_events = 0;  ///< 0: only ceiling checkpoints
    /// Collection after each arrival (default: never). The WAL records
    /// the decision, so replay repeats it; a `max_live` trigger polls
    /// the checker's estimated footprint, so only fixed cadences
    /// (GcPolicy::Every) re-derive identically when a lost step is
    /// refed.
    GcPolicy gc;
    size_t memory_ceiling_bytes = 0;     ///< 0: no ceiling
  };

  /// `start_seq`/`start_events` resume the WAL numbering after recovery
  /// (1/0 for a fresh run). `wal_truncate_to` drops a torn tail first.
  /// `checker` must outlive the runner.
  DurableRunner(ShardedAion* checker, const Options& opts,
                uint64_t start_seq = 1, uint64_t start_events = 0,
                uint64_t wal_truncate_to = 0);
  /// Waits for the checkpoint write in flight, if any, then writes the
  /// WAL's pending records.
  ~DurableRunner();
  DurableRunner(const DurableRunner&) = delete;  // the writer holds `this`
  DurableRunner& operator=(const DurableRunner&) = delete;

  /// Capability of the single driver thread. The runner is not
  /// thread-safe by design (the WAL sequence numbers and the checker's
  /// coordinator API both assume one caller); a driver assumes this role
  /// once and makes every Feed/Checkpoint/Finish call under it.
  ThreadRole driver_role;

  /// Feeds one arrival, runs the GC cadence and the ceiling check, logs
  /// the whole step as one atomic WAL record, then runs the checkpoint
  /// cadence. Returns false on an I/O failure.
  bool Feed(const Transaction& t, uint64_t now_ms)
      CHRONOS_REQUIRES(driver_role);

  /// Cuts a checkpoint now and hands it to the background writer (also
  /// used by tests to force boundaries). Returns false when the cut, or
  /// the previous checkpoint's write, failed.
  bool Checkpoint() CHRONOS_REQUIRES(driver_role);

  /// Finalizes the checker (end of stream; not WAL-logged), writes the
  /// WAL's pending records and waits for the last checkpoint write.
  /// Returns false if any write failed.
  bool Finish() CHRONOS_REQUIRES(driver_role);

  bool ok() const { return ok_; }
  uint64_t events() const CHRONOS_REQUIRES_SHARED(driver_role) {
    return events_;
  }
  uint64_t next_seq() const CHRONOS_REQUIRES_SHARED(driver_role) {
    return next_seq_;
  }
  /// Checkpoints known to have landed (a write in flight counts once
  /// the next Checkpoint or Finish has waited for it).
  uint64_t checkpoints_written() const { return checkpoints_; }
  uint64_t sheds() const { return sheds_; }

 private:
  /// Waits for the write in flight, if any, and folds its outcome into
  /// ok_ and checkpoints_. Returns ok_.
  bool AwaitWrite();

  ShardedAion* checker_;
  Options opts_;
  /// Used only by the write in flight while there is one; the driver
  /// touches it again only after AwaitWrite.
  CheckpointManager ckpts_;
  WalWriter wal_;
  uint64_t next_seq_ CHRONOS_GUARDED_BY(driver_role) = 1;
  uint64_t events_ CHRONOS_GUARDED_BY(driver_role) = 0;
  uint64_t checkpoints_ = 0;
  uint64_t sheds_ = 0;
  bool ok_ = true;
  std::future<bool> write_;  ///< the checkpoint write in flight, if valid
};

}  // namespace chronos::online

#endif  // CHRONOS_ONLINE_CHECKPOINT_H_
