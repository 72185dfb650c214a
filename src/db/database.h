// An in-memory transactional key-value database implementing the paper's
// Algorithm 1 (operational SI semantics): snapshot reads as of start_ts,
// buffered writes, first-committer-wins conflict detection, and a commit
// log. A SER mode additionally validates the read set at commit (OCC),
// so committed histories are serializable in commit-timestamp order.
//
// This is the substrate substituting for TiDB / YugabyteDB / Dgraph in
// the paper's evaluation.
#ifndef CHRONOS_DB_DATABASE_H_
#define CHRONOS_DB_DATABASE_H_

#include <memory>
#include <mutex>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/small_map.h"
#include "core/types.h"
#include "db/fault.h"
#include "db/mvcc_store.h"
#include "db/oracle.h"

namespace chronos::db {

/// Database configuration.
struct DbConfig {
  /// kSi or kSer: SER also validates the read set at commit.
  IsolationLevel isolation = IsolationLevel::kSi;

  enum class Timestamping { kCentralized, kHlc };
  Timestamping timestamping = Timestamping::kCentralized;
  uint32_t hlc_nodes = 3;
  /// Per-node physical-clock skew magnitude (node i gets a deterministic
  /// skew in [-hlc_max_skew, +hlc_max_skew]).
  int64_t hlc_max_skew = 0;

  FaultConfig faults;
  uint64_t fault_seed = 42;

  /// When false, committed transactions are not recorded to the history
  /// log (models running the database without checker collection; used
  /// by the Fig. 15 overhead bench).
  bool record_history = true;
};

/// The database. Thread-safe: sessions may run on separate threads, with
/// at most one open transaction per session at a time.
class Database {
 public:
  class Txn;

  explicit Database(const DbConfig& config);
  ~Database();

  /// Starts a transaction in `sid` (Algorithm 1 START).
  std::unique_ptr<Txn> Begin(SessionId sid);
  /// Snapshot-or-buffer read (Algorithm 1 READ); records the observation.
  Value Read(Txn* txn, Key key);
  /// Buffered write (Algorithm 1 WRITE).
  void Write(Txn* txn, Key key, Value value);
  /// Buffered list append.
  void Append(Txn* txn, Key key, Value elem);
  /// Snapshot-plus-buffer list read.
  std::vector<Value> ReadList(Txn* txn, Key key);

  enum class CommitResult { kCommitted, kAborted };
  /// Algorithm 1 COMMIT: first-committer-wins (plus read validation under
  /// SER). On success the transaction is appended to the history log.
  CommitResult Commit(std::unique_ptr<Txn> txn);

  /// Snapshot of the committed history (recording faults already applied).
  History ExportHistory() const;
  size_t CommittedCount() const;
  size_t AbortedCount() const;
  const FaultLog& fault_log() const { return fault_log_; }

 private:
  bool Flip(double prob, std::mt19937_64* rng);

  DbConfig config_;
  std::unique_ptr<TimestampOracle> oracle_;
  MvccStore store_;
  FaultLog fault_log_;

  mutable std::mutex commit_mu_;
  std::vector<Transaction> log_;
  std::unordered_map<SessionId, uint64_t> next_sno_;
  std::unordered_map<SessionId, bool> pending_reorder_;
  uint64_t next_tid_ = 1;
  uint64_t aborted_ = 0;
  uint64_t log_committed_unrecorded_ = 0;
  std::mt19937_64 fault_rng_;
};

/// Open-transaction handle. Not thread-safe (single session owner).
class Database::Txn {
 public:
  Timestamp start_ts() const { return start_ts_; }
  SessionId sid() const { return sid_; }

 private:
  friend class Database;
  SessionId sid_ = 0;
  Timestamp start_ts_ = 0;
  SmallMap<Key, Value> write_buffer_;
  SmallMap<Key, std::vector<Value>> append_buffer_;
  std::vector<Key> read_keys_;   // for SER OCC validation
  std::vector<Op> recorded_ops_;
  std::vector<std::vector<Value>> recorded_lists_;
};

}  // namespace chronos::db

#endif  // CHRONOS_DB_DATABASE_H_
