// Fundamental types shared by every checker: transaction identifiers,
// timestamps, operations, transactions, and histories (paper Defs. 1-2).
#ifndef CHRONOS_CORE_TYPES_H_
#define CHRONOS_CORE_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace chronos {

/// Unique transaction identifier (`T.tid` in the paper).
using TxnId = uint64_t;
/// Session identifier (`T.sid`).
using SessionId = uint32_t;
/// Timestamps issued by the database's time oracle. Totally ordered and,
/// across distinct transactions, unique (paper Sec. II-A).
using Timestamp = uint64_t;
/// Keys of the key-value store.
using Key = uint64_t;
/// Register values. `kValueInit` is the value written by the implicit
/// initial transaction that initializes every key (paper's bottom-T).
using Value = int64_t;

/// Value of every key before any transaction writes it.
inline constexpr Value kValueInit = 0;
/// The artificial "bottom" value used internally to mean "never accessed"
/// (paper's bottom-v, which is not a member of V).
inline constexpr Value kValueBottom = std::numeric_limits<Value>::min();
/// The minimum timestamp (paper's bottom-ts); no real event uses it.
inline constexpr Timestamp kTsMin = 0;
/// Sentinel for "no transaction".
inline constexpr TxnId kTxnNone = std::numeric_limits<TxnId>::max();

/// Per-transaction isolation level. Histories may mix levels freely
/// (mixed-levels checking, Bouajjani et al.); `kUnspecified` means "use
/// the run-level default" (CheckerOptions::mode) and is what every
/// pre-existing history deserializes to, so untagged inputs behave
/// exactly as before. The per-level checking rules (which timestamps
/// register for uniqueness, which frontier a read is evaluated against)
/// are documented in ROADMAP.md "Mixed isolation levels".
enum class IsolationLevel : uint8_t {
  kUnspecified = 0,  ///< run-level default (CheckerOptions::mode)
  kSer = 1,          ///< serializability: commit-order reads
  kSi = 2,           ///< snapshot isolation: snapshot reads at start_ts
  kRc = 3,           ///< read committed: per-operation committed recency
  kRa = 4,           ///< read atomic: committed recency + atomic writers
};

/// Canonical lowercase spelling ("ser", "si", "rc", "ra"); kUnspecified
/// renders as "default".
const char* IsolationLevelName(IsolationLevel level);

/// Inverse of IsolationLevelName for the four concrete levels. Returns
/// false on any other spelling (callers report their own error).
bool IsolationLevelFromName(const std::string& name, IsolationLevel* out);

/// Kind of a key-value operation.
enum class OpType : uint8_t {
  kRead,        ///< R(k, v): read v from register k.
  kWrite,       ///< W(k, v): write v to register k.
  kAppend,      ///< A(k, e): append element e to list k (list histories).
  kReadList,    ///< L(k, [e...]): read the whole list k (list histories).
};

/// One operation of a transaction. Register ops use `value`; list reads
/// store their observed elements out-of-line in `Transaction::list_args`
/// (indexed by `list_index`) so that Op stays POD-small.
struct Op {
  OpType type = OpType::kRead;
  Key key = 0;
  Value value = kValueInit;   ///< value read/written/appended
  uint32_t list_index = 0;    ///< for kReadList: index into list_args
};

/// A committed transaction as recorded in a history (paper Sec. III-B1).
/// Only committed transactions appear in histories (Sec. IV-B).
struct Transaction {
  TxnId tid = 0;
  SessionId sid = 0;
  uint64_t sno = 0;            ///< sequence number within its session
  Timestamp start_ts = 0;      ///< `T.start_ts`
  Timestamp commit_ts = 0;     ///< `T.commit_ts`
  std::vector<Op> ops;         ///< operations in program order
  /// Observed list contents for kReadList ops (indexed by Op::list_index).
  std::vector<std::vector<Value>> list_args;
  /// Isolation level this transaction ran under; kUnspecified defers to
  /// the run-level default. Serialized as the optional `iso=` field of
  /// the history codec.
  IsolationLevel iso = IsolationLevel::kUnspecified;

  /// True iff Eq. (1) of the paper holds: start_ts <= commit_ts.
  bool TimestampsOrdered() const { return start_ts <= commit_ts; }
};

/// A history: a set of transactions plus the session order, which is
/// encoded by (sid, sno) pairs (paper Def. 2). Transactions of a session
/// are totally ordered by `sno`, starting at 0.
struct History {
  std::vector<Transaction> txns;
  uint32_t num_sessions = 0;

  size_t NumOps() const {
    size_t n = 0;
    for (const auto& t : txns) n += t.ops.size();
    return n;
  }
};

/// True when any transaction carries an explicit isolation level (the
/// signal that per-transaction dispatch, the mixed offline mirror, and
/// the differ's level gating apply; untagged histories take the fast
/// single-level paths unchanged).
bool HistoryHasLevelTags(const History& h);

/// True when any transaction has a list op (kAppend or kReadList).
bool HistoryHasListOps(const History& h);

/// The offline checkers' dispatch rule: a history with iso= tags and no
/// list ops is checked per transaction level (ChronosMixed); every other
/// history is checked at one level, lists always at SI (Chronos).
bool NeedsMixedLevelCheck(const History& h);

/// Returns a short human-readable description of an operation.
std::string ToString(const Op& op);

}  // namespace chronos

#endif  // CHRONOS_CORE_TYPES_H_
