#include "db/database.h"

#include <algorithm>

namespace chronos::db {

Database::Database(const DbConfig& config)
    : config_(config), fault_rng_(config.fault_seed) {
  if (config.timestamping == DbConfig::Timestamping::kCentralized) {
    oracle_ = std::make_unique<CentralizedOracle>();
  } else {
    std::vector<int64_t> skews(config.hlc_nodes, 0);
    for (uint32_t i = 0; i < config.hlc_nodes; ++i) {
      // Deterministic alternating skews in [-max, +max].
      int64_t magnitude =
          config.hlc_max_skew == 0
              ? 0
              : static_cast<int64_t>(i + 1) * config.hlc_max_skew /
                    static_cast<int64_t>(config.hlc_nodes);
      skews[i] = (i % 2 == 0) ? magnitude : -magnitude;
    }
    oracle_ = std::make_unique<HlcOracle>(config.hlc_nodes, std::move(skews));
  }
}

Database::~Database() = default;

bool Database::Flip(double prob, std::mt19937_64* rng) {
  if (prob <= 0) return false;
  return std::uniform_real_distribution<double>(0, 1)(*rng) < prob;
}

std::unique_ptr<Database::Txn> Database::Begin(SessionId sid) {
  auto txn = std::unique_ptr<Txn>(new Txn());
  txn->sid_ = sid;
  // Commit draws its timestamp and installs its writes under commit_mu_;
  // drawing the snapshot under the same lock means every commit ordered
  // before it is already visible to ReadAsOf (a lock-free draw could see
  // a smaller commit_ts whose writes are not yet applied).
  std::lock_guard<std::mutex> lock(commit_mu_);
  txn->start_ts_ = oracle_->Next(sid % std::max(1u, config_.hlc_nodes));
  return txn;
}

Value Database::Read(Txn* txn, Key key) {
  Value observed;
  if (Value* buffered = txn->write_buffer_.Find(key)) {
    observed = *buffered;  // reads own buffered write (Algorithm 1 READ)
  } else {
    bool stale = false;
    if (config_.faults.stale_read_prob > 0) {
      std::lock_guard<std::mutex> lock(commit_mu_);
      stale = Flip(config_.faults.stale_read_prob, &fault_rng_);
    }
    if (stale) {
      observed = store_.ReadStale(key, txn->start_ts_, config_.faults.stale_depth);
      ++fault_log_.stale_reads;
    } else {
      observed = store_.ReadAsOf(key, txn->start_ts_);
    }
    txn->read_keys_.push_back(key);
  }
  txn->recorded_ops_.push_back({OpType::kRead, key, observed, 0});
  return observed;
}

void Database::Write(Txn* txn, Key key, Value value) {
  txn->write_buffer_.Put(key, value);
  txn->recorded_ops_.push_back({OpType::kWrite, key, value, 0});
}

void Database::Append(Txn* txn, Key key, Value elem) {
  std::vector<Value>* pending = txn->append_buffer_.Find(key);
  if (!pending) {
    txn->append_buffer_.Put(key, {});
    pending = txn->append_buffer_.Find(key);
  }
  pending->push_back(elem);
  txn->recorded_ops_.push_back({OpType::kAppend, key, elem, 0});
}

std::vector<Value> Database::ReadList(Txn* txn, Key key) {
  std::vector<Value> observed = store_.ReadListAsOf(key, txn->start_ts_);
  if (const std::vector<Value>* pending = txn->append_buffer_.Find(key)) {
    observed.insert(observed.end(), pending->begin(), pending->end());
  } else {
    txn->read_keys_.push_back(key);
  }
  Op op;
  op.type = OpType::kReadList;
  op.key = key;
  op.list_index = static_cast<uint32_t>(txn->recorded_lists_.size());
  txn->recorded_ops_.push_back(op);
  txn->recorded_lists_.push_back(observed);
  return observed;
}

Database::CommitResult Database::Commit(std::unique_ptr<Txn> txn) {
  std::lock_guard<std::mutex> lock(commit_mu_);

  // First-committer-wins over the write set (Algorithm 1 line 11), unless
  // the lost-update fault suppresses validation for this commit.
  bool validate = !Flip(config_.faults.lost_update_prob, &fault_rng_);
  bool has_writes =
      !txn->write_buffer_.empty() || !txn->append_buffer_.empty();
  if (validate && has_writes) {
    for (const auto& [key, value] : txn->write_buffer_) {
      (void)value;
      if (store_.LatestCommitTs(key) > txn->start_ts_) {
        ++aborted_;
        return CommitResult::kAborted;
      }
    }
    for (const auto& [key, elems] : txn->append_buffer_) {
      (void)elems;
      if (store_.LatestCommitTs(key) > txn->start_ts_) {
        ++aborted_;
        return CommitResult::kAborted;
      }
    }
  } else if (!validate && has_writes) {
    ++fault_log_.lost_updates;
  }
  // SER: OCC read validation — any newer version of a read key aborts.
  if (config_.isolation == IsolationLevel::kSer) {
    for (Key key : txn->read_keys_) {
      if (store_.LatestCommitTs(key) > txn->start_ts_) {
        ++aborted_;
        return CommitResult::kAborted;
      }
    }
  }

  Timestamp cts;
  if (has_writes) {
    cts = oracle_->Next(txn->sid_ % std::max(1u, config_.hlc_nodes));
  } else {
    cts = txn->start_ts_;  // read-only: commit_ts == start_ts is allowed
  }

  for (const auto& [key, value] : txn->write_buffer_) {
    store_.ApplyWrite(key, cts, value);
  }
  for (const auto& [key, elems] : txn->append_buffer_) {
    for (Value e : elems) store_.ApplyAppend(key, cts, e);
  }

  // ---- Record the committed transaction (with recording faults). ----
  if (!config_.record_history) {
    next_sno_[txn->sid_]++;
    log_committed_unrecorded_++;
    return CommitResult::kCommitted;
  }
  Transaction rec;
  rec.tid = next_tid_++;
  rec.sid = txn->sid_;
  rec.sno = next_sno_[txn->sid_]++;
  rec.start_ts = txn->start_ts_;
  rec.commit_ts = cts;
  rec.ops = std::move(txn->recorded_ops_);
  rec.list_args = std::move(txn->recorded_lists_);

  const FaultConfig& f = config_.faults;
  if (Flip(f.early_commit_prob, &fault_rng_) && rec.commit_ts != rec.start_ts) {
    rec.commit_ts = rec.start_ts;
    ++fault_log_.early_commits;
  }
  if (Flip(f.late_start_prob, &fault_rng_) && rec.start_ts != rec.commit_ts) {
    rec.start_ts = rec.commit_ts;
    ++fault_log_.late_starts;
  }
  if (Flip(f.ts_swap_prob, &fault_rng_) && rec.start_ts < rec.commit_ts) {
    std::swap(rec.start_ts, rec.commit_ts);
    ++fault_log_.ts_swaps;
  }
  if (f.value_corruption_prob > 0) {
    for (Op& op : rec.ops) {
      if (op.type == OpType::kRead && Flip(f.value_corruption_prob, &fault_rng_)) {
        op.value += 1;
        ++fault_log_.value_corruptions;
      }
    }
  }
  if (Flip(f.session_reorder_prob, &fault_rng_)) {
    pending_reorder_[rec.sid] = true;
  } else if (pending_reorder_[rec.sid]) {
    // Swap this transaction's sno with the previous one in its session.
    for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
      if (it->sid == rec.sid) {
        std::swap(it->sno, rec.sno);
        ++fault_log_.session_reorders;
        break;
      }
    }
    pending_reorder_[rec.sid] = false;
  }

  log_.push_back(std::move(rec));
  return CommitResult::kCommitted;
}

History Database::ExportHistory() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  History h;
  h.txns = log_;
  SessionId max_sid = 0;
  for (const auto& t : log_) max_sid = std::max(max_sid, t.sid);
  h.num_sessions = log_.empty() ? 0 : max_sid + 1;
  return h;
}

size_t Database::CommittedCount() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return log_.size() + log_committed_unrecorded_;
}

size_t Database::AbortedCount() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return aborted_;
}

}  // namespace chronos::db
