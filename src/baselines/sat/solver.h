// A from-scratch CDCL-lite SAT solver (unit propagation with watched
// literals, first-UIP-free conflict handling via chronological
// backtracking, activity-based branching). Stands in for MonoSAT in the
// PolySI / Viper / Cobra baselines; the
// acyclicity theory is handled by a CEGAR loop around this solver.
#ifndef CHRONOS_BASELINES_SAT_SOLVER_H_
#define CHRONOS_BASELINES_SAT_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chronos::sat {

/// A literal: +v asserts variable v, -v negates it (v >= 1).
using Lit = int32_t;

/// CDCL-lite SAT solver. Add variables and clauses, then Solve();
/// repeated Solve() calls after adding clauses are supported
/// (incremental use by the CEGAR loop).
class Solver {
 public:
  /// Allocates a fresh variable, returning its index (>= 1).
  int NewVar();
  int NumVars() const { return static_cast<int>(assign_.size()) - 1; }

  /// Adds a clause (disjunction of literals). An empty clause makes the
  /// instance trivially unsatisfiable.
  void AddClause(std::vector<Lit> lits);

  enum class Result { kSat, kUnsat, kUnknown };

  /// Solves with a conflict budget (kUnknown when exhausted).
  Result Solve(uint64_t max_conflicts = 10000000);

  /// Model value of variable v after kSat.
  bool Value(int v) const { return assign_[static_cast<size_t>(v)] == 1; }

  /// Sets the initial decision phase of variable v (phases are also saved
  /// across restarts). Lets CEGAR callers seed the first model.
  void SetPhase(int v, bool value) { phase_[static_cast<size_t>(v)] = value; }

  size_t NumClauses() const { return clauses_.size(); }

 private:
  struct Clause {
    std::vector<Lit> lits;
  };

  enum : int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  size_t LitIndex(Lit l) const {
    int v = l > 0 ? l : -l;
    return static_cast<size_t>(v) * 2 + (l > 0 ? 0 : 1);
  }
  int8_t LitValue(Lit l) const {
    int8_t a = assign_[static_cast<size_t>(l > 0 ? l : -l)];
    if (a == kUndef) return kUndef;
    return (l > 0) == (a == kTrue) ? kTrue : kFalse;
  }
  void Enqueue(Lit l);
  bool Propagate(size_t* conflict_clause);
  void UndoTo(size_t trail_limit);

  std::vector<int8_t> assign_{kUndef};  // 1-indexed by variable
  std::vector<Clause> clauses_;
  std::vector<std::vector<size_t>> watches_{{}, {}};  // lit index -> clauses
  std::vector<Lit> trail_;
  std::vector<Lit> root_units_;
  std::vector<double> activity_{0.0};
  std::vector<bool> phase_{false};  // saved phase per variable
  size_t qhead_ = 0;
  bool unsat_ = false;
};

}  // namespace chronos::sat

#endif  // CHRONOS_BASELINES_SAT_SOLVER_H_
