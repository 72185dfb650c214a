// Clang thread-safety annotations (-Wthread-safety) for the concurrent
// parts of the pipeline, plus the annotated synchronization primitives
// the analysis needs to see through. Everything here compiles to nothing
// under non-Clang compilers; under Clang with -Wthread-safety the
// annotations turn the ownership rules that ROADMAP documents in prose
// (single-producer rings, caller-thread admission, barrier-gated shard
// state) into compile errors.
//
// Two kinds of capability are used:
//
//   - chronos::Mutex / chronos::MutexLock / chronos::CondVar: thin
//     annotated wrappers over the std primitives. The std types carry no
//     annotations under libstdc++, so GUARDED_BY members locked through
//     a bare std::lock_guard would produce false positives; routing all
//     lock acquisition through these wrappers is what lets the analysis
//     verify it. CondVar deliberately has no predicate overload: a
//     lambda does not inherit the caller's lock set, so wait loops are
//     written as explicit `while (!pred) cv.Wait(lock);` in the method
//     body where the analysis can see the lock.
//
//   - chronos::ThreadRole / chronos::AssumeRole: zero-size "role"
//     capabilities modelling thread ownership where there is no lock by
//     design (the SPSC ring sides, the caller-side and shard-worker-
//     owned state of ShardedAion, the DurableRunner driver thread).
//     A function REQUIRES the role of the state it touches; a thread's
//     entry loop (or a caller standing at a quiescent barrier) acquires
//     it with a scoped AssumeRole naming the same object expression.
//     AssumeRole is purely static — it has no runtime effect and cannot
//     detect two threads assuming one role — but it forces every access
//     site to carry a visible, greppable ownership marker, which is what
//     chronos_lint's ring-single-producer rule then restricts to the
//     approved functions (see ROADMAP "Static analysis").
#ifndef CHRONOS_CORE_THREAD_ANNOTATIONS_H_
#define CHRONOS_CORE_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define CHRONOS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CHRONOS_THREAD_ANNOTATION_(x)  // no-op on non-Clang
#endif

#define CHRONOS_CAPABILITY(x) CHRONOS_THREAD_ANNOTATION_(capability(x))
#define CHRONOS_SCOPED_CAPABILITY CHRONOS_THREAD_ANNOTATION_(scoped_lockable)
#define CHRONOS_GUARDED_BY(x) CHRONOS_THREAD_ANNOTATION_(guarded_by(x))
#define CHRONOS_PT_GUARDED_BY(x) CHRONOS_THREAD_ANNOTATION_(pt_guarded_by(x))
#define CHRONOS_REQUIRES(...) \
  CHRONOS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define CHRONOS_REQUIRES_SHARED(...) \
  CHRONOS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define CHRONOS_ACQUIRE(...) \
  CHRONOS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define CHRONOS_RELEASE(...) \
  CHRONOS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define CHRONOS_EXCLUDES(...) \
  CHRONOS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define CHRONOS_RETURN_CAPABILITY(x) \
  CHRONOS_THREAD_ANNOTATION_(lock_returned(x))
#define CHRONOS_NO_THREAD_SAFETY_ANALYSIS \
  CHRONOS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace chronos {

/// Annotated std::mutex. Prefer MutexLock over manual Lock/Unlock.
class CHRONOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CHRONOS_ACQUIRE() { mu_.lock(); }
  void Unlock() CHRONOS_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over an annotated Mutex (std::unique_lock underneath so
/// CondVar can wait on it).
class CHRONOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CHRONOS_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() CHRONOS_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable over an annotated Mutex. Wait/WaitFor atomically
/// release and reacquire the lock; the analysis does not model that
/// window, which is sound as long as callers re-check their predicate in
/// a loop (the only supported idiom — there is no predicate overload on
/// purpose, see the header comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  template <class Rep, class Period>
  void WaitFor(MutexLock& lock, const std::chrono::duration<Rep, Period>& d) {
    cv_.wait_for(lock.lock_, d);
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// A zero-size capability standing for "this thread owns that state".
/// Declared as a (usually public) member next to the state it guards;
/// see the header comment for the acquisition discipline.
class CHRONOS_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;
};

/// Statically assumes a ThreadRole for the current scope. Use at a
/// thread's entry loop (the thread IS the owner) or, with a comment
/// naming the happens-before edge, where a quiescent barrier hands
/// ownership across threads (e.g. ShardedAion's WaitAll).
class CHRONOS_SCOPED_CAPABILITY AssumeRole {
 public:
  explicit AssumeRole(const ThreadRole& role) CHRONOS_ACQUIRE(role) {
    (void)role;
  }
  ~AssumeRole() CHRONOS_RELEASE() {}

  AssumeRole(const AssumeRole&) = delete;
  AssumeRole& operator=(const AssumeRole&) = delete;
};

}  // namespace chronos

#endif  // CHRONOS_CORE_THREAD_ANNOTATIONS_H_
