#ifndef ODYSSEY_COMMON_SYNC_H_
#define ODYSSEY_COMMON_SYNC_H_

/// The one place in this codebase that is allowed to name std::mutex,
/// std::condition_variable or std::thread (tools/lint_odyssey.py enforces
/// it). Everything else locks through the capability-annotated wrappers
/// below, so Clang's Thread Safety Analysis (-Wthread-safety, a hard CI
/// gate) can prove at compile time that every ODYSSEY_GUARDED_BY field is
/// only touched with its mutex held and every ODYSSEY_REQUIRES helper is
/// only called from under the right lock. On compilers without the
/// analysis (gcc) the annotation macros expand to nothing and the wrappers
/// compile to exactly the std primitives they hold — every member function
/// is defined inline in this header, so the annotated layer adds zero
/// overhead to the locking hot paths.
///
/// Annotation cheat-sheet (see ARCHITECTURE.md "Locking discipline" for
/// the per-mutex capability table):
///   ODYSSEY_GUARDED_BY(mu)   field access requires mu held
///   ODYSSEY_REQUIRES(mu)     function must be called with mu held
///   ODYSSEY_EXCLUDES(mu)     function must be called with mu NOT held
///   ODYSSEY_ACQUIRE/RELEASE  function takes/drops mu (Mutex internals)
///
/// Fields that are *not* protected by any mutex but by a publication
/// protocol (written single-threaded before an epoch/phase begins, then
/// read-only while threads run — e.g. NodeRuntime's per-epoch pointers)
/// cannot be expressed to the analysis; they carry an explicit
/// "epoch-owned"/"phase-owned" comment at the declaration instead of a
/// GUARDED_BY, and the mutex release/acquire that publishes them is named
/// there.

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

// ---------------------------------------------------------------- macros
//
// Thin spellings of Clang's thread-safety attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), no-ops on
// other compilers. The set mirrors absl/base/thread_annotations.h.

#if defined(__clang__)
#define ODYSSEY_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define ODYSSEY_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

/// Declares a type to be a lockable capability ("mutex" names it in
/// diagnostics).
#define ODYSSEY_CAPABILITY(x) ODYSSEY_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define ODYSSEY_SCOPED_CAPABILITY ODYSSEY_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be accessed while holding `x`.
#define ODYSSEY_GUARDED_BY(x) ODYSSEY_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding `x`.
#define ODYSSEY_PT_GUARDED_BY(x) ODYSSEY_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the capability (or capabilities) to be held on entry
/// and does not release them.
#define ODYSSEY_REQUIRES(...) \
  ODYSSEY_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard
/// for functions that acquire it themselves).
#define ODYSSEY_EXCLUDES(...) \
  ODYSSEY_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and holds it past return.
#define ODYSSEY_ACQUIRE(...) \
  ODYSSEY_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define ODYSSEY_RELEASE(...) \
  ODYSSEY_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define ODYSSEY_TRY_ACQUIRE(result, ...) \
  ODYSSEY_THREAD_ANNOTATION__(try_acquire_capability(result, __VA_ARGS__))

/// Documents lock-ordering: this capability must be acquired after `...`.
#define ODYSSEY_ACQUIRED_AFTER(...) \
  ODYSSEY_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Documents lock-ordering: this capability must be acquired before `...`.
#define ODYSSEY_ACQUIRED_BEFORE(...) \
  ODYSSEY_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

/// Escape hatch. Deliberately unused in src/ (the CI gate builds with zero
/// suppressions); kept so out-of-tree experiments have a spelled-out exit.
#define ODYSSEY_NO_THREAD_SAFETY_ANALYSIS \
  ODYSSEY_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace odyssey {

// ----------------------------------------------------------------- Mutex

/// std::mutex with the lockable-capability annotation. Same semantics,
/// same size, fully inline — the annotations are compile-time only.
class ODYSSEY_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ODYSSEY_ACQUIRE() { mu_.lock(); }
  void Unlock() ODYSSEY_RELEASE() { mu_.unlock(); }
  bool TryLock() ODYSSEY_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock — the only way most code should take a Mutex. Scoped
/// acquisition is what lets the analysis verify release on every path.
class ODYSSEY_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ODYSSEY_ACQUIRE(mu) : mu_(mu) { mu->Lock(); }
  ~MutexLock() ODYSSEY_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// ---------------------------------------------------------------- CondVar

/// Condition variable bound to annotated Mutexes (absl-style interface:
/// the mutex is an explicit argument, so Wait can carry the REQUIRES
/// annotation std::condition_variable's unique_lock interface cannot).
/// Wait atomically releases and reacquires the mutex exactly like
/// std::condition_variable::wait; the analysis treats the capability as
/// held throughout, which matches what the caller may assume about its
/// guarded data before and after the call.
///
/// Deliberately predicate-less: callers write the classic explicit loop
///     while (!condition) cv.Wait(&mu);
/// so the condition's guarded-field reads sit in the caller's scope, where
/// the analysis can see the lock is held. (A predicate lambda would need
/// its own capability annotation and would be invoked from inside the
/// un-analyzed standard library.)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Spurious wakeups happen; always re-check the
  /// condition in a loop.
  void Wait(Mutex* mu) ODYSSEY_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still holds the capability
  }

  /// Timed wait. Returns true when the deadline passed (like
  /// absl::CondVar::WaitWithDeadline); false means notified (or a spurious
  /// wakeup) — re-check the condition either way.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex* mu,
                 std::chrono::time_point<Clock, Duration> deadline)
      ODYSSEY_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const bool timed_out =
        cv_.wait_until(lock, deadline) == std::cv_status::timeout;
    lock.release();
    return timed_out;
  }

  /// Timed wait relative to now; same contract as WaitUntil. When looping,
  /// prefer WaitUntil with a precomputed deadline so retries don't extend
  /// the total wait.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      ODYSSEY_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ----------------------------------------------------------- CountedThread

/// The only sanctioned way to start a dedicated thread. Spawning goes
/// through sync.cc so every creation lands in
/// executor_stats::ThreadsSpawned() — the counter the executor tests use
/// to prove the query hot path spawns nothing — and so the repo linter can
/// pin raw std::thread construction to a single file. Semantics are
/// std::thread's (join before destruction or std::terminate), deliberately
/// kept: a silently detaching wrapper would hide lifetime bugs.
class CountedThread {
 public:
  CountedThread() = default;
  /// Spawns immediately and counts the spawn.
  explicit CountedThread(std::function<void()> fn);

  CountedThread(CountedThread&&) = default;
  CountedThread& operator=(CountedThread&&) = default;
  CountedThread(const CountedThread&) = delete;
  CountedThread& operator=(const CountedThread&) = delete;

  bool joinable() const { return thread_.joinable(); }
  void Join() { thread_.join(); }

 private:
  std::thread thread_;
};

}  // namespace odyssey

#endif  // ODYSSEY_COMMON_SYNC_H_
