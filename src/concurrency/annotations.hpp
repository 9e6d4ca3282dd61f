// Clang thread-safety annotations (DESIGN.md, "Static analysis & protocol
// verification").
//
// The DF_* macros expand to clang's capability attributes when the compiler
// understands them and to nothing everywhere else, so GCC builds are
// unaffected while the dedicated clang CI job compiles src/ with
// -Wthread-safety -Werror. The annotated wrappers below (Mutex, MutexLock,
// UniqueLock, CondVar) exist because libstdc++'s std::mutex carries no
// capability attributes: analysis only sees lock events that flow through
// annotated types, so every mutex that guards annotated fields must be a
// df::conc::Mutex and every acquisition must use the annotated guards.
//
// Every acquisition through Mutex::lock() — MutexLock, UniqueLock and
// UniqueLock::lock() all go through it — spins before it parks (DESIGN.md,
// "Spin before parking"): it retries try_lock() with a CPU-relax hint for
// Mutex::kSpinRounds rounds, about what a park and wake-up cost, and only
// then calls the blocking std::mutex::lock(). The engine's global lock, the
// run queue's lock and every channel lock hold for well under that, so a
// contended acquisition usually ends without a trip through the kernel.
// Mutex::lock_waits() counts the acquisitions that spun out and blocked.
// A CondVar wait reacquires through std::condition_variable, without the
// spin.
//
// Conventions used across the codebase:
//   * fields owned by exactly one mutex are DF_GUARDED_BY(that_mutex_);
//   * private helpers called with the lock held are DF_REQUIRES(mutex_);
//   * fields protected by something other than one mutex (e.g. the egress
//     link's ack_floor, a monotone atomic raised without the link mutex
//     and applied only by its holders) cannot be expressed statically and
//     stay unannotated with a comment naming the discipline — TSan
//     remains the check for those;
//   * condition-variable predicates that read guarded fields are written as
//     explicit `while (!pred) cv.wait(lock);` loops inside the annotated
//     method, never as lambdas (clang analyzes lambdas as separate,
//     unannotated functions and would warn on the guarded reads).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define DF_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define DF_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

#define DF_CAPABILITY(x) DF_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

#define DF_SCOPED_CAPABILITY DF_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

#define DF_GUARDED_BY(x) DF_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

#define DF_PT_GUARDED_BY(x) DF_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

#define DF_ACQUIRED_BEFORE(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define DF_ACQUIRED_AFTER(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

#define DF_REQUIRES(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

#define DF_REQUIRES_SHARED(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

#define DF_ACQUIRE(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define DF_ACQUIRE_SHARED(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

#define DF_RELEASE(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define DF_RELEASE_SHARED(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

#define DF_TRY_ACQUIRE(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

#define DF_EXCLUDES(...) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

#define DF_ASSERT_CAPABILITY(x) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

#define DF_RETURN_CAPABILITY(x) \
  DF_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Disables body analysis for functions that *implement* locking primitives
/// (aliased or conditional acquire/release the analysis cannot follow). The
/// interface annotations still apply at every call site.
#define DF_NO_TSA DF_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

namespace df::conc {

/// Tells the core that the caller is spinning (x86 `pause`, AArch64
/// `yield`), so a sibling hyperthread gets the pipeline and the spin does
/// not flood the memory bus.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// std::mutex with the capability attribute and a bounded spin before it
/// parks (see the header comment). Satisfies BasicLockable / Lockable, so
/// std::unique_lock<Mutex> etc. still work where annotation coverage is not
/// wanted (e.g. dynamically sized lock vectors).
class DF_CAPABILITY("mutex") Mutex {
 public:
  /// try_lock() rounds before lock() blocks: about one park's cost, the
  /// competitive-spinning bound. On a 4-vCPU x86 guest a failed round
  /// took about 24 ns and a park plus its wake-up 3.8-5.9 us, so the spin
  /// lasts about 5 us. Fewer rounds left a third of the parks; more bought
  /// little and cost CPU where threads outnumber cores (DESIGN.md, "Spin
  /// before parking").
  static constexpr int kSpinRounds = 200;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DF_ACQUIRE() DF_NO_TSA {
    for (int round = 0; round < kSpinRounds; ++round) {
      if (std_.try_lock()) {
        return;
      }
      cpu_relax();
    }
    std_.lock();
    ++lock_waits_;  // guarded by this mutex, which the caller now holds
  }
  void unlock() DF_RELEASE() DF_NO_TSA { std_.unlock(); }
  bool try_lock() DF_TRY_ACQUIRE(true) DF_NO_TSA { return std_.try_lock(); }

  /// Acquisitions through lock() that spun out and fell back to the
  /// blocking lock. Call with this mutex held.
  std::uint64_t lock_waits() const DF_REQUIRES(this) { return lock_waits_; }

  /// Escape hatch for APIs that need the raw mutex (CondVar interop).
  std::mutex& native() { return std_; }

 private:
  std::mutex std_;
  std::uint64_t lock_waits_ = 0;
};

/// std::lock_guard equivalent over Mutex (scoped capability).
class DF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) DF_ACQUIRE(mutex) DF_NO_TSA
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() DF_RELEASE() DF_NO_TSA { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// std::unique_lock equivalent over Mutex: relockable scoped capability with
/// the std::unique_lock handle CondVar needs. It acquires through
/// Mutex::lock() and then hands the held std::mutex to the handle.
class DF_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex) DF_ACQUIRE(mutex) DF_NO_TSA
      : mutex_(mutex) {
    lock();
  }
  ~UniqueLock() DF_RELEASE() DF_NO_TSA {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() DF_ACQUIRE() DF_NO_TSA {
    mutex_.lock();
    lock_ = std::unique_lock<std::mutex>(mutex_.native(), std::adopt_lock);
  }
  void unlock() DF_RELEASE() DF_NO_TSA { lock_.unlock(); }
  bool owns_lock() const noexcept { return lock_.owns_lock(); }

  /// The raw handle, for CondVar::wait only. (cv.wait releases and
  /// reacquires; analysis treats the whole wait as lock-neutral.)
  std::unique_lock<std::mutex>& native_handle() { return lock_; }

 private:
  Mutex& mutex_;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable over Mutex/UniqueLock. wait() is lock-neutral to
/// the analysis (caller holds the capability before and after), which is
/// exactly the static contract of a cv wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.native_handle()); }

  /// Predicate overload — ONLY for predicates that read atomics or other
  /// unguarded state. Predicates over DF_GUARDED_BY fields must be written
  /// as explicit while-loops in the annotated caller instead (see header
  /// comment).
  template <typename Predicate>
  void wait(UniqueLock& lock, Predicate pred) {
    cv_.wait(lock.native_handle(), std::move(pred));
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace df::conc
