// Clang Thread Safety Analysis-annotated synchronization primitives — the
// ONLY sanctioned locking layer in the DRX tree (docs/STATIC_ANALYSIS.md).
//
// Every mutex-guarded structure in core/io/obs/pfs/simpi/util declares a
// drx::util::Mutex (or SharedMutex) and annotates what it protects with
// DRX_GUARDED_BY / DRX_REQUIRES, so a clang build with -Wthread-safety
// proves lock discipline at compile time instead of sampling it at runtime
// with TSan. GCC and non-annotating compilers see plain std::mutex
// semantics: every macro below expands to nothing, the wrappers compile to
// the same code as the raw primitives, and behavior is identical.
//
// drx_verify's raw-sync-primitive rule enforces the layering: raw
// std::mutex / std::condition_variable / std::lock_guard /
// std::unique_lock are forbidden everywhere in src/ except this header.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---- Clang Thread Safety Analysis attribute macros -------------------------
//
// Names follow the canonical mutex.h from the clang documentation, with a
// DRX_ prefix so nothing collides with other libraries' copies of the
// same header pattern.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define DRX_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef DRX_THREAD_ANNOTATION
#define DRX_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Declares a type to be a capability ("mutex") the analysis tracks.
#define DRX_CAPABILITY(x) DRX_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability in its constructor
/// and releases it in its destructor.
#define DRX_SCOPED_CAPABILITY DRX_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: reads/writes require the given capability held.
#define DRX_GUARDED_BY(x) DRX_THREAD_ANNOTATION(guarded_by(x))

/// Pointer-field annotation: the pointee is guarded by the capability.
#define DRX_PT_GUARDED_BY(x) DRX_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function annotation: the caller must hold the capability (exclusive /
/// shared) across the call.
#define DRX_REQUIRES(...) \
  DRX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DRX_REQUIRES_SHARED(...) \
  DRX_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function annotation: the function acquires / releases the capability.
#define DRX_ACQUIRE(...) DRX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define DRX_ACQUIRE_SHARED(...) \
  DRX_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define DRX_RELEASE(...) DRX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define DRX_RELEASE_SHARED(...) \
  DRX_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define DRX_RELEASE_GENERIC(...) \
  DRX_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Function annotation: acquires the capability iff it returns `b`.
#define DRX_TRY_ACQUIRE(b, ...) \
  DRX_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Function annotation: the caller must NOT hold the capability.
#define DRX_EXCLUDES(...) DRX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime-free assertion that the capability is held — used where the
/// analysis cannot see the acquisition, e.g. inside condition-variable
/// wait predicates (the lock IS held while the predicate runs) and in the
/// 0-thread inline mode of io::AsyncIoPool, where a job runs on the
/// submitting thread under locks taken by non-lexical callers.
#define DRX_ASSERT_CAPABILITY(x) DRX_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch for a function body the analysis cannot follow. Each use
/// needs a justifying comment (docs/STATIC_ANALYSIS.md suppression
/// policy).
#define DRX_NO_THREAD_SAFETY_ANALYSIS \
  DRX_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Function annotation: returns a reference to the given capability.
#define DRX_RETURN_CAPABILITY(x) DRX_THREAD_ANNOTATION(lock_returned(x))

namespace drx::util {

/// Exclusive mutex (std::mutex with a capability the analysis tracks).
class DRX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DRX_ACQUIRE() { mu_.lock(); }
  void unlock() DRX_RELEASE() { mu_.unlock(); }
  bool try_lock() DRX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Static assertion (no runtime effect) that this mutex is held; see
  /// DRX_ASSERT_CAPABILITY.
  void assert_held() const DRX_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Reader/writer mutex (std::shared_mutex as a tracked capability).
class DRX_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() DRX_ACQUIRE() { mu_.lock(); }
  void unlock() DRX_RELEASE() { mu_.unlock(); }
  void lock_shared() DRX_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() DRX_RELEASE_SHARED() { mu_.unlock_shared(); }

  void assert_held() const DRX_ASSERT_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock over a Mutex. Relockable: unlock()/lock() mirror
/// std::unique_lock so code can open an I/O window mid-scope and the
/// analysis still tracks the capability through it.
class DRX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DRX_ACQUIRE(mu) : lock_(mu.mu_) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Releases only if still held; the RELEASE annotation is the contract
  // clang expects on a relockable scoped capability's destructor.
  ~MutexLock() DRX_RELEASE() = default;

  void unlock() DRX_RELEASE() { lock_.unlock(); }
  void lock() DRX_ACQUIRE() { lock_.lock(); }
  [[nodiscard]] bool owns_lock() const noexcept { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Scoped shared (reader) lock over a SharedMutex.
class DRX_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) DRX_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() DRX_RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock over a SharedMutex.
class DRX_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) DRX_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() DRX_RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to MutexLock. wait() releases and reacquires
/// the lock internally; from the analysis' point of view the capability
/// is held across the call (the same model clang uses for its own
/// examples), which is sound because the lock IS held whenever the
/// caller's code runs. Predicates run under the lock — start them with
/// `mu.assert_held();` when they touch DRX_GUARDED_BY fields.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Pred>
  void wait(MutexLock& lock, Pred pred) {
    cv_.wait(lock.lock_, std::move(pred));
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(MutexLock& lock,
                const std::chrono::duration<Rep, Period>& timeout,
                Pred pred) {
    return cv_.wait_for(lock.lock_, timeout, std::move(pred));
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace drx::util
