/**
 * @file
 * Clang thread-safety annotations and a zero-cost capability for
 * documenting lock discipline *before* the code goes multi-threaded.
 *
 * The simulator is single-threaded: every serving run is one
 * sequential event loop. Shared state still carries its ownership
 * contract — the scheduler queues, the placement registry, the
 * pool's placement tables, and the process-wide cost and kernel
 * caches: members are GUARDED_BY a SeqMutex, private helpers that
 * assume the guard is held say REQUIRES, and public entry points
 * take a SeqLock. Under clang, -Wthread-safety (enabled on the
 * runtime/serve targets by the build) statically proves every
 * guarded access happens under its guard; under GCC the attributes
 * compile to nothing.
 *
 * SeqMutex wraps a real std::mutex, so an annotated object stays
 * safe if a caller does share it across threads (the TSan CI leg
 * runs the whole suite under the race detector).
 *
 * Macro names follow the clang/abseil convention
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
 */

#ifndef DARTH_COMMON_THREADANNOTATIONS_H
#define DARTH_COMMON_THREADANNOTATIONS_H

#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define DARTH_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DARTH_THREAD_ANNOTATION(x) // no-op outside clang
#endif

/** Declares a class to be a lockable capability (e.g. "mutex"). */
#define CAPABILITY(x) DARTH_THREAD_ANNOTATION(capability(x))

/** Declares an RAII object that acquires/releases a capability. */
#define SCOPED_CAPABILITY DARTH_THREAD_ANNOTATION(scoped_lockable)

/** The member may only be read/written while holding `x`. */
#define GUARDED_BY(x) DARTH_THREAD_ANNOTATION(guarded_by(x))

/** The pointee may only be dereferenced while holding `x`. */
#define PT_GUARDED_BY(x) DARTH_THREAD_ANNOTATION(pt_guarded_by(x))

/** The function must be called with the capabilities held. */
#define REQUIRES(...)                                                \
    DARTH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** The function acquires the capabilities (no-arg form: `this`). */
#define ACQUIRE(...)                                                 \
    DARTH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases the capabilities (no-arg form: `this`). */
#define RELEASE(...)                                                 \
    DARTH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** The function must NOT be called with the capabilities held
 *  (non-reentrant public entry points). */
#define EXCLUDES(...)                                                \
    DARTH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** The function returns a reference to a capability. */
#define RETURN_CAPABILITY(x)                                         \
    DARTH_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: the function is exempt from analysis. */
#define NO_THREAD_SAFETY_ANALYSIS                                    \
    DARTH_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace darth
{

/**
 * The annotated mutex guarding runtime/serving state.
 *
 * A real std::mutex wearing the capability annotations: clang's
 * -Wthread-safety statically proves the guarded-access discipline,
 * and the lock enforces it at runtime should a caller share an
 * object across threads. Always uncontended in the single-threaded
 * simulator, so it costs a single atomic each way.
 */
class CAPABILITY("mutex") SeqMutex
{
  public:
    SeqMutex() = default;
    SeqMutex(const SeqMutex &) = delete;
    SeqMutex &operator=(const SeqMutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }

  private:
    std::mutex mu_;
};

/** RAII guard for a SeqMutex (the std::lock_guard shape). */
class SCOPED_CAPABILITY SeqLock
{
  public:
    explicit SeqLock(SeqMutex &mu) ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~SeqLock() RELEASE() { mu_.unlock(); }

    SeqLock(const SeqLock &) = delete;
    SeqLock &operator=(const SeqLock &) = delete;

  private:
    SeqMutex &mu_;
};

} // namespace darth

#endif // DARTH_COMMON_THREADANNOTATIONS_H
