/**
 * @file
 * Per-client runtime sessions and typed RAII matrix handles.
 *
 * A Session is one client's context on a shared chip: matrices it
 * places are tagged with its id, MVMs it submits go through the
 * shared Scheduler, and handles from other sessions are rejected —
 * many sessions can interleave submissions on one Runtime while
 * keeping their handle namespaces and results isolated.
 *
 * MatrixHandle is move-only and releases its placement (the HCTs the
 * plan occupies) back to the chip on destruction, so tiles are
 * reclaimed as soon as a client drops a matrix. Dropping a handle
 * with in-flight MVMs first drains those requests.
 */

#ifndef DARTH_RUNTIME_SESSION_H
#define DARTH_RUNTIME_SESSION_H

#include <vector>

#include "common/ThreadAnnotations.h"
#include "runtime/Placement.h"
#include "runtime/Scheduler.h"

namespace darth
{
namespace runtime
{

class Runtime;
class Session;

/** Move-only owner of one placed matrix. */
class MatrixHandle
{
  public:
    MatrixHandle() = default;
    MatrixHandle(MatrixHandle &&other) noexcept;
    MatrixHandle &operator=(MatrixHandle &&other) noexcept;
    ~MatrixHandle();

    MatrixHandle(const MatrixHandle &) = delete;
    MatrixHandle &operator=(const MatrixHandle &) = delete;

    /** False once released (or default-constructed / moved-from). */
    bool valid() const { return rt_ != nullptr; }
    explicit operator bool() const { return valid(); }

    /** Raw registry id (for the handle-level Runtime calls). */
    int id() const { return id_; }

    const MatrixPlan &plan() const;
    const MatrixI &matrix() const;

    /** Release the placement now (idempotent). */
    void release();

  private:
    friend class Session;
    MatrixHandle(Runtime *rt, int id, u64 session)
        : rt_(rt), id_(id), session_(session)
    {}

    Runtime *rt_ = nullptr;
    int id_ = -1;
    u64 session_ = 0;
};

/**
 * One client's view of the runtime.
 *
 * The session's liveness state (rt_, id_) is GUARDED_BY(mu_). One
 * thread drives a session; the annotations make clang prove every
 * access takes the guard, so a caller that does share a session
 * cannot race a teardown/move against a submit.
 */
class Session
{
  public:
    Session(Session &&other) noexcept;
    Session &operator=(Session &&other) noexcept;
    /** Teardown drains the session's queued requests and drops its
     *  uncollected results — wait every future you care about before
     *  the session goes away. */
    ~Session();
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    u64 id() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return id_;
    }

    Runtime &runtime() EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return *rt_;
    }

    /**
     * Place a matrix using the programmer's precision scale (Table 1
     * semantics: 0 = SLC ... 2 = device maximum bits per cell).
     */
    MatrixHandle setMatrix(const MatrixI &m, int element_bits,
                           int precision) EXCLUDES(mu_);

    /** Place a matrix with an explicit bits-per-cell operating point. */
    MatrixHandle setMatrixBits(const MatrixI &m, int element_bits,
                               int bits_per_cell) EXCLUDES(mu_);

    /**
     * Enqueue one MVM; returns immediately with a future. Throws
     * std::invalid_argument when the session itself has been released
     * (moved-from), the handle belongs to a different session, or the
     * input length does not match the plan.
     *
     * @param earliest  Lower bound on the start cycle.
     */
    MvmFuture submit(const MatrixHandle &handle, std::vector<i64> x,
                     int input_bits, Cycle earliest = 0)
        EXCLUDES(mu_);

    /**
     * Enqueue one MVM that must start after earlier submissions
     * complete: each `after` future's done cycle feeds the `earliest`
     * bound (dependency-aware scheduling; see InferenceGraph for the
     * dataflow layer built on this).
     */
    MvmFuture submit(const MatrixHandle &handle, std::vector<i64> x,
                     int input_bits, Cycle earliest,
                     const std::vector<MvmFuture> &after)
        EXCLUDES(mu_);

    /** Resolve one future (each future resolves exactly once). */
    MvmResult wait(const MvmFuture &future) EXCLUDES(mu_);

    /** Drain this session's queued requests. */
    void waitAll() EXCLUDES(mu_);

    /** Blocking convenience: submit + wait. */
    MvmResult execMVM(const MatrixHandle &handle,
                      const std::vector<i64> &x, int input_bits,
                      Cycle earliest = 0) EXCLUDES(mu_);

  private:
    friend class Runtime;
    Session(Runtime &rt, u64 id) : rt_(&rt), id_(id) {}

    /** Drain queued work and drop uncollected results (teardown). */
    void retire() noexcept REQUIRES(mu_);

    /** Throw std::invalid_argument if the session was released. */
    void requireLive(const char *what) const REQUIRES(mu_);

    /** Guards the liveness state (uncontended: one thread drives a
     *  session). */
    mutable SeqMutex mu_;

    Runtime *rt_ GUARDED_BY(mu_);
    u64 id_ GUARDED_BY(mu_);
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_SESSION_H
