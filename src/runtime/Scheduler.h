/**
 * @file
 * Asynchronous MVM submission queue and cross-HCT scheduler.
 *
 * Sessions do not execute MVMs
 * directly: they enqueue MvmRequests and receive MvmFuture tokens.
 * The scheduler packs queued requests onto the tiles that hold their
 * matrices, tracking a busy-until cycle per HCT, so requests whose
 * placements occupy disjoint tiles overlap in simulated time while
 * requests contending for the same tiles serialize. Back-to-back
 * MVMs against the same placement pipeline at the KernelModel
 * amortized rate (the §5.1 streaming discipline the mappers assume):
 * the tile accepts the next same-matrix issue one amortized period
 * after the previous start, while other work waits for full
 * completion. Draining is lazy:
 * functional execution happens when a future is waited on (or at a
 * waitAll()/barrier), always in a deterministic greedy order —
 * earliest achievable start first, submission order as tiebreak — so
 * results and timings are reproducible regardless of wait order.
 * A pluggable dequeue hook (setDequeueHook) lets a serving front end
 * override the greedy order, e.g. to drain strictly in admission
 * order (see src/serve/Admission.h).
 *
 * The greedy pick never scans the queue. Each request's bound
 * max(earliest, dependency done cycles) is stored once, when its last
 * `after` dependency executes (waiter lists and unmet counts), and
 * the request joins a ready index grouped by placement uid. Requests
 * of one placement share its tiles, so the group's tile bound T is
 * computed once per pick: the group offers its lowest id with bound
 * <= T at start T, else its least (bound, id). A pick costs
 * O(placements with ready work) plus O(log n); the queue keeps
 * executed requests as tombstones until they reach the front, so a
 * retire shifts nothing and an id lookup is one subtraction. The
 * queue therefore holds every id since the oldest queued request,
 * not only the queued ones: a request held back by a late `earliest`
 * keeps every younger executed request's slot (a Request with no
 * heap storage) until it runs. A hook sees the whole queue, so a
 * hooked pick costs O(n) to build its view; a hook pick that is out
 * of range or not ready falls back to the indexed greedy pick.
 *
 * A submit may name `after` dependencies — futures of earlier
 * requests whose done cycles feed the request's `earliest` bound.
 * That is how InferenceGraph turns dataflow edges (producing layer ->
 * consuming layer) into scheduler constraints: a dependent request is
 * ineligible until its dependencies execute, then starts no earlier
 * than their completion. Dependencies are acyclic by construction
 * (futures exist only after their submit), so the deterministic
 * greedy drain always finds an eligible request.
 *
 * Functional results are bit-exact and independent of scheduling;
 * only the start/done cycle stamps depend on queue contention.
 */

#ifndef DARTH_RUNTIME_SCHEDULER_H
#define DARTH_RUNTIME_SCHEDULER_H

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ThreadAnnotations.h"
#include "runtime/Chip.h"
#include "runtime/KernelModel.h"
#include "runtime/Placement.h"

namespace darth
{
namespace runtime
{

/** Monotonic identifier of one submitted MVM request. */
using RequestId = u64;

class Scheduler;

/** Token for one in-flight MVM; resolved by Scheduler::wait(). */
class MvmFuture
{
  public:
    MvmFuture() = default;

    /** False for default-constructed (never-submitted) futures. */
    bool valid() const { return id_ != 0; }

    RequestId id() const { return id_; }

  private:
    friend class Scheduler;
    MvmFuture(RequestId id, const Scheduler *owner)
        : id_(id), owner_(owner)
    {}

    RequestId id_ = 0;
    /** Issuing scheduler: `after` dependencies are rejected when
     *  offered to a different scheduler (ids are per-scheduler). */
    const Scheduler *owner_ = nullptr;
};

/** Public view of one queued request, offered to dequeue hooks. */
struct QueuedRequest
{
    RequestId id = 0;
    /** Session that submitted the request. */
    u64 session = 0;
    /** Registry id of the target placement. */
    int handle = -1;
    /** Lower bound on the start cycle given at submit. */
    Cycle earliest = 0;
    /** Earliest start the request could achieve right now; the max
     *  Cycle value while not ready, so start-sorting hooks never
     *  prefer a dependency-blocked request. */
    Cycle achievableStart = 0;
    /**
     * KernelModel oracle latency of this MVM (worst placement part),
     * stamped at submit so dequeue hooks and the admission layer can
     * charge cost without re-deriving it from shape lookups.
     */
    Cycle oracleCost = 0;
    /** False while an `after` dependency is still unexecuted. */
    bool ready = true;
};

/** Lifetime counters of one scheduler (serving telemetry). */
struct SchedulerCounters
{
    /** Requests executed. */
    u64 issued = 0;
    /** Executed requests that pipelined into a still-running
     *  same-matrix stream on at least one tile. */
    u64 pipelineHits = 0;
    /** Executed requests whose start cycle was raised by an `after`
     *  dependency beyond both their submit-time `earliest` and the
     *  tile-ready bound. */
    u64 dependencyStalls = 0;
    /**
     * Compiled-kernel cache audit (digital/KernelCache.h): hits and
     * misses of the PROCESS-WIDE gate-program cache, snapshotted at
     * counters() time. Unlike the per-scheduler fields above these
     * aggregate over every chip (and every pool) in the process —
     * serving telemetry for the translation-cache hit rate, not
     * per-chip state, so they are never journaled or diffed.
     */
    u64 kernelCacheHits = 0;
    u64 kernelCacheMisses = 0;
};

/**
 * Picks the index (into the queue view) of the next request to
 * execute. Returning an index >= the view size falls back to the
 * greedy earliest-start default for that pick.
 */
using DequeueHook =
    std::function<std::size_t(const std::vector<QueuedRequest> &)>;

/** Result of one MVM request. */
struct MvmResult
{
    std::vector<i64> values;
    /** Cycle the first part started executing. */
    Cycle start = 0;
    /** Cycle the gathered (and, for row splits, reduced) output is
     *  complete. */
    Cycle done = 0;
};

/**
 * Packs queued MVM requests onto free HCTs.
 *
 * Thread-safety contract (enforced by clang -Wthread-safety, a no-op
 * at runtime until the per-chip worker threads land): every queue,
 * timing table, and counter is GUARDED_BY(mu_); public entry points
 * take the lock, private helpers REQUIRE it. See
 * common/ThreadAnnotations.h.
 */
class Scheduler
{
  public:
    explicit Scheduler(Chip &chip);

    /**
     * Enqueue one MVM against a placed matrix. Validates the input
     * length against the placement plan (std::invalid_argument on
     * mismatch) but executes nothing yet.
     *
     * @param earliest  Lower bound on the start cycle (e.g. the
     *                  producing kernel's completion).
     */
    MvmFuture submit(const PlacedMatrix &pm, std::vector<i64> x,
                     int input_bits, Cycle earliest = 0)
        EXCLUDES(mu_);

    /**
     * Enqueue one MVM that must start after other requests complete.
     * Each `after` future's done cycle feeds the `earliest` bound
     * once known; until every dependency has executed the request is
     * ineligible for dequeue. Dependencies are always older requests
     * (futures exist only after their submit), so dependency chains
     * are acyclic and the drain order stays deterministic. Results
     * are bit-exact regardless of dependencies; only timing moves.
     * Throws std::invalid_argument on an invalid or unknown future.
     */
    MvmFuture submit(const PlacedMatrix &pm, std::vector<i64> x,
                     int input_bits, Cycle earliest,
                     const std::vector<MvmFuture> &after)
        EXCLUDES(mu_);

    /**
     * Session-checked resolve: drains the queue (in greedy order)
     * until the request has executed, then returns and releases its
     * result. Each future can be waited on exactly once, and only by
     * the session that submitted it (std::invalid_argument
     * otherwise).
     */
    MvmResult wait(const MvmFuture &future, u64 session)
        EXCLUDES(mu_);

    /** Drain every queued request; returns the resulting makespan. */
    Cycle waitAll() EXCLUDES(mu_);

    /** Drain queued requests belonging to one session. */
    void drainSession(u64 session) EXCLUDES(mu_);

    /**
     * Drop a session's uncollected results (called on session
     * teardown so drained-but-never-waited results cannot accumulate
     * forever).
     */
    void discardSession(u64 session) EXCLUDES(mu_);

    /**
     * Drain queued requests targeting one placed matrix (a barrier
     * before weight updates, mode switches, or release).
     */
    void drainMatrix(int handle) EXCLUDES(mu_);

    /** Queued-but-unexecuted request count. */
    std::size_t pendingCount() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return pending_;
    }

    /**
     * Submission-queue depth: synonym of pendingCount(), named for
     * the admission layer that uses it as its backpressure signal.
     */
    std::size_t queueDepth() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return pending_;
    }

    /**
     * Queue pressure in cycles, not counts: the summed KernelModel
     * oracle latency of every queued-but-unexecuted request. A queue
     * of three wide GF(2) banks and a queue of three whole-layer CNN
     * streams have the same queueDepth() but very different
     * backlogCycles(); the pool's load-aware CostAware placement
     * scores chips by this (see ChipPool::placementScore).
     */
    Cycle backlogCycles() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return backlog_;
    }

    /** Queued-but-unexecuted requests belonging to one session. */
    std::size_t pendingRequests(u64 session) const EXCLUDES(mu_);

    /**
     * Install (or, with a null hook, remove) a dequeue-order
     * override. The hook sees a snapshot of the queue and names the
     * request to execute next; timings still honour per-tile
     * busy-until packing, so the hook reorders service, it does not
     * bypass contention. The default (no hook) is the greedy
     * earliest-achievable-start order.
     */
    void setDequeueHook(DequeueHook hook) EXCLUDES(mu_);

    /** A hook that drains strictly in submission (RequestId) order. */
    static DequeueHook submissionOrderHook();

    /** Requests executed over the scheduler's lifetime. */
    u64 completedCount() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return completed_;
    }

    /** Lifetime counters (issues, pipeline hits, dependency stalls),
     *  plus a snapshot of the process-wide compiled-kernel cache
     *  audit. Returned by value: a snapshot stays coherent once
     *  worker threads mutate the counters concurrently. */
    SchedulerCounters counters() const EXCLUDES(mu_);

    /**
     * KernelModel oracle latency of one MVM against a placement plan
     * (the worst part) — the per-request cost stamped on
     * QueuedRequest and the serving layer's nominal WFQ charge.
     * Cached per shape.
     */
    Cycle oracleCost(const MatrixPlan &plan, int input_bits)
        EXCLUDES(mu_);

    /** Executed results not yet collected by a wait(). */
    std::size_t uncollectedCount() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return results_.size();
    }

    /** Cycle the given HCT is busy until. */
    Cycle busyUntil(std::size_t hct) const EXCLUDES(mu_);

    /** Max busy-until over all HCTs (current schedule makespan). */
    Cycle makespan() const EXCLUDES(mu_);

  private:
    struct Request
    {
        RequestId id = 0;
        const PlacedMatrix *pm = nullptr;
        std::vector<i64> x;
        int inputBits = 0;
        Cycle earliest = 0;
        /** Captured at submit (the placement may be released before
         *  the result is collected). */
        u64 session = 0;
        /** Oracle latency stamped at submit (see QueuedRequest). */
        Cycle oracleCost = 0;
        /** `after` dependencies not yet executed; ready at zero. */
        std::size_t unmetDeps = 0;
        /** Max done cycle over executed dependencies (0 when none). */
        Cycle depBound = 0;
        /** max(earliest, depBound), fixed once the request is ready. */
        Cycle readyBound = 0;
        /** Queued requests naming this one in `after`, one entry per
         *  naming. */
        std::vector<RequestId> waiters;
        /** False once executed: a tombstone until it reaches the
         *  front of the queue. */
        bool queued = true;
    };

    struct CompletedRequest
    {
        MvmResult result;
        u64 session = 0;
    };

    /**
     * Dependency-ready requests of one placement. All share the
     * placement's tiles, so each could start at max(readyBound, T),
     * with T the placement's tileBound(). The split is made at
     * `horizon`, the T of the last pick; T never falls (see
     * pickNext), so requests only move from `beyond` to `atHorizon`.
     */
    struct ReadyGroup
    {
        const PlacedMatrix *pm = nullptr;
        Cycle horizon = 0;
        /** Ready requests with readyBound <= horizon, by id. */
        std::set<RequestId> atHorizon;
        /** Ready requests with readyBound > horizon, by (bound, id). */
        std::set<std::pair<Cycle, RequestId>> beyond;
    };

    /** Cycle the tile could accept this request's part. */
    Cycle tileReady(std::size_t hct, const PlacedMatrix &pm) const
        REQUIRES(mu_);

    /** Max tileReady() over the placement's parts. */
    Cycle tileBound(const PlacedMatrix &pm) const REQUIRES(mu_);

    /** The queued request with this id (which must be queued). */
    Request &requestAt(RequestId id) REQUIRES(mu_);

    /** The queued request with this id, or null when it is not
     *  queued (executed, unknown, or never submitted). */
    const Request *findQueued(RequestId id) const REQUIRES(mu_);

    /** Fix the bound of a request whose last dependency has
     *  executed, and add it to its placement's ReadyGroup. */
    void makeReady(Request &req) REQUIRES(mu_);

    /** Id of the next request to run (greedy min-start among
     *  dependency-ready requests; a hook may reorder within them). */
    RequestId pickNext() REQUIRES(mu_);

    /** Execute the queued request `id` and record its result. */
    void executeAt(RequestId id) REQUIRES(mu_);

    /** oracleCost() body, for callers already holding the lock. */
    Cycle oracleCostLocked(const MatrixPlan &plan, int input_bits)
        REQUIRES(mu_);

    /** makespan() body, for callers already holding the lock. */
    Cycle makespanLocked() const REQUIRES(mu_);

    /** Guards every queue, timing table, and counter below. A no-op
     *  capability today (single-threaded); the per-chip threading
     *  work swaps it for a real mutex without touching call sites. */
    mutable SeqMutex mu_;

    Chip &chip_;
    /** Mutable per-shape cost cache (oracleCost). */
    KernelModel kernels_ GUARDED_BY(mu_);
    DequeueHook dequeueHook_ GUARDED_BY(mu_);
    /** Submitted requests in id order from queueBase_: executed ones
     *  stay as tombstones until they reach the front, so a retire
     *  shifts nothing and requestAt() is one subtraction. Its length
     *  is the id span since the oldest queued request. */
    std::deque<Request> queue_ GUARDED_BY(mu_);
    /** Id of queue_.front(). */
    RequestId queueBase_ GUARDED_BY(mu_) = 1;
    /** Queued-but-unexecuted requests (live entries of queue_). */
    std::size_t pending_ GUARDED_BY(mu_) = 0;
    /** Queued requests per session and per placement handle. Zero
     *  counts stay (handle ids are reused; a session's key goes at
     *  discardSession), so a steady stream allocates no nodes. */
    std::map<u64, std::size_t> sessionQueued_ GUARDED_BY(mu_);
    std::map<int, std::size_t> handleQueued_ GUARDED_BY(mu_);
    /** Ready index, keyed by PlacedMatrix::uid; only groups with
     *  ready work are present. */
    std::map<u64, ReadyGroup> ready_ GUARDED_BY(mu_);
    /** Reused queue view handed to the dequeue hook. */
    std::vector<QueuedRequest> hookView_ GUARDED_BY(mu_);
    /** Reused input rows of one row-split plan part. */
    std::vector<i64> partInput_ GUARDED_BY(mu_);
    std::map<RequestId, CompletedRequest> results_ GUARDED_BY(mu_);
    std::vector<Cycle> busyUntil_ GUARDED_BY(mu_);
    /** Next same-matrix issue slot per tile (pipelined streaming). */
    std::vector<Cycle> nextIssue_ GUARDED_BY(mu_);
    /** Placement uid of the last MVM each tile ran. */
    std::vector<u64> lastUid_ GUARDED_BY(mu_);
    /** Done cycle per executed request, indexed by RequestId - 1
     *  (kPendingDone until execution) — dependency resolution. Grows
     *  8 bytes per submitted request for the scheduler's lifetime:
     *  clients may hold futures (and submit dependents) arbitrarily
     *  late, so no entry is provably dead. Acceptable for simulated
     *  runs (~8 MB per million requests). */
    std::vector<Cycle> doneCycle_ GUARDED_BY(mu_);
    RequestId nextId_ GUARDED_BY(mu_) = 1;
    u64 completed_ GUARDED_BY(mu_) = 0;
    SchedulerCounters counters_ GUARDED_BY(mu_);
    /** Summed oracleCost of queued requests (backlogCycles()). */
    Cycle backlog_ GUARDED_BY(mu_) = 0;
};

} // namespace runtime
} // namespace darth

#endif // DARTH_RUNTIME_SCHEDULER_H
