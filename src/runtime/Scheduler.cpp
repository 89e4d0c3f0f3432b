#include "runtime/Scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/Logging.h"
#include "digital/KernelCache.h"

namespace darth
{
namespace runtime
{

namespace
{

/** doneCycle_ sentinel for a submitted-but-unexecuted request. */
constexpr Cycle kPendingDone = ~Cycle{0};

/** Queued requests counted under `key` (0 when absent). */
template <typename Key>
std::size_t
queuedUnder(const std::map<Key, std::size_t> &counts, const Key &key)
{
    const auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
}

} // namespace

Scheduler::Scheduler(Chip &chip)
    : chip_(chip), kernels_(chip.config().hct),
      busyUntil_(chip.numHcts(), 0), nextIssue_(chip.numHcts(), 0),
      lastUid_(chip.numHcts(), 0)
{
}

MvmFuture
Scheduler::submit(const PlacedMatrix &pm, std::vector<i64> x,
                  int input_bits, Cycle earliest)
{
    return submit(pm, std::move(x), input_bits, earliest, {});
}

MvmFuture
Scheduler::submit(const PlacedMatrix &pm, std::vector<i64> x,
                  int input_bits, Cycle earliest,
                  const std::vector<MvmFuture> &after)
{
    SeqLock lock(mu_);
    if (!pm.analogEnabled)
        darth_fatal("Scheduler::submit: analog mode is disabled for "
                    "matrix handle ", pm.id);
    if (x.size() != pm.plan.rows)
        throw std::invalid_argument(
            "Scheduler::submit: MVM input has " +
            std::to_string(x.size()) + " elements but matrix handle " +
            std::to_string(pm.id) + " is planned as " +
            std::to_string(pm.plan.rows) + " rows x " +
            std::to_string(pm.plan.cols) +
            " cols (inputs must have one element per row)");
    if (input_bits <= 0)
        throw std::invalid_argument(
            "Scheduler::submit: input_bits must be positive, got " +
            std::to_string(input_bits));

    // Validate dependencies before allocating the id: a throw here
    // must leave ids and the doneCycle_ index in lockstep.
    for (const MvmFuture &dep : after)
        if (!dep.valid() || dep.owner_ != this ||
            dep.id() >= nextId_)
            throw std::invalid_argument(
                "Scheduler::submit: `after` future is invalid, from "
                "another scheduler, or was never submitted");

    Request req;
    req.id = nextId_++;
    req.pm = &pm;
    req.x = std::move(x);
    req.inputBits = input_bits;
    req.earliest = earliest;
    req.session = pm.session;
    req.oracleCost = oracleCostLocked(pm.plan, input_bits);
    for (const MvmFuture &dep : after) {
        const Cycle dep_done = doneCycle_[dep.id() - 1];
        if (dep_done == kPendingDone) {
            // Still queued: it readies this request when it executes.
            requestAt(dep.id()).waiters.push_back(req.id);
            ++req.unmetDeps;
        } else {
            req.depBound = std::max(req.depBound, dep_done);
        }
    }
    doneCycle_.push_back(kPendingDone);
    backlog_ += req.oracleCost;
    ++pending_;
    ++sessionQueued_[req.session];
    ++handleQueued_[pm.id];
    if (queue_.empty())
        queueBase_ = req.id;
    queue_.push_back(std::move(req));
    if (queue_.back().unmetDeps == 0)
        makeReady(queue_.back());
    return MvmFuture(queue_.back().id, this);
}

Cycle
Scheduler::oracleCost(const MatrixPlan &plan, int input_bits)
{
    SeqLock lock(mu_);
    return oracleCostLocked(plan, input_bits);
}

Cycle
Scheduler::oracleCostLocked(const MatrixPlan &plan, int input_bits)
{
    Cycle worst = 0;
    for (const auto &part : plan.parts) {
        MvmShape shape;
        shape.rows = part.numRows;
        shape.cols = part.numCols;
        shape.elementBits = plan.elementBits;
        shape.bitsPerCell = plan.bitsPerCell;
        shape.inputBits = input_bits;
        worst = std::max(worst, kernels_.mvm(shape).latency);
    }
    return worst;
}

Cycle
Scheduler::tileReady(std::size_t hct, const PlacedMatrix &pm) const
{
    // A tile streaming MVMs of one placement accepts the next issue
    // one amortized period after the previous start; anything else
    // waits for the tile to finish outright.
    return lastUid_[hct] == pm.uid ? nextIssue_[hct]
                                   : busyUntil_[hct];
}

Cycle
Scheduler::tileBound(const PlacedMatrix &pm) const
{
    Cycle bound = 0;
    for (const auto &part : pm.plan.parts)
        bound = std::max(bound, tileReady(part.hctIndex, pm));
    return bound;
}

Scheduler::Request &
Scheduler::requestAt(RequestId id)
{
    return queue_[static_cast<std::size_t>(id - queueBase_)];
}

const Scheduler::Request *
Scheduler::findQueued(RequestId id) const
{
    if (id < queueBase_ || id - queueBase_ >= queue_.size())
        return nullptr;
    const Request &req = queue_[static_cast<std::size_t>(id - queueBase_)];
    return req.queued ? &req : nullptr;
}

void
Scheduler::makeReady(Request &req)
{
    req.readyBound = std::max(req.earliest, req.depBound);
    ReadyGroup &group = ready_[req.pm->uid];
    group.pm = req.pm;
    if (req.readyBound <= group.horizon)
        group.atHorizon.insert(req.id);
    else
        group.beyond.emplace(req.readyBound, req.id);
}

RequestId
Scheduler::pickNext()
{
    if (drainOrder_ == DrainOrder::Submission) {
        // executeAt pops tombstones off the front, and the oldest
        // queued request's `after` dependencies are all older, hence
        // executed: the front is always queued and ready.
        const Request &front = queue_.front();
        if (!front.queued || front.unmetDeps != 0)
            darth_panic("Scheduler::pickNext: queue front ", front.id,
                        " is not a ready queued request");
        return front.id;
    }
    // Greedy: earliest achievable start, submission order as the
    // tiebreak. A request's start is max(readyBound, T) with T its
    // placement's tile bound, so each group offers its lowest id
    // among bounds <= T at start T, else its least (bound, id).
    RequestId best = 0;
    Cycle best_start = 0;
    for (auto &[uid, group] : ready_) {
        // Each tile runs only its own placement's MVMs (placeMatrix
        // hands out free HCTs), and every issue moves nextIssue_ and
        // busyUntil_ forward, so T never falls and a request once at
        // the horizon stays there.
        const Cycle tiles = tileBound(*group.pm);
        if (tiles < group.horizon)
            darth_panic("Scheduler::pickNext: tile bound of placement ",
                        uid, " fell from ", group.horizon, " to ", tiles);
        group.horizon = tiles;
        while (!group.beyond.empty() &&
               group.beyond.begin()->first <= tiles) {
            group.atHorizon.insert(group.beyond.begin()->second);
            group.beyond.erase(group.beyond.begin());
        }
        const bool at_tiles = !group.atHorizon.empty();
        const Cycle start =
            at_tiles ? tiles : group.beyond.begin()->first;
        const RequestId id = at_tiles ? *group.atHorizon.begin()
                                      : group.beyond.begin()->second;
        if (best == 0 || start < best_start ||
            (start == best_start && id < best)) {
            best = id;
            best_start = start;
        }
    }
    if (best == 0)
        darth_panic("Scheduler::pickNext: no dependency-ready request "
                    "in a non-empty queue (dependency cycle?)");
    return best;
}

void
Scheduler::setDrainOrder(DrainOrder order)
{
    SeqLock lock(mu_);
    drainOrder_ = order;
}

SchedulerCounters
Scheduler::counters() const
{
    SchedulerCounters snapshot;
    {
        SeqLock lock(mu_);
        snapshot = counters_;
    }
    // The compiled-kernel cache is process-wide (every chip's
    // pipelines share it), so the audit fields are read from the
    // cache singleton, outside this scheduler's lock.
    snapshot.kernelCacheHits = digital::KernelCache::instance().hits();
    snapshot.kernelCacheMisses =
        digital::KernelCache::instance().misses();
    return snapshot;
}

std::size_t
Scheduler::pendingRequests(u64 session) const
{
    SeqLock lock(mu_);
    return queuedUnder(sessionQueued_, session);
}

void
Scheduler::executeAt(RequestId id)
{
    Request &slot = requestAt(id);
    Request req = std::move(slot);
    slot.queued = false;
    const auto group = ready_.find(req.pm->uid);
    if (group->second.atHorizon.erase(id) == 0)
        group->second.beyond.erase({req.readyBound, id});
    if (group->second.atHorizon.empty() && group->second.beyond.empty())
        ready_.erase(group);
    --pending_;
    --sessionQueued_[req.session];
    --handleQueued_[req.pm->id];
    backlog_ -= std::min(backlog_, req.oracleCost);

    const MatrixPlan &plan = req.pm->plan;
    MvmResult result;
    result.values.assign(plan.cols, 0);

    // Dependencies completed (pickNext only offers ready requests);
    // their done cycles harden the earliest bound. A dependency stall
    // is a start pushed later than both the submit-time earliest and
    // what the tiles alone would allow.
    const Cycle earliest = req.readyBound;
    if (req.depBound > req.earliest && req.depBound > tileBound(*req.pm))
        ++counters_.dependencyStalls;

    bool first = true;
    bool pipelined = false;
    Cycle done = earliest;
    for (const auto &part : plan.parts) {
        // A part over every input row (every column stripe) reads the
        // request's input as is; a row split copies its rows.
        const bool all_rows = part.numRows == req.x.size();
        if (!all_rows)
            partInput_.assign(
                req.x.begin() + static_cast<std::ptrdiff_t>(part.row0),
                req.x.begin() + static_cast<std::ptrdiff_t>(
                                    part.row0 + part.numRows));
        const Cycle prev_busy = busyUntil_[part.hctIndex];
        const Cycle start = std::max(
            earliest, tileReady(part.hctIndex, *req.pm));
        auto part_result =
            chip_.hct(part.hctIndex)
                .execMvm(all_rows ? req.x : partInput_, req.inputBits,
                         start);
        for (std::size_t c = 0; c < part.numCols; ++c)
            result.values[part.col0 + c] += part_result.values[c];

        MvmShape shape;
        shape.rows = part.numRows;
        shape.cols = part.numCols;
        shape.elementBits = plan.elementBits;
        shape.bitsPerCell = plan.bitsPerCell;
        shape.inputBits = req.inputBits;
        // Tile idle at issue time: the Hct's own (arbiter-accurate)
        // completion is exact. Pipelined issue into a still-running
        // stream: completions space at the KernelModel steady-state
        // amortized interval (the Hct simulates one MVM at a time
        // and cannot express the overlap itself) — but never earlier
        // than one full MVM after this request's own issue cycle,
        // which matters when `earliest` lands mid-stream.
        const KernelCost mvm_cost = kernels_.mvm(shape);
        pipelined = pipelined || start < prev_busy;
        const Cycle part_done =
            start >= prev_busy
                ? part_result.done
                : std::max(prev_busy + mvm_cost.amortized,
                           start + mvm_cost.latency);
        busyUntil_[part.hctIndex] = part_done;
        // Keep the functional tile's clock on the modeled timeline:
        // the Hct ran this issue serially, so for pipelined issues
        // its arbiter would otherwise drift ahead of the amortized
        // schedule and bill the phantom time to the next idle-tile
        // issue. Only the arbiter is rebased, not the DCE stage
        // clocks, and those drift: a pipelined MVM's reduction ADDs
        // hold the stages longer than the amortized interval (32 x 11
        // = 352 cycles against 256 on a 32-partial-product ResNet
        // layer, because KernelModel's DCE bound divides by two pipes
        // while the HCT reduces on pipe 0), so the stage base moves
        // ~100 cycles ahead per pipelined MVM. Rebasing the stages
        // too leaves infer_bench --smoke unchanged but moves
        // serve_bench --smoke latencies, so it is a model change of
        // its own and is not made here.
        chip_.hct(part.hctIndex).arbiter().rebase(part_done);
        nextIssue_[part.hctIndex] = start + mvm_cost.amortized;
        lastUid_[part.hctIndex] = req.pm->uid;

        done = std::max(done, part_done);
        result.start = first ? start : std::min(result.start, start);
        first = false;
    }

    if (plan.rowSplit) {
        // Cross-part reduction: partial sums are shuffled to the home
        // tile and added with pipelined DCE ADDs; charge one ADD per
        // extra part per column stripe plus the row I/O.
        std::size_t parts_per_col = 0;
        for (const auto &part : plan.parts)
            parts_per_col += part.col0 == plan.parts[0].col0;
        const std::size_t extra =
            parts_per_col > 0 ? parts_per_col - 1 : 0;
        if (extra > 0) {
            const auto add =
                kernels_.macro(digital::MacroKind::Add, 32);
            const auto io =
                kernels_.rowIo(std::min<std::size_t>(plan.cols, 64));
            const Cycle penalty = static_cast<Cycle>(extra) *
                                  (add.amortized + io.latency);
            done += penalty;
            const std::size_t home = plan.parts[0].hctIndex;
            busyUntil_[home] = std::max(busyUntil_[home], done);
            chip_.hct(home).arbiter().rebase(busyUntil_[home]);
            // The home tile's DCE is doing the cross-part adds, so
            // the next pipelined issue slips by the same amount.
            nextIssue_[home] += penalty;
        }
    }
    result.done = done;

    doneCycle_[id - 1] = done;
    for (RequestId waiter_id : req.waiters) {
        Request &waiter = requestAt(waiter_id);
        waiter.depBound = std::max(waiter.depBound, done);
        if (--waiter.unmetDeps == 0)
            makeReady(waiter);
    }
    ++counters_.issued;
    counters_.pipelineHits += pipelined;
    results_.emplace(id, CompletedRequest{std::move(result), req.session});
    ++completed_;
    while (!queue_.empty() && !queue_.front().queued) {
        queue_.pop_front();
        ++queueBase_;
    }
}

MvmResult
Scheduler::wait(const MvmFuture &future, u64 session)
{
    SeqLock lock(mu_);
    if (!future.valid())
        throw std::invalid_argument(
            "Scheduler::wait: invalid (default-constructed) future");
    auto it = results_.find(future.id());
    if (it == results_.end()) {
        // Not executed yet: validate once against the queue (ids
        // never re-enter it), then drain until the result appears.
        const Request *req = findQueued(future.id());
        if (req == nullptr)
            throw std::invalid_argument(
                "Scheduler::wait: future " +
                std::to_string(future.id()) +
                " is unknown or was already collected");
        if (req->session != session)
            throw std::invalid_argument(
                "Scheduler::wait: future " +
                std::to_string(future.id()) + " belongs to session " +
                std::to_string(req->session) + ", not to session " +
                std::to_string(session));
        while (doneCycle_[future.id() - 1] == kPendingDone)
            executeAt(pickNext());
        it = results_.find(future.id());
    }
    if (it->second.session != session)
        throw std::invalid_argument(
            "Scheduler::wait: future " + std::to_string(future.id()) +
            " belongs to session " +
            std::to_string(it->second.session) + ", not to session " +
            std::to_string(session));
    MvmResult result = std::move(it->second.result);
    results_.erase(it);
    return result;
}

Cycle
Scheduler::waitAll()
{
    SeqLock lock(mu_);
    while (pending_ > 0)
        executeAt(pickNext());
    return makespanLocked();
}

void
Scheduler::drainSession(u64 session)
{
    SeqLock lock(mu_);
    while (queuedUnder(sessionQueued_, session) > 0)
        executeAt(pickNext());
}

void
Scheduler::discardSession(u64 session)
{
    SeqLock lock(mu_);
    for (auto it = results_.begin(); it != results_.end();) {
        if (it->second.session == session)
            it = results_.erase(it);
        else
            ++it;
    }
    if (const auto it = sessionQueued_.find(session);
        it != sessionQueued_.end() && it->second == 0)
        sessionQueued_.erase(it);
}

void
Scheduler::drainMatrix(int handle)
{
    SeqLock lock(mu_);
    while (queuedUnder(handleQueued_, handle) > 0)
        executeAt(pickNext());
}

Cycle
Scheduler::busyUntil(std::size_t hct) const
{
    SeqLock lock(mu_);
    if (hct >= busyUntil_.size())
        darth_panic("Scheduler::busyUntil: HCT ", hct,
                    " out of range ", busyUntil_.size());
    return busyUntil_[hct];
}

Cycle
Scheduler::makespan() const
{
    SeqLock lock(mu_);
    return makespanLocked();
}

Cycle
Scheduler::makespanLocked() const
{
    Cycle max = 0;
    for (Cycle t : busyUntil_)
        max = std::max(max, t);
    return max;
}

} // namespace runtime
} // namespace darth
