#include "serve/Admission.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/Fnv.h"
#include "common/Logging.h"
#include "journal/Journal.h"
#include "serve/FleetController.h"

namespace darth
{
namespace serve
{

const char *
qosPolicyName(QosPolicy policy)
{
    switch (policy) {
      case QosPolicy::Fifo:
        return "fifo";
      case QosPolicy::RoundRobin:
        return "round_robin";
      case QosPolicy::WeightedFair:
        return "weighted_fair";
    }
    darth_panic("qosPolicyName: unknown policy");
}

const char *
overflowPolicyName(OverflowPolicy policy)
{
    switch (policy) {
      case OverflowPolicy::Block:
        return "block";
      case OverflowPolicy::Reject:
        return "reject";
    }
    darth_panic("overflowPolicyName: unknown policy");
}

const char *
granularityName(Granularity granularity)
{
    switch (granularity) {
      case Granularity::Inference:
        return "inference";
      case Granularity::Stage:
        return "stage";
    }
    darth_panic("granularityName: unknown granularity");
}

std::vector<Tenant>
buildTenants(ChipPool &pool, const TrafficGen &gen,
             const std::vector<TenantSpec> &specs)
{
    std::vector<Tenant> tenants;
    tenants.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const TenantSpec &spec = specs[i];
        TrafficGen::validateSpec(spec);
        // A zero modelKey means a private model: give the weights a
        // unique identity (salted by the tenant index) but keep the
        // placement key 0 so no affinity sharing happens.
        const u64 weight_key = spec.modelKey != 0
                                   ? spec.modelKey
                                   : TrafficGen::privateModelKey(i);
        Tenant tenant;
        tenant.name = spec.name;
        tenant.weight = spec.weight;
        switch (spec.kind) {
          case WorkloadKind::CnnInfer:
            tenant.model = pool.placeCnnInference(
                spec.modelKey, gen.cnnInferNet(weight_key));
            break;
          case WorkloadKind::LlmInfer:
            tenant.model = pool.placeLlmInference(
                spec.modelKey, gen.llmInferNet(weight_key));
            break;
          default:
            tenant.model = pool.placeModel(
                spec.modelKey, gen.weights(spec.kind, weight_key),
                TrafficGen::elementBits(spec.kind),
                TrafficGen::bitsPerCell(spec.kind),
                TrafficGen::inputBits(spec.kind));
            break;
        }
        tenant.inputBits = TrafficGen::inputBits(spec.kind);
        tenant.slo = spec.slo;
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

AdmissionController::AdmissionController(ChipPool &pool,
                                         std::vector<Tenant> tenants,
                                         const AdmissionConfig &cfg)
    : pool_(pool), tenants_(std::move(tenants)), cfg_(cfg)
{
    if (cfg.queueDepth == 0)
        throw std::invalid_argument(
            "AdmissionController: queueDepth must be at least 1");
    if (!cfg.chipQueueDepth.empty()) {
        if (cfg.chipQueueDepth.size() != pool.numChips())
            throw std::invalid_argument(
                "AdmissionController: chipQueueDepth has " +
                std::to_string(cfg.chipQueueDepth.size()) +
                " entries but the pool has " +
                std::to_string(pool.numChips()) + " chips");
        for (std::size_t c = 0; c < cfg.chipQueueDepth.size(); ++c)
            if (cfg.chipQueueDepth[c] == 0)
                throw std::invalid_argument(
                    "AdmissionController: chipQueueDepth[" +
                    std::to_string(c) + "] must be at least 1");
    }
    // Mixed-clock pools are legal: every aggregate statistic is
    // wall-clock, converted per chip through the pool's exact
    // integer-picosecond periods. (The pool constructor already
    // rejected clocks that are not frequency bins.)
    for (const Tenant &t : tenants_) {
        if (t.weight <= 0.0)
            throw std::invalid_argument(
                "AdmissionController: tenant '" + t.name +
                "' has non-positive weight");
        // Resolves the model (panics on an unknown ref). Fleet
        // tenants that have not arrived yet carry kNoModel and are
        // placed lazily at their arrival moment.
        if (t.model != kNoModel)
            (void)pool_.modelChip(t.model);
    }
    // Serving drains are strictly admission-ordered: QoS is decided
    // here, not re-decided by the packer's greedy order.
    for (std::size_t c = 0; c < pool_.numChips(); ++c)
        pool_.runtime(c).scheduler().setDequeueHook(
            runtime::Scheduler::submissionOrderHook());
}

AdmissionController::AdmissionController(ChipPool &pool,
                                         FleetController &fleet,
                                         const AdmissionConfig &cfg)
    : AdmissionController(pool, fleet.buildInitialTenants(), cfg)
{
    if (&fleet.pool() != &pool)
        throw std::invalid_argument(
            "AdmissionController: the FleetController drives a "
            "different ChipPool than the admission layer");
    fleet_ = &fleet;
}

void
AdmissionController::setJournal(journal::Journal *journal)
{
    SeqLock lock(mu_);
    journal_ = journal;
}

namespace
{

constexpr WallNs kNever = std::numeric_limits<WallNs>::max();

/**
 * Live-window bound. A chip whose tenant goes quiet can leave up to
 * a window's worth of admitted units unresolved until the next
 * arrival on that chip (or the run's tail), pinning the window front
 * while other chips stream past — so when more than this many
 * pulled requests are unresolved, the front chip's submission queue
 * is force-materialized (ServeLoop::relieveLive). That is
 * behavior-neutral for outputs and time stamps but can reorder
 * journal records relative to the lazy order, so the bound sits far
 * above any test's concurrency: it cannot fire on a run of at most
 * this many requests.
 */
constexpr std::size_t kMaxLive = 65536;

struct Pending
{
    std::size_t reqIdx;
    /** Single-MVM requests resolve this future... */
    runtime::MvmFuture future;
    /** ...whole-unit inference requests carry their already-run
     *  outcome (the graph executes at admission; time stamps honour
     *  the admission-time earliest bound either way)... */
    bool isInference = false;
    InferenceOutcome outcome;
    /** ...and stage-granular admissions name one stage of their
     *  request's in-flight run. */
    bool isStage = false;
    std::size_t stage = 0;
};

/** One not-yet-admitted unit: a fresh request, or (stage
 *  granularity) the next stage of a partially-run request, ready no
 *  earlier than its previous stage's completion. */
struct WaitingItem
{
    std::size_t reqIdx;
    WallNs ready = 0;
};

struct ChipState
{
    /** Admitted, timestamps not yet materialized (these sit in the
     *  chip scheduler's submission queue). */
    std::deque<Pending> notWaited;
    /** Materialized completion instants still occupying slots
     *  (wall ns). */
    std::priority_queue<WallNs, std::vector<WallNs>,
                        std::greater<WallNs>>
        occupied;
    /** Round-robin rotation order: the tenants placed on this chip
     *  (static runs), or every tenant (fleet runs, where placements
     *  move between chips mid-run). */
    std::vector<std::size_t> tenants;
    std::size_t rrCursor = 0;
    /** Waiting-room items bound to this chip. */
    std::size_t waitingCount = 0;
    /** Start-time-fair-queueing virtual time (start tag of the most
     *  recently admitted request, in picoseconds). */
    double virtualTime = 0.0;
    /** Admissions on this chip so far (stage-interleaving
     *  detection). */
    u64 admitSeq = 0;
};

/** A pulled request, held from its pull to its resolution. */
struct LiveRequest
{
    ServeRequest req;
    /** The placement the request bound to at arrival, and its
     *  chip. */
    ModelRef model = kNoModel;
    std::size_t chip = 0;
    /** Stage granularity: the in-flight run, and the chip admission
     *  sequence number of its last admitted stage (an intervening
     *  foreign admission marks interleaving). */
    std::unique_ptr<StagedInference> run;
    u64 lastAdmitSeq = 0;
    /** Completed or rejected: `values` is final and the entry may
     *  fold out once it reaches the window front. */
    bool resolved = false;
    std::vector<i64> values;
};

/** A placement whose tiles are reclaimed once its refs drain. */
struct DyingModel
{
    bool migration = false;
    std::size_t tenant = 0;
    ModelRef newModel = kNoModel;
    /** When the migration began / the tenant departed — the reclaim
     *  event is stamped no earlier than this. */
    WallNs sinceNs = 0;
};

/** A tenant arrive (rank 0) or depart (rank 1) moment. */
struct Moment
{
    WallNs at;
    int rank;
    std::size_t tenant;
};

/**
 * One serving run: the admission event loop behind both run() and
 * runStream(), in static and fleet mode alike. Requests are pulled
 * one at a time from a RequestSource and held only while live (the
 * `live_` window, indexed by request index minus `liveBase_`);
 * journal records append in program order; resolved requests fold
 * out of the window front into the output checksum in request order.
 * Static and fleet runs differ only in where a pulled request binds
 * (its tenant's chip, fixed up front, vs. the placement at arrival)
 * and in the lifecycle moments a fleet run processes first.
 */
class ServeLoop
{
  public:
    ServeLoop(ChipPool &pool, std::vector<Tenant> &tenants,
              const AdmissionConfig &cfg, journal::Journal *jr,
              FleetController *fleet);

    ServeReport run(RequestSource &source);

  private:
    void emit(journal::EventKind kind, WallNs at, u64 a, u64 b, u64 c,
              u64 d, std::vector<i64> values = {});
    std::size_t depthFor(std::size_t c) const;
    LiveRequest &liveAt(std::size_t i) { return live_[i - liveBase_]; }

    void pull(std::size_t i, ServeRequest req);
    void stepRequest(std::size_t i);
    void reject(std::size_t i);
    void foldReady();
    void deliver(std::size_t i, std::vector<i64> values);
    void relieveLive();
    void drainChip(std::size_t c);
    ServeReport finish();

    const WaitingItem *frontFor(std::size_t t, std::size_t c) const;
    void materializeFront(std::size_t c);
    void recordCompletion(std::size_t c, const LiveRequest &entry,
                          WallNs start, WallNs done, u64 mvms);
    std::optional<WallNs> acquireSlot(std::size_t c, WallNs up_to);
    std::size_t chooseTenant(std::size_t c);
    void admit(std::size_t c, WallNs slot_ns);
    void drainWaiting(std::size_t c, WallNs up_to);

    void finalizeModel(ModelRef m, WallNs at);
    void releaseRef(ModelRef m, WallNs at);
    u64 refCount(ModelRef m) const;
    void processLifecycle(WallNs up_to);
    void tenantArrive(std::size_t t, WallNs at);
    void tenantDepart(std::size_t t, WallNs at);
    void migrateOneFrom(std::size_t src, WallNs at);
    void fleetTick(WallNs at);

    ChipPool &pool_;
    /** The controller's tenant table: mutable in fleet mode (lazy
     *  placements, migration rebinding). */
    std::vector<Tenant> &tenants_;
    const AdmissionConfig &cfg_;
    journal::Journal *const jr_;
    /** nullptr for static runs. */
    FleetController *const fleet_;
    const std::size_t numChips_;
    const std::size_t numTenants_;
    const bool staged_;

    ServeReport report_;
    /** Scheduler counters are lifetime values; the run start
     *  snapshot lets the report carry this run's deltas even on a
     *  reused pool. */
    std::vector<runtime::SchedulerCounters> counters0_;
    std::vector<ChipState> chips_;
    std::vector<std::deque<WaitingItem>> waiting_;
    /**
     * Weighted-fair accounting is start-time fair queueing: each
     * admission of tenant t gets a start tag S = max(chip virtual
     * time, t's finish tag) and advances t's finish tag by its
     * *nominal* service — the KernelModel oracle latency of the
     * request's model in integer picoseconds of wall time (the
     * packet length of WFQ, comparable across clock domains) —
     * divided by the weight. The max() with the chip's virtual time
     * means an idle tenant banks no credit; charging the oracle cost
     * rather than measured done-start keeps tile contention and
     * pipelining from skewing the shares away from the weights.
     */
    std::vector<double> finishTag_;
    /** Static runs: each tenant's chip, bound once up front. */
    std::vector<std::size_t> tenantChip_;

    std::deque<LiveRequest> live_;
    std::size_t liveBase_ = 0;
    u64 rollingHash_ = kFnvOffsetBasis;

    // ---- Fleet lifecycle state (empty for static runs). ----
    /** Active (non-departed) tenants bound to each placement; a
     *  placement is reclaimable once this hits zero. */
    std::map<ModelRef, std::size_t> modelTenants_;
    /** Requests bound to each placement that have not finished (or
     *  been rejected) yet: the drain gate for deferred release. */
    std::map<ModelRef, u64> refs_;
    std::map<ModelRef, DyingModel> dying_;
    std::vector<bool> departed_;
    std::vector<bool> draining_;
    /** Arrive/depart moments from the specs, sorted; at equal
     *  instants arrivals precede departures. */
    std::vector<Moment> moments_;
    std::size_t momentCur_ = 0;
    WallNs nextTick_ = 0;
    /** The last lifecycle moment. */
    WallNs lifeEnd_ = 0;
};

ServeLoop::ServeLoop(ChipPool &pool, std::vector<Tenant> &tenants,
                     const AdmissionConfig &cfg, journal::Journal *jr,
                     FleetController *fleet)
    : pool_(pool), tenants_(tenants), cfg_(cfg), jr_(jr),
      fleet_(fleet), numChips_(pool.numChips()),
      numTenants_(tenants.size()),
      staged_(cfg.granularity == Granularity::Stage),
      counters0_(numChips_), chips_(numChips_), waiting_(numTenants_),
      finishTag_(numTenants_, 0.0)
{
    report_.tenants.resize(numTenants_);
    for (std::size_t t = 0; t < numTenants_; ++t) {
        report_.tenants[t].name = tenants_[t].name;
        report_.tenants[t].weight = tenants_[t].weight;
        report_.tenants[t].slo.spec = tenants_[t].slo;
    }
    report_.chips.resize(numChips_);
    for (std::size_t c = 0; c < numChips_; ++c) {
        ChipStats &cs = report_.chips[c];
        cs.name = pool_.spec(c).name;
        cs.hcts = pool_.chip(c).numHcts();
        cs.clockGHz = pool_.spec(c).clockGHz;
        cs.windowDepth = depthFor(c);
        counters0_[c] = pool_.runtime(c).scheduler().counters();
    }

    // Every request binds to its tenant's placement exactly once:
    // statically up front, or — in fleet mode — at its arrival
    // moment, so a later migration moves only *future* requests and
    // begun work always finishes on the chip it began on.
    if (fleet_ == nullptr) {
        tenantChip_.resize(numTenants_);
        for (std::size_t t = 0; t < numTenants_; ++t) {
            tenantChip_[t] = pool_.modelChip(tenants_[t].model);
            chips_[tenantChip_[t]].tenants.push_back(t);
        }
        for (std::size_t c = 0; c < numChips_; ++c)
            report_.chips[c].tenants = chips_[c].tenants.size();
        return;
    }
    for (ChipState &cs : chips_)
        for (std::size_t t = 0; t < numTenants_; ++t)
            cs.tenants.push_back(t);
    departed_.assign(numTenants_, false);
    draining_.assign(numChips_, false);
    for (const Tenant &t : tenants_)
        if (t.model != kNoModel)
            modelTenants_[t.model] += 1;
    const std::vector<TenantSpec> &specs = fleet_->specs();
    for (std::size_t t = 0; t < specs.size(); ++t) {
        if (specs[t].arriveNs > 0)
            moments_.push_back({specs[t].arriveNs, 0, t});
        if (specs[t].departNs > 0)
            moments_.push_back({specs[t].departNs, 1, t});
    }
    std::stable_sort(moments_.begin(), moments_.end(),
                     [](const Moment &a, const Moment &b) {
                         if (a.at != b.at)
                             return a.at < b.at;
                         return a.rank < b.rank;
                     });
    for (const Moment &m : moments_)
        lifeEnd_ = std::max(lifeEnd_, m.at);
    nextTick_ = fleet_->config().checkIntervalNs;
}

void
ServeLoop::emit(journal::EventKind kind, WallNs at, u64 a, u64 b,
                u64 c, u64 d, std::vector<i64> values)
{
    if (jr_ == nullptr)
        return;
    journal::JournalEvent e;
    e.kind = kind;
    e.cycle = at;
    e.a = a;
    e.b = b;
    e.c = c;
    e.d = d;
    e.values = std::move(values);
    jr_->append(std::move(e));
}

/** Per-chip submission window: uniform queueDepth unless the config
 *  names one depth per slot. */
std::size_t
ServeLoop::depthFor(std::size_t c) const
{
    return cfg_.chipQueueDepth.empty() ? cfg_.queueDepth
                                       : cfg_.chipQueueDepth[c];
}

ServeReport
ServeLoop::run(RequestSource &source)
{
    std::size_t i = 0;
    WallNs last_arrival = 0;
    ServeRequest pulled;
    while (source.next(pulled)) {
        if (pulled.tenant >= numTenants_)
            darth_fatal("AdmissionController: request ", i,
                        " names tenant ", pulled.tenant, " but only ",
                        numTenants_, " tenants exist");
        if (pulled.arrival < last_arrival)
            darth_fatal("AdmissionController: requests are not sorted "
                        "by arrival (request ", i, ")");
        last_arrival = pulled.arrival;
        pull(i, std::move(pulled));
        stepRequest(i);
        relieveLive();
        ++i;
    }
    if (fleet_ != nullptr) {
        // Remaining lifecycle (late departures, wind-down ticks);
        // the tail drain below finishes begun work, which releases
        // the last dying placements.
        processLifecycle(std::max(lifeEnd_, last_arrival));
    }
    for (std::size_t c = 0; c < numChips_; ++c)
        drainChip(c);
    if (fleet_ != nullptr)
        for (std::size_t t = 0; t < numTenants_; ++t)
            if (!departed_[t] && tenants_[t].model != kNoModel)
                report_.chips[pool_.modelChip(tenants_[t].model)]
                    .tenants += 1;
    return finish();
}

/** Bind pulled request i to its placement and open its live-window
 *  entry. Fleet runs first process every lifecycle moment up to the
 *  arrival, so the binding is the placement *at arrival*. */
void
ServeLoop::pull(std::size_t i, ServeRequest req)
{
    if (fleet_ != nullptr)
        processLifecycle(req.arrival);
    const Tenant &tenant = tenants_[req.tenant];
    if (tenant.model == kNoModel)
        darth_fatal("AdmissionController: request ", i, " arrives at ",
                    req.arrival, " ns but tenant '", tenant.name,
                    "' has not arrived yet");
    LiveRequest entry;
    entry.model = tenant.model;
    if (fleet_ != nullptr) {
        entry.chip = pool_.modelChip(entry.model);
        refs_[entry.model] += 1;
    } else {
        entry.chip = tenantChip_[req.tenant];
    }
    entry.req = std::move(req);
    live_.push_back(std::move(entry));
}

/** Request i arrives at its bound chip: catch up, then admit, park
 *  or reject it. The request's fields are copied up front: once
 *  admitted, it can resolve and fold out of the window mid-step. */
void
ServeLoop::stepRequest(std::size_t i)
{
    const std::size_t c = liveAt(i).chip;
    const std::size_t tenant = liveAt(i).req.tenant;
    const WallNs arrival = liveAt(i).req.arrival;
    const std::vector<i64> &input = liveAt(i).req.input;
    emit(journal::EventKind::Arrival, arrival, i, tenant, c,
         fnv1aWords(input), input);
    // True while request i is parked in its tenant's waiting room
    // (blocked, or not yet re-claimed under Reject).
    auto still_waiting = [&] {
        for (const WaitingItem &item : waiting_[tenant])
            if (item.reqIdx == i)
                return true;
        return false;
    };
    // Catch up: older blocked requests claim any slot that freed
    // before this arrival.
    drainWaiting(c, arrival);

    if (cfg_.overflow == OverflowPolicy::Block) {
        waiting_[tenant].push_back({i, WallNs{0}});
        chips_[c].waitingCount += 1;
        drainWaiting(c, arrival);
        if (still_waiting())
            emit(journal::EventKind::Backpressure, arrival, i, tenant, c,
                 /*blocked=*/0);
        return;
    }
    // Reject drops *fresh arrivals* only: a request that has begun is
    // finished — its continuation stages get first claim on freed
    // slots (the catch-up drain above, plus the re-claim loop below
    // for continuations parked by this very slot hunt's
    // materialization).
    const auto slot = acquireSlot(c, arrival);
    if (!slot) {
        reject(i);
        return;
    }
    waiting_[tenant].push_back({i, WallNs{0}});
    chips_[c].waitingCount += 1;
    admit(c, *slot);
    while (still_waiting()) {
        const auto next = acquireSlot(c, arrival);
        if (!next)
            break;
        admit(c, *next);
    }
    if (still_waiting()) {
        auto &room = waiting_[tenant];
        for (auto it = room.begin(); it != room.end(); ++it)
            if (it->reqIdx == i) {
                room.erase(it);
                break;
            }
        chips_[c].waitingCount -= 1;
        reject(i);
    }
}

/** Drop fresh request i (Reject overflow). Resolves — and may fold
 *  out — its live entry, so it is the caller's last use of it. */
void
ServeLoop::reject(std::size_t i)
{
    const LiveRequest &entry = liveAt(i);
    const ServeRequest &req = entry.req;
    report_.tenants[req.tenant].rejected += 1;
    report_.tenants[req.tenant].slo.recordRejected();
    emit(journal::EventKind::Backpressure, req.arrival, i, req.tenant,
         entry.chip, /*rejected=*/1);
    releaseRef(entry.model, req.arrival);
    deliver(i, {});
}

/** Fold resolved requests out of the window front, oldest first:
 *  the FNV-1a output checksum (the frozen word-wise scheme of
 *  common/Fnv.h) advances in request order, so identical traffic
 *  yields an identical checksum whatever the pool size, policy, or
 *  fleet lifecycle. */
void
ServeLoop::foldReady()
{
    while (!live_.empty() && live_.front().resolved) {
        std::vector<i64> &values = live_.front().values;
        rollingHash_ = fnv1aWords(values, rollingHash_);
        if (cfg_.collectOutputs)
            report_.outputs.push_back(std::move(values));
        live_.pop_front();
        ++liveBase_;
    }
}

/** Resolve request i with its outputs (empty for a rejection). */
void
ServeLoop::deliver(std::size_t i, std::vector<i64> values)
{
    LiveRequest &entry = liveAt(i);
    entry.values = std::move(values);
    entry.resolved = true;
    foldReady();
}

/** Bound the live window (see kMaxLive). Forcing a *non-staged*
 *  unit only resolves already-determined timestamps (acquireSlot
 *  materializes the whole queue anyway before reading a slot); a
 *  staged front is never forced, since materializing it parks a
 *  continuation that would race future admissions. */
void
ServeLoop::relieveLive()
{
    while (live_.size() > kMaxLive) {
        if (live_.front().resolved) {
            foldReady();
            continue;
        }
        const std::size_t c = live_.front().chip;
        ChipState &cs = chips_[c];
        if (cs.notWaited.empty() || cs.notWaited.front().isStage)
            break;
        materializeFront(c);
        foldReady();
    }
}

/** Arrivals exhausted: admit every blocked unit on chip c as slots
 *  free, then resolve the tail of its submission queue.
 *  Materializing a stage can park its request's *next* stage, so
 *  loop until the waiting rooms stay empty. */
void
ServeLoop::drainChip(std::size_t c)
{
    do {
        drainWaiting(c, kNever);
        while (!chips_[c].notWaited.empty())
            materializeFront(c);
    } while (chips_[c].waitingCount > 0);
}

/** Run-level aggregates, per-chip summaries, and the trailer. */
ServeReport
ServeLoop::finish()
{
    for (const ChipStats &cs : report_.chips) {
        report_.completed += cs.completed;
        report_.makespanNs = std::max(report_.makespanNs, cs.makespanNs);
    }
    for (const TenantStats &ts : report_.tenants)
        report_.rejected += ts.rejected;

    for (std::size_t c = 0; c < numChips_; ++c) {
        const runtime::SchedulerCounters &now =
            pool_.runtime(c).scheduler().counters();
        ChipStats &cs = report_.chips[c];
        cs.issued = now.issued - counters0_[c].issued;
        cs.pipelineHits = now.pipelineHits - counters0_[c].pipelineHits;
        cs.dependencyStalls =
            now.dependencyStalls - counters0_[c].dependencyStalls;
        emit(journal::EventKind::ChipSummary, cs.makespanNs, c,
             cs.issued, cs.pipelineHits, cs.dependencyStalls,
             {static_cast<i64>(cs.completed), static_cast<i64>(cs.mvms),
              static_cast<i64>(cs.interleavedStages)});
    }

    foldReady();
    if (!live_.empty())
        darth_panic("AdmissionController: ", live_.size(),
                    " requests left unresolved after the tail drain");
    report_.outputChecksum = rollingHash_;
    emit(journal::EventKind::RunEnd, report_.makespanNs,
         report_.completed, report_.rejected, report_.outputChecksum, 0);
    return std::move(report_);
}

/** Oldest waiting item of tenant t bound to chip c (rooms are kept
 *  sorted by reqIdx). Static runs bind a tenant's requests to one
 *  chip, so this is the room's front; fleet runs can have one
 *  tenant's continuations on the old chip and fresh requests on the
 *  new one. */
const WaitingItem *
ServeLoop::frontFor(std::size_t t, std::size_t c) const
{
    for (const WaitingItem &item : waiting_[t])
        if (live_[item.reqIdx - liveBase_].chip == c)
            return &item;
    return nullptr;
}

/**
 * Resolve the oldest admitted unit on chip c: record telemetry and
 * turn its submission-queue slot into a wall-stamped occupied slot.
 * A non-final stage frees its slot at its own completion and parks
 * the request's next stage in the waiting room; request statistics
 * are recorded when the final stage materializes.
 */
void
ServeLoop::materializeFront(std::size_t c)
{
    ChipState &cs = chips_[c];
    Pending pending = std::move(cs.notWaited.front());
    cs.notWaited.pop_front();
    const std::size_t i = pending.reqIdx;
    LiveRequest &entry = liveAt(i);

    std::vector<i64> values;
    WallNs start = 0, done = 0;
    u64 mvms = 1;
    if (pending.isStage) {
        StagedInference &run = *entry.run;
        const WallNs stage_done = pool_.stageDoneNs(run, pending.stage);
        cs.occupied.push(stage_done);
        emit(journal::EventKind::StageComplete, stage_done, i,
             pending.stage, c, 0);
        if (pending.stage + 1 < run.stageCount()) {
            // The freed slot and the parked next stage race through
            // the ordinary admission machinery, so other requests'
            // stages can slip in between. The continuation re-enters
            // its tenant's room in request-age order (the room stays
            // sorted by reqIdx: fresh arrivals append in arrival
            // order), so head-of-room always means oldest request
            // and FIFO QoS stays globally oldest-first.
            auto &room = waiting_[entry.req.tenant];
            auto it = room.begin();
            while (it != room.end() && it->reqIdx < i)
                ++it;
            room.insert(it, {i, stage_done});
            cs.waitingCount += 1;
            return;
        }
        InferenceOutcome outcome = pool_.finishInference(run);
        entry.run.reset();
        values = std::move(outcome.values);
        start = pool_.wallNs(c, outcome.start);
        done = pool_.wallNs(c, outcome.done);
        mvms = outcome.mvms;
    } else if (pending.isInference) {
        values = std::move(pending.outcome.values);
        start = pool_.wallNs(c, pending.outcome.start);
        done = pool_.wallNs(c, pending.outcome.done);
        mvms = pending.outcome.mvms;
    } else {
        runtime::MvmResult r = pool_.wait(entry.model, pending.future);
        values = std::move(r.values);
        start = pool_.wallNs(c, r.start);
        done = pool_.wallNs(c, r.done);
    }

    emit(journal::EventKind::Complete, done, i, entry.req.tenant, c,
         fnv1aWords(values),
         {static_cast<i64>(start), static_cast<i64>(mvms)});
    recordCompletion(c, entry, start, done, mvms);
    // Staged units freed their slot at their own stage completion
    // above; whole units hold it to request done.
    if (!pending.isStage)
        cs.occupied.push(done);
    const ModelRef model = entry.model;
    deliver(i, std::move(values));
    releaseRef(model, done);
}

/** Per-tenant and per-chip statistics of one completed request. */
void
ServeLoop::recordCompletion(std::size_t c, const LiveRequest &entry,
                            WallNs start, WallNs done, u64 mvms)
{
    const WallNs arrival = entry.req.arrival;
    TenantStats &stats = report_.tenants[entry.req.tenant];
    stats.completed += 1;
    stats.mvms += mvms;
    const double latency_ns = static_cast<double>(done - arrival);
    const double queueing_ns = static_cast<double>(start - arrival);
    const double service_ns = static_cast<double>(done - start);
    if (cfg_.retainSamples) {
        stats.latency.push_back(latency_ns);
        stats.queueing.push_back(queueing_ns);
        stats.service.push_back(service_ns);
        stats.doneNs.push_back(static_cast<double>(done));
    }
    stats.latencyHist.push(latency_ns);
    stats.queueingHist.push(queueing_ns);
    stats.serviceHist.push(service_ns);
    stats.serviceNs += service_ns;
    stats.slo.recordLatency(done - arrival);

    ChipStats &chip_stats = report_.chips[c];
    chip_stats.completed += 1;
    chip_stats.mvms += mvms;
    chip_stats.serviceNs += service_ns;
    chip_stats.makespanNs = std::max(chip_stats.makespanNs, done);
}

/** Claim a submission slot on chip c usable by wall instant `up_to`;
 *  returns the instant the slot became free (0 when the window is
 *  not full). */
std::optional<WallNs>
ServeLoop::acquireSlot(std::size_t c, WallNs up_to)
{
    ChipState &cs = chips_[c];
    if (cs.notWaited.size() + cs.occupied.size() < depthFor(c))
        return WallNs{0};
    // Window full: the earliest completion frees the next slot.
    // Materialize the whole submission queue so the earliest
    // completion is exact, not just the earliest known.
    while (!cs.notWaited.empty())
        materializeFront(c);
    const WallNs freed = cs.occupied.top();
    if (freed > up_to)
        return std::nullopt;
    cs.occupied.pop();
    return freed;
}

/** QoS: pick the waiting tenant a freed slot on chip c goes to
 *  (numTenants_ when none waits). */
std::size_t
ServeLoop::chooseTenant(std::size_t c)
{
    ChipState &cs = chips_[c];
    switch (cfg_.qos) {
      case QosPolicy::Fifo: {
        // Oldest original request first — a continuation stage keeps
        // its request's age (waiting rooms are sorted by reqIdx), so
        // under FIFO an in-flight inference's stages outrank every
        // younger request: run-to-completion order.
        std::size_t best = numTenants_;
        std::size_t best_req = 0;
        for (std::size_t t : cs.tenants) {
            const WaitingItem *item = frontFor(t, c);
            if (item == nullptr)
                continue;
            if (best == numTenants_ || item->reqIdx < best_req) {
                best = t;
                best_req = item->reqIdx;
            }
        }
        return best;
      }
      case QosPolicy::RoundRobin: {
        for (std::size_t i = 0; i < cs.tenants.size(); ++i) {
            const std::size_t pos = (cs.rrCursor + i) % cs.tenants.size();
            if (frontFor(cs.tenants[pos], c) != nullptr) {
                cs.rrCursor = (pos + 1) % cs.tenants.size();
                return cs.tenants[pos];
            }
        }
        return numTenants_;
      }
      case QosPolicy::WeightedFair: {
        // Smallest start tag first, ties to the oldest waiting
        // request.
        std::size_t best = numTenants_;
        std::size_t best_req = 0;
        double best_start = 0.0;
        for (std::size_t t : cs.tenants) {
            const WaitingItem *item = frontFor(t, c);
            if (item == nullptr)
                continue;
            const double start = std::max(cs.virtualTime, finishTag_[t]);
            if (best == numTenants_ || start < best_start ||
                (start == best_start && item->reqIdx < best_req)) {
                best = t;
                best_start = start;
                best_req = item->reqIdx;
            }
        }
        return best;
      }
    }
    darth_panic("AdmissionController: unknown QoS policy");
}

/** Admit the QoS-chosen waiting unit into a slot on chip c that
 *  freed at `slot_ns`. */
void
ServeLoop::admit(std::size_t c, WallNs slot_ns)
{
    ChipState &cs = chips_[c];
    const std::size_t t = chooseTenant(c);
    if (t >= numTenants_)
        darth_panic("AdmissionController: admit with no waiting "
                    "tenant on chip ", c);
    auto &room = waiting_[t];
    auto sel = room.begin();
    while (sel != room.end() && liveAt(sel->reqIdx).chip != c)
        ++sel;
    if (sel == room.end())
        darth_panic("AdmissionController: tenant ", t,
                    " has no waiting item for chip ", c);
    const WaitingItem item = *sel;
    room.erase(sel);
    cs.waitingCount -= 1;
    const std::size_t i = item.reqIdx;
    LiveRequest &entry = liveAt(i);
    const ModelRef model = entry.model;
    const double start_tag = std::max(cs.virtualTime, finishTag_[t]);
    cs.virtualTime = start_tag;
    const ServeRequest &req = entry.req;
    // A continuation stage starts no earlier than its previous
    // stage's completion (item.ready). The admission instant is
    // wall-clock; the chip works in its own cycles, so the earliest
    // bound converts exactly at this boundary.
    const WallNs at = std::max(std::max(slot_ns, req.arrival), item.ready);
    const Cycle at_cycle = pool_.cyclesAt(c, at);
    const u64 nominal_ps =
        pool_.nominalServicePs(model, tenants_[t].inputBits);
    u64 charge = nominal_ps;
    // The admitted unit's stage index in the journal record: whole
    // units (single MVMs, whole inferences) admit as one unit and
    // record kNoStage.
    u64 journal_stage = journal::kNoStage;
    Pending pending;
    pending.reqIdx = i;
    if (pool_.isInference(model)) {
        if (staged_) {
            // One window slot and one WFQ charge per *stage*: the
            // forward advances one admission-sized step and
            // re-queues for the next, so stages of different
            // requests interleave on this chip.
            if (!entry.run)
                entry.run = pool_.beginInference(model, req.input,
                                                 at_cycle);
            StagedInference &run = *entry.run;
            pending.isStage = true;
            pending.stage = pool_.advanceInference(run, at_cycle);
            charge = run.stageCharges[pending.stage];
            journal_stage = pending.stage;
            emit(journal::EventKind::StageSubmit, at, i, pending.stage,
                 c, run.stageCount());
            cs.admitSeq += 1;
            if (pending.stage > 0 &&
                cs.admitSeq != entry.lastAdmitSeq + 1)
                report_.chips[c].interleavedStages += 1;
            entry.lastAdmitSeq = cs.admitSeq;
        } else {
            // One window slot per inference: the whole forward is
            // one admitted unit, charged its whole-graph cost.
            pending.isInference = true;
            std::unique_ptr<StagedInference> run =
                pool_.beginInference(model, req.input, at_cycle);
            pending.outcome = pool_.runToCompletion(*run, at_cycle);
        }
    } else {
        if (staged_)
            cs.admitSeq += 1;
        pending.future = pool_.submit(model, req.input,
                                      tenants_[t].inputBits, at_cycle);
    }
    finishTag_[t] =
        start_tag + static_cast<double>(charge) / tenants_[t].weight;
    emit(journal::EventKind::Admit, at, i, t, c, journal_stage,
         {static_cast<i64>(charge), static_cast<i64>(nominal_ps)});
    cs.notWaited.push_back(std::move(pending));
}

/** Admit waiting units on chip c into every slot freeing by
 *  `up_to`. */
void
ServeLoop::drainWaiting(std::size_t c, WallNs up_to)
{
    while (chips_[c].waitingCount > 0) {
        const auto slot = acquireSlot(c, up_to);
        if (!slot)
            break;
        admit(c, *slot);
    }
}

/** Release a drained dying placement: free its tiles and emit the
 *  lifecycle event its reclaim completes (MigrationEnd or
 *  TenantDepart). A draining chip that just lost its last placement
 *  counts as down. */
void
ServeLoop::finalizeModel(ModelRef m, WallNs at)
{
    const auto it = dying_.find(m);
    if (it == dying_.end())
        darth_panic("AdmissionController: finalizing model ", m,
                    " that is not dying");
    const DyingModel info = it->second;
    dying_.erase(it);
    const std::size_t chip = pool_.modelChip(m);
    pool_.releaseModel(m);
    const WallNs stamp = std::max(at, info.sinceNs);
    if (info.migration) {
        report_.fleet.migrations += 1;
        emit(journal::EventKind::MigrationEnd, stamp, info.tenant, m,
             chip, info.newModel);
    } else {
        report_.fleet.departures += 1;
        emit(journal::EventKind::TenantDepart, stamp, info.tenant, m,
             chip, info.sinceNs);
    }
    if (draining_[chip] && pool_.liveModels(chip) == 0) {
        draining_[chip] = false;
        report_.fleet.chipDowns += 1;
        emit(journal::EventKind::ChipDown, stamp, chip, 0, 0, 0);
    }
}

/** Drop one request's claim on its placement (fleet runs); the last
 *  claim on a dying placement triggers the deferred release. */
void
ServeLoop::releaseRef(ModelRef m, WallNs at)
{
    if (fleet_ == nullptr)
        return;
    auto it = refs_.find(m);
    if (it == refs_.end() || it->second == 0)
        darth_panic("AdmissionController: ref underflow on model ", m);
    it->second -= 1;
    if (it->second == 0 && dying_.count(m) != 0)
        finalizeModel(m, at);
}

u64
ServeLoop::refCount(ModelRef m) const
{
    const auto it = refs_.find(m);
    return it == refs_.end() ? 0 : it->second;
}

/** Run every lifecycle moment and controller tick up to `up_to`: at
 *  equal instants arrivals precede departures precede ticks, and all
 *  lifecycle at an instant precedes requests arriving at it. */
void
ServeLoop::processLifecycle(WallNs up_to)
{
    for (;;) {
        const WallNs moment_at = momentCur_ < moments_.size()
                                     ? moments_[momentCur_].at
                                     : kNever;
        if (moment_at > up_to && nextTick_ > up_to)
            return;
        if (moment_at <= nextTick_) {
            const Moment &m = moments_[momentCur_++];
            if (m.rank == 0)
                tenantArrive(m.tenant, m.at);
            else
                tenantDepart(m.tenant, m.at);
        } else {
            fleetTick(nextTick_);
            nextTick_ += fleet_->config().checkIntervalNs;
        }
    }
}

/** A tenant arrives: create its placement now (reactivating drained
 *  slots if the active pool cannot fit it). */
void
ServeLoop::tenantArrive(std::size_t t, WallNs at)
{
    if (tenants_[t].model != kNoModel)
        return;
    FleetController::Placement placed = fleet_->placeTenant(t);
    for (const std::size_t c : placed.activated) {
        draining_[c] = false;
        report_.fleet.chipUps += 1;
        emit(journal::EventKind::ChipUp, at, c, /*emergency=*/1, 0, 0);
    }
    tenants_[t].model = placed.model;
    modelTenants_[placed.model] += 1;
    report_.fleet.arrivals += 1;
    emit(journal::EventKind::TenantArrive, at, t, placed.model,
         pool_.modelChip(placed.model), 0);
}

/** A tenant departs: it stops owning its placement, which is
 *  reclaimed once no live tenant shares it and its begun work has
 *  drained (the TenantDepart event stamps the reclaim). */
void
ServeLoop::tenantDepart(std::size_t t, WallNs at)
{
    if (departed_[t])
        return;
    departed_[t] = true;
    const ModelRef m = tenants_[t].model;
    if (m == kNoModel)
        darth_panic("AdmissionController: tenant ", t,
                    " departs without ever arriving");
    auto &owners = modelTenants_[m];
    if (owners == 0)
        darth_panic("AdmissionController: departure underflow on "
                    "model ", m);
    owners -= 1;
    if (owners == 0 && dying_.count(m) == 0) {
        DyingModel info;
        info.migration = false;
        info.tenant = t;
        info.sinceNs = at;
        dying_[m] = info;
        if (refCount(m) == 0)
            finalizeModel(m, at);
    } else {
        // Placement shared with tenants still active: the tenant
        // leaves, the placement stays.
        report_.fleet.departures += 1;
        emit(journal::EventKind::TenantDepart, at, t, m,
             pool_.modelChip(m), at);
    }
}

/** Migrate one placement off chip `src`: fresh placement of the same
 *  weights elsewhere, rebind every sharing tenant, release the old
 *  tiles once begun work drains. Checksum-invariant by construction
 *  — the weights regenerate bit-identically and requests never
 *  change inputs, only chips. */
void
ServeLoop::migrateOneFrom(std::size_t src, WallNs at)
{
    ModelRef victim = kNoModel;
    for (const auto &entry : modelTenants_)
        if (entry.second > 0 && dying_.count(entry.first) == 0 &&
            pool_.modelChip(entry.first) == src) {
            victim = entry.first;
            break;
        }
    if (victim == kNoModel)
        return;
    std::size_t first_tenant = numTenants_;
    for (std::size_t t = 0; t < numTenants_; ++t)
        if (!departed_[t] && tenants_[t].model == victim) {
            first_tenant = t;
            break;
        }
    if (first_tenant == numTenants_)
        darth_panic("AdmissionController: model ", victim,
                    " has owners but no live tenant");
    const ModelRef fresh = fleet_->tryReplace(first_tenant, src);
    if (fresh == kNoModel) {
        // Nowhere else to go: the old placement keeps serving.
        report_.fleet.migrationsAborted += 1;
        return;
    }
    const std::size_t dst = pool_.modelChip(fresh);
    emit(journal::EventKind::MigrationBegin, at, first_tenant, victim,
         dst, fresh, {static_cast<i64>(src)});
    std::size_t moved = 0;
    for (std::size_t t = 0; t < numTenants_; ++t)
        if (!departed_[t] && tenants_[t].model == victim) {
            tenants_[t].model = fresh;
            moved += 1;
        }
    modelTenants_[fresh] += moved;
    modelTenants_[victim] = 0;
    DyingModel info;
    info.migration = true;
    info.tenant = first_tenant;
    info.newModel = fresh;
    info.sinceNs = at;
    dying_[victim] = info;
    if (refCount(victim) == 0)
        finalizeModel(victim, at);
}

/** One controller tick: refresh the wall-clock load signal and
 *  execute the fleet's plan for this instant. */
void
ServeLoop::fleetTick(WallNs at)
{
    // Resolve every submitted unit so chip makespans reflect all
    // work admitted so far (materialization only resolves
    // already-determined timestamps; it never admits).
    for (std::size_t c = 0; c < numChips_; ++c)
        while (!chips_[c].notWaited.empty())
            materializeFront(c);
    // Backlog = how far the chip's schedule runs ahead of now.
    std::vector<WallNs> loads(numChips_, 0);
    for (std::size_t c = 0; c < numChips_; ++c) {
        const WallNs mk =
            pool_.wallNs(c, pool_.runtime(c).scheduler().makespan());
        loads[c] = mk > at ? mk - at : 0;
    }
    const FleetController::TickPlan plan =
        fleet_->planTick(at, loads, draining_);
    if (plan.scaleUp != kNoChip) {
        pool_.setChipActive(plan.scaleUp, true);
        draining_[plan.scaleUp] = false;
        report_.fleet.chipUps += 1;
        emit(journal::EventKind::ChipUp, at, plan.scaleUp, 0, 0, 0);
    }
    if (plan.scaleDown != kNoChip) {
        pool_.setChipActive(plan.scaleDown, false);
        if (pool_.liveModels(plan.scaleDown) == 0) {
            report_.fleet.chipDowns += 1;
            emit(journal::EventKind::ChipDown, at, plan.scaleDown, 0, 0,
                 0);
        } else {
            // Stops accepting placements now; counts as down once
            // migration empties it.
            draining_[plan.scaleDown] = true;
        }
    }
    if (plan.migrateFrom != kNoChip)
        migrateOneFrom(plan.migrateFrom, at);
}

} // namespace

ServeReport
AdmissionController::run(const std::vector<ServeRequest> &trace)
{
    SeqLock lock(mu_);
    VectorSource source(trace);
    return serve(source);
}

ServeReport
AdmissionController::runStream(RequestSource &source)
{
    SeqLock lock(mu_);
    if (cfg_.collectOutputs)
        throw std::invalid_argument(
            "AdmissionController::runStream: collectOutputs needs "
            "O(requests) memory; use run() for output collection");
    return serve(source);
}

ServeReport
AdmissionController::serve(RequestSource &source)
{
    return ServeLoop(pool_, tenants_, cfg_, journal_, fleet_)
        .run(source);
}

} // namespace serve
} // namespace darth
