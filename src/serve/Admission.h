/**
 * @file
 * QoS-aware admission control with per-chip backpressure.
 *
 * The AdmissionController is the serving front end above a ChipPool.
 * Each chip has a bounded submission window of units in flight
 * (admitted but not yet complete) — the model of a front end with
 * finite ingest bandwidth. The window is per-chip: `queueDepth`
 * uniformly, or `chipQueueDepth[c]` per slot for heterogeneous
 * pools. The admitted *unit* is set by AdmissionConfig::granularity:
 * a whole request (single MVM or whole inference), or — at Stage
 * granularity — one InferenceRun stage at a time, each freeing its
 * slot at its own completion and re-queueing the request's next
 * stage, so stages of different requests interleave on one chip
 * while outputs stay bit-identical to whole-unit admission. When a
 * unit arrives and its chip's window is full, the overflow policy
 * decides:
 *
 *  - Block  — the client stalls in a per-tenant waiting room and is
 *             admitted the instant a slot frees (never dropped);
 *  - Reject — a *fresh* request is dropped and counted against its
 *             tenant; continuation stages of an already-begun
 *             inference always block instead (a begun forward is
 *             never stranded).
 *
 * Which waiting tenant is admitted into a freed slot is the QoS
 * policy:
 *
 *  - Fifo         — global arrival order;
 *  - RoundRobin   — cycle over tenants with waiting requests
 *                   (starvation-free by construction);
 *  - WeightedFair — start-time fair queueing: each admission gets a
 *                   start tag max(chip virtual time, tenant finish
 *                   tag), the finish tag advances by the KernelModel
 *                   oracle latency of the request's model in wall
 *                   picoseconds (the packet length of classic WFQ,
 *                   clock-independent) over the weight, and the
 *                   smallest start tag wins. Shares converge to the
 *                   weights under saturation, and a tenant
 *                   returning from idle re-enters at the current
 *                   virtual time — idle periods bank no credit.
 *
 * Admission order, not scheduler drain order, is what carries QoS:
 * an admitted request's `earliest` bound is its admission instant,
 * so holding a request back delays it in simulated time. The
 * controller additionally sets every chip's scheduler to
 * DrainOrder::Submission so drains service strictly in admission
 * order instead of the greedy earliest-start order.
 *
 * Time here is wall-clock nanoseconds (common/Types.h WallNs):
 * chips are independent cycle domains, and every per-chip cycle
 * stamp converts exactly at the admission boundary through the
 * chip's integer-picosecond period (ChipPool::wallNs/cyclesAt), so
 * mixed-clock pools aggregate legally — arrivals, latencies,
 * SLO targets, journal timestamps, and WFQ charges (integer
 * picoseconds) all live in one comparable domain. At the default
 * 1 GHz bin one cycle is one nanosecond, so uniform-clock runs
 * report the same numbers the cycle-domain controller did.
 *
 * With a FleetController attached (the fleet-mode constructor) the
 * run additionally models fleet lifecycle: tenants arrive and
 * depart mid-trace, placements migrate between chips, and slots
 * scale up and down — every action journaled as its own EventKind.
 * Each request binds to its tenant's placement *at arrival*, and a
 * replaced placement is released only when its bound requests have
 * drained, so begun work always finishes where it began and no
 * accepted inference is ever lost.
 *
 * Every run is one sequential event loop over a RequestSource:
 * run() drives a VectorSource over its trace, runStream() the
 * caller's source. Static and fleet runs differ only in where a
 * pulled request binds and whether lifecycle moments run first.
 *
 * Everything is deterministic: one trace, one config, one report —
 * and under Block (where every request completes) the functional
 * outputs are bit-identical across pool sizes, policies, and fleet
 * lifecycle decisions; only the time stamps move. Reject runs
 * complete different subsets per configuration, so their checksums
 * are comparable only between identical configs.
 */

#ifndef DARTH_SERVE_ADMISSION_H
#define DARTH_SERVE_ADMISSION_H

#include <cstddef>
#include <string>
#include <vector>

#include "common/ThreadAnnotations.h"
#include "serve/ChipPool.h"
#include "serve/ServeStats.h"
#include "serve/Slo.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace journal
{
class Journal;
} // namespace journal

namespace serve
{

class FleetController;

/** How a freed submission slot picks the next waiting tenant. */
enum class QosPolicy
{
    Fifo,
    RoundRobin,
    WeightedFair,
};

const char *qosPolicyName(QosPolicy policy);

/** What happens to an arrival when its chip's window is full. */
enum class OverflowPolicy
{
    Block,
    Reject,
};

const char *overflowPolicyName(OverflowPolicy policy);

/**
 * The unit of admission for whole-inference tenants.
 *
 *  - Inference — one admitted unit per request: the whole forward
 *                runs at admission, occupies one window slot until
 *                its graph completes, and is WFQ-charged its whole
 *                nominal cost (PR 3 semantics).
 *  - Stage     — one admitted unit per InferenceRun stage: each
 *                stage occupies a window slot only until *it*
 *                completes, re-enters the waiting room for its next
 *                stage, and is WFQ-charged its per-stage share of
 *                the nominal cost. Stages of different requests
 *                interleave on one chip; functional outputs stay
 *                bit-identical to Inference granularity (the FNV
 *                checksum invariant) — only cycle stamps move.
 *
 * Single-MVM tenants are one-stage requests: both granularities
 * treat them identically.
 */
enum class Granularity
{
    Inference,
    Stage,
};

const char *granularityName(Granularity granularity);

/** Admission-layer configuration. */
struct AdmissionConfig
{
    /** Uniform per-chip submission window (in-flight requests);
     *  >= 1. Overridden per chip by `chipQueueDepth` when set. */
    std::size_t queueDepth = 8;
    /**
     * Heterogeneous windows: chipQueueDepth[c] is chip c's
     * submission window (a bigger front end ingests more). Must be
     * empty (uniform `queueDepth` everywhere) or have one positive
     * entry per pool chip.
     */
    std::vector<std::size_t> chipQueueDepth;
    QosPolicy qos = QosPolicy::Fifo;
    OverflowPolicy overflow = OverflowPolicy::Block;
    /** Admission unit for inference tenants (see Granularity). */
    Granularity granularity = Granularity::Inference;
    /** Keep every request's output vector in the report. run()
     *  only: runStream() folds outputs into the rolling checksum and
     *  drops them (collectOutputs there throws). */
    bool collectOutputs = false;
    /**
     * Retain the per-request latency/queueing/service/doneNs sample
     * vectors in TenantStats (O(requests) memory). Off by default:
     * the streaming histograms and exact aggregates
     * (TenantStats::latencyHist etc.) are always filled and are the
     * O(1)-memory report surface; tests that assert on raw samples
     * opt back in. Host-only knob — deliberately NOT recorded in
     * the journal (it changes no event and no exact quantity).
     */
    bool retainSamples = false;
};

/** One admitted tenant of the serving cluster. */
struct Tenant
{
    std::string name;
    double weight = 1.0;
    /** The tenant's current placement. kNoModel for a fleet tenant
     *  that has not arrived yet (placed lazily at arriveNs);
     *  rebound by live migration. */
    ModelRef model = 0;
    int inputBits = 8;
    /** Latency/availability SLO (from TenantSpec::slo); run()
     *  tracks burn rate against it in TenantStats::slo. */
    SloSpec slo;
};

/**
 * The model one tenant spec serves, weights from the traffic
 * generator. A non-zero modelKey names the weights (shared by every
 * spec with that key); a zero modelKey is a private model whose
 * weights are salted by the tenant's index
 * (TrafficGen::privateModelKey), so placing the tenant again — a
 * migration, a lazy arrival — regenerates bit-identical weights.
 */
ModelSpec tenantModel(const TrafficGen &gen, const TenantSpec &spec,
                      std::size_t tenant_index);

/**
 * Place every spec's model (tenantModel) in the pool and build the
 * admission-layer tenant list. Specs with a non-zero modelKey share
 * weights — and, under MatrixAffinity placement, the placement
 * itself.
 */
std::vector<Tenant> buildTenants(ChipPool &pool, const TrafficGen &gen,
                                 const std::vector<TenantSpec> &specs);

/**
 * Serving front end: admission, backpressure, and QoS.
 *
 * The tenant table and config are GUARDED_BY(mu_); run() and
 * runStream() hold the guard for the whole run (its windows, waiting
 * rooms, and fair tags are per-run state, so the admission front end
 * is one critical section per run).
 */
class AdmissionController
{
  public:
    /** Throws std::invalid_argument on a zero window depth, a
     *  chipQueueDepth whose length is neither 0 nor the pool's chip
     *  count, or a tenant with a non-positive weight; a tenant
     *  naming a model that does not exist in the pool is a panic
     *  (programming error). */
    AdmissionController(ChipPool &pool, std::vector<Tenant> tenants,
                        const AdmissionConfig &cfg);

    /**
     * Fleet-mode controller: tenants come from the fleet's specs
     * (FleetController::buildInitialTenants — arrived tenants
     * placed eagerly, future ones lazily), and run() interleaves
     * the fleet's lifecycle timeline (arrivals, departures,
     * controller ticks) with the trace. The fleet must drive the
     * same pool and must outlive the controller.
     */
    AdmissionController(ChipPool &pool, FleetController &fleet,
                        const AdmissionConfig &cfg);

    const AdmissionConfig &config() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return cfg_;
    }
    const std::vector<Tenant> &tenants() const EXCLUDES(mu_)
    {
        SeqLock lock(mu_);
        return tenants_;
    }

    /**
     * Run one open-loop trace to completion and report: the trace
     * streams through the same loop as runStream() (a VectorSource),
     * so the two produce identical reports and journals for the
     * same requests. The trace must be sorted by wall-clock arrival
     * (TrafficGen::trace emits it sorted); a request of an unknown
     * tenant, out of arrival order, or of a fleet tenant before its
     * placement exists throws std::runtime_error when it is pulled.
     */
    ServeReport run(const std::vector<ServeRequest> &trace)
        EXCLUDES(mu_);

    /**
     * Run a pull-based request stream to completion at flat memory:
     * requests are consumed one at a time from `source` (sorted by
     * arrival, like run()'s trace), held only while in flight, and
     * their outputs folded into ServeReport::outputChecksum in
     * arrival order as they resolve; journal records append in
     * program order. When more than 65536 pulled requests are
     * unresolved, completed-but-unobserved ones are materialized
     * eagerly. That can reorder journal records relative to the
     * lazy order, but only on runs of more than 65536 requests —
     * run() shares the bound, so no trace of at most 65536 requests
     * is affected — and the reordering is itself deterministic
     * (journal::replaySegments replays through this same loop).
     * collectOutputs needs O(requests) memory and throws
     * std::invalid_argument here.
     */
    ServeReport runStream(RequestSource &source) EXCLUDES(mu_);

    /**
     * Attach (or detach, with nullptr) an event journal: run()
     * emits one record per arrival, admission (with the WFQ
     * charge), stage submission/completion, backpressure action,
     * and completion, plus per-chip summaries and a run trailer —
     * the stream journal/Replayer.h replays bit-identically. The
     * journal must outlive the attachment; never owned.
     */
    void setJournal(journal::Journal *journal) EXCLUDES(mu_);

  private:
    /** The one serving loop behind run() and runStream(). */
    ServeReport serve(RequestSource &source) REQUIRES(mu_);

    /** Guards the tenant table and config
     *  (common/ThreadAnnotations.h). */
    mutable SeqMutex mu_;

    ChipPool &pool_;
    /** Lifecycle driver for fleet-mode runs; nullptr for static
     *  fleets. Not owned. */
    FleetController *fleet_ = nullptr;
    std::vector<Tenant> tenants_ GUARDED_BY(mu_);
    AdmissionConfig cfg_ GUARDED_BY(mu_);
    /** Event sink for run() (see setJournal); not owned. */
    journal::Journal *journal_ GUARDED_BY(mu_) = nullptr;
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_ADMISSION_H
