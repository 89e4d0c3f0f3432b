/**
 * @file
 * Multi-chip serving pool: owns N simulated chips (each with its own
 * Runtime and Scheduler clock) and shards model placements across
 * them by a pluggable policy.
 *
 * The pool plays the role of a serving daemon: it holds one runtime
 * session per chip and places tenant models through those sessions,
 * so the serving layer above (Admission) deals only in ModelRefs. A
 * model is either one weight matrix (single-MVM requests) or a whole
 * inference network — a TinyCnn or a small encoder layer — whose
 * requests run as incremental InferenceRun forwards: beginInference
 * plans the run, advanceInference submits one admission-sized stage
 * at a time, finishInference collects the outputs. The admission
 * layer chooses whether to advance a run to completion at admission
 * (inference granularity) or to interleave stages of different
 * requests on one chip (stage granularity). Policies:
 *
 *  - RoundRobin     — rotate over chips with enough free tiles.
 *  - LeastLoaded    — most free tiles, then smallest scheduler
 *                     makespan, then lowest index.
 *  - MatrixAffinity — placements that share a non-zero model key
 *                     share one placement: repeated MVMs against the
 *                     same weights stay on the chip that already
 *                     holds them (and keep the same-matrix pipelined
 *                     issue rate), instead of re-programming tiles.
 *                     New keys fall back to least-loaded.
 *  - CostAware      — heterogeneity- and load-aware: score every
 *                     chip that can fit the placement by
 *                       oracleCost / clockGHz
 *                           * (1 + backlogCycles / backlogWindow)
 *                     — the KernelModel oracle cost of one request
 *                     *on that chip's configuration* (single-MVM:
 *                     the owning scheduler's per-chip oracle;
 *                     inference: the per-chip mapper's network
 *                     cost) over the chip clock, inflated by the
 *                     chip's scheduler backlog in cycles
 *                     (Scheduler::backlogCycles over
 *                     PoolConfig::backlogWindowCycles) — and place
 *                     on the cheapest; ties fall back to
 *                     least-loaded. A slower-but-idle chip beats a
 *                     faster-but-backlogged one once the backlog
 *                     outweighs the silicon gap, and because
 *                     placement itself enqueues nothing, scores are
 *                     static while a batch of tenants is placed:
 *                     whenever scores are strict (distinct silicon
 *                     or distinct backlogs), assigning tenants in
 *                     any arrival order yields the same per-tenant
 *                     chips, capacity permitting. (Exact ties still
 *                     fall back to the mutable least-loaded order.)
 *                     Affinity sharing by non-zero key is honored
 *                     exactly as under MatrixAffinity.
 *
 * Pools may be heterogeneous: PoolConfig::chips gives each slot its
 * own ChipSpec (ADC kind, tile count, geometry, clock — see
 * serve/ChipConfig.h for the iso-area SAR/ramp factory). Placement
 * planning, oracle costs, and the inference mappers are all
 * per-chip.
 *
 * Chips are independent simulated-time domains; functional MVM
 * results never depend on which chip serves a request (the ideal
 * noise configuration is bit-exact), which is what makes an N-chip
 * pool bit-identical to a 1-chip run of the same trace whenever the
 * same requests complete (always true under Block admission; Reject
 * runs drop configuration-dependent subsets). Cross-chip time is
 * wall-clock nanoseconds: each slot's clock must be a frequency bin
 * (integer-picosecond period, serve/ChipConfig.h clockPeriodPs), and
 * wallNs()/cyclesAt() convert exactly between a chip's cycle domain
 * and the pool-wide wall clock.
 *
 * Fleet lifecycle hooks (serve/FleetController.h drives these):
 * slots can be deactivated (setChipActive) so draining chips accept
 * no new placements, placements can be released mid-run
 * (releaseModel frees the tiles; the caller must first drain the
 * model's in-flight work), and the tryPlace* variants report
 * placement failure with kNoModel instead of aborting — the
 * building blocks of live migration (detach the affinity key,
 * re-place the same weights elsewhere, release the old placement
 * once begun work finishes) and autoscaling.
 */

#ifndef DARTH_SERVE_CHIPPOOL_H
#define DARTH_SERVE_CHIPPOOL_H

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/cnn/CnnMapper.h"
#include "apps/llm/LlmMapper.h"
#include "common/ThreadAnnotations.h"
#include "runtime/Runtime.h"
#include "runtime/Session.h"
#include "serve/ChipConfig.h"

namespace darth
{
namespace journal
{
class Journal;
} // namespace journal

namespace serve
{

/** How the pool shards new placements across chips. */
enum class PlacementPolicy
{
    RoundRobin,
    LeastLoaded,
    MatrixAffinity,
    CostAware,
};

/** Short lowercase name (for bench JSON and logs). */
const char *placementPolicyName(PlacementPolicy policy);

/** Pool-level configuration. */
struct PoolConfig
{
    /** Uniform per-chip configuration, replicated numChips times.
     *  Ignored when `chips` is non-empty. */
    runtime::ChipConfig chip;
    std::size_t numChips = 1;
    /** Heterogeneous pool: one ChipSpec per slot (wins over
     *  chip/numChips when non-empty). */
    std::vector<ChipSpec> chips;
    PlacementPolicy placement = PlacementPolicy::LeastLoaded;
    /** Base seed; chip i seeds its noise models with seed + i. */
    u64 seed = 1;
    /**
     * Backlog normalization horizon of the CostAware score: a chip
     * whose scheduler backlog equals this many wall-clock
     * nanoseconds has its effective cost doubled. Must be positive.
     */
    WallNs backlogWindowNs = 50000;
};

/** Handle to one model placed somewhere in the pool. */
using ModelRef = std::size_t;

/** tryPlace* result when no active chip can take the placement. */
constexpr ModelRef kNoModel = ~std::size_t{0};

/** tryPlace* `avoidChip` value meaning "no chip excluded". */
constexpr std::size_t kNoChip = ~std::size_t{0};

/**
 * Knobs of the tryPlace* placement variants (migration plumbing).
 */
struct PlaceOptions
{
    /**
     * Exclude one chip from the candidate set — a migration wants
     * the best placement *other than* the chip the model already
     * occupies. kNoChip excludes nothing.
     */
    std::size_t avoidChip = kNoChip;
    /**
     * Skip the affinity-reuse fast path and create a fresh
     * placement even when the key is already placed; on success the
     * key re-binds to the new placement (the old one keeps its
     * tiles until releaseModel). This is the migration move: same
     * key, same weights, new chip.
     */
    bool freshPlacement = false;
};

/** Result of one whole-inference request executed by the pool. */
struct InferenceOutcome
{
    /** Network output (logits / flattened encoder output). */
    std::vector<i64> values;
    /** First MVM issue cycle of the forward. */
    Cycle start = 0;
    /** Completion cycle of the whole graph. */
    Cycle done = 0;
    /** MVMs the inference streamed. */
    std::size_t mvms = 0;
};

/**
 * One stage-granular inference in flight (from
 * ChipPool::beginInference). Owns the model runner's InferenceRun
 * and the per-stage admission charges; the pool that issued it (and
 * the placed model) must outlive it.
 */
struct StagedInference
{
    ModelRef model = 0;
    /**
     * Per-stage weighted-fair admission charges in integer
     * *picoseconds* of the owning chip's time: the run's per-step
     * nominal oracle costs, normalized so they sum *exactly* to
     * nominalServicePs(model) — admitting every stage of a request
     * charges precisely what admitting the whole inference would
     * have, and charges are comparable across chips of different
     * clocks without rounding.
     */
    std::vector<u64> stageCharges;
    std::unique_ptr<runtime::InferenceRun> run;

    std::size_t stageCount() const { return stageCharges.size(); }
    std::size_t submittedStages() const
    {
        return run->submittedSteps();
    }
    /** True once every stage has been submitted. */
    bool finished() const { return run->finished(); }
};

/**
 * A pool of chips behind one placement front end.
 *
 * The placement tables (models_, affinity_, the round-robin cursor)
 * are GUARDED_BY(mu_). The threading contract has two phases:
 * placement calls (placeModel and friends) serialize on mu_ and are
 * issued before serving starts; the run-time entry points (submit,
 * wait, beginInference, the model metadata lookups) take mu_ only
 * long enough to resolve the ModelRef, then drive the owning chip's
 * session *outside* the lock — safe because one admission loop
 * drives every chip and the model table is stable once serving
 * begins. Chips, runtimes, sessions, and the
 * per-chip mappers are constructed once and the containers never
 * change afterwards; the objects behind them guard themselves.
 */
class ChipPool
{
  public:
    explicit ChipPool(const PoolConfig &cfg);

    const PoolConfig &config() const { return cfg_; }
    std::size_t numChips() const { return chips_.size(); }

    /** Per-slot silicon (uniform pools replicate PoolConfig::chip). */
    const ChipSpec &spec(std::size_t i) const;

    /** Clock period of one slot in integer picoseconds. */
    u64 periodPs(std::size_t i) const;

    /**
     * Exact cycle -> wall conversion for one chip: floor(cycles *
     * periodPs / 1000) nanoseconds. Deterministic integer
     * arithmetic; at the default 1 GHz bin one cycle is one
     * nanosecond, so uniform default-clock pools report the same
     * numbers they did when the serving layer counted cycles.
     */
    WallNs wallNs(std::size_t chip, Cycle cycles) const;

    /**
     * Exact wall -> cycle conversion for one chip:
     * ceil(ns * 1000 / periodPs) — the first cycle of that chip at
     * or after the wall instant, so admission bounds never start
     * work early.
     */
    Cycle cyclesAt(std::size_t chip, WallNs ns) const;

    /** True when the slots are not all the same ChipSpec name. */
    bool heterogeneous() const;

    runtime::Chip &chip(std::size_t i);
    runtime::Runtime &runtime(std::size_t i);

    /**
     * Activate or drain one slot: inactive chips are excluded from
     * every placement decision (existing placements keep running —
     * draining finishes begun work). The autoscaler's lever.
     */
    void setChipActive(std::size_t chip, bool active) EXCLUDES(mu_);

    /** True when the slot accepts new placements (default). */
    bool chipActive(std::size_t chip) const EXCLUDES(mu_);

    /** Live (un-released) placements currently on one chip. */
    std::size_t liveModels(std::size_t chip) const EXCLUDES(mu_);

    /**
     * Place a weight matrix on a chip chosen by the placement
     * policy. Under MatrixAffinity and CostAware a non-zero `key`
     * already placed returns the existing ModelRef (shared
     * placement) — fatal if the offered matrix differs from the one
     * the key already names; otherwise every call creates a fresh
     * placement. Fatal when no chip has enough free tiles.
     * `input_bits` is the request precision CostAware scores the
     * shape at (immaterial to the other policies).
     */
    ModelRef placeModel(u64 key, const MatrixI &m, int element_bits,
                        int bits_per_cell, int input_bits = 8)
        EXCLUDES(mu_);

    /**
     * CostAware's score for one single-MVM shape on one chip: the
     * KernelModel oracle latency of one request on that chip's
     * configuration (measured through the chip's own scheduler
     * oracle), in nanoseconds (cycles over the chip clock),
     * inflated by the chip's current scheduler backlog:
     * (1 + backlogCycles / backlogWindowCycles). Fatal when the
     * shape cannot be planned on that chip at all.
     */
    double placementScore(std::size_t chip, std::size_t rows,
                          std::size_t cols, int element_bits,
                          int bits_per_cell, int input_bits);

    /**
     * Place a whole TinyCnn inference model (all three layers) on one
     * chip. Sharing and key semantics match placeModel(): a non-zero
     * key already placed under MatrixAffinity returns the existing
     * ModelRef after checking the weights match.
     */
    ModelRef placeCnnInference(u64 key, cnn::TinyCnn net)
        EXCLUDES(mu_);

    /** Place a whole small-encoder inference model (six matrices). */
    ModelRef placeLlmInference(u64 key, llm::Encoder enc)
        EXCLUDES(mu_);

    /**
     * Non-fatal placement variants: identical to placeModel /
     * placeCnnInference / placeLlmInference except that exhaustion
     * (no active chip fits, or only the avoided chip does) returns
     * kNoModel instead of aborting, and PlaceOptions can exclude a
     * chip and force a fresh placement past the affinity table. A
     * FleetController migrates and lazily places through these so a
     * full pool degrades to "migration aborted", never to a crash.
     */
    ModelRef tryPlaceModel(u64 key, const MatrixI &m,
                           int element_bits, int bits_per_cell,
                           int input_bits = 8,
                           const PlaceOptions &opts = {})
        EXCLUDES(mu_);
    ModelRef tryPlaceCnnInference(u64 key, cnn::TinyCnn net,
                                  const PlaceOptions &opts = {})
        EXCLUDES(mu_);
    ModelRef tryPlaceLlmInference(u64 key, llm::Encoder enc,
                                  const PlaceOptions &opts = {})
        EXCLUDES(mu_);

    /**
     * Release one placement: frees its tiles (draining any queued
     * work for them) and drops it from the affinity table if it is
     * still the key's placement. The ModelRef becomes invalid —
     * every later lookup is fatal. The caller must have finished or
     * abandoned the model's in-flight requests first; the serving
     * layer defers this call until a migrated-away or departed
     * tenant's begun work has drained, which is how "no begun
     * inference is ever lost" holds by construction.
     */
    void releaseModel(ModelRef model) EXCLUDES(mu_);

    /** True when the model serves whole inferences, not single MVMs. */
    bool isInference(ModelRef model) const EXCLUDES(mu_);

    /**
     * Begin one inference request (fatal for single-MVM models):
     * plans the model's InferenceRun on the owning chip's session
     * with the root source at `ready`, computes the per-stage
     * admission charges, and submits *nothing*. Drive the run with
     * advanceInference — once per stage for stage-granular
     * admission, or in a loop for run-to-completion semantics.
     * Successive inferences against one model pipeline at the
     * per-layer amortized rate because the placements persist.
     */
    std::unique_ptr<StagedInference>
    beginInference(ModelRef model, const std::vector<i64> &input,
                   Cycle ready = 0) EXCLUDES(mu_);

    /**
     * Submit the next stage of an in-flight inference, bounded below
     * by `admitted` (its admission cycle); returns the stage index.
     * Fatal when the run is already finished.
     */
    std::size_t advanceInference(StagedInference &inference,
                                 Cycle admitted);

    /** Completion cycle of one submitted stage, in the owning
     *  chip's cycles (fatal for a stage not yet submitted). */
    Cycle stageDoneCycle(StagedInference &inference,
                         std::size_t stage);

    /** Completion of one submitted stage in wall-clock
     *  nanoseconds. */
    WallNs stageDoneNs(StagedInference &inference, std::size_t stage)
        EXCLUDES(mu_);

    /** Collect a finished run's outputs and whole-graph cycle
     *  stamps (fatal unless finished()). */
    InferenceOutcome finishInference(StagedInference &inference);

    /** Eager convenience: submit every remaining stage at
     *  `admitted` and collect the outcome — whole-inference
     *  admission semantics in one call. */
    InferenceOutcome runToCompletion(StagedInference &inference,
                                     Cycle admitted);

    /** Chip that holds a placed model. */
    std::size_t modelChip(ModelRef model) const EXCLUDES(mu_);

    /** Placement plan of a placed model (fatal for inference
     *  models, which span several placements). */
    const runtime::MatrixPlan &modelPlan(ModelRef model) const
        EXCLUDES(mu_);

    /** Flat input length the model's requests must have. */
    std::size_t modelRows(ModelRef model) const EXCLUDES(mu_);

    /**
     * KernelModel oracle cost of one request: for single-MVM models
     * the oracle latency of one MVM (worst part, via the owning
     * scheduler's cached oracle); for inference models the
     * whole-inference serialized latency from the mapper cost model.
     * In the owning chip's cycles.
     */
    Cycle nominalServiceCycles(ModelRef model, int input_bits)
        EXCLUDES(mu_);

    /**
     * The same nominal service in integer picoseconds of wall time
     * (nominalServiceCycles times the owning chip's period) — the
     * clock-independent quantity weighted-fair charging and load
     * calibration use, exact by construction.
     */
    u64 nominalServicePs(ModelRef model, int input_bits)
        EXCLUDES(mu_);

    /** Submit one MVM against a single-MVM model through the pool's
     *  session on the owning chip (fatal for inference models). */
    runtime::MvmFuture submit(ModelRef model, std::vector<i64> x,
                              int input_bits, Cycle earliest = 0)
        EXCLUDES(mu_);

    /** Resolve a future submitted against a model. */
    runtime::MvmResult wait(ModelRef model,
                            const runtime::MvmFuture &future)
        EXCLUDES(mu_);

    /** Free tiles on one chip. */
    std::size_t freeHcts(std::size_t chip) const;

    /** Scheduler queue depth of one chip (backpressure signal). */
    std::size_t queueDepth(std::size_t chip) const;

    /** Scheduler backlog of one chip in cycles (see
     *  Scheduler::backlogCycles). */
    Cycle backlogCycles(std::size_t chip) const;

    /** Scheduler backlog of one chip in wall-clock nanoseconds (the
     *  CostAware load term and the FleetController's signal). */
    WallNs backlogNs(std::size_t chip) const;

    /** Max scheduler makespan over all chips, in wall-clock
     *  nanoseconds (each chip's makespan converted by its own
     *  clock). */
    WallNs makespanNs() const;

    /**
     * Attach (or detach, with nullptr) an event journal: every
     * placement decision — fresh placements with the winning
     * CostAware score, and affinity-shared reuses — emits a
     * Placement record. The journal must outlive the attachment;
     * the pool never owns it.
     */
    void setJournal(journal::Journal *journal) EXCLUDES(mu_);

  private:
    /** One placed inference network (owns the net, the forward
     *  runner, and through it the placements). Heap-allocated so the
     *  forward's references stay stable as models_ grows. */
    struct InferenceModel
    {
        std::unique_ptr<cnn::TinyCnn> cnnNet;
        std::unique_ptr<cnn::TinyCnnForward> cnnFwd;
        std::unique_ptr<llm::Encoder> llmEnc;
        std::unique_ptr<llm::EncoderForward> llmFwd;
        /** Flat input length of one request. */
        std::size_t inputRows = 0;
        /** Whole-inference serialized oracle latency. */
        Cycle oracleCost = 0;
    };

    struct Model
    {
        u64 key = 0;
        std::size_t chip = 0;
        runtime::MatrixHandle handle;
        std::unique_ptr<InferenceModel> inference;
        /** False once releaseModel reclaimed the placement. */
        bool live = true;
    };

    static constexpr std::size_t kUnplaceable = ~std::size_t{0};

    /**
     * What a fresh placement would need/cost per chip. `parts[c]` is
     * the tile count on chip c (kUnplaceable when the shape cannot
     * map to that chip's silicon at all — `why[c]` keeps the
     * reason); `score[c]` is the CostAware nanosecond cost (only
     * consulted under CostAware).
     */
    struct PlacementQuote
    {
        std::vector<std::size_t> parts;
        std::vector<double> score;
        std::vector<std::string> why;

        explicit PlacementQuote(std::size_t chips)
            : parts(chips, kUnplaceable), score(chips, 0.0),
              why(chips)
        {}
    };

    /**
     * Quote every chip for a fresh placement. `per_chip(c)` returns
     * {tiles needed, CostAware score} on chip c's silicon and may
     * throw when the shape cannot map there (the chip is excluded
     * and the reason recorded). Uniform pools quote slot 0 once and
     * replicate — identical silicon, deterministic measurement.
     */
    PlacementQuote quoteChips(
        const std::function<std::pair<std::size_t, double>(
            std::size_t)> &per_chip);

    /** Chip for a fresh placement, by the configured policy
     *  (touches the round-robin cursor); kNoChip when no active,
     *  non-avoided chip fits and `fatal` is false, fatal with the
     *  per-chip diagnosis otherwise. */
    std::size_t pickChip(const PlacementQuote &quote,
                         const char *what, std::size_t avoid_chip,
                         bool fatal) REQUIRES(mu_);

    /** True when chip a beats chip b on the least-loaded order
     *  (most free tiles, then soonest makespan, then index). */
    bool lessLoaded(std::size_t a, std::size_t b) const;

    /** The CostAware score of an already-planned single-MVM shape
     *  on one chip: rawCostScore times the chip's loadFactor
     *  (placementScore's backing). */
    double scoreFor(std::size_t chip, const runtime::MatrixPlan &plan,
                    int input_bits);

    /** The silicon-only part of the score (oracle cost over clock,
     *  no backlog term) — what quoteChips replicates across uniform
     *  slots before applying per-slot load. */
    double rawCostScore(std::size_t chip,
                        const runtime::MatrixPlan &plan,
                        int input_bits);

    /** The CostAware backlog inflation of one chip:
     *  1 + backlogNs / backlogWindowNs. */
    double loadFactor(std::size_t chip) const;

    /** Shared body of placeModel / tryPlaceModel (and the inference
     *  pair): `fatal` picks the exhaustion behavior. */
    ModelRef placeModelImpl(u64 key, const MatrixI &m,
                            int element_bits, int bits_per_cell,
                            int input_bits, const PlaceOptions &opts,
                            bool fatal) EXCLUDES(mu_);
    ModelRef placeCnnImpl(u64 key, cnn::TinyCnn net,
                          const PlaceOptions &opts, bool fatal)
        EXCLUDES(mu_);
    ModelRef placeLlmImpl(u64 key, llm::Encoder enc,
                          const PlaceOptions &opts, bool fatal)
        EXCLUDES(mu_);

    const Model &modelRef(ModelRef model, const char *what) const
        REQUIRES(mu_);

    /**
     * Resolve a placed model holding mu_ only for the table lookup,
     * so the chip work that follows runs outside the pool lock. The
     * returned reference stays valid because placement (the only
     * thing that grows models_ and can reallocate it) completes
     * before run-time lookups begin; each entry is immutable after
     * its placement call returns. Whatever
     * the caller then does on the owning chip is serialized by the
     * single admission loop, not by mu_.
     */
    const Model &lookupModel(ModelRef model, const char *what) const
        EXCLUDES(mu_);

    /** Per-chip inference mappers (chips may differ in silicon);
     *  built eagerly at construction, immutable slots after. */
    cnn::CnnMapper &cnnMapper(std::size_t chip)
    {
        return *cnnMappers_[chip];
    }
    llm::LlmMapper &llmMapper(std::size_t chip)
    {
        return *llmMappers_[chip];
    }

    PoolConfig cfg_;
    /** One resolved spec per slot. */
    std::vector<ChipSpec> specs_;
    /** Integer-picosecond clock period per slot (frequency bin). */
    std::vector<u64> periodPs_;
    /** True when the slots were replicated from PoolConfig::chip
     *  (identical silicon by construction: quotes plan once). */
    bool uniform_ = false;
    std::vector<std::unique_ptr<runtime::Chip>> chips_;
    std::vector<std::unique_ptr<runtime::Runtime>> runtimes_;
    /** One serving session per chip; all models live in these. */
    std::vector<runtime::Session> sessions_;
    std::vector<std::unique_ptr<cnn::CnnMapper>> cnnMappers_;
    std::vector<std::unique_ptr<llm::LlmMapper>> llmMappers_;

    /** Guards the mutable placement tables below. A no-op capability
     *  until the threading work lands (common/ThreadAnnotations.h). */
    mutable SeqMutex mu_;

    std::vector<Model> models_ GUARDED_BY(mu_);
    /** Per-slot activation mask (see setChipActive). */
    std::vector<bool> active_ GUARDED_BY(mu_);
    /** key -> ModelRef, consulted under MatrixAffinity/CostAware. */
    std::map<u64, ModelRef> affinity_ GUARDED_BY(mu_);
    std::size_t rrCursor_ GUARDED_BY(mu_) = 0;
    /** Placement-event sink (see setJournal); not owned. */
    journal::Journal *journal_ GUARDED_BY(mu_) = nullptr;
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_CHIPPOOL_H
