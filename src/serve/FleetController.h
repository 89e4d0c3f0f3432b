/**
 * @file
 * Fleet lifecycle controller: tenant churn, live migration, and
 * autoscaling over a ChipPool.
 *
 * A FleetController turns the static serving cluster into a living
 * one. Attached to an AdmissionController (the fleet-mode
 * constructor), it owns the tenant specs and the traffic generator
 * that reproduces their weights, and drives three lifecycle
 * mechanisms along the run's wall-clock timeline:
 *
 *  - Churn: tenants with TenantSpec::arriveNs > 0 get their
 *    placement created lazily at arrival time (placeTenant), and a
 *    departed tenant's placement is reclaimed once its begun work
 *    has drained — requests already accepted always finish.
 *
 *  - Live migration: on each controller tick the most backlogged
 *    chip can shed one tenant. Migration is re-placement plus the
 *    same inputs: the model's weights are regenerated from the same
 *    weight key (bit-identical by the TrafficGen stream contract),
 *    placed fresh on another chip (tryPlace, avoiding the source),
 *    and every tenant sharing the old placement switches over;
 *    requests already bound to the old placement finish there, and
 *    the old tiles are released only when that work drains. Outputs
 *    are therefore checksum-invariant by construction — migration
 *    moves *where* future requests run, never *what* they compute.
 *    If no other chip can take the placement the migration aborts
 *    and the old placement keeps serving (never a crash).
 *
 *  - Autoscaling: chip slots activate and drain against load
 *    hysteresis. When any active chip's backlog exceeds
 *    backlogHighNs, one inactive slot is reactivated; when every
 *    active chip's backlog is under backlogLowNs (and more than
 *    minActive slots are active), one slot is marked draining —
 *    it stops accepting placements, its tenants migrate away one
 *    per tick, and the slot counts as down once its last placement
 *    is released. The high/low gap is the hysteresis band that
 *    keeps a diurnal trace from flapping.
 *
 * The controller is deterministic and stateless across runs: every
 * decision is a pure function of the pool's state and the tick's
 * load snapshot (planTick), so a journaled run replays bit-exact.
 * The load signal is wall-clock: a chip's backlog is how far its
 * schedule runs ahead of the current wall instant, comparable
 * across frequency bins.
 */

#ifndef DARTH_SERVE_FLEETCONTROLLER_H
#define DARTH_SERVE_FLEETCONTROLLER_H

#include <cstddef>
#include <vector>

#include "serve/Admission.h"
#include "serve/ChipPool.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace serve
{

/** Lifecycle policy knobs (all times wall-clock nanoseconds). */
struct FleetConfig
{
    /** Enable tick-driven live migration off backlogged chips. */
    bool migration = true;
    /** Enable autoscaling (chip activation/draining). */
    bool autoscale = true;
    /** Autoscaling never drains below this many active slots. */
    std::size_t minActive = 1;
    /** Controller tick period: lifecycle decisions happen at
     *  multiples of this wall-clock interval. Must be positive. */
    WallNs checkIntervalNs = 2000;
    /** Scale-up threshold: any active chip backlogged past this
     *  reactivates one inactive slot. */
    WallNs backlogHighNs = 4000;
    /** Scale-down threshold: every active chip under this (with
     *  spare capacity above minActive) drains one slot. Must be
     *  below backlogHighNs — the gap is the hysteresis band. */
    WallNs backlogLowNs = 500;
    /** Migration threshold: the most backlogged chip sheds one
     *  tenant when its backlog exceeds this and at least doubles
     *  the least backlogged chip's. */
    WallNs migrateHighNs = 6000;
};

/**
 * Lifecycle policy + placement mechanics for one serving fleet.
 *
 * The controller owns the tenant specs (including their
 * arrive/depart windows) and regenerates model weights through the
 * traffic generator, which must outlive it. All mutable run state
 * (request bindings, per-model refcounts, the draining set) lives
 * in AdmissionController::run's critical section — the controller
 * itself only decides and places, so one controller can drive any
 * number of runs.
 */
class FleetController
{
  public:
    /** Throws std::invalid_argument on a zero checkIntervalNs, a
     *  zero minActive, a hysteresis band that is not a band
     *  (backlogLowNs >= backlogHighNs), or an invalid tenant spec
     *  (TrafficGen::validateSpec). */
    FleetController(ChipPool &pool, const TrafficGen &gen,
                    std::vector<TenantSpec> specs,
                    const FleetConfig &cfg);

    const FleetConfig &config() const { return cfg_; }
    const std::vector<TenantSpec> &specs() const { return specs_; }
    ChipPool &pool() { return pool_; }

    /**
     * The admission-layer tenant table at run start: tenants
     * present from wall time 0 are placed eagerly (exactly like
     * buildTenants), tenants with arriveNs > 0 carry kNoModel until
     * their arrival moment.
     */
    std::vector<Tenant> buildInitialTenants();

    /** Result of a lazy tenant placement. */
    struct Placement
    {
        ModelRef model = kNoModel;
        /** Slots the controller had to reactivate to make room (in
         *  activation order) — the caller journals these as ChipUp. */
        std::vector<std::size_t> activated;
    };

    /**
     * Place tenant t's model at its arrival moment. Tries the
     * active slots first; on exhaustion reactivates inactive slots
     * one at a time (lowest index first) until the placement fits —
     * an arriving tenant outranks the autoscaler's drain decisions.
     * Fatal only when the placement fits nowhere even with every
     * slot active (the same diagnosis a static pool would give).
     */
    Placement placeTenant(std::size_t t);

    /**
     * The migration move for tenant t's model: a *fresh* placement
     * of the same weights (same weight key, bit-identical
     * regeneration) on the best chip other than `avoid_chip`, past
     * the affinity table. Returns kNoModel when no other active
     * chip can take it — the caller aborts the migration.
     */
    ModelRef tryReplace(std::size_t t, std::size_t avoid_chip);

    /** One tick's lifecycle decisions (kNoChip = no action). */
    struct TickPlan
    {
        /** Inactive slot to reactivate (scale-up). */
        std::size_t scaleUp = kNoChip;
        /** Active slot to mark draining (scale-down). */
        std::size_t scaleDown = kNoChip;
        /** Chip that sheds one tenant this tick: a draining chip
         *  still holding placements, or the overloaded source of a
         *  load-balancing migration. */
        std::size_t migrateFrom = kNoChip;
    };

    /**
     * Decide this tick's actions from the load snapshot. `loads[c]`
     * is chip c's backlog in wall ns (how far its schedule runs
     * ahead of `now`); `draining[c]` marks slots the caller is
     * already draining. Pure policy — the caller executes the plan
     * and owns every side effect, so decisions replay bit-exact.
     */
    TickPlan planTick(WallNs now, const std::vector<WallNs> &loads,
                      const std::vector<bool> &draining) const;

  private:
    /** Place tenant t's model (tenantModel) under its spec's key:
     *  ChipPool::place when `fatal`, ChipPool::tryPlace otherwise. */
    ModelRef place(std::size_t t, const PlaceOptions &opts,
                   bool fatal);

    ChipPool &pool_;
    const TrafficGen &gen_;
    std::vector<TenantSpec> specs_;
    FleetConfig cfg_;
};

} // namespace serve
} // namespace darth

#endif // DARTH_SERVE_FLEETCONTROLLER_H
