#include "serve/FleetController.h"

#include <stdexcept>
#include <string>

#include "common/Logging.h"

namespace darth
{
namespace serve
{

FleetController::FleetController(ChipPool &pool, const TrafficGen &gen,
                                 std::vector<TenantSpec> specs,
                                 const FleetConfig &cfg)
    : pool_(pool), gen_(gen), specs_(std::move(specs)), cfg_(cfg)
{
    if (cfg.checkIntervalNs == 0)
        throw std::invalid_argument(
            "FleetController: checkIntervalNs must be positive");
    if (cfg.minActive == 0)
        throw std::invalid_argument(
            "FleetController: minActive must be at least 1 (a fleet "
            "cannot drain to zero chips)");
    if (cfg.autoscale && cfg.backlogLowNs >= cfg.backlogHighNs)
        throw std::invalid_argument(
            "FleetController: backlogLowNs (" +
            std::to_string(cfg.backlogLowNs) +
            ") must be below backlogHighNs (" +
            std::to_string(cfg.backlogHighNs) +
            "); the gap is the autoscaler's hysteresis band");
    for (const TenantSpec &spec : specs_)
        TrafficGen::validateSpec(spec);
}

ModelRef
FleetController::place(std::size_t t, const PlaceOptions &opts,
                       bool fatal)
{
    const u64 key = specs_[t].modelKey;
    ModelSpec model = tenantModel(gen_, specs_[t], t);
    return fatal ? pool_.place(key, std::move(model), opts)
                 : pool_.tryPlace(key, std::move(model), opts);
}

std::vector<Tenant>
FleetController::buildInitialTenants()
{
    std::vector<Tenant> tenants;
    tenants.reserve(specs_.size());
    for (std::size_t t = 0; t < specs_.size(); ++t) {
        const TenantSpec &spec = specs_[t];
        Tenant tenant;
        tenant.name = spec.name;
        tenant.weight = spec.weight;
        tenant.inputBits = TrafficGen::inputBits(spec.kind);
        tenant.slo = spec.slo;
        tenant.model = spec.arriveNs == 0
                           ? place(t, PlaceOptions{}, /*fatal=*/true)
                           : kNoModel;
        tenants.push_back(std::move(tenant));
    }
    return tenants;
}

FleetController::Placement
FleetController::placeTenant(std::size_t t)
{
    if (t >= specs_.size())
        darth_panic("FleetController::placeTenant: tenant ", t,
                    " out of range ", specs_.size());
    Placement result;
    result.model = place(t, PlaceOptions{}, /*fatal=*/false);
    // An arriving tenant outranks autoscaling: reactivate drained
    // slots (lowest index first) until the placement fits, keeping
    // the order so the caller journals each as ChipUp.
    for (std::size_t c = 0;
         result.model == kNoModel && c < pool_.numChips(); ++c) {
        if (pool_.chipActive(c))
            continue;
        pool_.setChipActive(c, true);
        result.activated.push_back(c);
        result.model = place(t, PlaceOptions{}, /*fatal=*/false);
    }
    // Even the full pool cannot fit it: fail with the per-chip
    // diagnosis a static pool would have given.
    if (result.model == kNoModel)
        result.model = place(t, PlaceOptions{}, /*fatal=*/true);
    return result;
}

ModelRef
FleetController::tryReplace(std::size_t t, std::size_t avoid_chip)
{
    if (t >= specs_.size())
        darth_panic("FleetController::tryReplace: tenant ", t,
                    " out of range ", specs_.size());
    PlaceOptions opts;
    opts.avoidChip = avoid_chip;
    opts.freshPlacement = true;
    return place(t, opts, /*fatal=*/false);
}

FleetController::TickPlan
FleetController::planTick(WallNs now,
                          const std::vector<WallNs> &loads,
                          const std::vector<bool> &draining) const
{
    (void)now;
    const std::size_t n = pool_.numChips();
    if (loads.size() != n || draining.size() != n)
        darth_panic("FleetController::planTick: snapshot sizes ",
                    loads.size(), "/", draining.size(),
                    " do not match the pool's ", n, " chips");
    TickPlan plan;

    // A draining chip still holding placements sheds one of them
    // before any other lifecycle action this tick — finishing a
    // scale-down beats starting new work.
    for (std::size_t c = 0; c < n; ++c)
        if (draining[c] && pool_.liveModels(c) > 0) {
            plan.migrateFrom = c;
            break;
        }

    if (cfg_.autoscale) {
        std::size_t active_count = 0;
        bool any_high = false, all_low = true, any_draining = false;
        for (std::size_t c = 0; c < n; ++c) {
            if (draining[c])
                any_draining = true;
            if (!pool_.chipActive(c))
                continue;
            active_count += 1;
            if (loads[c] > cfg_.backlogHighNs)
                any_high = true;
            if (loads[c] >= cfg_.backlogLowNs)
                all_low = false;
        }
        if (any_high) {
            // Reactivate the lowest-index inactive slot.
            for (std::size_t c = 0; c < n; ++c)
                if (!pool_.chipActive(c)) {
                    plan.scaleUp = c;
                    break;
                }
        } else if (all_low && !any_draining &&
                   active_count > cfg_.minActive) {
            // Quiet fleet with spare capacity: drain the
            // highest-index active slot (one drain at a time — a
            // slot must finish emptying before the next starts, so
            // a burst's end cannot cascade the fleet away).
            for (std::size_t c = n; c-- > 0;)
                if (pool_.chipActive(c)) {
                    plan.scaleDown = c;
                    break;
                }
        }
    }

    if (cfg_.migration && plan.migrateFrom == kNoChip) {
        // Load balancing: the most backlogged active chip sheds one
        // tenant when it is past the migration threshold and at
        // least twice the least backlogged chip (the factor keeps a
        // uniformly saturated fleet from shuffling tenants for no
        // gain). Ties break to the lowest index on both ends.
        std::size_t max_c = kNoChip, min_c = kNoChip;
        for (std::size_t c = 0; c < n; ++c) {
            if (!pool_.chipActive(c) || draining[c])
                continue;
            if (max_c == kNoChip || loads[c] > loads[max_c])
                max_c = c;
            if (min_c == kNoChip || loads[c] < loads[min_c])
                min_c = c;
        }
        if (max_c != kNoChip && min_c != kNoChip && max_c != min_c &&
            loads[max_c] > cfg_.migrateHighNs &&
            loads[max_c] > 2 * loads[min_c] &&
            pool_.liveModels(max_c) > 0)
            plan.migrateFrom = max_c;
    }
    return plan;
}

} // namespace serve
} // namespace darth
