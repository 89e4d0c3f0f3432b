/**
 * @file
 * Tests for journal-driven replay: a recorded serve run — including
 * the acceptance scenario, stage-granular admission of a mixed
 * mvm+inference trace on a 4-chip heterogeneous pool — must
 * reconstruct bit-identically from its journal alone, divergence
 * must surface as a named first mismatch, and malformed journals
 * must be rejected at parse time.
 */

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace journal
{
namespace
{

using serve::TenantSpec;
using serve::WorkloadKind;

/** The acceptance scenario: stage-granular admission of a bursty
 *  mvm+inference mix on a mixed 2 SAR + 2 ramp pool. */
ServeRunSetup
heteroStageSetup()
{
    ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots = {{SlotKind::Sar, 8, 1.0},
                   {SlotKind::Sar, 8, 1.0},
                   {SlotKind::Ramp, 8, 1.0},
                   {SlotKind::Ramp, 8, 1.0}};
    setup.placement = serve::PlacementPolicy::CostAware;
    setup.trafficSeed = 909;
    setup.horizon = 25000;
    setup.admission.queueDepth = 2;
    setup.admission.qos = serve::QosPolicy::WeightedFair;
    setup.admission.overflow = serve::OverflowPolicy::Block;
    setup.admission.granularity = serve::Granularity::Stage;

    setup.tenants.resize(3);
    setup.tenants[0].name = "cnn_infer";
    setup.tenants[0].kind = WorkloadKind::CnnInfer;
    setup.tenants[0].weight = 2.0;
    setup.tenants[0].ratePerKns = 0.1;
    setup.tenants[0].burst = {6000, 6000};
    setup.tenants[0].slo = {30000, 0.99};
    setup.tenants[1].name = "cnn_mvm";
    setup.tenants[1].kind = WorkloadKind::Cnn;
    setup.tenants[1].weight = 4.0;
    setup.tenants[1].ratePerKns = 2.0;
    setup.tenants[1].slo = {1, 0.9};
    setup.tenants[2].name = "gf_wide";
    setup.tenants[2].kind = WorkloadKind::GfWide;
    setup.tenants[2].weight = 1.0;
    setup.tenants[2].ratePerKns = 1.0;
    return setup;
}

TEST(ReplayerTest, HeteroStageRunReplaysBitIdentically)
{
    const ServeRunSetup setup = heteroStageSetup();
    const ServeRunRecord rec = recordServeRun(setup);
    ASSERT_GT(rec.report.completed, 0u);
    ASSERT_EQ(rec.report.chips.size(), 4u);

    // The scenario exercises what it claims: inference stages
    // beyond stage 0 completed (stage granularity on a mixed trace).
    bool staged = false;
    for (const JournalEvent &e : rec.journal.events())
        staged = staged ||
                 (e.kind == EventKind::StageComplete && e.b > 0);
    EXPECT_TRUE(staged);

    // Durable round trip, then replay from the journal alone.
    std::stringstream file;
    rec.journal.writeBinary(file);
    const Journal reread = Journal::readBinary(file);

    const Replayer replayer(reread);
    const Replayer::Result res = replayer.replay();
    EXPECT_TRUE(res.identical) << res.detail;
    EXPECT_EQ(res.firstMismatch, rec.journal.size());
    EXPECT_TRUE(res.detail.empty()) << res.detail;
    EXPECT_EQ(res.journal.chainChecksum(),
              rec.journal.chainChecksum());

    // The replayed report reproduces the recorded run's results —
    // every completion cycle (hence the makespan) and the FNV
    // output checksum.
    EXPECT_EQ(res.report.completed, rec.report.completed);
    EXPECT_EQ(res.report.rejected, rec.report.rejected);
    EXPECT_EQ(res.report.makespanNs, rec.report.makespanNs);
    EXPECT_EQ(res.report.outputChecksum, rec.report.outputChecksum);
}

TEST(ReplayerTest, ParsesSetupAndTraceBack)
{
    const ServeRunSetup setup = heteroStageSetup();
    const ServeRunRecord rec = recordServeRun(setup);
    const Replayer replayer(rec.journal);

    const ServeRunSetup &parsed = replayer.setup();
    EXPECT_EQ(parsed.uniformPool, setup.uniformPool);
    ASSERT_EQ(parsed.slots.size(), setup.slots.size());
    for (std::size_t i = 0; i < setup.slots.size(); ++i) {
        EXPECT_EQ(parsed.slots[i].kind, setup.slots[i].kind);
        EXPECT_EQ(parsed.slots[i].hcts, setup.slots[i].hcts);
        EXPECT_EQ(parsed.slots[i].clockGHz, setup.slots[i].clockGHz);
    }
    EXPECT_EQ(parsed.placement, setup.placement);
    EXPECT_EQ(parsed.trafficSeed, setup.trafficSeed);
    EXPECT_EQ(parsed.horizon, setup.horizon);
    EXPECT_EQ(parsed.admission.queueDepth,
              setup.admission.queueDepth);
    EXPECT_EQ(parsed.admission.qos, setup.admission.qos);
    EXPECT_EQ(parsed.admission.granularity,
              setup.admission.granularity);
    ASSERT_EQ(parsed.tenants.size(), setup.tenants.size());
    for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
        EXPECT_EQ(parsed.tenants[t].name, setup.tenants[t].name);
        EXPECT_EQ(parsed.tenants[t].kind, setup.tenants[t].kind);
        EXPECT_EQ(parsed.tenants[t].weight, setup.tenants[t].weight);
        EXPECT_EQ(parsed.tenants[t].ratePerKns,
                  setup.tenants[t].ratePerKns);
        EXPECT_EQ(parsed.tenants[t].burst.onNs,
                  setup.tenants[t].burst.onNs);
        EXPECT_EQ(parsed.tenants[t].slo.latencyTargetNs,
                  setup.tenants[t].slo.latencyTargetNs);
        EXPECT_EQ(parsed.tenants[t].slo.targetAvailability,
                  setup.tenants[t].slo.targetAvailability);
    }

    // The arrival trace reconstructs exactly.
    ASSERT_EQ(replayer.trace().size(), rec.trace.size());
    for (std::size_t i = 0; i < rec.trace.size(); ++i) {
        EXPECT_EQ(replayer.trace()[i].arrival,
                  rec.trace[i].arrival);
        EXPECT_EQ(replayer.trace()[i].tenant, rec.trace[i].tenant);
        EXPECT_EQ(replayer.trace()[i].input, rec.trace[i].input);
    }
}

TEST(ReplayerTest, UniformPoolRoundTrips)
{
    ServeRunSetup setup;
    setup.uniformPool = true;
    setup.slots.assign(2, PoolSlotSetup{SlotKind::Uniform, 2, 1.0});
    setup.trafficSeed = 11;
    setup.horizon = 15000;
    setup.admission.queueDepth = 2;
    setup.tenants.resize(2);
    setup.tenants[0].name = "micro0";
    setup.tenants[0].kind = WorkloadKind::Micro;
    setup.tenants[0].ratePerKns = 3.0;
    setup.tenants[1].name = "micro1";
    setup.tenants[1].kind = WorkloadKind::Micro;
    setup.tenants[1].ratePerKns = 3.0;

    const ServeRunRecord rec = recordServeRun(setup);
    ASSERT_GT(rec.report.completed, 0u);
    const Replayer replayer(rec.journal);
    const Replayer::Result res = replayer.replay();
    EXPECT_TRUE(res.identical) << res.detail;
}

TEST(ReplayerTest, TamperedArrivalDiverges)
{
    ServeRunSetup setup;
    setup.slots = {PoolSlotSetup{SlotKind::Uniform, 2, 1.0}};
    setup.trafficSeed = 5;
    setup.horizon = 8000;
    setup.tenants.resize(1);
    setup.tenants[0].name = "micro";
    setup.tenants[0].kind = WorkloadKind::Micro;
    setup.tenants[0].ratePerKns = 2.0;
    const ServeRunRecord rec = recordServeRun(setup);

    // Rebuild the journal with one arrival's input perturbed: the
    // replay runs (the trace parses fine) but the re-recorded
    // stream diverges at that arrival, named as the first mismatch.
    Journal tampered;
    std::size_t arrival_index = 0;
    bool done = false;
    for (std::size_t i = 0; i < rec.journal.size(); ++i) {
        JournalEvent e = rec.journal.event(i);
        if (!done && e.kind == EventKind::Arrival) {
            e.values[0] ^= 1;
            arrival_index = i;
            done = true;
        }
        tampered.append(std::move(e));
    }
    ASSERT_TRUE(done);

    const Replayer replayer(tampered);
    const Replayer::Result res = replayer.replay();
    EXPECT_FALSE(res.identical);
    EXPECT_EQ(res.firstMismatch, arrival_index);
    EXPECT_FALSE(res.detail.empty());
}

TEST(ReplayerTest, RejectsMalformedJournals)
{
    // Empty journal: no run_begin.
    EXPECT_THROW(Replayer{Journal{}}, std::runtime_error);

    // Unsupported setup version.
    {
        Journal jr;
        JournalEvent begin;
        begin.kind = EventKind::RunBegin;
        begin.a = ServeRunSetup::kSetupVersion + 1;
        begin.values = {1, 1, 1, 0};
        jr.append(std::move(begin));
        EXPECT_THROW(Replayer{std::move(jr)}, std::runtime_error);
    }

    // Truncated before the trace: header only, no trace_begin.
    {
        Journal jr;
        JournalEvent begin;
        begin.kind = EventKind::RunBegin;
        begin.a = ServeRunSetup::kSetupVersion;
        begin.values = {50000, 1, 1, 0};
        jr.append(std::move(begin));
        JournalEvent chip;
        chip.kind = EventKind::PoolChip;
        chip.b = static_cast<u64>(SlotKind::Uniform);
        chip.c = 2;
        chip.d = doubleBits(1.0);
        jr.append(std::move(chip));
        EXPECT_THROW(Replayer{std::move(jr)}, std::runtime_error);
    }

    // A trace_begin whose announced count the journal cannot honor.
    {
        ServeRunSetup setup;
        setup.slots = {PoolSlotSetup{SlotKind::Uniform, 2, 1.0}};
        setup.tenants.resize(1);
        setup.tenants[0].name = "micro";
        setup.tenants[0].kind = WorkloadKind::Micro;
        setup.horizon = 4000;
        const ServeRunRecord rec = recordServeRun(setup);
        Journal truncated;
        for (std::size_t i = 0; i < rec.journal.size(); ++i) {
            const JournalEvent &e = rec.journal.event(i);
            if (e.kind == EventKind::Arrival)
                continue;   // drop every arrival
            truncated.append(e);
        }
        ASSERT_FALSE(rec.trace.empty());
        EXPECT_THROW(Replayer{std::move(truncated)},
                     std::runtime_error);

        // Chain-valid journals announcing hostile counts: a trace of
        // 2^40 or 2^62 requests, or a pool of (size_t)-1 slots.
        // Nothing is sized from an announcement, so each fails as
        // the journal running out of records, never as an
        // allocation failure.
        auto rewrite = [&rec](EventKind kind, auto &&edit) {
            Journal out;
            for (std::size_t i = 0; i < rec.journal.size(); ++i) {
                JournalEvent e = rec.journal.event(i);
                if (e.kind == kind)
                    edit(e);
                out.append(std::move(e));
            }
            return out;
        };
        for (const u64 count : {u64{1} << 40, u64{1} << 62})
            EXPECT_THROW(Replayer{rewrite(EventKind::TraceBegin,
                                          [count](JournalEvent &e) {
                                              e.a = count;
                                          })},
                         std::runtime_error)
                << "announced " << count << " requests";
        EXPECT_THROW(Replayer{rewrite(EventKind::RunBegin,
                                      [](JournalEvent &e) {
                                          e.values[1] = -1;
                                      })},
                     std::runtime_error);
    }
}

TEST(ReplayerTest, PoolConfigValidatesSlots)
{
    ServeRunSetup setup;
    setup.slots.clear();
    EXPECT_THROW(setup.poolConfig(), std::invalid_argument);

    setup.slots = {PoolSlotSetup{SlotKind::Uniform, 0, 1.0}};
    EXPECT_THROW(setup.poolConfig(), std::invalid_argument);

    setup.slots = {PoolSlotSetup{SlotKind::Uniform, 2, -1.0}};
    EXPECT_THROW(setup.poolConfig(), std::invalid_argument);

    // A uniform pool's slots must be identical.
    setup.uniformPool = true;
    setup.slots = {PoolSlotSetup{SlotKind::Sar, 8, 1.0},
                   PoolSlotSetup{SlotKind::Ramp, 8, 1.0}};
    EXPECT_THROW(setup.poolConfig(), std::invalid_argument);

    // Heterogeneous composition of the same slots is buildable.
    setup.uniformPool = false;
    const serve::PoolConfig cfg = setup.poolConfig();
    ASSERT_EQ(cfg.chips.size(), 2u);
    EXPECT_EQ(cfg.chips[0].name, "sar");
    EXPECT_EQ(cfg.chips[1].name, "ramp");
}

} // namespace
} // namespace journal
} // namespace darth
