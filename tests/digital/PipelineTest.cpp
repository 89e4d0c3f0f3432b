/**
 * @file
 * Unit tests for the RACER pipeline: functional macro results, timing
 * behaviour (bit-pipelining, carry serialization), row I/O, shifts,
 * rotation, the DARTH-PUM element-wise load/store extension, and a
 * seeded property sweep that holds stage reservation to an explicit
 * stage-by-stage model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/Random.h"
#include "digital/Pipeline.h"

namespace darth
{
namespace digital
{
namespace
{

PipelineConfig
smallConfig(LogicFamilyKind family = LogicFamilyKind::Oscar)
{
    PipelineConfig cfg;
    cfg.depth = 16;
    cfg.width = 8;
    cfg.numRegs = 8;
    cfg.family = family;
    return cfg;
}

TEST(Pipeline, ElementRoundTrip)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(2, 3, 0xBEEF);
    EXPECT_EQ(pipe.element(2, 3, 16), 0xBEEFull);
    EXPECT_EQ(pipe.element(2, 3, 8), 0xEFull);
}

TEST(Pipeline, ClearReg)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(1, 0, 0xFFFF);
    pipe.clearReg(1);
    EXPECT_EQ(pipe.element(1, 0, 16), 0u);
}

TEST(Pipeline, AddAllElements)
{
    Pipeline pipe(smallConfig());
    for (std::size_t e = 0; e < 8; ++e) {
        pipe.setElement(0, e, 100 * e + 1);
        pipe.setElement(1, e, 7 * e + 3);
    }
    pipe.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(pipe.element(2, e, 16), (100 * e + 1) + (7 * e + 3));
}

TEST(Pipeline, SubWrapsTwosComplement)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 5);
    pipe.setElement(1, 0, 10);
    pipe.execMacro(MacroKind::Sub, 2, 0, 1, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16), (5 - 10) & 0xFFFFull);
}

TEST(Pipeline, XorAndOrNot)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0xF0F0);
    pipe.setElement(1, 0, 0xFF00);
    pipe.execMacro(MacroKind::Xor, 2, 0, 1, 16, 0);
    pipe.execMacro(MacroKind::And, 3, 0, 1, 16, 0);
    pipe.execMacro(MacroKind::Or, 4, 0, 1, 16, 0);
    pipe.execMacro(MacroKind::Not, 5, 0, 0, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16), 0x0FF0ull);
    EXPECT_EQ(pipe.element(3, 0, 16), 0xF000ull);
    EXPECT_EQ(pipe.element(4, 0, 16), 0xFFF0ull);
    EXPECT_EQ(pipe.element(5, 0, 16), 0x0F0Full);
}

TEST(Pipeline, IndependentMacrosPipelineOverlap)
{
    // Two independent XORs on an empty pipeline: the second's stage 0
    // starts as soon as the first vacates it, so total time is far
    // less than 2x a single macro.
    Pipeline pipe(smallConfig());
    const Cycle t1 = pipe.execMacro(MacroKind::Xor, 2, 0, 1, 16, 0);
    const Cycle t2 = pipe.execMacro(MacroKind::Xor, 3, 0, 1, 16, 0);
    EXPECT_LT(t2, 2 * t1);
    const BitProgram p = synthesizeMacro(
        MacroKind::Xor, LogicFamily(LogicFamilyKind::Oscar));
    EXPECT_EQ(t2, t1 + p.opCount());
}

TEST(Pipeline, CarryChainSerializesStages)
{
    // ADD latency grows ~linearly with bit count because of the
    // ripple carry; XOR grows with bits only through the 1-cycle
    // control handoff.
    Pipeline pipe(smallConfig());
    const Cycle add_done = pipe.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    Pipeline pipe2(smallConfig());
    const Cycle xor_done =
        pipe2.execMacro(MacroKind::Xor, 2, 0, 1, 16, 0);
    EXPECT_GT(add_done, 3 * xor_done);
    // 16 bits x 11 ops, fully serialized.
    EXPECT_EQ(add_done, 16u * 11u);
}

TEST(Pipeline, IdealFamilyFasterThanOscar)
{
    Pipeline oscar(smallConfig(LogicFamilyKind::Oscar));
    Pipeline ideal(smallConfig(LogicFamilyKind::Ideal));
    const Cycle t_oscar = oscar.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    const Cycle t_ideal = ideal.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    EXPECT_GT(static_cast<double>(t_oscar) /
                  static_cast<double>(t_ideal),
              1.8);
}

TEST(Pipeline, SelectImplementsRelu)
{
    // ReLU: select 0 where the sign bit (bit 15) is set.
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x8005);   // negative 16-bit value
    pipe.setElement(0, 1, 0x0005);   // positive
    pipe.clearReg(1);                // zeros
    pipe.execSelect(2, 0, 1, 0, 15, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16), 0u);
    EXPECT_EQ(pipe.element(2, 1, 16), 0x0005ull);
}

TEST(Pipeline, ShiftUpMultiplies)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x0021);
    pipe.execShift(1, 0, 3, true, 16, 0);
    EXPECT_EQ(pipe.element(1, 0, 16), 0x0021ull << 3);
}

TEST(Pipeline, ShiftDownDivides)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x8400);
    pipe.execShift(1, 0, 2, false, 16, 0);
    EXPECT_EQ(pipe.element(1, 0, 16), 0x8400ull >> 2);
}

TEST(Pipeline, ShiftInPlace)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0x0101);
    pipe.execShift(0, 0, 1, true, 16, 0);
    EXPECT_EQ(pipe.element(0, 0, 16), 0x0202ull);
}

TEST(Pipeline, RotatePerformsCyclicShift)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, 0xABCD);
    pipe.execRotate(0, 4, 16, 0);
    EXPECT_EQ(pipe.element(0, 0, 16), 0xBCDAull);
}

TEST(Pipeline, RotateCostsIncludeDrain)
{
    // The reversal macro must drain the pipeline first (§5.3), so it
    // is much more expensive than a plain shift.
    Pipeline a(smallConfig());
    const Cycle shift_done = a.execShift(1, 0, 4, true, 16, 0);
    Pipeline b(smallConfig());
    const Cycle rot_done = b.execRotate(0, 4, 16, 0);
    EXPECT_GT(rot_done, shift_done);
}

TEST(Pipeline, WriteRowWithShiftUnitOffset)
{
    // The ACE->DCE shift units place partial products pre-shifted:
    // writing value v at lo_bit=k equals storing v << k.
    Pipeline pipe(smallConfig());
    pipe.writeRow(0, 2, 0x5, 3, 8, 0);
    EXPECT_EQ(pipe.element(0, 2, 16), 0x5ull << 3);
}

TEST(Pipeline, WriteRowOneCyclePerRow)
{
    Pipeline pipe(smallConfig());
    Cycle t = 0;
    for (std::size_t e = 0; e < 8; ++e)
        t = pipe.writeRow(0, e, e, 0, 8, t);
    EXPECT_EQ(t, 8u);
}

TEST(Pipeline, ReadRowMatchesSetElement)
{
    Pipeline pipe(smallConfig());
    pipe.setElement(3, 5, 0x1234);
    EXPECT_EQ(pipe.readRow(3, 5, 0), 0x1234ull);
}

TEST(Pipeline, ElementLoadGathersFromTable)
{
    // Table pipeline stores a lookup table across rows/registers;
    // the compute pipeline gathers entries by per-element address.
    PipelineConfig cfg = smallConfig();
    Pipeline table(cfg);
    Pipeline compute(cfg);
    // Table: entry t = t * 3, spread over registers 0.. (width = 8).
    for (u64 t = 0; t < 16; ++t)
        table.setElement(t / 8, t % 8, t * 3);
    for (std::size_t e = 0; e < 8; ++e)
        compute.setElement(0, e, (e * 2 + 1) % 16);   // addresses
    compute.elementLoad(1, 0, table, 0, 8, 0);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(compute.element(1, e, 8), ((e * 2 + 1) % 16) * 3);
}

TEST(Pipeline, ElementLoadCostThreeCyclesPerElement)
{
    PipelineConfig cfg = smallConfig();
    Pipeline table(cfg);
    Pipeline compute(cfg);
    const Cycle done = compute.elementLoad(1, 0, table, 0, 8, 0);
    EXPECT_EQ(done, 3u * cfg.width);
}

TEST(Pipeline, ElementStoreScattersToTable)
{
    PipelineConfig cfg = smallConfig();
    Pipeline table(cfg);
    Pipeline compute(cfg);
    for (std::size_t e = 0; e < 8; ++e) {
        compute.setElement(0, e, e);         // addresses: identity
        compute.setElement(1, e, 100 + e);   // data
    }
    compute.elementStore(1, 0, table, 2, 8, 0);
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(table.element(2, e, 8), 100 + e);
}

TEST(Pipeline, CostTallyRecordsOpsAndEnergy)
{
    CostTally tally;
    PipelineConfig cfg = smallConfig();
    Pipeline pipe(cfg, &tally);
    pipe.execMacro(MacroKind::Add, 2, 0, 1, 16, 0);
    const CostEntry ops = tally.get("dce.boolop");
    EXPECT_EQ(ops.events, 16u * 11u);
    EXPECT_DOUBLE_EQ(ops.energy, 16.0 * 11.0 * cfg.opEnergyPJ);
}

TEST(PipelineDeath, BadRegisterPanics)
{
    Pipeline pipe(smallConfig());
    EXPECT_DEATH(pipe.setElement(99, 0, 0), "out of range");
    EXPECT_DEATH(pipe.execMacro(MacroKind::Add, 0, 99, 1, 8, 0),
                 "out of range");
}

TEST(PipelineDeath, TooManyBitsPanics)
{
    Pipeline pipe(smallConfig());
    EXPECT_DEATH(pipe.execMacro(MacroKind::Add, 0, 1, 2, 17, 0),
                 "exceeds depth");
}

TEST(PipelineDeath, WideWidthIsFatal)
{
    PipelineConfig cfg = smallConfig();
    cfg.width = 65;
    EXPECT_THROW(Pipeline{cfg}, std::runtime_error);
}

/** Property sweep: pipeline arithmetic matches integer semantics. */
class PipelineMacroProperty
    : public ::testing::TestWithParam<std::tuple<MacroKind, u64, u64>>
{
};

TEST_P(PipelineMacroProperty, MatchesReference)
{
    const auto [kind, a, b] = GetParam();
    Pipeline pipe(smallConfig());
    pipe.setElement(0, 0, a);
    pipe.setElement(1, 0, b);
    pipe.execMacro(kind, 2, 0, 1, 16, 0);
    EXPECT_EQ(pipe.element(2, 0, 16),
              referenceMacro(kind, a, b, 16));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineMacroProperty,
    ::testing::Combine(
        ::testing::Values(MacroKind::Add, MacroKind::Sub, MacroKind::Xor,
                          MacroKind::And, MacroKind::Or, MacroKind::Nor),
        ::testing::Values(u64{0}, u64{1}, u64{0xFF}, u64{0x8000},
                          u64{0xFFFF}, u64{0x1234}),
        ::testing::Values(u64{0}, u64{1}, u64{0x00FF}, u64{0xFFFF},
                          u64{0xABCD})));

/**
 * Explicit per-stage reservation model: one free time per stage,
 * walked in full for every macro. The pipeline's own bookkeeping may
 * take any shortcut, but every completion, drain time and stage-0
 * free time it reports must equal this walk.
 */
struct StageModel
{
    std::vector<Cycle> free;

    Cycle
    reserve(std::size_t bits, Cycle issue, Cycle ops, bool chained)
    {
        Cycle prev_start = issue;
        Cycle prev_done = issue;
        Cycle completion = issue;
        for (std::size_t i = 0; i < bits; ++i) {
            const Cycle ready =
                chained ? std::max(issue, prev_done)
                        : std::max(issue,
                                   prev_start + (i > 0 ? 1 : 0));
            const Cycle start = std::max(ready, free[i]);
            free[i] = start + ops;
            prev_start = start;
            prev_done = start + ops;
            completion = std::max(completion, prev_done);
        }
        return completion;
    }

    Cycle
    drain() const
    {
        return *std::max_element(free.begin(), free.end());
    }

    void
    fence(Cycle when)
    {
        for (auto &stage : free)
            stage = std::max(stage, when);
    }
};

class PipelineReservationProperty
    : public ::testing::TestWithParam<std::tuple<u64, LogicFamilyKind>>
{
};

TEST_P(PipelineReservationProperty, MatchesStageWalk)
{
    const auto [seed, family] = GetParam();
    PipelineConfig cfg = smallConfig(family);
    cfg.depth = 32;
    Pipeline pipe(cfg);
    Pipeline table(cfg);
    StageModel model{std::vector<Cycle>(cfg.depth, 0)};
    const auto program = [family](MacroKind kind) -> const BitProgram & {
        return KernelCache::instance().macro(kind, family).program;
    };
    // VR 7 holds the all-zero gather/scatter addresses; macros write
    // only VRs 0..5, so every address stays inside the table.
    constexpr std::size_t kAddrVr = 7;
    pipe.clearReg(kAddrVr);

    Rng rng(seed);
    Cycle issue = 0;
    for (int step = 0; step < 3000; ++step) {
        // Mostly issue into a busy pipeline (the stall case), else
        // behind it, else at an early cycle.
        const u64 when = rng.uniformInt(u64{10});
        if (when < 6)
            issue = model.free[0] > 20 ? model.free[0] - 20 +
                                             rng.uniformInt(u64{40})
                                       : rng.uniformInt(u64{40});
        else if (when < 9)
            issue = model.drain() + rng.uniformInt(u64{8});
        else
            issue = rng.uniformInt(issue + 1);
        // Most macros share one span (the reduction's steady state);
        // the rest mix widths.
        const std::size_t bits =
            rng.uniformInt(u64{4}) != 0
                ? 20
                : 1 + static_cast<std::size_t>(
                          rng.uniformInt(u64{cfg.depth}));
        const std::size_t dst = rng.uniformInt(u64{6});
        const std::size_t a = rng.uniformInt(u64{7});
        const std::size_t b = rng.uniformInt(u64{7});

        Cycle got = 0;
        Cycle want = 0;
        const u64 op = rng.uniformInt(u64{20});
        if (op < 12) {
            const MacroKind kind = op < 6   ? MacroKind::Add
                                   : op < 10 ? MacroKind::Sub
                                             : MacroKind::Xor;
            const BitProgram &p = program(kind);
            got = op % 2 == 0
                      ? pipe.execMacro(kind, dst, a, b, bits, issue)
                      : pipe.timeMacro(kind, bits, issue);
            want = model.reserve(bits, issue, p.opCount(),
                                 p.hasCarryChain());
        } else if (op == 12) {
            got = pipe.execSelect(dst, a, b, a, bits - 1, bits, issue);
            want = model.reserve(bits, issue,
                                 program(MacroKind::Mux).opCount() + 1,
                                 false);
        } else if (op == 13) {
            const std::size_t k = rng.uniformInt(u64{4});
            got = pipe.execShift(dst, a, k, k % 2 == 0, bits, issue);
            want = model.reserve(bits, issue,
                                 2 * std::max<std::size_t>(k, 1),
                                 false);
        } else if (op == 14) {
            const std::size_t rot_bits = std::max<std::size_t>(bits, 2);
            const std::size_t k = rng.uniformInt(u64{rot_bits});
            got = pipe.execRotate(dst, k, rot_bits, issue);
            want = std::max(issue, model.drain()) + cfg.depth +
                   2 * (rot_bits - k) + cfg.depth;
            model.fence(want);
        } else if (op == 15 || op == 16) {
            got = op == 15
                      ? pipe.elementLoad(dst, kAddrVr, table, 0, bits,
                                         issue)
                      : pipe.elementStore(a, kAddrVr, table, 0, bits,
                                          issue);
            want = std::max(issue, model.drain()) + 3 * cfg.width;
            model.fence(want);
        } else if (op == 17) {
            const Cycle when_rebase = rng.uniformInt(model.drain() + 1);
            pipe.rebase(when_rebase);
            std::fill(model.free.begin(), model.free.end(),
                      when_rebase);
        } else {
            // Back-to-back chained ADDs at one span: the HCT's
            // reduction pattern.
            const std::size_t span = 8 + rng.uniformInt(u64{24});
            for (int k = 0; k < 6; ++k) {
                got = pipe.timeMacro(MacroKind::Add, span, issue);
                want = model.reserve(
                    span, issue, program(MacroKind::Add).opCount(),
                    true);
                ASSERT_EQ(got, want) << "step " << step << " run " << k;
                issue += rng.uniformInt(u64{30});
            }
        }
        ASSERT_EQ(got, want) << "step " << step << " op " << op;
        ASSERT_EQ(pipe.drainTime(), model.drain()) << "step " << step;
        ASSERT_EQ(pipe.stage0FreeAt(), model.free[0])
            << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PipelineReservationProperty,
    ::testing::Combine(::testing::Range(u64{1}, u64{7}),
                       ::testing::Values(LogicFamilyKind::Oscar,
                                         LogicFamilyKind::Ideal)));

} // namespace
} // namespace digital
} // namespace darth
