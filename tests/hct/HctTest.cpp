/**
 * @file
 * Integration tests for the hybrid compute tile: end-to-end MVM
 * exactness through ACE + shift units + DCE reduction, the Figure 10
 * shift-unit optimization, IIU ablation, vACore management, and a
 * pinned sweep that holds every observable of the reduction (values,
 * completion cycle, cost tally, reserved registers) to fixed digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/Fnv.h"
#include "common/Random.h"
#include "digital/KernelCache.h"
#include "hct/Hct.h"

namespace darth
{
namespace hct
{
namespace
{

HctConfig
smallHct()
{
    HctConfig cfg;
    cfg.dce.numPipelines = 4;
    cfg.dce.pipeline.depth = 32;
    cfg.dce.pipeline.width = 8;
    cfg.dce.pipeline.numRegs = 8;
    cfg.ace.numArrays = 16;
    cfg.ace.arrayRows = 16;
    cfg.ace.arrayCols = 8;
    return cfg;
}

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, i64 lo, i64 hi,
             u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(lo, hi);
    return m;
}

std::vector<i64>
randomVector(std::size_t n, i64 lo, i64 hi, u64 seed)
{
    Rng rng(seed);
    std::vector<i64> x(n);
    for (auto &v : x)
        v = rng.uniformInt(lo, hi);
    return x;
}

TEST(Hct, PaperDefaultMatchesTable2)
{
    const HctConfig cfg = HctConfig::paperDefault(analog::AdcKind::Sar);
    EXPECT_EQ(cfg.dce.numPipelines, 64u);
    EXPECT_EQ(cfg.dce.pipeline.depth, 64u);
    EXPECT_EQ(cfg.ace.numArrays, 64u);
    EXPECT_EQ(cfg.ace.numAdcs, 8u);
    const HctConfig ramp =
        HctConfig::paperDefault(analog::AdcKind::Ramp);
    EXPECT_EQ(ramp.ace.numAdcs, 1u);
}

TEST(Hct, MvmExactBinaryMatrix)
{
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, 0, 1, 61);
    hct.setMatrix(m, 1, 1);
    const auto x = randomVector(8, 0, 1, 62);
    const auto result = hct.execMvm(x, 1, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
    EXPECT_GT(result.done, 0u);
}

TEST(Hct, MvmExactSignedMultiBit)
{
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, -7, 7, 63);
    hct.setMatrix(m, 3, 1);
    const auto x = randomVector(8, -8, 7, 64);
    const auto result = hct.execMvm(x, 4, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

TEST(Hct, MvmExactWithTiling)
{
    Hct hct(smallHct());
    // 16 rows (2 row tiles) x 16 cols (2 col tiles, 2 reduction
    // pipelines), 4-bit elements at 2 bits per cell (2 slices).
    const MatrixI m = randomMatrix(16, 16, -15, 15, 65);
    hct.setMatrix(m, 4, 2);
    const auto x = randomVector(16, -4, 3, 66);
    const auto result = hct.execMvm(x, 3, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

TEST(Hct, MvmExactNegativeResults)
{
    Hct hct(smallHct());
    MatrixI m(4, 4, -1);
    hct.setMatrix(m, 1, 1);
    std::vector<i64> x = {3, 3, 3, 3};
    const auto result = hct.execMvm(x, 3, 0);
    EXPECT_EQ(result.values, (std::vector<i64>{-12, -12, -12, -12}));
}

TEST(Hct, ShiftUnitsImproveLatency)
{
    // Figure 10: shifting during the transfer removes the
    // write/shift serialization.
    const MatrixI m = randomMatrix(8, 8, -7, 7, 67);
    const auto x = randomVector(8, 0, 15, 68);

    HctConfig with = smallHct();
    Hct fast(with);
    fast.setMatrix(m, 3, 1);
    const auto fast_result = fast.execMvm(x, 4, 0);

    HctConfig without = smallHct();
    without.shiftUnits = false;
    Hct slow(without);
    slow.setMatrix(m, 3, 1);
    const auto slow_result = slow.execMvm(x, 4, 0);

    EXPECT_EQ(fast_result.values, slow_result.values);   // same maths
    EXPECT_LT(fast_result.done, slow_result.done);       // faster
}

TEST(Hct, IiuRemovesFrontEndStalls)
{
    const MatrixI m = randomMatrix(8, 8, -7, 7, 69);
    const auto x = randomVector(8, 0, 15, 70);

    HctConfig with = smallHct();
    Hct fast(with);
    fast.setMatrix(m, 3, 1);
    const auto fast_result = fast.execMvm(x, 4, 0);
    EXPECT_GT(fast.iiu().injectedUops(), 0u);

    HctConfig without = smallHct();
    without.iiu.enabled = false;
    Hct slow(without);
    slow.setMatrix(m, 3, 1);
    const auto slow_result = slow.execMvm(x, 4, 0);

    EXPECT_EQ(fast_result.values, slow_result.values);
    EXPECT_LT(fast_result.done, slow_result.done);
}

TEST(Hct, TransposeUnitAblation)
{
    const MatrixI m = randomMatrix(8, 8, -1, 1, 71);
    const auto x = randomVector(8, 0, 1, 72);

    HctConfig with = smallHct();
    Hct fast(with);
    fast.setMatrix(m, 1, 1);
    const auto fast_result = fast.execMvm(x, 1, 0);

    HctConfig without = smallHct();
    without.transpose.enabled = false;
    Hct slow(without);
    slow.setMatrix(m, 1, 1);
    const auto slow_result = slow.execMvm(x, 1, 0);

    EXPECT_EQ(fast_result.values, slow_result.values);
    EXPECT_LT(fast_result.done, slow_result.done);
}

TEST(Hct, ArbiterMakesMvmAtomic)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(8, 8, -1, 1, 73), 1, 1);
    const auto result = hct.execMvm(randomVector(8, 0, 1, 74), 1, 0);
    // A digital macro issued at cycle 0 must start after the MVM.
    const Cycle digital_done = hct.digitalMacro(
        3, digital::MacroKind::Xor, 2, 0, 1, 8, 0);
    EXPECT_GT(digital_done, result.done);
}

TEST(Hct, LoadAndReadVectorRoundTrip)
{
    Hct hct(smallHct());
    const std::vector<i64> values = {1, -2, 3, -4, 5, -6, 7, -8};
    hct.loadVector(0, 2, values, 8, 0);
    EXPECT_EQ(hct.readVector(0, 2, 8), values);
}

TEST(Hct, DigitalMacroThroughArbiter)
{
    Hct hct(smallHct());
    hct.loadVector(0, 2, {10, 20, 30, 40, 50, 60, 70, 80}, 16, 0);
    hct.loadVector(0, 3, {1, 2, 3, 4, 5, 6, 7, 8}, 16, 0);
    hct.digitalMacro(0, digital::MacroKind::Add, 4, 2, 3, 16, 0);
    EXPECT_EQ(hct.readVector(0, 4, 16),
              (std::vector<i64>{11, 22, 33, 44, 55, 66, 77, 88}));
}

TEST(Hct, DependentMacrosChainOnOneTile)
{
    Hct hct(smallHct());
    hct.loadVector(1, 0, {1, 2, 3, 4, 5, 6, 7, 8}, 16, 0);
    hct.loadVector(1, 1, {10, 20, 30, 40, 50, 60, 70, 80}, 16, 0);
    const Cycle sub_done =
        hct.digitalMacro(1, digital::MacroKind::Sub, 3, 1, 0, 16, 0);
    const Cycle xor_done = hct.digitalMacro(
        1, digital::MacroKind::Xor, 4, 0, 1, 16, sub_done);
    // The second ADD reads the first's output register.
    const Cycle add_done = hct.digitalMacro(
        1, digital::MacroKind::Add, 5, 3, 3, 16, xor_done);
    EXPECT_GT(xor_done, sub_done);
    EXPECT_GT(add_done, xor_done);
    EXPECT_EQ(hct.readVector(1, 3, 16),
              (std::vector<i64>{9, 18, 27, 36, 45, 54, 63, 72}));
    EXPECT_EQ(hct.readVector(1, 4, 16),
              (std::vector<i64>{1 ^ 10, 2 ^ 20, 3 ^ 30, 4 ^ 40, 5 ^ 50,
                                6 ^ 60, 7 ^ 70, 8 ^ 80}));
    EXPECT_EQ(hct.readVector(1, 5, 16),
              (std::vector<i64>{18, 36, 54, 72, 90, 108, 126, 144}));
}

TEST(Hct, ElementLoadGathersFromTablePipeline)
{
    Hct hct(smallHct());
    // Table in pipeline 2: entry t = 2t across registers 0..1.
    for (u64 t = 0; t < 16; ++t)
        hct.dce().pipeline(2).setElement(t / 8, t % 8, 2 * t);
    hct.loadVector(1, 0, {0, 3, 5, 7, 9, 11, 13, 15}, 8, 0);
    const Cycle done = hct.elementLoad(1, 4, 0, 2, 0, 8, 0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(hct.readVector(1, 4, 8),
              (std::vector<i64>{0, 6, 10, 14, 18, 22, 26, 30}));
}

TEST(Hct, MvmLeavesResultInAccumulator)
{
    // The reduction accumulates into VR 0 of pipeline 0, where later
    // digital macros can read it.
    Hct hct(smallHct());
    MatrixI m(8, 8);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            m(r, c) = static_cast<i64>((r + c) % 3) - 1;
    hct.setMatrix(m, 1, 1);
    const std::vector<i64> x = {1, 0, 1, 1, 0, 1, 0, 1};
    const auto result = hct.execMvm(x, 4, 0);
    const auto acc = hct.readVector(
        0, 0, static_cast<std::size_t>(hct.accumulatorBits(4)));
    EXPECT_EQ(acc, hct.ace().referenceMvm(x));
    EXPECT_EQ(result.values, acc);
}

TEST(Hct, DisableAnalogModeBlocksMvm)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(8, 8, -1, 1, 75), 1, 1);
    const Cycle done = hct.disableAnalogMode(0);
    EXPECT_GT(done, 0u);
    EXPECT_FALSE(hct.analogEnabled());
    EXPECT_THROW((void)hct.execMvm(randomVector(8, 0, 1, 76), 1, 0),
                 std::runtime_error);
}

TEST(Hct, DisableDigitalModeReturnsRawPartials)
{
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, -1, 1, 77);
    hct.setMatrix(m, 1, 1);
    hct.disableDigitalMode();
    // Single-plane single-slice MVM: the raw partial is the result.
    const auto x = randomVector(8, 0, 1, 78);
    const auto result = hct.execMvm(x, 1, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

TEST(Hct, AccumulatorWidthCoversWorstCase)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(16, 8, -15, 15, 79), 4, 2);
    // 4-bit elements, 4-bit inputs, 16 rows -> needs >= 4+4+4+1 bits.
    EXPECT_GE(hct.accumulatorBits(4), 13);
    EXPECT_LE(hct.accumulatorBits(4), 32);
}

TEST(Hct, MvmCountIncrements)
{
    Hct hct(smallHct());
    hct.setMatrix(randomMatrix(8, 8, 0, 1, 80), 1, 1);
    EXPECT_EQ(hct.mvmCount(), 0u);
    hct.execMvm(randomVector(8, 0, 1, 81), 1, 0);
    hct.execMvm(randomVector(8, 0, 1, 82), 1, 0);
    EXPECT_EQ(hct.mvmCount(), 2u);
}

TEST(Hct, CostTallyCoversAllComponents)
{
    CostTally tally;
    Hct hct(smallHct(), &tally);
    hct.setMatrix(randomMatrix(8, 8, -7, 7, 83), 3, 1);
    hct.execMvm(randomVector(8, 0, 15, 84), 4, 0);
    EXPECT_GT(tally.get("ace.program").energy, 0.0);
    EXPECT_GT(tally.get("ace.adc").energy, 0.0);
    EXPECT_GT(tally.get("ace.dac").energy, 0.0);
    EXPECT_GT(tally.get("dce.boolop").energy, 0.0);
    EXPECT_GT(tally.get("hct.network").energy, 0.0);
}

TEST(HctDeath, MvmWithoutVACoreIsFatal)
{
    Hct hct(smallHct());
    EXPECT_THROW((void)hct.execMvm({1}, 1, 0), std::runtime_error);
}

/** Property sweep: hybrid MVM equals the integer reference. */
class HctMvmProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(HctMvmProperty, MatchesReference)
{
    const u64 seed = GetParam();
    Hct hct(smallHct());
    const MatrixI m = randomMatrix(8, 8, -3, 3, seed);
    hct.setMatrix(m, 2, 2);
    const auto x = randomVector(8, -4, 3, seed + 1000);
    const auto result = hct.execMvm(x, 3, 0);
    EXPECT_EQ(result.values, hct.ace().referenceMvm(x));
}

INSTANTIATE_TEST_SUITE_P(Sweep, HctMvmProperty,
                         ::testing::Range(u64{100}, u64{120}));

/**
 * One pinned reduction scenario. The digest folds, over three
 * back-to-back MVMs on one tile, every result value, every completion
 * cycle, the whole cost tally (names, events, cycles, energy bits) and
 * the full-depth contents of both reserved registers (accumulator VR 0
 * and staging VR 1) of every reduction pipeline. The constants were
 * recorded from the partial-product-by-partial-product reduction, so
 * any change to how the tile reduces must leave all of them alone.
 */
struct ReductionCase
{
    const char *name;
    int elementBits;
    int bitsPerCell;
    int inputBits;
    bool negativeInputs;
    analog::AdcKind adc;
    int adcBits;
    std::size_t rows;
    std::size_t cols;
    std::size_t depth;
    bool ideal;
    bool shiftUnits;
    Cycle expectDone;
    u64 expectDigest;
};

u64
mixTally(const CostTally &tally, u64 hash)
{
    for (const auto &[name, entry] : tally.entries()) {
        hash = fnv1aBytes(name.data(), name.size(), hash);
        hash = fnv1aWord(entry.events, hash);
        hash = fnv1aWord(entry.cycles, hash);
        u64 energy_bits = 0;
        std::memcpy(&energy_bits, &entry.energy, sizeof(energy_bits));
        hash = fnv1aWord(energy_bits, hash);
    }
    return hash;
}

/** Two's complement sign extension of the low `bits` bits. */
i64
signExtend(i64 value, int bits)
{
    const u64 mask = (u64{1} << bits) - 1;
    const u64 low = static_cast<u64>(value) & mask;
    return (low >> (bits - 1)) & 1ULL
               ? static_cast<i64>(low) - (i64{1} << bits)
               : static_cast<i64>(low);
}

void
PrintTo(const ReductionCase &rc, std::ostream *os)
{
    *os << rc.name;
}

class HctReductionPinned
    : public ::testing::TestWithParam<ReductionCase>
{
};

TEST_P(HctReductionPinned, MatchesRecordedDigest)
{
    const ReductionCase &rc = GetParam();
    HctConfig cfg;
    cfg.dce.numPipelines = 4;
    cfg.dce.pipeline.depth = rc.depth;
    cfg.dce.pipeline.width = 64;
    cfg.dce.pipeline.numRegs = 8;
    cfg.ace.numArrays = 64;
    cfg.ace.arrayRows = 16;
    cfg.ace.arrayCols = 64;
    cfg.ace.adc.kind = rc.adc;
    cfg.ace.adc.bits = rc.adcBits;
    cfg.ace.numAdcs = rc.adc == analog::AdcKind::Sar ? 2 : 1;
    cfg.ace.rampAutoTerminate = true;
    if (!rc.ideal)
        cfg.ace.noise = reram::NoiseModel::realistic();
    cfg.shiftUnits = rc.shiftUnits;

    CostTally tally;
    Hct hct(cfg, &tally, 7);
    const i64 w_max = (i64{1} << rc.elementBits) - 1;
    hct.setMatrix(randomMatrix(rc.rows, rc.cols, -w_max, w_max,
                               static_cast<u64>(rc.rows * 131 +
                                                rc.cols)),
                  rc.elementBits, rc.bitsPerCell);
    const int acc_bits = hct.accumulatorBits(rc.inputBits);
    const std::size_t pipes = (rc.cols + 63) / 64;

    u64 digest = kFnvOffsetBasis;
    Cycle start = 0;
    Cycle done = 0;
    for (u64 round = 0; round < 3; ++round) {
        const i64 x_lo =
            rc.negativeInputs ? -(i64{1} << (rc.inputBits - 1)) : 0;
        const i64 x_hi =
            rc.negativeInputs ? (i64{1} << (rc.inputBits - 1)) - 1
                              : (i64{1} << rc.inputBits) - 1;
        auto x = randomVector(rc.rows, x_lo, x_hi, 900 + round);
        // Sparse inputs too: every third row is zero.
        for (std::size_t r = round; r < x.size(); r += 3)
            x[r] = 0;
        const auto result = hct.execMvm(x, rc.inputBits, start);
        if (rc.ideal) {
            const auto reference = hct.ace().referenceMvm(x);
            for (std::size_t c = 0; c < rc.cols; ++c)
                ASSERT_EQ(result.values[c],
                          signExtend(reference[c], acc_bits))
                    << rc.name << " round " << round << " col " << c;
        }
        digest = fnv1aWords(result.values, digest);
        digest = fnv1aWord(result.done, digest);
        done = result.done;
        // Alternate a back-to-back issue with one behind the tile.
        start = round % 2 == 0 ? result.done / 2 : result.done + 5;
    }
    digest = mixTally(tally, digest);
    for (std::size_t p = 0; p < pipes; ++p)
        for (std::size_t vr = 0; vr < 2; ++vr)
            digest = fnv1aWords(hct.readVector(p, vr, rc.depth), digest);

    EXPECT_EQ(done, rc.expectDone) << rc.name;
    EXPECT_EQ(digest, rc.expectDigest)
        << rc.name << " digest 0x" << std::hex << digest;
}

using analog::AdcKind;

INSTANTIATE_TEST_SUITE_P(
    Sweep, HctReductionPinned,
    ::testing::Values(
        // name, elem bits, bits/cell, input bits, negative inputs,
        // ADC, ADC bits, rows, cols, depth, ideal, shift units,
        // done, digest
        ReductionCase{"binary_sar4", 1, 1, 1, false, AdcKind::Sar, 4,
                      8, 8, 64, true, true,
                      272, 0x6cb1a0f346590176ULL},
        ReductionCase{"three_row_tiles", 4, 2, 4, true, AdcKind::Sar,
                      6, 20, 16, 64, true, true,
                      1673, 0xf1cf2cc12a0991c7ULL},
        ReductionCase{"two_pipes_ramp4", 8, 1, 8, true, AdcKind::Ramp,
                      4, 16, 70, 64, true, true,
                      49925, 0x86df0225b32664dfULL},
        ReductionCase{"acc_over_32", 16, 4, 16, true, AdcKind::Sar, 8,
                      24, 40, 64, true, true,
                      24425, 0xbee0ac4ed11ef470ULL},
        ReductionCase{"depth_wraps", 12, 3, 10, false, AdcKind::Ramp,
                      6, 16, 96, 24, true, true,
                      31529, 0x1d2685be8a002892ULL},
        ReductionCase{"sixteen_slices", 16, 1, 16, true, AdcKind::Ramp,
                      8, 16, 64, 64, true, true,
                      99653, 0xa095dd026ef9573aULL},
        ReductionCase{"two_bit_cells_sar4", 2, 2, 3, true,
                      AdcKind::Sar, 4, 12, 8, 16, true, true,
                      977, 0xa25cb3b669d1961bULL},
        ReductionCase{"wide_cells_65_cols", 7, 4, 5, true,
                      AdcKind::Sar, 6, 8, 65, 64, true, true,
                      8273, 0xdfb49b058f273c30ULL},
        ReductionCase{"ramp8_unsigned", 5, 3, 6, false, AdcKind::Ramp,
                      8, 24, 128, 64, true, true,
                      12776, 0x0ae6ed1a5aecd79dULL},
        ReductionCase{"noisy_two_pipes", 6, 2, 6, true, AdcKind::Sar,
                      8, 16, 72, 64, false, true,
                      7541, 0x30571da7aff36d73ULL},
        ReductionCase{"no_shift_units", 4, 2, 5, true, AdcKind::Sar,
                      6, 12, 70, 32, true, false,
                      10028, 0x79d44eec7b23005bULL}),
    [](const ::testing::TestParamInfo<ReductionCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Closed-form reduction timing against a partial-product replay.
// ---------------------------------------------------------------------

/**
 * Test-local replay of the HCT's reduction timing one partial product
 * at a time: the stream comes from a twin ACE's public execMvm, every
 * ADD/SUB is timed by Pipeline::timeMacro on twin pipelines, and the
 * transfer, network and IIU charges follow the HCT's model. It shares
 * no code with the closed form, so any difference in completions,
 * stage state or tallies is the closed form's.
 */
class ReductionReplay
{
  public:
    ReductionReplay(const HctConfig &cfg, u64 seed)
        : cfg_(cfg), ace_(cfg.ace, &tally_, seed),
          arbiter_(cfg.arbiterSwitchPenalty), transpose_(cfg.transpose)
    {
        for (std::size_t p = 0; p < cfg.dce.numPipelines; ++p)
            pipes_.push_back(std::make_unique<digital::Pipeline>(
                cfg.dce.pipeline, &tally_));
    }

    analog::Ace &ace() { return ace_; }
    Arbiter &arbiter() { return arbiter_; }
    digital::Pipeline &pipe(std::size_t p) { return *pipes_[p]; }
    const CostTally &tally() const { return tally_; }
    u64 injectedUops() const { return injected_; }

    void
    setMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
    {
        ace_.setMatrix(m, element_bits, bits_per_cell);
        elementBits_ = element_bits;
    }

    Cycle
    mvm(const std::vector<i64> &x, int input_bits, Cycle start)
    {
        const Cycle analog_start = arbiter_.acquire(Mode::Analog, start);
        const auto stream = ace_.execMvm(x, input_bits, analog_start);
        int log_rows = 0;
        while ((std::size_t{1} << log_rows) < ace_.matrix().rows())
            ++log_rows;
        const std::size_t bits = static_cast<std::size_t>(std::min(
            std::min(elementBits_ + input_bits + log_rows + 1,
                     static_cast<int>(cfg_.dce.pipeline.depth)),
            63));
        const u64 uops =
            static_cast<u64>(digital::KernelCache::instance()
                                 .macro(digital::MacroKind::Add,
                                        cfg_.dce.pipeline.family)
                                 .program.opCount()) *
            bits;
        const std::size_t cols = ace_.matrix().cols();
        const std::size_t width = cfg_.dce.pipeline.width;
        const std::size_t n_pipes = (cols + width - 1) / width;
        const Cycle setup = cfg_.iiu.enabled ? cfg_.iiu.setupCycles : 0;
        std::vector<Cycle> port(n_pipes, analog_start + setup);
        Cycle done = analog_start + setup;
        CostEntry &network = tally_.entry("hct.network");
        for (const auto &pp : stream) {
            for (std::size_t p = 0; p < n_pipes; ++p) {
                const std::size_t n = std::min(width, cols - p * width);
                Cycle write_done = std::max(
                    pp.readyAt, std::max(port[p], pp.convStart) + n);
                if (!cfg_.transpose.enabled)
                    write_done += transpose_.transposeCost(1, n, bits);
                port[p] = write_done;
                network.events += 1;
                network.cycles += n;
                network.energy +=
                    static_cast<double>(
                        n * ((static_cast<u64>(cfg_.ace.adc.bits) + 7) /
                             8)) *
                    cfg_.networkEnergyPerBytePJ;
                const Cycle issue =
                    write_done +
                    (cfg_.iiu.enabled
                         ? 0
                         : uops * (cfg_.iiu.frontEndShare - 1));
                injected_ += cfg_.iiu.enabled ? uops : 0;
                done = std::max(done,
                                pipes_[p]->timeMacro(
                                    pp.negate ? digital::MacroKind::Sub
                                              : digital::MacroKind::Add,
                                    bits, issue));
            }
        }
        arbiter_.release(done);
        return done;
    }

    Cycle
    macro(std::size_t p, digital::MacroKind kind, std::size_t bits,
          Cycle start)
    {
        const Cycle begin = arbiter_.acquire(Mode::Digital, start);
        const Cycle done = pipes_[p]->execMacro(kind, 2, 3, 4, bits, begin);
        arbiter_.release(done);
        return done;
    }

  private:
    HctConfig cfg_;
    CostTally tally_;
    analog::Ace ace_;
    Arbiter arbiter_;
    TransposeUnit transpose_;
    std::vector<std::unique_ptr<digital::Pipeline>> pipes_;
    int elementBits_ = 0;
    u64 injected_ = 0;
};

struct TimingCase
{
    const char *name;
    analog::AdcKind adc;
    bool iiu;
    bool transpose;
    /** Matrix columns over 32-wide pipes: 1 to 3 reduction pipes. */
    std::size_t cols;
    bool ideal;
    bool negativeInputs;
    digital::LogicFamilyKind family;
};

void
PrintTo(const TimingCase &tc, std::ostream *os)
{
    *os << tc.name;
}

class HctClosedFormTimingProperty
    : public ::testing::TestWithParam<std::tuple<TimingCase, u64>>
{
};

TEST_P(HctClosedFormTimingProperty, MatchesPartialProductReplay)
{
    const auto &[tc, seed] = GetParam();
    HctConfig cfg;
    cfg.dce.numPipelines = 3;
    cfg.dce.pipeline.depth = 48;
    cfg.dce.pipeline.width = 32;
    cfg.dce.pipeline.numRegs = 8;
    cfg.dce.pipeline.family = tc.family;
    cfg.ace.numArrays = 128;
    cfg.ace.arrayRows = 16;
    cfg.ace.arrayCols = 32;
    cfg.ace.adc.kind = tc.adc;
    cfg.ace.adc.bits = tc.adc == analog::AdcKind::Sar ? 6 : 4;
    cfg.ace.numAdcs = tc.adc == analog::AdcKind::Sar ? 2 : 1;
    cfg.ace.rampAutoTerminate = true;
    if (!tc.ideal)
        cfg.ace.noise = reram::NoiseModel::realistic();
    cfg.iiu.enabled = tc.iiu;
    cfg.transpose.enabled = tc.transpose;

    CostTally tally;
    Hct hct(cfg, &tally, seed);
    ReductionReplay replay(cfg, seed);
    Rng rng(seed * 7919 + tc.cols);
    const auto program = [&](std::size_t rows) {
        const int element_bits = static_cast<int>(rng.uniformInt(2, 6));
        const int bits_per_cell = static_cast<int>(rng.uniformInt(1, 2));
        const i64 w_max = (i64{1} << element_bits) - 1;
        const MatrixI m = randomMatrix(rows, tc.cols, -w_max, w_max,
                                       rng.uniformInt(u64{1} << 30));
        hct.setMatrix(m, element_bits, bits_per_cell);
        replay.setMatrix(m, element_bits, bits_per_cell);
    };
    program(static_cast<std::size_t>(rng.uniformInt(6, 30)));
    // Full-depth operands for the digital macros, which write into the
    // reserved registers: the next MVM must overwrite them whole.
    for (std::size_t p = 0; p < cfg.dce.numPipelines; ++p)
        for (std::size_t e = 0; e < cfg.dce.pipeline.width; ++e)
            for (std::size_t vr : {3, 4})
                hct.dce().pipeline(p).setElement(
                    vr, e, rng.uniformInt(u64{1} << 48));

    const auto compare = [&](const char *what, int step) {
        for (std::size_t p = 0; p < cfg.dce.numPipelines; ++p) {
            const digital::Pipeline &mine = hct.dce().pipeline(p);
            ASSERT_EQ(mine.stage0FreeAt(), replay.pipe(p).stage0FreeAt())
                << what << " step " << step << " pipe " << p;
            ASSERT_EQ(mine.drainTime(), replay.pipe(p).drainTime())
                << what << " step " << step << " pipe " << p;
            ASSERT_EQ(mine.opCount(), replay.pipe(p).opCount())
                << what << " step " << step << " pipe " << p;
        }
    };

    for (int step = 0; step < 80; ++step) {
        const u64 action = rng.uniformInt(u64{20});
        const Cycle base = hct.dce().pipeline(0).stage0FreeAt();
        const Cycle drained = hct.dce().pipeline(0).drainTime();
        if (step == 40) {
            // Reprogram to a new shape: every cached plan is stale.
            program(static_cast<std::size_t>(rng.uniformInt(6, 30)));
        } else if (step == 60) {
            // Same shape, new weights (the ACE generation moves).
            std::vector<i64> row(tc.cols, 1);
            hct.ace().updateRow(0, row);
            replay.ace().updateRow(0, row);
        } else if (action < 14) {
            // An MVM issued before, at, or far behind the stage base
            // (the arbiter rebased there, as the scheduler does).
            const int input_bits = rng.uniformInt(u64{3}) == 0 ? 5 : 7;
            const bool negative =
                tc.negativeInputs && rng.uniformInt(u64{2}) == 0;
            const i64 lo = negative ? -(i64{1} << (input_bits - 1)) : 0;
            const i64 hi = negative ? (i64{1} << (input_bits - 1)) - 1
                                    : (i64{1} << input_bits) - 1;
            std::vector<i64> x = randomVector(
                hct.ace().matrix().rows(), lo, hi,
                rng.uniformInt(u64{1} << 30));
            if (negative)
                x[0] = lo;   // the MSB plane subtracts
            Cycle start = 0;
            switch (rng.uniformInt(u64{4})) {
            case 0: start = base > 300 ? base - 300 : 0; break;
            case 1: start = base; break;
            case 2: start = drained + 5000; break;
            default: start = hct.arbiter().busyUntil(); break;
            }
            if (rng.uniformInt(u64{2}) == 0) {
                hct.arbiter().rebase(start);
                replay.arbiter().rebase(start);
            }
            const auto result = hct.execMvm(x, input_bits, start);
            const Cycle expect = replay.mvm(x, input_bits, start);
            ASSERT_EQ(result.done, expect) << "mvm step " << step;
            const int acc_bits = hct.accumulatorBits(input_bits);
            if (tc.ideal) {
                const auto reference = hct.ace().referenceMvm(x);
                for (std::size_t c = 0; c < tc.cols; ++c)
                    ASSERT_EQ(result.values[c],
                              signExtend(reference[c], acc_bits))
                        << "step " << step << " col " << c;
            }
            // The reserved registers hold the accumulator and the
            // staged partial product, zero above acc_bits and past the
            // last column.
            const u64 mask = (u64{1} << acc_bits) - 1;
            const std::size_t cols = hct.ace().matrix().cols();
            for (std::size_t c = 0; c < (cols + 31) / 32 * 32; ++c) {
                const digital::Pipeline &pipe =
                    hct.dce().pipeline(c / 32);
                const u64 acc = pipe.element(0, c % 32, 48);
                const u64 staged = pipe.element(1, c % 32, 48);
                ASSERT_EQ(acc, c < cols ? static_cast<u64>(
                                              result.values[c]) & mask
                                        : 0)
                    << "step " << step << " col " << c;
                ASSERT_EQ(staged & ~(c < cols ? mask : 0), 0u)
                    << "step " << step << " col " << c;
            }
            compare("mvm", step);
        } else if (action < 17) {
            // Other digital work on a reduction pipe.
            const std::size_t p = rng.uniformInt(u64{3});
            const digital::MacroKind kinds[] = {digital::MacroKind::Add,
                                                digital::MacroKind::Sub,
                                                digital::MacroKind::Xor};
            const digital::MacroKind kind = kinds[rng.uniformInt(u64{3})];
            const std::size_t bits =
                static_cast<std::size_t>(rng.uniformInt(4, 48));
            const Cycle start = drained / 2;
            const std::size_t dst = rng.uniformInt(u64{2});
            ASSERT_EQ(hct.digitalMacro(p, kind, dst, 3, 4, bits, start),
                      replay.macro(p, kind, bits, start))
                << "macro step " << step;
            compare("macro", step);
        } else {
            // A stage rebase, as KernelModel does on its scratch tile.
            const std::size_t p = rng.uniformInt(u64{3});
            const Cycle when = rng.uniformInt(drained + 1);
            hct.dce().pipeline(p).rebase(when);
            replay.pipe(p).rebase(when);
            compare("rebase", step);
        }
    }
    // Both paths ran: the closed form, and the walk after a rebase,
    // other digital work or a reprogram.
    EXPECT_GT(hct.closedFormReductions(), 0u);
    EXPECT_LT(hct.closedFormReductions(), hct.mvmCount());
    EXPECT_EQ(hct.iiu().injectedUops(), replay.injectedUops());
    EXPECT_EQ(mixTally(tally, kFnvOffsetBasis),
              mixTally(replay.tally(), kFnvOffsetBasis));
    ASSERT_EQ(tally.entries().size(), replay.tally().entries().size());
    for (const auto &[name, entry] : tally.entries()) {
        const CostEntry other = replay.tally().get(name);
        EXPECT_EQ(entry.events, other.events) << name;
        EXPECT_EQ(entry.cycles, other.cycles) << name;
        EXPECT_EQ(entry.energy, other.energy) << name;
    }
}

using digital::LogicFamilyKind;

INSTANTIATE_TEST_SUITE_P(
    Sweep, HctClosedFormTimingProperty,
    ::testing::Combine(
        ::testing::Values(
            // name, ADC, IIU, transpose unit, cols, ideal, negative
            // inputs, logic family
            TimingCase{"sar_one_pipe", AdcKind::Sar, true, true, 20,
                       true, true, LogicFamilyKind::Oscar},
            TimingCase{"ramp_two_uneven_pipes", AdcKind::Ramp, true, true,
                       50, true, true, LogicFamilyKind::Oscar},
            TimingCase{"no_iiu_three_pipes", AdcKind::Sar, false, true,
                       90, true, true, LogicFamilyKind::Oscar},
            TimingCase{"no_transpose_two_pipes", AdcKind::Sar, true,
                       false, 64, true, true, LogicFamilyKind::Oscar},
            TimingCase{"ramp_no_iiu_no_transpose", AdcKind::Ramp, false,
                       false, 30, true, true, LogicFamilyKind::Oscar},
            TimingCase{"noisy_two_pipes", AdcKind::Sar, true, true, 40,
                       false, true, LogicFamilyKind::Oscar},
            TimingCase{"non_negative_three_pipes", AdcKind::Sar, true,
                       true, 96, true, false, LogicFamilyKind::Oscar},
            TimingCase{"ideal_family", AdcKind::Ramp, true, true, 33,
                       true, true, LogicFamilyKind::Ideal}),
        ::testing::Values(u64{1}, u64{2}, u64{3}, u64{4})),
    [](const ::testing::TestParamInfo<std::tuple<TimingCase, u64>>
           &info) {
        return std::string(std::get<0>(info.param).name) + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace hct
} // namespace darth
