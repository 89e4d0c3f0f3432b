/**
 * @file
 * Unit tests for the Analog Compute Element: tiling, partial-product
 * streams, integer exactness in the ideal configuration, ADC rate
 * effects, and programming-cost accounting.
 */

#include <gtest/gtest.h>

#include "analog/Ace.h"
#include "common/Random.h"

namespace darth
{
namespace analog
{
namespace
{

AceConfig
smallAce()
{
    AceConfig cfg;
    cfg.numArrays = 16;
    cfg.arrayRows = 16;   // 8 signed rows per array
    cfg.arrayCols = 8;
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

TEST(Ace, SingleArrayFit)
{
    Ace ace(smallAce());
    ace.setMatrix(randomMatrix(8, 8, -1, 1, 1), 1, 1);
    EXPECT_EQ(ace.arraysUsed(), 1u);
    EXPECT_EQ(ace.slices(), 1);
    EXPECT_EQ(ace.rowTiles(), 1u);
    EXPECT_EQ(ace.colTiles(), 1u);
}

TEST(Ace, TilingAcrossArrays)
{
    Ace ace(smallAce());
    // 16 rows -> 2 row tiles; 16 cols -> 2 col tiles; 4-bit elements
    // at 2 bits per cell -> 2 slices. 2*2*2 = 8 arrays.
    ace.setMatrix(randomMatrix(16, 16, -15, 15, 2), 4, 2);
    EXPECT_EQ(ace.slices(), 2);
    EXPECT_EQ(ace.rowTiles(), 2u);
    EXPECT_EQ(ace.colTiles(), 2u);
    EXPECT_EQ(ace.arraysUsed(), 8u);
}

TEST(Ace, TooLargeMatrixIsFatal)
{
    Ace ace(smallAce());
    EXPECT_THROW(ace.setMatrix(randomMatrix(64, 64, -1, 1, 3), 8, 1),
                 std::runtime_error);
}

TEST(Ace, MvmExactUnsignedInputs)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -1, 1, 4);
    ace.setMatrix(m, 1, 1);
    Rng rng(5);
    std::vector<i64> x(8);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{15});
    const auto stream = ace.execMvm(x, 4, 0);
    const auto reduced = Ace::reduceStream(stream, m.cols());
    EXPECT_EQ(reduced, ace.referenceMvm(x));
}

TEST(Ace, MvmExactSignedInputs)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -3, 3, 6);
    ace.setMatrix(m, 2, 2);
    Rng rng(7);
    std::vector<i64> x(8);
    for (auto &v : x)
        v = rng.uniformInt(i64{-8}, i64{7});
    const auto stream = ace.execMvm(x, 4, 0);
    const auto reduced = Ace::reduceStream(stream, m.cols());
    EXPECT_EQ(reduced, ace.referenceMvm(x));
}

TEST(Ace, MvmExactWithTilingAndSlicing)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(16, 16, -15, 15, 8);
    ace.setMatrix(m, 4, 2);
    Rng rng(9);
    std::vector<i64> x(16);
    for (auto &v : x)
        v = rng.uniformInt(i64{-4}, i64{3});
    const auto stream = ace.execMvm(x, 3, 0);
    const auto reduced = Ace::reduceStream(stream, m.cols());
    EXPECT_EQ(reduced, ace.referenceMvm(x));
}

TEST(Ace, RowGroupSplitWhenAdcTooNarrow)
{
    AceConfig cfg = smallAce();
    cfg.adc.bits = 4;   // max code 7
    Ace ace(cfg);
    // 2-bit cells (max code 3): 8 active rows accumulate up to 24,
    // beyond the 4-bit ADC -> rows must be split into groups of 2.
    const MatrixI m = randomMatrix(8, 4, -3, 3, 10);
    ace.setMatrix(m, 2, 2);
    EXPECT_EQ(ace.rowGroups(), 4u);
    // Exactness must survive the split.
    std::vector<i64> x(8);
    Rng rng(11);
    for (auto &v : x)
        v = rng.uniformInt(i64{0}, i64{3});
    const auto stream = ace.execMvm(x, 2, 0);
    EXPECT_EQ(Ace::reduceStream(stream, m.cols()), ace.referenceMvm(x));
}

TEST(AceDeath, CellWiderThanAdcIsFatal)
{
    AceConfig cfg = smallAce();
    cfg.adc.bits = 4;
    Ace ace(cfg);
    EXPECT_THROW(ace.setMatrix(randomMatrix(4, 4, -15, 15, 10), 4, 4),
                 std::runtime_error);
}

TEST(Ace, StreamSizeMatchesPlanesSlicesTilesGroups)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(16, 8, -3, 3, 12);
    ace.setMatrix(m, 2, 2);
    const auto stream = ace.execMvm(std::vector<i64>(16, 1), 3, 0);
    EXPECT_EQ(stream.size(), 3u * 1u * 2u * ace.rowGroups());
}

TEST(Ace, PartialShiftsCoverInputAndSliceWeights)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(8, 8, -15, 15, 13);
    ace.setMatrix(m, 4, 2);   // 2 slices, weights 0 and 2
    const auto stream = ace.execMvm(std::vector<i64>(8, 1), 2, 0);
    std::vector<int> shifts;
    for (const auto &pp : stream)
        shifts.push_back(pp.shift);
    // Input bits 0..1 and slice shifts 0, 2 -> shifts {0,1,2,3}.
    for (int expected : {0, 1, 2, 3})
        EXPECT_NE(std::find(shifts.begin(), shifts.end(), expected),
                  shifts.end());
}

TEST(Ace, AdcSerializationOrdersReadyTimes)
{
    Ace ace(smallAce());
    const MatrixI m = randomMatrix(16, 8, -1, 1, 14);
    ace.setMatrix(m, 1, 1);   // 2 row tiles -> 2 conversions per plane
    const auto stream = ace.execMvm(std::vector<i64>(16, 1), 2, 0);
    ASSERT_GE(stream.size(), 2u);
    for (std::size_t i = 1; i < stream.size(); ++i)
        EXPECT_GE(stream[i].readyAt, stream[i - 1].readyAt);
    EXPECT_GT(stream[0].readyAt, 0u);
}

TEST(Ace, RampAdcSlowerThanSarWithoutEarlyTermination)
{
    const MatrixI m = randomMatrix(8, 8, -1, 1, 15);
    AceConfig sar_cfg = smallAce();
    Ace sar(sar_cfg);
    sar.setMatrix(m, 1, 1);
    const auto sar_stream = sar.execMvm(std::vector<i64>(8, 1), 1, 0);

    AceConfig ramp_cfg = smallAce();
    ramp_cfg.adc.kind = AdcKind::Ramp;
    ramp_cfg.numAdcs = 1;
    Ace ramp(ramp_cfg);
    ramp.setMatrix(m, 1, 1);
    const auto ramp_stream = ramp.execMvm(std::vector<i64>(8, 1), 1, 0);

    EXPECT_GT(ramp_stream.back().readyAt, sar_stream.back().readyAt);
}

TEST(Ace, RampEarlyTerminationWins)
{
    // With the paper's 64 bitlines, 2 muxed SAR ADCs need 32 cycles
    // per plane while an early-terminated ramp sweeps all bitlines in
    // 4 (§7.3: AES MixColumns).
    AceConfig wide = smallAce();
    wide.arrayRows = 64;
    wide.arrayCols = 64;
    const MatrixI m = randomMatrix(32, 64, -1, 1, 16);

    AceConfig ramp_cfg = wide;
    ramp_cfg.adc.kind = AdcKind::Ramp;
    ramp_cfg.numAdcs = 1;
    ramp_cfg.rampStates = 4;   // the AES MixColumns trick
    Ace ramp(ramp_cfg);
    ramp.setMatrix(m, 1, 1);
    const auto ramp_stream =
        ramp.execMvm(std::vector<i64>(32, 1), 1, 0);

    Ace sar(wide);
    sar.setMatrix(m, 1, 1);
    const auto sar_stream = sar.execMvm(std::vector<i64>(32, 1), 1, 0);

    EXPECT_LT(ramp_stream.back().readyAt, sar_stream.back().readyAt);
}

TEST(Ace, RampAutoTerminationSweepsOnlyTheReachableRange)
{
    // Auto-termination derives the sweep length from the operating
    // point alone: a row group of rowsPerGroup 1-bit cells can only
    // produce codes in ±rowsPerGroup, so the sweep covers
    // 2*rowsPerGroup + 1 states instead of the full 256 — and the
    // values are bit-identical to the full sweep (early termination
    // changes when the ramp stops, never what it resolved).
    const MatrixI m = randomMatrix(8, 8, -1, 1, 17);
    AceConfig full_cfg = smallAce();
    full_cfg.adc.kind = AdcKind::Ramp;
    full_cfg.numAdcs = 1;
    Ace full(full_cfg);
    full.setMatrix(m, 1, 1);
    EXPECT_EQ(full.rampSweepStates(), 0u);

    AceConfig auto_cfg = full_cfg;
    auto_cfg.rampAutoTerminate = true;
    Ace aut(auto_cfg);
    aut.setMatrix(m, 1, 1);
    // smallAce: 16 physical rows = 8 signed rows per tile, 1-bit
    // cells, 8-bit ADC -> one group of 8 rows -> 17 states.
    EXPECT_EQ(aut.rampSweepStates(), 17u);

    const std::vector<i64> x(8, 1);
    const auto full_stream = full.execMvm(x, 1, 0);
    const auto auto_stream = aut.execMvm(x, 1, 0);
    ASSERT_EQ(full_stream.size(), auto_stream.size());
    for (std::size_t i = 0; i < full_stream.size(); ++i)
        EXPECT_EQ(full_stream[i].values, auto_stream[i].values);
    EXPECT_LT(auto_stream.back().readyAt,
              full_stream.back().readyAt);

    // An explicit rampStates still wins over auto-termination.
    AceConfig manual_cfg = auto_cfg;
    manual_cfg.rampStates = 4;
    Ace manual(manual_cfg);
    manual.setMatrix(m, 1, 1);
    EXPECT_EQ(manual.rampSweepStates(), 4u);
}

TEST(Ace, ProgrammingCostRecorded)
{
    CostTally tally;
    Ace ace(smallAce(), &tally);
    ace.setMatrix(randomMatrix(8, 8, -1, 1, 17), 1, 1);
    const CostEntry program = tally.get("ace.program");
    EXPECT_EQ(program.events, 2u * 8u * 8u);   // differential pairs
    EXPECT_GT(program.energy, 0.0);
}

TEST(Ace, DacEnergyCountsActiveRowsPerPlane)
{
    // Each bit plane charges its active wordlines: 600 rows over
    // several row tiles, 12 planes, and negative inputs whose high
    // bits are set.
    AceConfig cfg;
    cfg.numArrays = 64;
    cfg.arrayRows = 64;
    cfg.arrayCols = 8;
    CostTally tally;
    Ace ace(cfg, &tally);
    ace.setMatrix(randomMatrix(600, 4, -1, 1, 18), 1, 1);
    constexpr int kBits = 12;
    Rng rng(19);
    std::vector<i64> x(600);
    for (auto &v : x)
        v = rng.uniformInt(i64{-2048}, i64{2047});
    (void)ace.execMvm(x, kBits, 0);

    const double arrays = static_cast<double>(
        ace.slices() * ace.rowTiles() * ace.colTiles());
    double energy = 0.0;
    for (int bit = 0; bit < kBits; ++bit) {
        std::size_t active = 0;
        for (i64 v : x)
            active += (static_cast<u64>(v) >> bit) & 1ULL;
        energy += static_cast<double>(active) * cfg.rowDriveEnergyPJ *
                  arrays;
    }
    const CostEntry dac = tally.get("ace.dac");
    EXPECT_EQ(dac.events, static_cast<u64>(kBits));
    EXPECT_EQ(dac.energy, energy);
}

TEST(Ace, ExactProductNarrowBoundary)
{
    // exactProduct() runs i16 x i16 -> i32 when element bits and input
    // bits are <= 15 and element bits + input bits + ceil(log2 rows)
    // <= 31; on either side of that bound, with the largest magnitudes
    // a weight and an input may take, it must equal the exact product
    // modulo 2^64.
    struct Bound
    {
        int elementBits;
        int inputBits;
        std::size_t rows;
    };
    const Bound bounds[] = {
        {15, 10, 64},    // 15 + 10 + 6 = 31: narrow
        {15, 10, 65},    // 15 + 10 + 7 = 32: wide
        {8, 15, 256},    // 8 + 15 + 8 = 31: narrow
        {8, 15, 257},    // 32: wide
        {8, 16, 128},    // 31, but 16-bit inputs: wide
        {16, 8, 32},     // 29, but 16-bit weights: wide
    };
    AceConfig cfg;
    cfg.numArrays = 64;
    cfg.arrayRows = 128;
    cfg.arrayCols = 16;
    for (const Bound &b : bounds) {
        Ace ace(cfg);
        const i64 w_max = (i64{1} << b.elementBits) - 1;
        Rng rng(b.rows * 31 + static_cast<u64>(b.inputBits));
        // All weights at full magnitude: column 0 all positive, column
        // 1 all negative, the rest random signs.
        MatrixI m(b.rows, 16);
        for (std::size_t r = 0; r < b.rows; ++r)
            for (std::size_t c = 0; c < 16; ++c)
                m(r, c) = c == 0   ? w_max
                          : c == 1 ? -w_max
                                   : (rng.uniformInt(u64{2}) != 0 ? w_max
                                                                 : -w_max);
        ace.setMatrix(m, b.elementBits, 4);

        const i64 u_max = (i64{1} << b.inputBits) - 1;
        const i64 s_min = -(i64{1} << (b.inputBits - 1));
        const i64 s_max = (i64{1} << (b.inputBits - 1)) - 1;
        std::vector<std::vector<i64>> inputs = {
            std::vector<i64>(b.rows, u_max),       // unsigned maximum
            std::vector<i64>(b.rows, s_min),       // signed minimum
        };
        std::vector<i64> mixed(b.rows);
        for (std::size_t r = 0; r < b.rows; ++r)
            mixed[r] = r % 3 == 0 ? 0 : (r % 2 == 0 ? s_min : s_max);
        inputs.push_back(mixed);
        std::vector<i64> random(b.rows);
        for (auto &v : random)
            v = rng.uniformInt(s_min, s_max);
        inputs.push_back(random);

        std::vector<u64> out(16);
        for (const auto &x : inputs) {
            ace.exactProduct(x, b.inputBits, out.data());
            const auto reference = ace.referenceMvm(x);
            for (std::size_t c = 0; c < 16; ++c)
                ASSERT_EQ(out[c], static_cast<u64>(reference[c]))
                    << b.elementBits << "+" << b.inputBits << " bits, "
                    << b.rows << " rows, col " << c;
        }
    }
}

TEST(Ace, UpdateRowChangesMvm)
{
    Ace ace(smallAce());
    MatrixI m(4, 4, 0);
    ace.setMatrix(m, 1, 1);
    std::vector<i64> x = {1, 1, 1, 1};
    EXPECT_EQ(ace.referenceMvm(x), (std::vector<i64>{0, 0, 0, 0}));
    ace.updateRow(1, {1, 1, 1, 1});
    const auto stream = ace.execMvm(x, 1, 0);
    EXPECT_EQ(Ace::reduceStream(stream, 4),
              (std::vector<i64>{1, 1, 1, 1}));
}

TEST(Ace, UpdateColChangesMvm)
{
    Ace ace(smallAce());
    MatrixI m(4, 4, 0);
    ace.setMatrix(m, 1, 1);
    ace.updateCol(2, {1, 0, 1, 0});
    const auto stream = ace.execMvm({1, 1, 1, 1}, 1, 0);
    EXPECT_EQ(Ace::reduceStream(stream, 4),
              (std::vector<i64>{0, 0, 2, 0}));
}

TEST(Ace, NoisyMvmStaysClose)
{
    AceConfig cfg = smallAce();
    cfg.noise.programSigma = 0.02;
    cfg.noise.readSigma = 0.005;
    Ace ace(cfg, nullptr, 99);
    const MatrixI m = randomMatrix(8, 8, -1, 1, 18);
    ace.setMatrix(m, 1, 1);
    std::vector<i64> x(8, 1);
    const auto stream = ace.execMvm(x, 1, 0);
    const auto noisy = Ace::reduceStream(stream, 8);
    const auto exact = ace.referenceMvm(x);
    for (std::size_t c = 0; c < 8; ++c)
        EXPECT_NEAR(static_cast<double>(noisy[c]),
                    static_cast<double>(exact[c]), 2.0);
}

TEST(AceDeath, MvmWithoutMatrixIsFatal)
{
    Ace ace(smallAce());
    EXPECT_THROW((void)ace.execMvm({1}, 1, 0), std::runtime_error);
}

TEST(AceDeath, WrongInputLengthIsFatal)
{
    Ace ace(smallAce());
    ace.setMatrix(MatrixI(4, 4, 1), 1, 1);
    EXPECT_THROW((void)ace.execMvm({1, 0}, 1, 0), std::runtime_error);
}

} // namespace
} // namespace analog
} // namespace darth
