/**
 * @file
 * Stream-equality tests for the ACE's ideal-array integer kernel.
 *
 * With an ideal noise model the ACE computes each partial product from
 * an integer copy of its slices instead of solving the crossbars. The
 * oracle here rebuilds the same slicing and tiling on its own ideal
 * crossbars and digitizes them with only the public
 * Crossbar::mvmBitInput and Adc::convert, then every PartialProduct
 * must match field by field: values, shift, negate, convStart, readyAt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "analog/Ace.h"
#include "common/Random.h"

namespace darth
{
namespace analog
{
namespace
{

/** The partial-product stream an ideal ACE must emit, solve by solve. */
std::vector<PartialProduct>
oracleStream(const AceConfig &cfg, const MatrixI &m, int element_bits,
             int bits_per_cell, const std::vector<i64> &x,
             int input_bits, Cycle start, Cycle ramp_states)
{
    const Adc adc(cfg.adc);
    const auto slices = sliceSignedMatrix(m, element_bits, bits_per_cell);
    const std::size_t rows_per_tile = cfg.arrayRows / 2;
    const std::size_t cols_per_tile = cfg.arrayCols;
    const std::size_t row_tiles =
        (m.rows() + rows_per_tile - 1) / rows_per_tile;
    const std::size_t col_tiles =
        (m.cols() + cols_per_tile - 1) / cols_per_tile;
    const i64 max_cell = (i64{1} << bits_per_cell) - 1;
    const std::size_t rows_per_group = std::min(
        std::max<std::size_t>(
            1, static_cast<std::size_t>(adc.maxCode() / max_cell)),
        rows_per_tile);

    // xbars[(s * row_tiles + rt) * col_tiles + ct]
    std::vector<std::unique_ptr<Crossbar>> xbars;
    for (const MatrixI &slice : slices) {
        for (std::size_t rt = 0; rt < row_tiles; ++rt) {
            for (std::size_t ct = 0; ct < col_tiles; ++ct) {
                const std::size_t r0 = rt * rows_per_tile;
                const std::size_t c0 = ct * cols_per_tile;
                const std::size_t nr =
                    std::min(rows_per_tile, m.rows() - r0);
                const std::size_t nc =
                    std::min(cols_per_tile, m.cols() - c0);
                MatrixI sub(nr, nc);
                for (std::size_t r = 0; r < nr; ++r)
                    for (std::size_t c = 0; c < nc; ++c)
                        sub(r, c) = slice(r0 + r, c0 + c);
                auto xb = std::make_unique<Crossbar>(
                    cfg.arrayRows, cfg.arrayCols, bits_per_cell);
                xb->programSigned(sub);
                xbars.push_back(std::move(xb));
            }
        }
    }

    std::vector<PartialProduct> stream;
    Cycle array_free = start;
    Cycle adc_free = start;
    for (const auto &plane : sliceInput(x, input_bits)) {
        const Cycle sampled =
            array_free + cfg.dacApplyCycles + cfg.settleCycles;
        array_free = sampled;
        for (std::size_t s = 0; s < slices.size(); ++s) {
            for (std::size_t rt = 0; rt < row_tiles; ++rt) {
                const std::size_t r0 = rt * rows_per_tile;
                const std::size_t nr =
                    std::min(rows_per_tile, m.rows() - r0);
                for (std::size_t gr0 = 0; gr0 < nr;
                     gr0 += rows_per_group) {
                    const std::size_t gnr =
                        std::min(rows_per_group, nr - gr0);
                    std::vector<int> bits(nr, 0);
                    for (std::size_t r = 0; r < gnr; ++r)
                        bits[gr0 + r] = plane.bits[r0 + gr0 + r];

                    PartialProduct pp;
                    pp.shift = plane.bit +
                               static_cast<int>(s) * bits_per_cell;
                    pp.negate = plane.negate;
                    pp.values.assign(m.cols(), 0);
                    for (std::size_t ct = 0; ct < col_tiles; ++ct) {
                        const auto analog =
                            xbars[(s * row_tiles + rt) * col_tiles + ct]
                                ->mvmBitInput(bits);
                        for (std::size_t c = 0; c < analog.size(); ++c)
                            pp.values[ct * cols_per_tile + c] =
                                adc.convert(analog[c]);
                    }
                    pp.convStart = std::max(adc_free, sampled);
                    pp.readyAt =
                        pp.convStart +
                        adc.conversionLatency(m.cols(), cfg.numAdcs,
                                              ramp_states);
                    adc_free = pp.readyAt;
                    stream.push_back(std::move(pp));
                }
            }
        }
    }
    return stream;
}

/** Field-by-field stream equality; returns "" or the first mismatch. */
std::string
firstMismatch(const std::vector<PartialProduct> &got,
              const std::vector<PartialProduct> &want)
{
    std::ostringstream out;
    if (got.size() != want.size()) {
        out << "stream size " << got.size() << " != " << want.size();
        return out.str();
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const PartialProduct &g = got[i];
        const PartialProduct &w = want[i];
        if (g.values != w.values)
            out << "values";
        else if (g.shift != w.shift)
            out << "shift " << g.shift << " != " << w.shift;
        else if (g.negate != w.negate)
            out << "negate";
        else if (g.convStart != w.convStart)
            out << "convStart " << g.convStart << " != " << w.convStart;
        else if (g.readyAt != w.readyAt)
            out << "readyAt " << g.readyAt << " != " << w.readyAt;
        else
            continue;
        out << " differ at partial product " << i;
        return out.str();
    }
    return "";
}

/** Small arrays (8 signed rows x 8 cols) so odd shapes tile raggedly. */
AceConfig
kernelAce(AdcKind kind, int adc_bits)
{
    AceConfig cfg;
    cfg.numArrays = 64;
    cfg.arrayRows = 16;
    cfg.arrayCols = 8;
    cfg.adc.kind = kind;
    cfg.adc.bits = adc_bits;
    cfg.numAdcs = kind == AdcKind::Sar ? 2 : 1;
    cfg.rampAutoTerminate = kind == AdcKind::Ramp;
    return cfg;
}

enum class Weights { Random, AllMax, AllMin };
enum class Inputs { Signed, Unsigned, Zero };

MatrixI
makeMatrix(std::size_t rows, std::size_t cols, int element_bits,
           Weights kind, u64 seed)
{
    const i64 max = (i64{1} << element_bits) - 1;
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = kind == Weights::AllMax   ? max
                      : kind == Weights::AllMin ? -max
                                                : rng.uniformInt(-max, max);
    return m;
}

std::vector<i64>
makeInput(std::size_t n, int input_bits, Inputs kind, u64 seed)
{
    Rng rng(seed);
    std::vector<i64> x(n, 0);
    if (kind == Inputs::Zero)
        return x;
    const i64 lo = kind == Inputs::Signed
                       ? -(i64{1} << (input_bits - 1))
                       : 0;
    const i64 hi = kind == Inputs::Signed
                       ? (i64{1} << (input_bits - 1)) - 1
                       : (i64{1} << input_bits) - 1;
    for (auto &v : x)
        v = rng.uniformInt(lo, hi);
    return x;
}

TEST(AceIdealKernel, StreamMatchesCrossbarOracleAcrossTheGrid)
{
    struct Shape
    {
        std::size_t rows;
        std::size_t cols;
    };
    // A tile multiple, and rows/cols that are not (ragged last row
    // and column tiles; 37 columns also leave a partial kernel block).
    const Shape shapes[] = {{16, 16}, {13, 37}};
    std::size_t cases = 0;
    std::size_t grouped_cases = 0;
    u64 seed = 1;
    for (int bpc = 1; bpc <= 4; ++bpc) {
        const int element_bits = bpc + 2;   // two or more slices
        for (int adc_bits : {4, 6, 8}) {
            if ((i64{1} << bpc) - 1 > (i64{1} << (adc_bits - 1)) - 1)
                continue;   // a cell wider than the ADC is fatal
            for (AdcKind kind : {AdcKind::Sar, AdcKind::Ramp}) {
                const AceConfig cfg = kernelAce(kind, adc_bits);
                for (const Shape &shape : shapes) {
                    for (Weights w : {Weights::Random, Weights::AllMax,
                                      Weights::AllMin}) {
                        const MatrixI m = makeMatrix(
                            shape.rows, shape.cols, element_bits, w,
                            ++seed);
                        Ace ace(cfg);
                        ace.setMatrix(m, element_bits, bpc);
                        for (int input_bits : {1, 3, 8}) {
                            for (Inputs in : {Inputs::Signed,
                                              Inputs::Unsigned,
                                              Inputs::Zero}) {
                                const auto x = makeInput(
                                    shape.rows, input_bits, in, ++seed);
                                const Cycle start = seed % 7;
                                const auto got =
                                    ace.execMvm(x, input_bits, start);
                                const auto want = oracleStream(
                                    cfg, m, element_bits, bpc, x,
                                    input_bits, start,
                                    ace.rampSweepStates());
                                ASSERT_EQ(firstMismatch(got, want), "")
                                    << "bpc " << bpc << ", adc "
                                    << adc_bits << "-bit "
                                    << adcKindName(kind) << ", "
                                    << shape.rows << "x" << shape.cols
                                    << ", weights "
                                    << static_cast<int>(w) << ", input "
                                    << static_cast<int>(in) << " @ "
                                    << input_bits << " bits";
                                EXPECT_EQ(Ace::reduceStream(got,
                                                            m.cols()),
                                          ace.referenceMvm(x));
                                ++cases;
                                grouped_cases += ace.rowGroups() > 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // The grid must reach every corner it claims to cover.
    EXPECT_GT(cases, 500u);
    EXPECT_GT(grouped_cases, 0u);
}

TEST(AceIdealKernel, ExecMvmIntoReusesAStreamOfAnyPriorSize)
{
    const AceConfig cfg = kernelAce(AdcKind::Sar, 6);
    const MatrixI m = makeMatrix(13, 37, 4, Weights::Random, 7);
    Ace ace(cfg);
    ace.setMatrix(m, 4, 2);

    std::vector<PartialProduct> stream;
    // Long, short, then long again: the reused entries must carry
    // nothing over from the previous MVM.
    for (int input_bits : {8, 1, 3, 8}) {
        const auto x =
            makeInput(m.rows(), input_bits, Inputs::Signed, 40 + input_bits);
        ace.execMvmInto(x, input_bits, 5, stream);
        EXPECT_EQ(firstMismatch(stream, ace.execMvm(x, input_bits, 5)),
                  "");
        EXPECT_EQ(firstMismatch(stream,
                                oracleStream(cfg, m, 4, 2, x, input_bits,
                                             5, ace.rampSweepStates())),
                  "");
    }
}

TEST(AceIdealKernel, ReprogrammedRowsAndColumnsRebuildTheIntegerTiles)
{
    const AceConfig cfg = kernelAce(AdcKind::Sar, 4);
    const MatrixI m = makeMatrix(13, 11, 3, Weights::Random, 21);
    Ace ace(cfg);
    ace.setMatrix(m, 3, 2);
    ASSERT_GT(ace.rowGroups(), 1u);
    const auto x = makeInput(m.rows(), 3, Inputs::Signed, 22);

    const auto check = [&](const char *what) {
        const auto stream = ace.execMvm(x, 3, 0);
        EXPECT_EQ(Ace::reduceStream(stream, m.cols()),
                  ace.referenceMvm(x))
            << what;
        EXPECT_EQ(firstMismatch(stream,
                                oracleStream(cfg, ace.matrix(), 3, 2, x,
                                             3, 0,
                                             ace.rampSweepStates())),
                  "")
            << what;
    };
    check("as programmed");
    const auto before = ace.execMvm(x, 3, 0);

    // Rows in the first and the ragged last row tile; a column in the
    // ragged last column tile.
    ace.updateRow(2, std::vector<i64>(m.cols(), 7));
    check("after updateRow(2)");
    ace.updateRow(12, std::vector<i64>(m.cols(), -5));
    check("after updateRow(12)");
    ace.updateCol(10, std::vector<i64>(m.rows(), -7));
    check("after updateCol(10)");
    EXPECT_NE(Ace::reduceStream(ace.execMvm(x, 3, 0), m.cols()),
              Ace::reduceStream(before, m.cols()));
}

} // namespace
} // namespace analog
} // namespace darth
