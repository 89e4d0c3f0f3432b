#include "analog/Ace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/Logging.h"

namespace darth
{
namespace analog
{

namespace
{

/**
 * Column block of the ideal-array kernel. The block loops have this
 * fixed trip count (cell-code rows are padded to a multiple of it), so
 * the compiler vectorizes them without a scalar remainder.
 */
constexpr std::size_t kCodeBlock = 16;

/** kSpreadBits[b] has bit i of b in the low bit of byte i. */
constexpr std::array<u64, 256> kSpreadBits = [] {
    std::array<u64, 256> table{};
    for (u64 b = 0; b < 256; ++b)
        for (int i = 0; i < 8; ++i)
            table[b] |= ((b >> i) & 1ULL) << (8 * i);
    return table;
}();

/**
 * counts[bit] += the number of x[r] with bit `bit` set, for every bit
 * below `planes`: eight planes per pass, counted in the byte lanes of
 * one word and flushed before a lane can pass 255.
 */
void
countPlaneBits(const std::vector<i64> &x, int planes, std::size_t *counts)
{
    for (int lo = 0; lo < planes; lo += 8) {
        const int lanes_used = std::min(8, planes - lo);
        for (std::size_t r0 = 0; r0 < x.size(); r0 += 255) {
            const std::size_t r1 = std::min(x.size(), r0 + 255);
            u64 lanes = 0;
            for (std::size_t r = r0; r < r1; ++r)
                lanes += kSpreadBits[(static_cast<u64>(x[r]) >> lo) & 0xFF];
            for (int k = 0; k < lanes_used; ++k)
                counts[lo + k] += (lanes >> (8 * k)) & 0xFF;
        }
    }
}

} // namespace

Ace::Ace(const AceConfig &config, CostTally *tally, u64 seed)
    : cfg_(config), tally_(tally), seed_(seed), adc_(config.adc)
{
    if (cfg_.numArrays == 0)
        darth_fatal("Ace: at least one array is required");
    if (cfg_.adc.kind == AdcKind::Ramp && cfg_.numAdcs != 1)
        darth_warn("Ace: ramp ADCs share one reference generator; "
                   "numAdcs is treated as 1");
}

Crossbar &
Ace::xbar(int s, std::size_t rt, std::size_t ct)
{
    const std::size_t index =
        (static_cast<std::size_t>(s) * rowTiles_ + rt) * colTiles_ + ct;
    return *xbars_[index];
}

void
Ace::setMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
{
    if (m.rows() == 0 || m.cols() == 0)
        darth_fatal("Ace::setMatrix: empty matrix");
    matrix_ = m;
    elementBits_ = element_bits;
    bitsPerCell_ = bits_per_cell;
    slices_ = numSlices(element_bits, bits_per_cell);
    rowsPerTile_ = cfg_.arrayRows / 2;   // differential pairs
    colsPerTile_ = cfg_.arrayCols;
    rowTiles_ = (m.rows() + rowsPerTile_ - 1) / rowsPerTile_;
    colTiles_ = (m.cols() + colsPerTile_ - 1) / colsPerTile_;

    const std::size_t needed =
        static_cast<std::size_t>(slices_) * rowTiles_ * colTiles_;
    if (needed > cfg_.numArrays)
        darth_fatal("Ace::setMatrix: matrix needs ", needed,
                    " arrays but the ACE has ", cfg_.numArrays,
                    "; split across HCTs via the runtime");

    // Row-group split when the accumulation range exceeds the ADC.
    const i64 max_cell = (i64{1} << bits_per_cell) - 1;
    const i64 adc_max = adc_.maxCode();
    if (max_cell > adc_max)
        darth_fatal("Ace::setMatrix: a single ", bits_per_cell,
                    "-bit cell (code ", max_cell, ") exceeds the ",
                    cfg_.adc.bits, "-bit ADC range; no row grouping "
                    "can compensate");
    rowsPerGroup_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(adc_max / std::max<i64>(max_cell, 1)));
    rowsPerGroup_ = std::min(rowsPerGroup_, rowsPerTile_);
    rowGroups_ = (rowsPerTile_ + rowsPerGroup_ - 1) / rowsPerGroup_;
    // The last row tile may be short and drive fewer groups.
    groupsPerSlice_ = 0;
    for (std::size_t r0 = 0; r0 < m.rows(); r0 += rowsPerTile_)
        groupsPerSlice_ +=
            (std::min(rowsPerTile_, m.rows() - r0) + rowsPerGroup_ - 1) /
            rowsPerGroup_;

    // Ramp sweep length for this operating point. An explicit
    // rampStates wins; otherwise auto-termination sweeps only the
    // ±rowsPerGroup·max_cell codes a group can reach. Derived from
    // the operating point alone (never the programmed data), so the
    // KernelModel oracle measured on a scratch tile matches the
    // serving tiles exactly.
    rampSweepStates_ = 0;
    if (cfg_.adc.kind == AdcKind::Ramp) {
        if (cfg_.rampStates != 0) {
            rampSweepStates_ = cfg_.rampStates;
        } else if (cfg_.rampAutoTerminate) {
            const Cycle range =
                2 * static_cast<Cycle>(rowsPerGroup_) *
                    static_cast<Cycle>(max_cell) +
                1;
            rampSweepStates_ =
                std::min(range, cfg_.adc.rampFullLatency);
        }
    }

    reprogramAll();
}

void
Ace::reprogramAll()
{
    xbars_.clear();
    const std::size_t needed =
        static_cast<std::size_t>(slices_) * rowTiles_ * colTiles_;
    xbars_.reserve(needed);

    const auto slices = sliceSignedMatrix(matrix_, elementBits_,
                                          bitsPerCell_);
    const bool ideal = cfg_.noise.ideal();
    codeStride_ = (matrix_.cols() + kCodeBlock - 1) / kCodeBlock *
                  kCodeBlock;
    cellCodes_.assign(ideal ? static_cast<std::size_t>(slices_) *
                                  matrix_.rows() * codeStride_
                            : 0,
                      0);
    // The narrow exactProduct() kernel's weight copy, laid out like
    // one slice of cell codes.
    narrowWeights_.assign(elementBits_ <= 15 ? matrix_.rows() * codeStride_
                                             : 0,
                          0);
    for (std::size_t r = 0; r < matrix_.rows() && !narrowWeights_.empty();
         ++r)
        for (std::size_t c = 0; c < matrix_.cols(); ++c)
            narrowWeights_[r * codeStride_ + c] =
                static_cast<i16>(matrix_(r, c));
    ++generation_;
    u64 cells_written = 0;
    for (int s = 0; s < slices_; ++s) {
        for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
            for (std::size_t ct = 0; ct < colTiles_; ++ct) {
                const std::size_t r0 = rt * rowsPerTile_;
                const std::size_t c0 = ct * colsPerTile_;
                const std::size_t nr =
                    std::min(rowsPerTile_, matrix_.rows() - r0);
                const std::size_t nc =
                    std::min(colsPerTile_, matrix_.cols() - c0);
                MatrixI sub(nr, nc);
                for (std::size_t r = 0; r < nr; ++r) {
                    const std::size_t code_row =
                        (static_cast<std::size_t>(s) * matrix_.rows() +
                         r0 + r) *
                            codeStride_ +
                        c0;
                    for (std::size_t c = 0; c < nc; ++c) {
                        sub(r, c) = slices[static_cast<std::size_t>(s)](
                            r0 + r, c0 + c);
                        if (ideal)
                            cellCodes_[code_row + c] =
                                static_cast<i16>(sub(r, c));
                    }
                }
                auto xb = std::make_unique<Crossbar>(
                    cfg_.arrayRows, cfg_.arrayCols, bitsPerCell_,
                    cfg_.noise,
                    seed_ + xbars_.size() * 7919 + 13);
                xb->programSigned(sub);
                cells_written += 2 * nr * nc;
                xbars_.push_back(std::move(xb));
            }
        }
    }
    if (tally_ != nullptr)
        tally_->add("ace.program",
                    cells_written * cfg_.cellProgramCycles,
                    static_cast<double>(cells_written) *
                        cfg_.cellProgramEnergyPJ,
                    cells_written);
}

void
Ace::updateRow(std::size_t row, const std::vector<i64> &values)
{
    if (!hasMatrix())
        darth_fatal("Ace::updateRow: no matrix programmed");
    matrix_.setRow(row, values);
    // Analog updates rewrite the affected differential pairs in every
    // slice; we re-program the owning row tile's arrays.
    reprogramAll();
}

void
Ace::updateCol(std::size_t col, const std::vector<i64> &values)
{
    if (!hasMatrix())
        darth_fatal("Ace::updateCol: no matrix programmed");
    matrix_.setCol(col, values);
    reprogramAll();
}

std::vector<PartialProduct>
Ace::execMvm(const std::vector<i64> &x, int input_bits, Cycle start)
{
    std::vector<PartialProduct> stream;
    execMvmInto(x, input_bits, start, stream);
    return stream;
}

// Cache-line aligned: this loop carries ~30% of an ideal forward's
// host time, and with the default 16-byte function alignment its
// speed moved ~2.5% whenever unrelated code linked before it changed
// size.
[[gnu::aligned(64)]] void
Ace::idealPartial(const std::vector<i64> &x, int bit, int s,
                  std::size_t row_lo, std::size_t row_hi,
                  i64 *out) const
{
    const std::size_t cols = matrix_.cols();
    const i16 *slice = &cellCodes_[static_cast<std::size_t>(s) *
                                   matrix_.rows() * codeStride_];
    const i64 lo = adc_.minCode();
    const i64 hi = adc_.maxCode();
    for (std::size_t c0 = 0; c0 < cols; c0 += kCodeBlock) {
        i32 acc[kCodeBlock] = {};
        for (std::size_t r = row_lo; r < row_hi; ++r) {
            if (((static_cast<u64>(x[r]) >> bit) & 1ULL) == 0)
                continue;
            const i16 *__restrict w = slice + r * codeStride_ + c0;
            for (std::size_t c = 0; c < kCodeBlock; ++c)
                acc[c] += w[c];
        }
        const std::size_t n = std::min(kCodeBlock, cols - c0);
        for (std::size_t c = 0; c < n; ++c)
            out[c0 + c] = std::clamp<i64>(acc[c], lo, hi);
    }
}

void
Ace::execMvmInto(const std::vector<i64> &x, int input_bits, Cycle start,
                 std::vector<PartialProduct> &stream)
{
    const bool negative = checkMvmInput(x, input_bits);
    streamTiming(input_bits, negative, stream);
    for (PartialProduct &pp : stream) {
        pp.convStart += start;
        pp.readyAt += start;
    }
    chargeMvm(x, input_bits);
    fillValues(x, input_bits, stream, 0);
}

bool
Ace::checkMvmInput(const std::vector<i64> &x, int input_bits) const
{
    if (!hasMatrix())
        darth_fatal("Ace::execMvm: no matrix programmed");
    if (x.size() != matrix_.rows())
        darth_fatal("Ace::execMvm: input length ", x.size(),
                    " != matrix rows ", matrix_.rows());
    return checkInputRange(x, input_bits);
}

void
Ace::streamTiming(int input_bits, bool negative,
                  std::vector<PartialProduct> &stream) const
{
    stream.resize(static_cast<std::size_t>(input_bits) *
                  static_cast<std::size_t>(slices_) * groupsPerSlice_);
    const Cycle conv_latency = adc_.conversionLatency(
        matrix_.cols(), cfg_.numAdcs, rampSweepStates_);
    Cycle array_free = 0;
    Cycle adc_free = 0;
    auto pp = stream.begin();
    for (int bit = 0; bit < input_bits; ++bit) {
        // Drive the wordlines with this bit plane; all arrays of all
        // slices sample concurrently.
        const Cycle sampled =
            array_free + cfg_.dacApplyCycles + cfg_.settleCycles;
        array_free = sampled;
        for (int s = 0; s < slices_; ++s) {
            for (std::size_t g = 0; g < groupsPerSlice_; ++g, ++pp) {
                pp->shift = bit + s * bitsPerCell_;
                pp->negate = negative && bit == input_bits - 1;
                // Conversions serialize on the shared ADCs.
                pp->convStart = std::max(adc_free, sampled);
                pp->readyAt = pp->convStart + conv_latency;
                adc_free = pp->readyAt;
            }
        }
    }
}

void
Ace::chargeMvm(const std::vector<i64> &x, int input_bits)
{
    if (tally_ == nullptr)
        return;
    // Resolve the tally accumulators once per MVM; the charges below
    // then skip the string-keyed lookup.
    CostEntry &t_dac = tally_->entry("ace.dac");
    CostEntry &t_array = tally_->entry("ace.array");
    CostEntry &t_sh = tally_->entry("ace.sh");
    CostEntry &t_adc = tally_->entry("ace.adc");
    const std::size_t cols = matrix_.cols();
    const double arrays =
        static_cast<double>(slices_ * rowTiles_ * colTiles_);
    const u64 planes = static_cast<u64>(input_bits);

    // Per plane: the wordline drive of its active rows, one array
    // activation and one sample-and-hold capture. Each energy is
    // charged once per plane (the constant ones as a repeated add), so
    // the sums round as the per-plane adds always have.
    std::array<std::size_t, 64> active_rows{};
    countPlaneBits(x, input_bits, active_rows.data());
    for (int bit = 0; bit < input_bits; ++bit)
        t_dac.energy += static_cast<double>(active_rows[bit]) *
                        cfg_.rowDriveEnergyPJ * arrays;
    t_dac.events += planes;
    t_dac.cycles += planes * cfg_.dacApplyCycles;
    t_array.events += planes;
    t_array.cycles += planes * cfg_.settleCycles;
    addRepeated(t_array.energy, cfg_.arrayActivationEnergyPJ * arrays,
                planes);
    t_sh.events += planes;
    addRepeated(t_sh.energy,
                static_cast<double>(cols) * cfg_.sampleHoldEnergyPJ *
                    static_cast<double>(slices_ * rowTiles_),
                planes);

    // One conversion per partial product.
    const u64 conversions = planes * static_cast<u64>(slices_) *
                            groupsPerSlice_;
    const Cycle conv_latency =
        adc_.conversionLatency(cols, cfg_.numAdcs, rampSweepStates_);
    t_adc.events += conversions;
    t_adc.cycles += conversions * conv_latency;
    addRepeated(t_adc.energy,
                adc_.conversionEnergy(cols, cfg_.numAdcs,
                                      rampSweepStates_),
                conversions);
}

void
Ace::fillValues(const std::vector<i64> &x, int input_bits,
                std::vector<PartialProduct> &stream, std::size_t first)
{
    const std::size_t cols = matrix_.cols();
    const bool ideal = idealArrays();
    // Scratch buffers reused across every tile of every plane (the
    // crossbar path only).
    std::vector<int> bits;
    std::vector<double> v_scratch;
    std::vector<double> analog;
    // Planes before first's are skipped whole.
    const std::size_t per_plane =
        static_cast<std::size_t>(slices_) * groupsPerSlice_;
    std::size_t index = first / per_plane * per_plane;
    for (int bit = static_cast<int>(first / per_plane); bit < input_bits;
         ++bit) {
        for (int s = 0; s < slices_; ++s) {
            for (std::size_t rt = 0; rt < rowTiles_; ++rt) {
                const std::size_t r0 = rt * rowsPerTile_;
                const std::size_t nr =
                    std::min(rowsPerTile_, matrix_.rows() - r0);
                for (std::size_t gr0 = 0; gr0 < nr;
                     gr0 += rowsPerGroup_) {
                    if (index++ < first)
                        continue;
                    const std::size_t gnr =
                        std::min(rowsPerGroup_, nr - gr0);
                    std::vector<i64> &values = stream[index - 1].values;
                    values.resize(cols);
                    if (ideal) {
                        idealPartial(x, bit, s, r0 + gr0,
                                     r0 + gr0 + gnr, values.data());
                        continue;
                    }
                    // The group's wordline drive is the same for every
                    // column tile of the row tile.
                    bits.assign(nr, 0);
                    for (std::size_t r = 0; r < gnr; ++r)
                        bits[gr0 + r] = static_cast<int>(
                            (static_cast<u64>(x[r0 + gr0 + r]) >> bit) &
                            1ULL);
                    for (std::size_t ct = 0; ct < colTiles_; ++ct) {
                        xbar(s, rt, ct).mvmBitInputInto(bits, v_scratch,
                                                        analog);
                        const std::size_t c0 = ct * colsPerTile_;
                        for (std::size_t c = 0; c < analog.size(); ++c)
                            values[c0 + c] = adc_.convert(analog[c]);
                    }
                }
            }
        }
    }
}

void
Ace::exactProduct(const std::vector<i64> &x, int input_bits,
                  u64 *out) const
{
    const std::size_t rows = matrix_.rows();
    const std::size_t cols = matrix_.cols();
    // |x| < 2^input_bits and |w| < 2^elementBits_, so with both at
    // most 15 bits each fits in i16, and over at most 2^ceil(log2
    // rows) rows the true sum stays below 2^31 in magnitude, partial
    // sums included: i16 x i16 -> i32 products into i32 block
    // accumulators are exact, and sign extension gives the sum modulo
    // 2^64.
    const int sum_bits = elementBits_ + input_bits +
                         static_cast<int>(std::bit_width(rows - 1));
    if (!narrowWeights_.empty() && input_bits <= 15 && sum_bits <= 31) {
        // The nonzero inputs once, branch-free: (weight row offset,
        // input) pairs.
        nonzero_.resize(rows);
        std::size_t count = 0;
        for (std::size_t r = 0; r < rows; ++r) {
            nonzero_[count] = {r * codeStride_, static_cast<i16>(x[r])};
            count += x[r] != 0;
        }
        for (std::size_t c0 = 0; c0 < cols; c0 += kCodeBlock) {
            i32 acc[kCodeBlock] = {};
            for (std::size_t k = 0; k < count; ++k) {
                const i16 xr = nonzero_[k].second;
                const i16 *__restrict w =
                    &narrowWeights_[nonzero_[k].first + c0];
                for (std::size_t c = 0; c < kCodeBlock; ++c)
                    acc[c] += static_cast<i32>(xr) * static_cast<i32>(w[c]);
            }
            const std::size_t n = std::min(kCodeBlock, cols - c0);
            for (std::size_t c = 0; c < n; ++c)
                out[c0 + c] = static_cast<u64>(static_cast<i64>(acc[c]));
        }
        return;
    }
    std::fill(out, out + cols, u64{0});
    const i64 *w = matrix_.data().data();
    for (std::size_t r = 0; r < rows; ++r) {
        if (x[r] == 0)
            continue;
        const u64 xr = static_cast<u64>(x[r]);
        const i64 *__restrict row = w + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            out[c] += xr * static_cast<u64>(row[c]);
    }
}

std::vector<i64>
Ace::referenceMvm(const std::vector<i64> &x) const
{
    if (x.size() != matrix_.rows())
        darth_fatal("Ace::referenceMvm: input length mismatch");
    std::vector<i64> out(matrix_.cols(), 0);
    for (std::size_t c = 0; c < matrix_.cols(); ++c) {
        i64 acc = 0;
        for (std::size_t r = 0; r < matrix_.rows(); ++r)
            acc += x[r] * matrix_(r, c);
        out[c] = acc;
    }
    return out;
}

std::vector<i64>
Ace::reduceStream(const std::vector<PartialProduct> &stream,
                  std::size_t cols)
{
    std::vector<i64> out(cols, 0);
    for (const auto &pp : stream) {
        if (pp.values.size() != cols)
            darth_fatal("Ace::reduceStream: width mismatch");
        const i64 sign = pp.negate ? -1 : 1;
        for (std::size_t c = 0; c < cols; ++c)
            out[c] += sign * (pp.values[c] << pp.shift);
    }
    return out;
}

} // namespace analog
} // namespace darth
