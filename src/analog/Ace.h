/**
 * @file
 * Analog Compute Element: the analog half of a hybrid compute tile.
 *
 * An ACE owns 64 crossbar arrays (Table 2) plus the input buffers, row
 * drivers, sample-and-hold, and ADCs needed for MVM. setMatrix() tiles
 * a signed integer matrix across arrays three ways: bit slices
 * (element_bits / bits_per_cell), row tiles (matrix rows beyond one
 * array's differential capacity), and column tiles. execMvm() streams
 * the input bit-serially (input bit-slicing) and emits one
 * PartialProduct per (input plane, weight slice, row tile, row group):
 * exactly the stream the HCT's shift units place into DCE rows for
 * shift-and-add reduction (Figure 9).
 *
 * When the per-bitline accumulation range exceeds the ADC range, the
 * ACE automatically splits wordline activation into row groups (the
 * standard precision-versus-throughput trade: more groups, more
 * conversions). Tests assert integer exactness of the full pipeline in
 * the ideal-noise configuration.
 *
 * With an ideal noise model every ADC code is the clamped integer
 * column sum of the active rows (the double-precision solve sits
 * within ~1e-11 LSB of it), so execMvm() computes the codes from an
 * integer copy of the slices instead of solving each crossbar; the
 * crossbars are still programmed, and timing and tallies are the same.
 *
 * On ideal arrays the clamp never fires: setMatrix() sizes row groups
 * so that rowsPerGroup * max_cell <= maxCode < -minCode. The stream
 * therefore reduces exactly — sum of +-(code << shift) over every
 * partial product is x.W, because the input planes recombine to x
 * (MSB plane negated when x has negatives) and the slices to W — and
 * exactProduct() gives that sum directly, modulo 2^64, from the
 * programmed matrix. An MVM is two separable halves: scheduleMvm()
 * (each partial product's shift, negate, convStart and readyAt, and
 * every ace.* tally) and fillValues() (the codes). execMvm() runs
 * both; the HCT's ideal reduction runs the schedule, fills only the
 * last partial product (the one its staging register keeps) and takes
 * the accumulator from exactProduct().
 */

#ifndef DARTH_ANALOG_ACE_H
#define DARTH_ANALOG_ACE_H

#include <cstddef>
#include <memory>
#include <vector>

#include "analog/Adc.h"
#include "analog/BitSlicing.h"
#include "analog/Crossbar.h"
#include "common/Matrix.h"
#include "common/Stats.h"
#include "reram/NoiseModel.h"

namespace darth
{
namespace analog
{

/** Static configuration of one ACE (Tables 2 and 3 defaults). */
struct AceConfig
{
    std::size_t numArrays = 64;
    std::size_t arrayRows = 64;
    std::size_t arrayCols = 64;
    AdcParams adc;
    /** ADC instances shared across the ACE (SAR: 2, ramp: 1). */
    std::size_t numAdcs = 2;
    /** Early-termination reference states for ramp ADCs (0 = full). */
    Cycle rampStates = 0;
    /**
     * Derive the ramp sweep length from the operating point instead
     * of sweeping the full code range: a row group of `rowsPerGroup`
     * cells of at most `2^bits_per_cell - 1` can only produce codes
     * in ±rowsPerGroup·max_cell, so the reference ramp terminates
     * after covering that range (the §5.3 early-exit generalized from
     * AES to any operating point). Shape- and config-derived only —
     * never data-dependent — so the KernelModel oracle and the
     * functional tiles agree. Ignored for SAR ADCs and when
     * `rampStates` is set explicitly.
     */
    bool rampAutoTerminate = false;
    /** Cycles to drive the wordlines with one input bit plane. */
    Cycle dacApplyCycles = 1;
    /** Array settle + sample-and-hold capture, cycles. */
    Cycle settleCycles = 1;
    /** Energy per active wordline drive (0.7 mW row periphery). */
    double rowDriveEnergyPJ = 0.7;
    /** Energy per column sample-and-hold capture. */
    double sampleHoldEnergyPJ = 2.1e-5;
    /** Energy per array activation for one 1-bit MVM. */
    double arrayActivationEnergyPJ = 1.0;
    /** Analog write-verify energy per cell programmed. */
    double cellProgramEnergyPJ = 20.0;
    /** Cycles per cell programmed (analog writes are slow, §4.1). */
    Cycle cellProgramCycles = 16;
    reram::NoiseModel noise;
};

/** One ADC-digitized partial product vector with its reduction tag. */
struct PartialProduct
{
    /** One code per matrix output column. */
    std::vector<i64> values;
    /** Bit positions to shift left during the ACE->DCE transfer. */
    int shift = 0;
    /** True when this plane subtracts (two's complement sign plane). */
    bool negate = false;
    /** Cycle at which the ADC began converting this vector. */
    Cycle convStart = 0;
    /** Cycle at which the last ADC output is available. */
    Cycle readyAt = 0;
};

/** The analog half of an HCT. */
class Ace
{
  public:
    explicit Ace(const AceConfig &config, CostTally *tally = nullptr,
                 u64 seed = 1);

    const AceConfig &config() const { return cfg_; }

    /**
     * Program a signed matrix, tiling across arrays.
     *
     * @param m              Signed elements, |m| < 2^element_bits.
     * @param element_bits   Logical element magnitude width.
     * @param bits_per_cell  Device bits (1 = SLC).
     */
    void setMatrix(const MatrixI &m, int element_bits,
                   int bits_per_cell);

    /** Update one row of the stored matrix (Table 1 updateRow()). */
    void updateRow(std::size_t row, const std::vector<i64> &values);

    /** Update one column of the stored matrix (Table 1 updateCol()). */
    void updateCol(std::size_t col, const std::vector<i64> &values);

    /** The logically stored matrix. */
    const MatrixI &matrix() const { return matrix_; }

    bool hasMatrix() const { return !xbars_.empty(); }

    std::size_t arraysUsed() const { return xbars_.size(); }
    int slices() const { return slices_; }
    std::size_t rowTiles() const { return rowTiles_; }
    std::size_t colTiles() const { return colTiles_; }
    std::size_t rowGroups() const { return rowGroups_; }

    /**
     * Reference states one ramp sweep covers for the programmed
     * operating point: the explicit `rampStates` override if set,
     * else the ±rowsPerGroup·max_cell range when `rampAutoTerminate`,
     * else 0 (full sweep). 0 for SAR ADCs and before setMatrix().
     */
    Cycle rampSweepStates() const { return rampSweepStates_; }

    /**
     * Bit-serial MVM: returns the partial-product stream, ordered by
     * readyAt. The caller (HCT) reduces it in the DCE.
     *
     * @param x           Signed input vector (length = matrix rows).
     * @param input_bits  Two's complement input width.
     * @param start       Earliest cycle the ACE may begin.
     */
    std::vector<PartialProduct> execMvm(const std::vector<i64> &x,
                                        int input_bits, Cycle start);

    /**
     * execMvm() into a caller-owned stream: existing entries and their
     * `values` capacity are reused and the stream is resized to the
     * partial-product count, so a caller that keeps one stream across
     * MVMs allocates nothing in steady state.
     */
    void execMvmInto(const std::vector<i64> &x, int input_bits,
                     Cycle start, std::vector<PartialProduct> &stream);

    /**
     * True when the arrays are noise-free (NoiseModel::ideal()): codes
     * come from the integer kernel and never clamp, so the stream
     * reduces to exactProduct().
     */
    bool idealArrays() const { return !cellCodes_.empty(); }

    /**
     * Schedule half of execMvmInto(): resizes the stream to the
     * partial-product count and sets every entry's shift, negate,
     * convStart and readyAt, charging every ace.* tally, but leaves
     * `values` untouched. Checks the input as execMvm() does.
     */
    void scheduleMvm(const std::vector<i64> &x, int input_bits,
                     Cycle start, std::vector<PartialProduct> &stream);

    /**
     * Value half of execMvmInto(): fills `values` of stream[first..]
     * for the stream scheduleMvm() sized. Noisy crossbars draw their
     * read noise in stream order, so a noisy caller fills from 0.
     */
    void fillValues(const std::vector<i64> &x, int input_bits,
                    std::vector<PartialProduct> &stream,
                    std::size_t first);

    /**
     * out[c] = sum over rows of x[r] * matrix(r, c), wrapping modulo
     * 2^64 (out holds cols() words). On ideal arrays this equals the
     * stream's shift-and-add reduction modulo any 2^k, k <= 64. Zero
     * inputs are skipped; reads the stored matrix in place.
     */
    void exactProduct(const std::vector<i64> &x, u64 *out) const;

    /** Exact integer reference of the full MVM (tests). */
    std::vector<i64> referenceMvm(const std::vector<i64> &x) const;

    /** Reference reduction of a partial-product stream (tests). */
    static std::vector<i64> reduceStream(
        const std::vector<PartialProduct> &stream, std::size_t cols);

  private:
    /** Crossbar holding (slice s, row tile rt, col tile ct). */
    Crossbar &xbar(int s, std::size_t rt, std::size_t ct);

    void reprogramAll();

    /**
     * Ideal-array partial product: out[c] = the ADC code of
     * sum over rows [row_lo, row_hi) with bit `bit` of x[r] set of
     * slice s's cell code (r, c), i.e. clamp(sum, minCode, maxCode).
     */
    void idealPartial(const std::vector<i64> &x, int bit, int s,
                      std::size_t row_lo, std::size_t row_hi,
                      i64 *out) const;

    AceConfig cfg_;
    CostTally *tally_;
    u64 seed_;

    MatrixI matrix_;
    int elementBits_ = 0;
    int bitsPerCell_ = 0;
    int slices_ = 0;
    std::size_t rowTiles_ = 0;
    std::size_t colTiles_ = 0;
    std::size_t rowsPerTile_ = 0;
    std::size_t colsPerTile_ = 0;
    std::size_t rowGroups_ = 1;
    std::size_t rowsPerGroup_ = 0;
    /** Non-empty (row tile, row group) pairs: partials per slice. */
    std::size_t groupsPerSlice_ = 0;
    /** Effective ramp sweep length (see rampSweepStates()). */
    Cycle rampSweepStates_ = 0;
    std::vector<std::unique_ptr<Crossbar>> xbars_;
    /**
     * Ideal noise only (empty otherwise): every slice's signed cell
     * codes, slice-major, each slice row-major over the matrix rows
     * with a row stride of codeStride_ (cols rounded up to the
     * kernel's block width, padding zero). Filled tile by tile as the
     * crossbars are programmed.
     */
    std::vector<i16> cellCodes_;
    std::size_t codeStride_ = 0;
    Adc adc_;
};

} // namespace analog
} // namespace darth

#endif // DARTH_ANALOG_ACE_H
