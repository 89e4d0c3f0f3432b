/**
 * @file
 * Analog crossbar executing matrix–vector multiplication with
 * differential cell pairs (Section 2.2.1).
 *
 * A signed matrix of up to rows/2 x cols integer elements is stored on
 * a CellArray: matrix row k uses wordline 2k for the positive device
 * and wordline 2k+1 for the negative device of each differential pair.
 * During MVM the input element drives +V on the positive wordline and
 * -V on the negative one, so Kirchhoff summation on each bitline
 * yields a *signed* current proportional to sum_k x_k * (w+ - w-);
 * the fixed G_min offsets of the pair cancel exactly.
 *
 * Non-idealities: conductances carry the CellArray's programming /
 * read / stuck-at / drift noise, and a first-order bitline IR-drop
 * model attenuates each device's contribution by the resistive drop
 * accumulated between the device and the sense amplifier — errors grow
 * with total bitline current, which is exactly the behaviour the
 * parasitic compensation scheme (§4.3) exploits.
 */

#ifndef DARTH_ANALOG_CROSSBAR_H
#define DARTH_ANALOG_CROSSBAR_H

#include <cstddef>
#include <vector>

#include "common/Matrix.h"
#include "reram/CellArray.h"

namespace darth
{
namespace analog
{

/** Mapping of signed numbers onto conductances. */
enum class NumberMapping
{
    /** Two devices per value, opposite-polarity inputs (default). */
    DifferentialPair,
    /** Single device, midpoint-offset code, digital offset subtract. */
    OffsetSubtraction,
};

/** One analog ReRAM crossbar with MVM capability. */
class Crossbar
{
  public:
    /**
     * @param rows          Physical wordlines.
     * @param cols          Physical bitlines.
     * @param bits_per_cell Programmable bits per device (1 = SLC).
     * @param noise         Device non-idealities.
     * @param seed          RNG seed for the noise draws.
     */
    Crossbar(std::size_t rows, std::size_t cols, int bits_per_cell,
             const reram::NoiseModel &noise = reram::NoiseModel{},
             u64 seed = 1);

    std::size_t rows() const { return cells_.rows(); }
    std::size_t cols() const { return cells_.cols(); }
    int bitsPerCell() const { return bitsPerCell_; }

    /** Signed matrix rows storable with differential pairs. */
    std::size_t maxLogicalRows() const { return rows() / 2; }

    /** Largest per-cell code: 2^bits_per_cell - 1. */
    i64 maxCellCode() const { return (i64{1} << bitsPerCell_) - 1; }

    /**
     * Program a signed matrix (differential mapping). Element (k, c)
     * must satisfy |value| <= maxCellCode(); value v is stored as
     * (w+, w-) = (max(v,0), max(-v,0)).
     */
    void programSigned(const MatrixI &matrix);

    /**
     * Program a signed matrix with offset-subtraction mapping: cell
     * code = v + 2^(bits-1); matrix rows map 1:1 onto wordlines. The
     * caller must subtract offset * sum(x) from each output.
     */
    void programOffset(const MatrixI &matrix);

    NumberMapping mapping() const { return mapping_; }

    /** Logical (signed-element) column count as programmed. */
    std::size_t logicalCols() const { return logicalCols_; }

    /**
     * Execute an analog MVM with per-element 1-bit inputs (the
     * bit-serial DAC case): x[k] in {0, 1}. Returns one value per
     * bitline, expressed in ADC LSB units (1 LSB = one unit weight x
     * one active input). Noise and IR drop are applied in the analog
     * domain before scaling.
     */
    std::vector<double> mvmBitInput(const std::vector<int> &x_bits) const;

    /**
     * Allocation-free variant of mvmBitInput for hot loops: the caller
     * supplies a row-voltage scratch buffer (resized/overwritten here)
     * and the output buffer (resized to logicalCols()). Results are
     * bit-identical to mvmBitInput.
     */
    void mvmBitInputInto(const std::vector<int> &x_bits,
                         std::vector<double> &v_scratch,
                         std::vector<double> &out) const;

    /**
     * General MVM with multi-level input voltages x[k] (in DAC code
     * units, non-negative). Used when input bit-slicing is disabled.
     */
    std::vector<double> mvm(const std::vector<double> &x) const;

    /** Exact integer reference (no analog effects), for tests. */
    std::vector<i64> referenceMvm(const std::vector<i64> &x) const;

    /** Total programming operations (for write-energy accounting). */
    u64 programCount() const { return cells_.programCount(); }

  private:
    /** Shared electrical solve over the stored conductances. */
    std::vector<double> solve(const std::vector<double> &row_voltages)
        const;

    /** solve() writing into a caller-owned buffer (resized here). */
    void solveInto(const std::vector<double> &row_voltages,
                   std::vector<double> &out) const;

    /**
     * solveInto with a caller-supplied hint that every non-zero row
     * voltage lies in [row_lo, row_hi). Only the ideal fast path
     * exploits the hint (skipped rows are exact no-ops there); the
     * general path always walks every row.
     */
    void solveInto(const std::vector<double> &row_voltages,
                   std::vector<double> &out, std::size_t row_lo,
                   std::size_t row_hi) const;

    /**
     * Refresh the read-time conductance snapshot. With readSigma == 0
     * a device read is a pure function of its programmed state (no
     * RNG draws, drift needs age > 1 which reads never pass), so the
     * snapshot is bit-identical to per-access reads and lifts the
     * per-cell Device::read() out of the MVM hot loop. A noisy read
     * configuration leaves the snapshot empty and keeps the exact
     * per-read path.
     */
    void snapshotConductances();

    reram::CellArray cells_;
    int bitsPerCell_;
    NumberMapping mapping_ = NumberMapping::DifferentialPair;
    MatrixI logical_;
    std::size_t logicalRows_ = 0;
    std::size_t logicalCols_ = 0;
    /** rows() x logicalCols() read-conductance snapshot (row-major);
     *  empty when read noise forces per-access draws. */
    std::vector<Siemens> gSnapshot_;
};

} // namespace analog
} // namespace darth

#endif // DARTH_ANALOG_CROSSBAR_H
