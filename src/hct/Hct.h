/**
 * @file
 * Hybrid Compute Tile (Section 4, Figure 8).
 *
 * An HCT couples one Analog Compute Element (64 crossbars + ADCs) with
 * one Digital Compute Element (64 RACER pipelines) through:
 *
 *  - shift units that place each ADC output into its final bit
 *    position *during* the ACE->DCE transfer (Figure 10b), removing
 *    the write/shift/add serialization of naive hybrid PUM;
 *  - a transpose unit for row-vector <-> column-element crossings;
 *  - an analog/digital arbiter that makes MVMs atomic;
 *  - an instruction injection unit that replays the shift-and-add µop
 *    sequence locally instead of through the shared front end;
 *  - the vACore abstraction: a logical group of analog arrays
 *    configured for one (element width, bits/cell) operating point.
 *
 * execMvm() runs the full Figure 9 walkthrough: bit-serial analog MVM,
 * partial-product transfer, and pipelined ADD/SUB reduction in the
 * DCE, returning bit-exact integer results in the ideal-noise
 * configuration. The reduction is simulated in two halves: a timing
 * pass over the partial-product stream (transfers, IIU issue, stage
 * reservation, tallies) and a values step that fills the accumulator —
 * one exact integer product on ideal arrays (see Ace.h), the fold of
 * the digitized codes otherwise — after which the register file is
 * written once, bit-identical to the per-partial-product ADD/SUBs.
 */

#ifndef DARTH_HCT_HCT_H
#define DARTH_HCT_HCT_H

#include <cstddef>
#include <vector>

#include "analog/Ace.h"
#include "common/Stats.h"
#include "digital/Dce.h"
#include "hct/Arbiter.h"
#include "hct/InjectionUnit.h"
#include "hct/TransposeUnit.h"

namespace darth
{
namespace hct
{

/** Static configuration of one HCT (Table 2 defaults). */
struct HctConfig
{
    digital::DceConfig dce;
    analog::AceConfig ace;
    /** Shift-during-transfer units (Figure 10 optimization). */
    bool shiftUnits = true;
    IiuConfig iiu;
    TransposeConfig transpose;
    Cycle arbiterSwitchPenalty = 1;
    /** ACE->DCE network width (rate-matched to ADC throughput). */
    std::size_t networkBytesPerCycle = 8;
    double networkEnergyPerBytePJ = 0.1;

    /** The paper's Table 2 configuration for the given ADC kind. */
    static HctConfig paperDefault(analog::AdcKind adc);
};

/** A vACore operating point (Section 4.2). */
struct VACore
{
    int elementBits = 0;
    int bitsPerCell = 0;
    bool valid = false;
};

/** One hybrid compute tile. */
class Hct
{
  public:
    explicit Hct(const HctConfig &config, CostTally *tally = nullptr,
                 u64 seed = 1);

    const HctConfig &config() const { return cfg_; }

    analog::Ace &ace() { return ace_; }
    digital::Dce &dce() { return dce_; }
    Arbiter &arbiter() { return arbiter_; }
    InjectionUnit &iiu() { return iiu_; }
    TransposeUnit &transposer() { return transpose_; }

    // ------------------------------------------------------------------
    // vACore / matrix management (Table 1 semantics).
    // ------------------------------------------------------------------

    /**
     * Allocate a vACore: fixes the (element width, bits/cell)
     * operating point and programs the shift units and IIU µop table
     * for the matching shift-and-add sequence.
     */
    void allocVACore(int element_bits, int bits_per_cell);

    const VACore &vacore() const { return vacore_; }

    /** Program a matrix into the active vACore. */
    void setMatrix(const MatrixI &m, int element_bits, int bits_per_cell);

    /** Disable the ACE; copies the matrix into DCE registers. */
    Cycle disableAnalogMode(Cycle start);

    /** Disable DCE post-processing (raw partial products only). */
    void disableDigitalMode() { digitalEnabled_ = false; }

    bool analogEnabled() const { return analogEnabled_; }
    bool digitalEnabled() const { return digitalEnabled_; }

    // ------------------------------------------------------------------
    // Hybrid MVM (the Figure 9 walkthrough).
    // ------------------------------------------------------------------

    struct MvmResult
    {
        std::vector<i64> values;
        Cycle done = 0;
    };

    /**
     * Full hybrid MVM: y = M x with bit-serial inputs and DCE
     * reduction.
     *
     * @param x           Signed input vector (length = matrix rows).
     * @param input_bits  Two's complement input width.
     * @param start       Earliest start cycle.
     */
    MvmResult execMvm(const std::vector<i64> &x, int input_bits,
                      Cycle start);

    /** Accumulator width used for the reduction (for tests). */
    int accumulatorBits(int input_bits) const;

    // ------------------------------------------------------------------
    // Digital-side helpers (arbiter-mediated DCE access).
    // ------------------------------------------------------------------

    /** Run a macro on one DCE pipeline under the digital mode. */
    Cycle digitalMacro(std::size_t pipe, digital::MacroKind kind,
                       std::size_t dst, std::size_t a, std::size_t b,
                       std::size_t bits, Cycle start);

    /** Bit shift on one pipeline (inter-array transfer buffers). */
    Cycle digitalShift(std::size_t pipe, std::size_t dst,
                       std::size_t src, std::size_t k, bool up,
                       std::size_t bits, Cycle start);

    /** Cyclic rotate (pipeline-reversal macro, §5.3). */
    Cycle digitalRotate(std::size_t pipe, std::size_t vr, std::size_t k,
                        std::size_t bits, Cycle start);

    /** Per-element select (ReLU-style masking). */
    Cycle digitalSelect(std::size_t pipe, std::size_t dst,
                        std::size_t a, std::size_t b,
                        std::size_t sel_vr, std::size_t sel_bit,
                        std::size_t bits, Cycle start);

    /** Element-wise gather from a table pipeline (§4.2 extension). */
    Cycle elementLoad(std::size_t pipe, std::size_t dst,
                      std::size_t addr_vr, std::size_t table_pipe,
                      std::size_t table_base_vr, std::size_t bits,
                      Cycle start);

    /** Element-wise scatter to a table pipeline. */
    Cycle elementStore(std::size_t pipe, std::size_t src,
                       std::size_t addr_vr, std::size_t table_pipe,
                       std::size_t table_base_vr, std::size_t bits,
                       Cycle start);

    /** Load a vector of values into a pipeline VR via the I/O port. */
    Cycle loadVector(std::size_t pipe, std::size_t vr,
                     const std::vector<i64> &values, std::size_t bits,
                     Cycle start);

    /** Read a VR back as sign-extended integers. */
    std::vector<i64> readVector(std::size_t pipe, std::size_t vr,
                                std::size_t bits) const;

    /** Number of MVMs executed (stats). */
    u64 mvmCount() const { return mvmCount_; }

  private:
    /** Reduction pipelines needed for the current matrix. */
    std::size_t reductionPipes() const;

    /**
     * The timing half of the reduction: walks stream_ in order,
     * charging each partial product's transfer (port, network,
     * transpose) and its ADD/SUB (IIU issue, stage reservation) on
     * every reduction pipeline; returns the last completion. Without
     * shift units this also runs the shift and ADD/SUB functionally
     * in the register file, since execShift needs the bits.
     */
    Cycle reduceTiming(Cycle analog_start, int acc_bits);

    /**
     * The values half of the reduction with shift units: acc_ = the
     * accumulator mod 2^acc_bits (the exact product when `exact`, the
     * fold of stream_'s codes otherwise), then the accumulator and
     * staging registers written once, bit-identical to what the
     * per-partial-product ADD/SUBs leave behind.
     */
    void reduceValues(const std::vector<i64> &x, bool exact,
                      int acc_bits);

    HctConfig cfg_;
    CostTally *tally_;
    analog::Ace ace_;
    digital::Dce dce_;
    Arbiter arbiter_;
    InjectionUnit iiu_;
    TransposeUnit transpose_;
    VACore vacore_;
    bool analogEnabled_ = true;
    bool digitalEnabled_ = true;
    u64 mvmCount_ = 0;
    /** Partial-product stream reused by every execMvm(). */
    std::vector<analog::PartialProduct> stream_;
    /** Per-MVM scratch: reduction-pipe port free times, accumulator
     *  words (one per matrix column). */
    std::vector<Cycle> portFree_;
    std::vector<u64> acc_;
};

} // namespace hct
} // namespace darth

#endif // DARTH_HCT_HCT_H
