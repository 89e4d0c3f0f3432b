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
 * half over the partial-product stream (transfers, IIU issue, stage
 * reservation, tallies) and a values step that fills the accumulator —
 * one exact integer product on ideal arrays (see Ace.h), the fold of
 * the digitized codes otherwise — after which the register file is
 * written once, bit-identical to the per-partial-product ADD/SUBs.
 *
 * With shift units every time in the timing half is an offset from the
 * analog start S, fixed by the programmed shape, the input width and
 * the input's sign. A ReductionPlan keeps, per (input width, sign),
 * the relative stream and each reduction pipe's MacroChain (the
 * ADD/SUB issue offsets folded into the closed form of Pipeline.h), so
 * when every pipe's stages are affine over the accumulator width with
 * slope <= the run's last op count (the steady state, a fresh or
 * rebased pipe, and a SUB-ended MVM followed by ADDs alike: all 9,409
 * reductions of a ResNet-20 forward) one reserveChain() per pipe times
 * the whole reduction, and the tallies advance by products, each
 * energy sum rounding as its per-charge adds do (addRepeated). Other
 * digital work on a reduction pipe, an accumulator width change, and
 * every configuration without shift units take reduceTiming()'s walk
 * over the stream instead. Both give identical completions, stage
 * state and tallies.
 */

#ifndef DARTH_HCT_HCT_H
#define DARTH_HCT_HCT_H

#include <cstddef>
#include <vector>

#include "analog/Ace.h"
#include "common/Stats.h"
#include "digital/Dce.h"
#include "digital/Pipeline.h"
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

    const VACore &vacore() const { return vacore_; }

    /** Allocate a vACore at (element_bits, bits_per_cell) and
     *  program a matrix into it. */
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

    /** Element-wise gather from a table pipeline (§4.2 extension). */
    Cycle elementLoad(std::size_t pipe, std::size_t dst,
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

    /** MVMs whose reduction was timed in closed form (stats): over
     *  mvmCount(), the share that skipped the per-partial-product
     *  walk. */
    u64 closedFormReductions() const { return closedForm_; }

  private:
    /**
     * Allocate a vACore: fixes the (element width, bits/cell)
     * operating point and programs the shift units and IIU µop table
     * for the matching shift-and-add sequence.
     */
    void allocVACore(int element_bits, int bits_per_cell);

    /**
     * One (input width, sign) pair's reduction timing relative to the
     * analog start; see the file comment. Valid for one ACE generation
     * and accumulator width.
     */
    struct ReductionPlan
    {
        int inputBits = 0;
        bool negative = false;
        int accBits = 0;
        /** Stream timing with convStart/readyAt relative to S. */
        std::vector<analog::PartialProduct> stream;
        /** Per reduction pipe: the ADD/SUB run, issue offsets from S. */
        std::vector<digital::MacroChain> chains;
        /** Per partial product: the ADD/SUB's column ops. */
        std::vector<u64> columnOps;
        /** Per reduction pipe: one transfer's network energy. */
        std::vector<double> networkEnergy;
        /** Every pipe's transfer energy is the same (full-width
         *  pipes): the charges are one repeated add. */
        bool uniformNetwork = false;
        /** Network cycles of one partial product over every pipe. */
        Cycle networkCycles = 0;
        /** µops the IIU injects per ADD/SUB (0 without the IIU). */
        u64 injectedUops = 0;
    };

    /** Reduction pipelines needed for the current matrix. */
    std::size_t reductionPipes() const;

    /** The cached plan for (input_bits, negative), built on a miss. */
    const ReductionPlan &reductionPlan(int input_bits, bool negative);

    /**
     * The timing half of the reduction: the closed form when the plan
     * has one and every reduction pipe fits it, else the walk over
     * stream_ (whose times must then be absolute), charging each
     * partial product's transfer (port, network, transpose) and its
     * ADD/SUB (IIU issue, stage reservation) on every reduction
     * pipeline. Returns the last completion. Without shift units the
     * walk also runs the shift and ADD/SUB functionally in the
     * register file, since execShift needs the bits.
     */
    Cycle reduceTiming(const ReductionPlan &plan, Cycle analog_start);

    /** reduceTiming()'s walk, one partial product at a time. */
    Cycle walkReduction(Cycle analog_start, int acc_bits);

    /**
     * When one partial product's transfer of n columns into a
     * reduction pipe completes, given the pipe's write port is free at
     * port_free.
     */
    Cycle transferDone(Cycle port_free, const analog::PartialProduct &pp,
                       std::size_t n, int acc_bits) const;

    /** Network energy of one n-column transfer. */
    double transferEnergy(std::size_t n) const;

    /**
     * The values half of the reduction with shift units: acc_ = the
     * accumulator mod 2^acc_bits (the exact product when `exact`, the
     * fold of stream_'s codes otherwise), then the accumulator and
     * staging registers written once, bit-identical to what the
     * per-partial-product ADD/SUBs leave behind.
     */
    void reduceValues(const std::vector<i64> &x, int input_bits,
                      bool exact, int acc_bits);

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
    u64 closedForm_ = 0;
    /** Plans for the ACE generation plansGeneration_. */
    std::vector<ReductionPlan> plans_;
    u64 plansGeneration_ = 0;
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
