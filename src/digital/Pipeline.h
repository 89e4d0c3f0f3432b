/**
 * @file
 * RACER-style bit-pipelined digital PUM pipeline.
 *
 * A pipeline is a chain of `depth` SLC ReRAM arrays. Vector register
 * (VR) j occupies column j of every array; element e occupies row e;
 * array i holds bit position i of every value (Figure 5: values are
 * bit-striped). A macro instruction (ADD, XOR, ...) is realized as a
 * short gate program per bit position, executed in array i for bit i;
 * instructions flow through the arrays like a classic pipeline, so
 * independent macros overlap (bit-pipelining) while carry chains
 * serialize stage-to-stage.
 *
 * The pipeline is simultaneously a *functional* simulator (bit columns
 * are evaluated with real gate programs, so results are bit-exact) and
 * a *timing* model (per-stage reservation of array time).
 *
 * Stage reservation keeps one free time per stage. A carry-chained
 * macro starts stage i at start_i = max(start_{i-1} + ops, free_i),
 * so after one that never stalls past stage 0 the stages it covered
 * are free at the affine times F_0 + i*ops. The pipeline keeps that
 * prefix symbolically as (base, slope, span): the next chained macro
 * over the same span with ops >= slope then starts at
 * s_0 = max(issue, base), leaves base = s_0 + ops and slope = ops, and
 * completes at s_0 + span*ops (by induction, start_i = s_0 + i*ops,
 * since s_0 >= base and ops >= slope), in O(1) instead of a walk over
 * every stage. This is the MVM reduction's steady state: back-to-back
 * ADD/SUBs at one accumulator width. Every other macro, rotate,
 * element load/store and rebase first writes the prefix back into the
 * per-stage times and walks them as before; drainTime() and
 * stage0FreeAt() read through it. Completions are identical either
 * way.
 *
 * A whole run of such macros folds the same way (MacroChain,
 * reserveChain()). Let macro i issue at start + c_i with ops o_i per
 * stage, o non-decreasing, and write C_0 = c_0, C_i = max(c_i,
 * C_{i-1} + o_{i-1}), A_0 = 0, A_i = A_{i-1} + o_{i-1}. Entering at
 * (base B, slope <= o_0, span = bits), every step stays affine and
 * macro i starts stage 0 at s_i = max(start + C_i, B + A_i), so the
 * run completes at max(start + max_i(C_i + bits*o_i), B + max_i(A_i +
 * bits*o_i)) and leaves base s_last + o_last, slope o_last: O(1) for
 * the whole run, whatever its length — one MVM's shift-and-add
 * reduction on one pipe. The same holds for any entry slope <=
 * o_last. In max-plus terms a chained macro of o ops maps stage times
 * max_k(F_k + sigma_k*i) to max(M + o*i, max over sigma_k > o of
 * (F_k + o + sigma_k*i)) with M = max(issue, F_k over sigma_k <= o)
 * + o: an entry slope above o_0 survives as a separate, steeper term
 * (the walk sees stalls past stage 0) until the first macro i* with
 * o_i* >= slope merges it back, and since A_i + bits*o_i grows with i
 * that term never sets the completion, so the result is the same
 * formula. Stage times that happen to be affine (a fresh or rebased
 * pipeline: slope 0) qualify as an entry too.
 */

#ifndef DARTH_DIGITAL_PIPELINE_H
#define DARTH_DIGITAL_PIPELINE_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/BitVector.h"
#include "common/Stats.h"
#include "common/Types.h"
#include "digital/KernelCache.h"
#include "digital/LogicFamily.h"
#include "digital/Synthesis.h"

namespace darth
{
namespace digital
{

/** Static configuration of one pipeline (Table 2 defaults). */
struct PipelineConfig
{
    /** Number of arrays in the chain = bit-width capacity. */
    std::size_t depth = 64;
    /** Elements per vector register (array rows). */
    std::size_t width = 64;
    /** Vector registers (array columns). */
    std::size_t numRegs = 64;
    /** Logic family executed by the arrays. */
    LogicFamilyKind family = LogicFamilyKind::Oscar;
    /** Energy per in-array column primitive, picojoules. */
    double opEnergyPJ = 8.0;
    /** Energy per row-wide I/O access, picojoules. */
    double ioEnergyPJ = 1.5;
};

/**
 * A run of carry-chained macros over `bits` stages, folded for
 * Pipeline::reserveChain() (see the file comment): each append()
 * adds the next macro's issue offset from the run's start and its ops
 * per stage.
 */
struct MacroChain
{
    std::size_t bits = 0;
    /** Macros appended. */
    std::size_t length = 0;
    Cycle firstOps = 0;
    Cycle lastOps = 0;
    /** C_last and max_i(C_i + bits * o_i). */
    Cycle issueLast = 0;
    Cycle issuePeak = 0;
    /** A_last and max_i(A_i + bits * o_i). */
    Cycle runLast = 0;
    Cycle runPeak = 0;
    /** Column ops of the whole run (sum of bits * o_i). */
    u64 columnOps = 0;
    /** Every macro carry-chained and o non-decreasing. */
    bool closed = true;

    void
    append(Cycle issue, Cycle ops, bool carry_chained)
    {
        if (length == 0) {
            firstOps = ops;
            issueLast = issue;
        } else {
            closed = closed && ops >= lastOps;
            issueLast = std::max(issue, issueLast + lastOps);
            runLast += lastOps;
        }
        closed = closed && carry_chained;
        lastOps = ops;
        issuePeak = std::max(issuePeak, issueLast + bits * ops);
        runPeak = std::max(runPeak, runLast + bits * ops);
        columnOps += static_cast<u64>(bits) * ops;
        ++length;
    }
};

/**
 * One bit-pipelined compute pipeline with its vector register file.
 */
class Pipeline
{
  public:
    /**
     * @param config  Pipeline geometry and logic family.
     * @param tally   Optional cost sink (categories "dce.*").
     */
    explicit Pipeline(const PipelineConfig &config,
                      CostTally *tally = nullptr);

    const PipelineConfig &config() const { return cfg_; }
    const LogicFamily &family() const { return family_; }

    // ------------------------------------------------------------------
    // Functional state access (test/debug interface; no cost recorded).
    // ------------------------------------------------------------------

    /** Write an element's integer value into a VR. */
    void setElement(std::size_t vr, std::size_t elem, u64 value);

    /**
     * Write only the low `bits` columns of an element; columns >= bits
     * keep their previous contents. Hot-path variant for staging MVM
     * partial products whose upper columns are already zero.
     */
    void setElement(std::size_t vr, std::size_t elem, u64 value,
                    std::size_t bits);

    /** Read an element's integer value (low `bits` bits). */
    u64 element(std::size_t vr, std::size_t elem,
                std::size_t bits = 64) const;

    /**
     * Batch transfer: write elements 0..count-1 of a VR in one call,
     * each element's low `bits` columns taken from values[e]
     * (elements >= count and columns >= bits keep their contents,
     * matching a setElement(vr, e, values[e], bits) loop exactly).
     * One 64x64 bit-matrix transpose on the host replaces count*bits
     * single-bit writes — the ADC-to-DCE staging hot path.
     */
    void setElements(std::size_t vr, const u64 *values,
                     std::size_t count, std::size_t bits);

    /**
     * Batch read of elements 0..count-1 (low `bits` bits each) into
     * out[e] — the transposed inverse of setElements, used for
     * accumulator readback.
     */
    void elements(std::size_t vr, u64 *out, std::size_t count,
                  std::size_t bits) const;

    /**
     * Overwrite a whole vector register: element e < count holds the
     * low `bits` bits of values[e]; every other element and every
     * column >= bits is zero. The same register clearReg() followed
     * by setElements() leaves, in one transpose.
     */
    void writeReg(std::size_t vr, const u64 *values, std::size_t count,
                  std::size_t bits);

    /** Zero out a vector register. */
    void clearReg(std::size_t vr);

    // ------------------------------------------------------------------
    // Macro execution (functional + timed). All exec* methods return
    // the cycle at which the macro completes, given the earliest issue
    // time; per-stage occupancy is reserved internally.
    // ------------------------------------------------------------------

    /** dst = op(a, b) over the low `bits` bit positions. */
    Cycle execMacro(MacroKind kind, std::size_t dst, std::size_t a,
                    std::size_t b, std::size_t bits, Cycle issue);

    /**
     * Timing/energy half of execMacro with no functional bit work:
     * records the same op count and reserves the same stage
     * occupancy, returning the same completion cycle. For callers
     * that evaluate the macro's (known) arithmetic element-natively
     * — the HCT's compiled MVM reduction — and only need the
     * simulated cost charged; the caller owns re-materializing the
     * register file (setElements) before anyone reads it.
     */
    Cycle timeMacro(MacroKind kind, std::size_t bits, Cycle issue);

    /**
     * True when reserveChain() applies: the chain is closed and its
     * first chain.bits stages are free at affine times base + i*slope
     * (the symbolic prefix, or stage times that happen to be affine,
     * such as a fresh or rebased pipeline's) with slope <=
     * chain.lastOps.
     */
    bool chainFits(const MacroChain &chain) const;

    /**
     * Reserve a whole chain issued from `start` in O(1) (requires
     * chainFits()); returns its last completion — what timeMacro()
     * over each macro in turn returns at most — and leaves the same
     * stage state and opCount(). Charges no tally: see chargeOps().
     */
    Cycle reserveChain(const MacroChain &chain, Cycle start);

    /**
     * The dce.boolop charges of `copies` pipelines of this
     * configuration (sharing this tally) that each ran macros of
     * column_ops[0..count) in turn, in the order timeMacro() charges
     * them when the macros issue macro-major across the pipelines: one
     * energy add per charge, so the sum rounds identically.
     */
    void chargeOps(const u64 *column_ops, std::size_t count,
                   std::size_t copies);

    /**
     * Per-element select: dst = sel ? b : a, where the select bit is
     * bit `sel_bit` of register `sel_vr` (broadcast across stages).
     * Realizes ReLU-style masking without dedicated hardware.
     */
    Cycle execSelect(std::size_t dst, std::size_t a, std::size_t b,
                     std::size_t sel_vr, std::size_t sel_bit,
                     std::size_t bits, Cycle issue);

    /**
     * Logical shift of bit positions by k (up = toward MSB,
     * multiply by 2^k). Implemented with the inter-array transfer
     * buffers: two accesses per stage, chained along the pipeline.
     */
    Cycle execShift(std::size_t dst, std::size_t src, std::size_t k,
                    bool up, std::size_t bits, Cycle issue);

    /**
     * Cyclic rotation of each element's low `bits` bits by k positions
     * toward the MSB. There is no wrap-around buffer at the pipeline
     * head, so the hardware drains the pipeline, reverses propagation,
     * and right-shifts (Section 5.3 ShiftRows); the cost model charges
     * that full macro.
     */
    Cycle execRotate(std::size_t vr, std::size_t k, std::size_t bits,
                     Cycle issue);

    // ------------------------------------------------------------------
    // Row I/O (the DCE write port: one row per cycle).
    // ------------------------------------------------------------------

    /**
     * Write `bits` bits of `value` into element row `elem` of register
     * `vr`, starting at bit position `lo_bit` (the shift units set
     * lo_bit during ACE->DCE transfers). One cycle.
     */
    Cycle writeRow(std::size_t vr, std::size_t elem, u64 value,
                   std::size_t lo_bit, std::size_t bits, Cycle when);

    /** Read element row `elem` of register `vr`. One cycle. */
    u64 readRow(std::size_t vr, std::size_t elem, Cycle when);

    /**
     * Element-wise gather (the DARTH-PUM load extension, §4.2): for
     * each element e, read addr = a[e] from `addr_vr`, fetch entry
     * `addr` from the table laid out in `table` starting at register
     * `table_base_vr` (entry t lives at register table_base_vr + t /
     * width, row t % width), and write it to dst[e]. Three cycles per
     * element (address read-out, adjacent-pipeline read, write-back).
     */
    Cycle elementLoad(std::size_t dst, std::size_t addr_vr,
                      const Pipeline &table, std::size_t table_base_vr,
                      std::size_t bits, Cycle issue);

    /** Element-wise scatter counterpart of elementLoad. */
    Cycle elementStore(std::size_t src, std::size_t addr_vr,
                       Pipeline &table, std::size_t table_base_vr,
                       std::size_t bits, Cycle issue);

    /** Earliest cycle at which stage 0 can accept a new macro. */
    Cycle
    stage0FreeAt() const
    {
        return affineSpan_ != 0 ? affineBase_ : stageFree_[0];
    }

    /** Cycle at which the whole pipeline drains (max stage time). */
    Cycle drainTime() const;

    /**
     * Overwrite every stage's free time (both directions) — the
     * pipeline-side analogue of Arbiter::rebase. KernelModel uses it
     * to time each measured shape from cycle 0 on the reused scratch
     * tile instead of behind the previous measurement's stages.
     */
    void
    rebase(Cycle when)
    {
        affineSpan_ = 0;
        for (auto &stage : stageFree_)
            stage = when;
    }

    /** Total in-array primitive ops executed so far. */
    u64 opCount() const { return opCount_; }

  private:
    /**
     * Per-instance pointer cache over the process-wide KernelCache:
     * macro programs are family-fixed, execMacro sits on the
     * MVM-reduction hot path, and the global cache's entries are
     * stable for the process lifetime.
     */
    const KernelCache::Entry &cachedEntry(MacroKind kind);

    /** Reserve stage time for a macro; returns completion cycle. */
    Cycle reserveStages(std::size_t bits, Cycle issue,
                        Cycle ops_per_stage, bool carry_chained);

    /** Write the affine prefix back into stageFree_ and leave it. */
    void materializeStages();

    /**
     * Whether stages [0, bits) are free at base + i*slope (reading
     * through the prefix); sets base and slope when they are.
     */
    bool affineOver(std::size_t bits, Cycle &base, Cycle &slope) const;

    /** chainFits(), also giving the entry base. */
    bool chainEntry(const MacroChain &chain, Cycle &base) const;

    /**
     * Functionally evaluate a cached macro column-parallel through
     * its compiled truth-table kernel (every cached macro compiles;
     * see KernelCache::macro).
     *
     * @param carry        Initial carry/select column fed to kRegCin.
     * @param chain_carry  Propagate carry-out between bit positions.
     */
    void runProgram(const KernelCache::Entry &entry, std::size_t dst,
                    std::size_t a, std::size_t b, std::size_t bits,
                    BitVector carry, bool chain_carry);

    void checkReg(std::size_t vr) const;
    void checkElem(std::size_t elem) const;

    void recordOps(u64 column_ops);
    void recordIo(u64 accesses);
    /** Drop the cached tally entries if the tally was cleared. */
    void revalidateTally();

    PipelineConfig cfg_;
    LogicFamily family_;
    CostTally *tally_;

    /** bits_[vr][bit] = column of `width` bits. */
    std::vector<std::vector<BitVector>> bits_;
    std::vector<Cycle> stageFree_;
    /**
     * Affine prefix (see the file comment): while affineSpan_ != 0,
     * stage i < affineSpan_ is free at affineBase_ + i * affineSlope_
     * and stageFree_[0, affineSpan_) is stale.
     */
    Cycle affineBase_ = 0;
    Cycle affineSlope_ = 0;
    std::size_t affineSpan_ = 0;
    /** entries_[kind]: resolved KernelCache entry (null until used). */
    std::vector<const KernelCache::Entry *> entries_;
    u64 opCount_ = 0;

    /** Cached tally accumulators (see CostTally::entry); revalidated
     *  against the tally generation because KernelModel clears its
     *  scratch tallies between measured shapes. */
    CostEntry *boolopEntry_ = nullptr;
    CostEntry *ioEntry_ = nullptr;
    u64 tallyGen_ = 0;
};

} // namespace digital
} // namespace darth

#endif // DARTH_DIGITAL_PIPELINE_H
