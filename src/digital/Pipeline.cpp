#include "digital/Pipeline.h"

#include <algorithm>

#include "common/Logging.h"

namespace darth
{
namespace digital
{

Pipeline::Pipeline(const PipelineConfig &config, CostTally *tally)
    : cfg_(config), family_(config.family), tally_(tally),
      stageFree_(config.depth, 0)
{
    if (cfg_.depth == 0 || cfg_.width == 0 || cfg_.numRegs == 0)
        darth_fatal("Pipeline: zero-sized configuration");
    if (cfg_.width > 64)
        darth_fatal("Pipeline: width > 64 elements per array is not "
                    "supported by the row I/O model");
    bits_.resize(cfg_.numRegs);
    for (auto &reg : bits_)
        reg.assign(cfg_.depth, BitVector(cfg_.width));
}

void
Pipeline::checkReg(std::size_t vr) const
{
    if (vr >= cfg_.numRegs)
        darth_panic("Pipeline: VR ", vr, " out of range ", cfg_.numRegs);
}

void
Pipeline::checkElem(std::size_t elem) const
{
    if (elem >= cfg_.width)
        darth_panic("Pipeline: element ", elem, " out of range ",
                    cfg_.width);
}

void
Pipeline::setElement(std::size_t vr, std::size_t elem, u64 value)
{
    checkReg(vr);
    checkElem(elem);
    for (std::size_t bit = 0; bit < cfg_.depth; ++bit)
        bits_[vr][bit].set(elem, bit < 64 && ((value >> bit) & 1ULL));
}

void
Pipeline::setElement(std::size_t vr, std::size_t elem, u64 value,
                     std::size_t bits)
{
    checkReg(vr);
    checkElem(elem);
    const std::size_t n = std::min(bits, cfg_.depth);
    for (std::size_t bit = 0; bit < n; ++bit)
        bits_[vr][bit].set(elem, bit < 64 && ((value >> bit) & 1ULL));
}

namespace
{

/**
 * One level of the recursive block-swap transpose: in every 2J x 2J
 * block, swap the top-right J x J quadrant (rows k, bits J..2J-1) with
 * the bottom-left one (rows k+J, bits 0..J-1). M selects the low J bits
 * of each 2J-bit group. A fixed J gives the inner loop a fixed trip
 * count, so it vectorizes.
 */
template <std::size_t J, u64 M>
void
transposeLevel(u64 a[64])
{
    for (std::size_t k0 = 0; k0 < 64; k0 += 2 * J) {
        for (std::size_t k = k0; k < k0 + J; ++k) {
            const u64 t = ((a[k] >> J) ^ a[k + J]) & M;
            a[k] ^= t << J;
            a[k + J] ^= t;
        }
    }
}

/**
 * Main-diagonal 64x64 bit transpose: out[b] bit e == in[e] bit b. The
 * transform is an involution, so one function serves write and
 * readback.
 */
void
bitTranspose(const u64 in[64], u64 out[64])
{
    u64 a[64];
    std::copy(in, in + 64, a);
    transposeLevel<32, 0x00000000FFFFFFFFULL>(a);
    transposeLevel<16, 0x0000FFFF0000FFFFULL>(a);
    transposeLevel<8, 0x00FF00FF00FF00FFULL>(a);
    transposeLevel<4, 0x0F0F0F0F0F0F0F0FULL>(a);
    transposeLevel<2, 0x3333333333333333ULL>(a);
    transposeLevel<1, 0x5555555555555555ULL>(a);
    std::copy(a, a + 64, out);
}

} // namespace

void
Pipeline::setElements(std::size_t vr, const u64 *values,
                      std::size_t count, std::size_t bits)
{
    checkReg(vr);
    if (count > cfg_.width)
        darth_panic("Pipeline: ", count, " elements out of range ",
                    cfg_.width);
    u64 in[64] = {0};
    for (std::size_t e = 0; e < count; ++e)
        in[e] = values[e];
    u64 columns[64];
    bitTranspose(in, columns);
    const u64 elem_mask =
        count >= 64 ? ~u64{0} : ((u64{1} << count) - 1);
    const std::size_t n = std::min(bits, cfg_.depth);
    for (std::size_t bit = 0; bit < n && bit < 64; ++bit) {
        BitVector &column = bits_[vr][bit];
        column.setWord((column.toInteger() & ~elem_mask) |
                       (columns[bit] & elem_mask));
    }
    // A u64 value has no bits past 64: the per-element loop writes
    // explicit zeros there, so the batch form must too.
    for (std::size_t bit = 64; bit < n; ++bit) {
        BitVector &column = bits_[vr][bit];
        column.setWord(column.toInteger() & ~elem_mask);
    }
}

void
Pipeline::elements(std::size_t vr, u64 *out, std::size_t count,
                   std::size_t bits) const
{
    checkReg(vr);
    if (count > cfg_.width)
        darth_panic("Pipeline: ", count, " elements out of range ",
                    cfg_.width);
    u64 columns[64] = {0};
    const std::size_t n =
        std::min<std::size_t>({bits, cfg_.depth, 64});
    for (std::size_t bit = 0; bit < n; ++bit)
        columns[bit] = bits_[vr][bit].toInteger();
    u64 values[64];
    bitTranspose(columns, values);
    for (std::size_t e = 0; e < count; ++e)
        out[e] = values[e];
}

u64
Pipeline::element(std::size_t vr, std::size_t elem,
                  std::size_t bits) const
{
    checkReg(vr);
    checkElem(elem);
    u64 value = 0;
    const std::size_t n = std::min<std::size_t>({bits, cfg_.depth, 64});
    for (std::size_t bit = 0; bit < n; ++bit)
        if (bits_[vr][bit].get(elem))
            value |= 1ULL << bit;
    return value;
}

void
Pipeline::writeReg(std::size_t vr, const u64 *values, std::size_t count,
                   std::size_t bits)
{
    checkReg(vr);
    if (count > cfg_.width)
        darth_panic("Pipeline: ", count, " elements out of range ",
                    cfg_.width);
    u64 in[64] = {0};
    for (std::size_t e = 0; e < count; ++e)
        in[e] = values[e];
    u64 columns[64];
    bitTranspose(in, columns);
    const std::size_t n = std::min<std::size_t>({bits, cfg_.depth, 64});
    std::vector<BitVector> &reg = bits_[vr];
    for (std::size_t bit = 0; bit < n; ++bit)
        reg[bit].setWord(columns[bit]);
    for (std::size_t bit = n; bit < cfg_.depth; ++bit)
        reg[bit].setWord(0);
}

void
Pipeline::clearReg(std::size_t vr)
{
    checkReg(vr);
    for (auto &column : bits_[vr])
        column.fill(false);
}

void
Pipeline::revalidateTally()
{
    if (tallyGen_ != tally_->generation()) {
        tallyGen_ = tally_->generation();
        boolopEntry_ = nullptr;
        ioEntry_ = nullptr;
    }
}

void
Pipeline::recordOps(u64 column_ops)
{
    opCount_ += column_ops;
    chargeOps(&column_ops, 1, 1);
}

void
Pipeline::chargeOps(const u64 *column_ops, std::size_t count,
                    std::size_t copies)
{
    if (tally_ == nullptr)
        return;
    revalidateTally();
    if (boolopEntry_ == nullptr)
        boolopEntry_ = &tally_->entry("dce.boolop");
    CostEntry &entry = *boolopEntry_;
    // Runs of equal op counts (an MVM's ADDs, then its SUBs) charge
    // one repeated add each.
    for (std::size_t i = 0, run = 0; i < count; i += run) {
        run = 1;
        while (i + run < count && column_ops[i + run] == column_ops[i])
            ++run;
        const u64 charges = static_cast<u64>(run) * copies;
        entry.events += column_ops[i] * charges;
        entry.cycles += column_ops[i] * charges;
        addRepeated(entry.energy,
                    static_cast<double>(column_ops[i]) * cfg_.opEnergyPJ,
                    charges);
    }
}

void
Pipeline::recordIo(u64 accesses)
{
    if (tally_ == nullptr)
        return;
    revalidateTally();
    if (ioEntry_ == nullptr)
        ioEntry_ = &tally_->entry("dce.io");
    ioEntry_->events += accesses;
    ioEntry_->cycles += accesses;
    ioEntry_->energy += static_cast<double>(accesses) * cfg_.ioEnergyPJ;
}

Cycle
Pipeline::reserveStages(std::size_t bits, Cycle issue,
                        Cycle ops_per_stage, bool carry_chained)
{
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    // A chained macro over the affine prefix: closed form (see the
    // file comment).
    if (carry_chained && affineSpan_ != 0 && bits == affineSpan_ &&
        ops_per_stage >= affineSlope_) {
        const Cycle start = std::max(issue, affineBase_);
        affineBase_ = start + ops_per_stage;
        affineSlope_ = ops_per_stage;
        return start + bits * ops_per_stage;
    }
    materializeStages();
    // Control hands the macro to successive arrays one cycle apart; a
    // carry chain additionally forces stage i to wait for stage i-1's
    // full completion.
    Cycle prev_start = issue;
    Cycle prev_done = issue;
    Cycle completion = issue;
    bool stalled = false;
    for (std::size_t i = 0; i < bits; ++i) {
        const Cycle ready =
            carry_chained ? std::max(issue, prev_done)
                          : std::max(issue, prev_start + (i > 0 ? 1 : 0));
        const Cycle start = std::max(ready, stageFree_[i]);
        stalled = stalled || (i > 0 && start > ready);
        const Cycle done = start + ops_per_stage;
        stageFree_[i] = done;
        prev_start = start;
        prev_done = done;
        completion = std::max(completion, done);
    }
    // No stall past stage 0: stage i is now free at stageFree_[0] +
    // i * ops_per_stage, so the next matching macro takes the closed
    // form.
    if (carry_chained && bits != 0 && !stalled) {
        affineBase_ = stageFree_[0];
        affineSlope_ = ops_per_stage;
        affineSpan_ = bits;
    }
    return completion;
}

bool
Pipeline::affineOver(std::size_t bits, Cycle &base, Cycle &slope) const
{
    if (bits == 0 || bits > cfg_.depth)
        return false;
    if (affineSpan_ == bits) {
        base = affineBase_;
        slope = affineSlope_;
        return true;
    }
    const auto free_at = [this](std::size_t i) {
        return i < affineSpan_ ? affineBase_ + i * affineSlope_
                               : stageFree_[i];
    };
    base = free_at(0);
    slope = bits > 1 ? free_at(1) - base : 0;
    if (bits > 1 && free_at(1) < base)
        return false;
    for (std::size_t i = 2; i < bits; ++i)
        if (free_at(i) != base + i * slope)
            return false;
    return true;
}

bool
Pipeline::chainEntry(const MacroChain &chain, Cycle &base) const
{
    Cycle slope = 0;
    return chain.closed && chain.length != 0 &&
           affineOver(chain.bits, base, slope) && slope <= chain.lastOps;
}

bool
Pipeline::chainFits(const MacroChain &chain) const
{
    Cycle base = 0;
    return chainEntry(chain, base);
}

Cycle
Pipeline::reserveChain(const MacroChain &chain, Cycle start)
{
    Cycle base = 0;
    if (!chainEntry(chain, base))
        darth_panic("Pipeline::reserveChain: the stages are not affine "
                    "over the chain's ", chain.bits, " bits");
    if (affineSpan_ != chain.bits) {
        materializeStages();
        affineSpan_ = chain.bits;
    }
    affineBase_ = std::max(start + chain.issueLast, base + chain.runLast) +
                  chain.lastOps;
    affineSlope_ = chain.lastOps;
    opCount_ += chain.columnOps;
    return std::max(start + chain.issuePeak, base + chain.runPeak);
}

void
Pipeline::materializeStages()
{
    for (std::size_t i = 0; i < affineSpan_; ++i)
        stageFree_[i] = affineBase_ + i * affineSlope_;
    affineSpan_ = 0;
}

void
Pipeline::runProgram(const KernelCache::Entry &entry, std::size_t dst,
                     std::size_t a, std::size_t b, std::size_t bits,
                     BitVector carry_in, bool chain_carry)
{
    // A column holds at most 64 elements (enforced at construction),
    // so the gate program evaluates on packed words — column i of
    // every scratch register is one u64. Masking each op to the
    // width reproduces the column-vector evaluation bit for bit.
    const u64 width_mask =
        cfg_.width == 64 ? ~0ULL : ((1ULL << cfg_.width) - 1);
    u64 carry = carry_in.toInteger();

    // The compiled truth-table kernel: a fixed handful of word
    // operations per bit column, whatever the gate program's length.
    const CompiledKernel &kernel = entry.kernel;
    for (std::size_t bit = 0; bit < bits; ++bit) {
        const u64 wa = bits_[a][bit].toInteger();
        const u64 wb = bits_[b][bit].toInteger();
        const u64 out = kernel.evalResult(wa, wb, carry) & width_mask;
        if (chain_carry && kernel.hasCarry)
            carry = kernel.evalCarry(wa, wb, carry) & width_mask;
        bits_[dst][bit].setWord(out);
    }
}

const KernelCache::Entry &
Pipeline::cachedEntry(MacroKind kind)
{
    const std::size_t index = static_cast<std::size_t>(kind);
    if (entries_.size() <= index)
        entries_.resize(index + 1, nullptr);
    if (entries_[index] == nullptr)
        entries_[index] = &KernelCache::instance().macro(kind,
                                                         cfg_.family);
    return *entries_[index];
}

Cycle
Pipeline::execMacro(MacroKind kind, std::size_t dst, std::size_t a,
                    std::size_t b, std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    const KernelCache::Entry &entry = cachedEntry(kind);
    const BitProgram &program = entry.program;
    runProgram(entry, dst, a, b, bits,
               BitVector(cfg_.width, initialCarry(kind)),
               program.hasCarryChain());
    recordOps(static_cast<u64>(program.opCount()) * bits);
    return reserveStages(bits, issue, program.opCount(),
                         program.hasCarryChain());
}

Cycle
Pipeline::timeMacro(MacroKind kind, std::size_t bits, Cycle issue)
{
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    const KernelCache::Entry &entry = cachedEntry(kind);
    const BitProgram &program = entry.program;
    recordOps(static_cast<u64>(program.opCount()) * bits);
    return reserveStages(bits, issue, program.opCount(),
                         program.hasCarryChain());
}

Cycle
Pipeline::execSelect(std::size_t dst, std::size_t a, std::size_t b,
                     std::size_t sel_vr, std::size_t sel_bit,
                     std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(a);
    checkReg(b);
    checkReg(sel_vr);
    if (bits > cfg_.depth)
        darth_panic("Pipeline: macro over ", bits,
                    " bits exceeds depth ", cfg_.depth);
    const KernelCache::Entry &entry = cachedEntry(MacroKind::Mux);
    const BitProgram &program = entry.program;
    runProgram(entry, dst, a, b, bits, bits_[sel_vr][sel_bit], false);
    // +1 op per stage to broadcast the select column into the stage.
    const Cycle per_stage = program.opCount() + 1;
    recordOps(per_stage * bits);
    return reserveStages(bits, issue, per_stage, false);
}

Cycle
Pipeline::execShift(std::size_t dst, std::size_t src, std::size_t k,
                    bool up, std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(src);
    if (bits > cfg_.depth)
        darth_panic("Pipeline: shift over ", bits, " bits exceeds depth");

    // Functional: move bit columns by k positions.
    std::vector<BitVector> out(cfg_.depth, BitVector(cfg_.width));
    for (std::size_t bit = 0; bit < bits; ++bit) {
        if (up) {
            if (bit + k < cfg_.depth)
                out[bit + k] = bits_[src][bit];
        } else {
            if (bit >= k)
                out[bit - k] = bits_[src][bit];
        }
    }
    for (std::size_t bit = 0; bit < cfg_.depth; ++bit)
        bits_[dst][bit] = out[bit];

    // Timing: each stage reads its column into the inter-array buffer
    // and the receiving stage writes it (2 accesses per hop), flowing
    // along the pipeline like a non-chained macro.
    const Cycle per_stage = 2 * std::max<std::size_t>(k, 1);
    recordOps(per_stage * bits);
    return reserveStages(bits, issue, per_stage, false);
}

Cycle
Pipeline::execRotate(std::size_t vr, std::size_t k, std::size_t bits,
                     Cycle issue)
{
    checkReg(vr);
    if (bits == 0 || k >= bits)
        darth_panic("Pipeline: bad rotate k=", k, " bits=", bits);

    // Functional: cyclic rotate of each element's low `bits` bits.
    std::vector<BitVector> rotated(bits, BitVector(cfg_.width));
    for (std::size_t bit = 0; bit < bits; ++bit)
        rotated[(bit + k) % bits] = bits_[vr][bit];
    for (std::size_t bit = 0; bit < bits; ++bit)
        bits_[vr][bit] = rotated[bit];

    // Timing (§5.3): drain the whole pipeline, switch to reverse
    // propagation, right-shift by (bits - k), then restore direction.
    materializeStages();
    const Cycle drained = std::max(issue, drainTime());
    const Cycle shift_cost = 2 * (bits - k);
    const Cycle done = drained + cfg_.depth + shift_cost + cfg_.depth;
    for (auto &stage : stageFree_)
        stage = std::max(stage, done);
    recordOps(shift_cost * bits + 2 * bits);
    return done;
}

Cycle
Pipeline::writeRow(std::size_t vr, std::size_t elem, u64 value,
                   std::size_t lo_bit, std::size_t bits, Cycle when)
{
    checkReg(vr);
    checkElem(elem);
    if (lo_bit + bits > cfg_.depth)
        darth_panic("Pipeline::writeRow: bits [", lo_bit, ", ",
                    lo_bit + bits, ") exceed depth ", cfg_.depth);
    for (std::size_t i = 0; i < bits; ++i)
        bits_[vr][lo_bit + i].set(elem, (value >> i) & 1ULL);
    recordIo(1);
    return when + 1;        // the DCE write port moves one row/cycle
}

u64
Pipeline::readRow(std::size_t vr, std::size_t elem, Cycle when)
{
    (void)when;
    recordIo(1);
    return element(vr, elem, cfg_.depth);
}

Cycle
Pipeline::elementLoad(std::size_t dst, std::size_t addr_vr,
                      const Pipeline &table, std::size_t table_base_vr,
                      std::size_t bits, Cycle issue)
{
    checkReg(dst);
    checkReg(addr_vr);
    materializeStages();
    Cycle t = std::max(issue, drainTime());
    for (std::size_t elem = 0; elem < cfg_.width; ++elem) {
        const u64 addr = element(addr_vr, elem, bits);
        const std::size_t entry_vr =
            table_base_vr +
            static_cast<std::size_t>(addr) / table.cfg_.width;
        const std::size_t entry_row =
            static_cast<std::size_t>(addr) % table.cfg_.width;
        if (entry_vr >= table.cfg_.numRegs)
            darth_panic("Pipeline::elementLoad: address ", addr,
                        " overflows the table registers");
        const u64 value = table.element(entry_vr, entry_row, bits);
        setElement(dst, elem, value);
        t += 3;              // address read, table read, write-back
        recordIo(3);
    }
    for (auto &stage : stageFree_)
        stage = std::max(stage, t);
    return t;
}

Cycle
Pipeline::elementStore(std::size_t src, std::size_t addr_vr,
                       Pipeline &table, std::size_t table_base_vr,
                       std::size_t bits, Cycle issue)
{
    checkReg(src);
    checkReg(addr_vr);
    materializeStages();
    Cycle t = std::max(issue, drainTime());
    for (std::size_t elem = 0; elem < cfg_.width; ++elem) {
        const u64 addr = element(addr_vr, elem, bits);
        const std::size_t entry_vr =
            table_base_vr +
            static_cast<std::size_t>(addr) / table.cfg_.width;
        const std::size_t entry_row =
            static_cast<std::size_t>(addr) % table.cfg_.width;
        if (entry_vr >= table.cfg_.numRegs)
            darth_panic("Pipeline::elementStore: address ", addr,
                        " overflows the table registers");
        table.setElement(entry_vr, entry_row, element(src, elem, bits));
        t += 3;
        recordIo(3);
    }
    for (auto &stage : stageFree_)
        stage = std::max(stage, t);
    return t;
}

Cycle
Pipeline::drainTime() const
{
    // The affine prefix is non-decreasing, so its last stage is its
    // latest.
    Cycle latest = affineSpan_ != 0
                       ? affineBase_ + (affineSpan_ - 1) * affineSlope_
                       : 0;
    for (std::size_t i = affineSpan_; i < stageFree_.size(); ++i)
        latest = std::max(latest, stageFree_[i]);
    return latest;
}

} // namespace digital
} // namespace darth
