#include "hct/Hct.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/Logging.h"
#include "digital/KernelCache.h"

namespace darth
{
namespace hct
{

namespace
{

/** Registers reserved in each reduction pipeline. */
constexpr std::size_t kAccVr = 0;     //!< running accumulator
constexpr std::size_t kStageVr = 1;   //!< incoming partial product

int
ceilLog2(u64 n)
{
    int bits = 0;
    while ((u64{1} << bits) < n)
        ++bits;
    return bits;
}

} // namespace

HctConfig
HctConfig::paperDefault(analog::AdcKind adc)
{
    HctConfig cfg;
    // Table 2: 64 pipelines x 64 arrays of 64x64; 64 analog arrays.
    cfg.dce.numPipelines = 64;
    cfg.dce.pipeline.depth = 64;
    cfg.dce.pipeline.width = 64;
    cfg.dce.pipeline.numRegs = 64;
    cfg.ace.numArrays = 64;
    cfg.ace.arrayRows = 64;
    cfg.ace.arrayCols = 64;
    cfg.ace.adc.kind = adc;
    // Table 2 lists "SAR: 2" converters, but §4 also fixes the
    // ACE->DCE network at 8 B/cycle "chosen to rate-match ADC
    // throughput with DCE write bandwidth"; with 1-cycle SAR
    // conversions of 8-bit codes that requires 8 conversion lanes,
    // which is the value we adopt (see docs/benchmarks.md,
    // "Parameter substitutions").
    cfg.ace.numAdcs = adc == analog::AdcKind::Sar ? 8 : 1;
    return cfg;
}

Hct::Hct(const HctConfig &config, CostTally *tally, u64 seed)
    : cfg_(config), tally_(tally), ace_(config.ace, tally, seed),
      dce_(config.dce, tally), arbiter_(config.arbiterSwitchPenalty),
      iiu_(config.iiu), transpose_(config.transpose)
{
}

void
Hct::allocVACore(int element_bits, int bits_per_cell)
{
    if (element_bits <= 0 || bits_per_cell <= 0)
        darth_fatal("Hct::allocVACore: widths must be positive");
    vacore_.elementBits = element_bits;
    vacore_.bitsPerCell = bits_per_cell;
    vacore_.valid = true;
    // Allocating the vACore programs the IIU's shift-and-add table;
    // the cost is the IIU setup charge paid once per MVM sequence.
}

void
Hct::setMatrix(const MatrixI &m, int element_bits, int bits_per_cell)
{
    allocVACore(element_bits, bits_per_cell);
    ace_.setMatrix(m, element_bits, bits_per_cell);
    analogEnabled_ = true;
    const std::size_t pipes_needed = reductionPipes();
    if (pipes_needed > dce_.numPipelines())
        darth_fatal("Hct::setMatrix: reduction needs ", pipes_needed,
                    " pipelines but the DCE has ", dce_.numPipelines());
}

std::size_t
Hct::reductionPipes() const
{
    const std::size_t width = cfg_.dce.pipeline.width;
    return (ace_.matrix().cols() + width - 1) / width;
}

int
Hct::accumulatorBits(int input_bits) const
{
    if (!vacore_.valid)
        darth_fatal("Hct::accumulatorBits: no vACore allocated");
    const int bits = vacore_.elementBits + input_bits +
                     ceilLog2(std::max<u64>(ace_.matrix().rows(), 1)) +
                     1;
    const int depth = static_cast<int>(cfg_.dce.pipeline.depth);
    return std::min(std::min(bits, depth), 63);
}

Hct::MvmResult
Hct::execMvm(const std::vector<i64> &x, int input_bits, Cycle start)
{
    if (!analogEnabled_)
        darth_fatal("Hct::execMvm: the ACE is disabled");
    if (!vacore_.valid)
        darth_fatal("Hct::execMvm: no vACore allocated");

    const Cycle analog_start = arbiter_.acquire(Mode::Analog, start);
    // With shift units on ideal arrays the accumulator comes from one
    // exact product (see Ace.h), so only the last partial product —
    // the one the staging register keeps — needs its codes.
    const bool exact = digitalEnabled_ && cfg_.shiftUnits &&
                       ace_.idealArrays();
    if (exact) {
        ace_.scheduleMvm(x, input_bits, analog_start, stream_);
        ace_.fillValues(x, input_bits, stream_, stream_.size() - 1);
    } else {
        ace_.execMvmInto(x, input_bits, analog_start, stream_);
    }
    ++mvmCount_;

    const std::size_t cols = ace_.matrix().cols();
    MvmResult result;
    if (!digitalEnabled_) {
        // Raw partial products only: legal when no recombination is
        // needed (single plane, single slice, single group).
        if (stream_.size() != 1)
            darth_fatal("Hct::execMvm: DCE post-processing disabled "
                        "but the stream has ", stream_.size(),
                        " partial products");
        result.values = stream_[0].values;
        result.done = stream_[0].readyAt;
        arbiter_.release(result.done);
        return result;
    }

    const std::size_t width = cfg_.dce.pipeline.width;
    const int acc_bits = accumulatorBits(input_bits);

    // Pipeline reserve: mark the accumulator and staging registers
    // dead and clear them (Section 4.2's reserve instruction).
    for (std::size_t p = 0; p < reductionPipes(); ++p) {
        dce_.pipeline(p).clearReg(kAccVr);
        dce_.pipeline(p).clearReg(kStageVr);
    }
    result.done = reduceTiming(analog_start, acc_bits);

    acc_.resize(cols);
    if (cfg_.shiftUnits) {
        reduceValues(x, exact, acc_bits);
    } else {
        // The register-file reduction already ran; read it back.
        for (std::size_t c0 = 0; c0 < cols; c0 += width)
            dce_.pipeline(c0 / width)
                .elements(kAccVr, acc_.data() + c0,
                          std::min(width, cols - c0),
                          static_cast<std::size_t>(acc_bits));
    }

    // Sign-extend the accumulator words.
    result.values.resize(cols);
    for (std::size_t c = 0; c < cols; ++c) {
        i64 value = static_cast<i64>(acc_[c]);
        if ((acc_[c] >> (acc_bits - 1)) & 1ULL)
            value -= i64{1} << acc_bits;
        result.values[c] = value;
    }
    arbiter_.release(result.done);
    return result;
}

Cycle
Hct::reduceTiming(Cycle analog_start, int acc_bits)
{
    const std::size_t cols = ace_.matrix().cols();
    const std::size_t width = cfg_.dce.pipeline.width;
    const std::size_t n_pipes = reductionPipes();
    const std::size_t bits = static_cast<std::size_t>(acc_bits);
    const Cycle setup = iiu_.sequenceSetup();
    portFree_.assign(n_pipes, analog_start + setup);
    Cycle done = analog_start + setup;

    // Shared translation cache, not a fresh synthesis per MVM: only
    // the op count is needed here.
    const digital::BitProgram &add_program =
        digital::KernelCache::instance()
            .macro(digital::MacroKind::Add, cfg_.dce.pipeline.family)
            .program;
    const u64 uops_per_add =
        static_cast<u64>(add_program.opCount()) * static_cast<u64>(bits);
    // Resolved once per MVM, like the ACE's own accumulators: the
    // per-partial-product charge below skips the string-keyed lookup.
    CostEntry *t_network =
        tally_ != nullptr ? &tally_->entry("hct.network") : nullptr;
    const u64 mask = (u64{1} << acc_bits) - 1;

    for (const auto &pp : stream_) {
        const digital::MacroKind kind = pp.negate
                                            ? digital::MacroKind::Sub
                                            : digital::MacroKind::Add;
        for (std::size_t p = 0; p < n_pipes; ++p) {
            const std::size_t c0 = p * width;
            const std::size_t n = std::min(width, cols - c0);

            // --- Transfer: ADC outputs stream over the network into
            // DCE rows, one row per cycle, overlapped with the
            // conversion window. The transpose unit turns the analog
            // row vector into column elements on the fly.
            const Cycle write_begin = std::max(portFree_[p], pp.convStart);
            Cycle write_done =
                std::max(pp.readyAt, write_begin + static_cast<Cycle>(n));
            if (!cfg_.transpose.enabled) {
                // DCE-emulated transpose: extra element-wise copies.
                write_done += transpose_.transposeCost(1, n, acc_bits);
            }
            portFree_[p] = write_done;

            if (t_network != nullptr) {
                const u64 bytes =
                    static_cast<u64>(n) *
                    ((static_cast<u64>(cfg_.ace.adc.bits) + 7) / 8);
                t_network->events += 1;
                t_network->cycles += n;
                t_network->energy += static_cast<double>(bytes) *
                                     cfg_.networkEnergyPerBytePJ;
            }

            // --- Placement and reduction: with shift units the value
            // lands pre-shifted and only the ADD/SUB's cost is charged
            // here (the values half runs once per MVM in execMvm).
            // Without them the DCE writes, then shifts with Boolean
            // µops (Figure 10a), serializing, and the ADD/SUB runs
            // functionally in the register file. Either way it is
            // issued by the IIU (or stalled through the front end).
            digital::Pipeline &pipe = dce_.pipeline(p);
            Cycle ready = write_done;
            if (!cfg_.shiftUnits) {
                u64 staged[64];
                for (std::size_t e = 0; e < n; ++e)
                    staged[e] = static_cast<u64>(pp.values[c0 + e]) & mask;
                pipe.setElements(kStageVr, staged, n, bits);
                ready = pipe.execShift(kStageVr, kStageVr,
                                       static_cast<std::size_t>(pp.shift),
                                       true, bits, write_done);
            }
            const Cycle issue = ready + iiu_.issueOverhead(uops_per_add);
            iiu_.recordInjected(cfg_.iiu.enabled ? uops_per_add : 0);
            const Cycle add_done =
                cfg_.shiftUnits
                    ? pipe.timeMacro(kind, bits, issue)
                    : pipe.execMacro(kind, kAccVr, kAccVr, kStageVr, bits,
                                     issue);
            done = std::max(done, add_done);
        }
    }
    return done;
}

void
Hct::reduceValues(const std::vector<i64> &x, bool exact, int acc_bits)
{
    const u64 mask = (u64{1} << acc_bits) - 1;
    if (exact) {
        ace_.exactProduct(x, acc_.data());
        for (u64 &word : acc_)
            word &= mask;
    } else {
        std::fill(acc_.begin(), acc_.end(), u64{0});
        for (const auto &pp : stream_) {
            for (std::size_t c = 0; c < acc_.size(); ++c) {
                const u64 staged =
                    static_cast<u64>(pp.values[c] << pp.shift) & mask;
                acc_[c] = (pp.negate ? acc_[c] - staged
                                     : acc_[c] + staged) &
                          mask;
            }
        }
    }

    // Materialize the register file once: the accumulator words, and
    // the last partial product staged as the ADD/SUBs left it.
    const std::size_t width = cfg_.dce.pipeline.width;
    const std::size_t bits = static_cast<std::size_t>(acc_bits);
    const analog::PartialProduct &last = stream_.back();
    for (std::size_t c0 = 0; c0 < acc_.size(); c0 += width) {
        const std::size_t n = std::min(width, acc_.size() - c0);
        u64 staged[64];
        for (std::size_t e = 0; e < n; ++e)
            staged[e] =
                static_cast<u64>(last.values[c0 + e] << last.shift) & mask;
        digital::Pipeline &pipe = dce_.pipeline(c0 / width);
        pipe.setElements(kStageVr, staged, n, bits);
        pipe.setElements(kAccVr, acc_.data() + c0, n, bits);
    }
}

Cycle
Hct::disableAnalogMode(Cycle start)
{
    if (!analogEnabled_)
        return start;
    analogEnabled_ = false;
    if (!ace_.hasMatrix())
        return start;
    // Copy the matrix from the analog arrays into DCE registers: one
    // transpose per column tile plus the row writes.
    const auto &m = ace_.matrix();
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle cost =
        transpose_.transposeCost(m.rows(), m.cols(),
                                 static_cast<std::size_t>(
                                     vacore_.elementBits)) +
        static_cast<Cycle>(m.rows());
    const Cycle done = begin + cost;
    arbiter_.release(done);
    return done;
}

Cycle
Hct::digitalMacro(std::size_t pipe, digital::MacroKind kind,
                  std::size_t dst, std::size_t a, std::size_t b,
                  std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done =
        dce_.pipeline(pipe).execMacro(kind, dst, a, b, bits, begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::digitalShift(std::size_t pipe, std::size_t dst, std::size_t src,
                  std::size_t k, bool up, std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done =
        dce_.pipeline(pipe).execShift(dst, src, k, up, bits, begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::digitalRotate(std::size_t pipe, std::size_t vr, std::size_t k,
                   std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done =
        dce_.pipeline(pipe).execRotate(vr, k, bits, begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::digitalSelect(std::size_t pipe, std::size_t dst, std::size_t a,
                   std::size_t b, std::size_t sel_vr,
                   std::size_t sel_bit, std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done = dce_.pipeline(pipe).execSelect(
        dst, a, b, sel_vr, sel_bit, bits, begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::elementLoad(std::size_t pipe, std::size_t dst, std::size_t addr_vr,
                 std::size_t table_pipe, std::size_t table_base_vr,
                 std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done = dce_.pipeline(pipe).elementLoad(
        dst, addr_vr, dce_.pipeline(table_pipe), table_base_vr, bits,
        begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::elementStore(std::size_t pipe, std::size_t src, std::size_t addr_vr,
                  std::size_t table_pipe, std::size_t table_base_vr,
                  std::size_t bits, Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    const Cycle done = dce_.pipeline(pipe).elementStore(
        src, addr_vr, dce_.pipeline(table_pipe), table_base_vr, bits,
        begin);
    arbiter_.release(done);
    return done;
}

Cycle
Hct::loadVector(std::size_t pipe, std::size_t vr,
                const std::vector<i64> &values, std::size_t bits,
                Cycle start)
{
    const Cycle begin = arbiter_.acquire(Mode::Digital, start);
    digital::Pipeline &p = dce_.pipeline(pipe);
    const u64 mask = bits >= 64 ? ~0ULL : ((u64{1} << bits) - 1);
    Cycle t = begin;
    for (std::size_t e = 0; e < values.size(); ++e)
        t = p.writeRow(vr, e, static_cast<u64>(values[e]) & mask, 0,
                       bits, t);
    arbiter_.release(t);
    return t;
}

std::vector<i64>
Hct::readVector(std::size_t pipe, std::size_t vr,
                std::size_t bits) const
{
    const digital::Pipeline &p =
        static_cast<const digital::Dce &>(dce_).pipeline(pipe);
    std::vector<i64> out(p.config().width);
    for (std::size_t e = 0; e < out.size(); ++e) {
        const u64 raw = p.element(vr, e, bits);
        i64 value = static_cast<i64>(raw);
        if (bits < 64 && bits > 0 && ((raw >> (bits - 1)) & 1ULL))
            value -= i64{1} << bits;
        out[e] = value;
    }
    return out;
}

} // namespace hct
} // namespace darth
