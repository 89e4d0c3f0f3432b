/**
 * @file
 * Per-layer cells: each times one public library call in a fixed
 * loop, with the shapes the workloads use — the ResNet chip's
 * 128x64 arrays at 2 bits per cell and a 3x3x16 -> 16 conv layer
 * (144x16, 8-bit) for reram/analog/hct/digital/runtime, and
 * serve-shaped journal records for the journal cells.
 */

#include <filesystem>
#include <string>
#include <vector>

#include "Common.h"
#include "analog/Ace.h"
#include "analog/Crossbar.h"
#include "common/Matrix.h"
#include "common/Random.h"
#include "digital/KernelCache.h"
#include "digital/Pipeline.h"
#include "hct/Hct.h"
#include "journal/Journal.h"
#include "journal/Segment.h"
#include "runtime/Runtime.h"

namespace perfbench
{

namespace
{

using namespace darth;
namespace fs = std::filesystem;

MatrixI
randomMatrix(std::size_t rows, std::size_t cols, i64 lo, i64 hi, u64 seed)
{
    Rng rng(seed);
    MatrixI m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniformInt(lo, hi);
    return m;
}

std::vector<i64>
randomInputs(std::size_t n, int bits, u64 seed)
{
    Rng rng(seed);
    const i64 hi = (i64{1} << (bits - 1)) - 1;
    const i64 lo = bits == 1 ? 0 : -hi - 1;
    std::vector<i64> x(n);
    for (auto &v : x)
        v = rng.uniformInt(lo, bits == 1 ? i64{1} : hi);
    return x;
}

/** The ResNet chip's tile (infer_resnet20's configuration). */
hct::HctConfig
resnetTile()
{
    hct::HctConfig cfg;
    cfg.dce.numPipelines = 2;
    cfg.dce.pipeline.depth = 64;
    cfg.dce.pipeline.width = 64;
    cfg.dce.pipeline.numRegs = 8;
    cfg.ace.numArrays = 64;
    cfg.ace.arrayRows = 128;
    cfg.ace.arrayCols = 64;
    return cfg;
}

constexpr std::size_t kConvRows = 144;
constexpr std::size_t kConvCols = 16;

/** Captures appended records so a writer can be timed alone. */
struct Capture : journal::JournalSink
{
    struct Rec
    {
        journal::JournalEvent event;
        std::size_t index;
        u64 checksum;
        std::vector<unsigned char> encoded;
    };
    std::vector<Rec> recs;

    void
    onRecord(const journal::JournalEvent &event, std::size_t index,
             u64 checksum,
             const std::vector<unsigned char> &encoded) override
    {
        recs.push_back({event, index, checksum, encoded});
    }
};

struct NullSink : journal::JournalSink
{
    void
    onRecord(const journal::JournalEvent &, std::size_t, u64,
             const std::vector<unsigned char> &) override
    {
    }
};

/** A serve-shaped Complete record (8-word payload). */
journal::JournalEvent
completeEvent(std::size_t i)
{
    journal::JournalEvent e;
    e.kind = journal::EventKind::Complete;
    e.cycle = 1000 + i * 37;
    e.a = i;
    e.b = i % 24;
    e.c = i % 64;
    e.d = 0x9E3779B97F4A7C15ULL * (i + 1);
    e.values = {static_cast<i64>(i), 7, -3, 11, 0, 5, 2, -9};
    return e;
}

/** Reference-host CPU ns of one Hct::execMvm on a tile of `cfg`
 *  holding a random rows x cols matrix, issued back to back as a
 *  stream does. */
double
hctMvmNs(const hct::HctConfig &cfg, std::size_t rows, std::size_t cols,
         int element_bits, int bits_per_cell, int input_bits)
{
    CostTally tally;
    hct::Hct tile(cfg, &tally, 5);
    const i64 hi = (i64{1} << (element_bits - 1)) - 1;
    tile.setMatrix(randomMatrix(rows, cols, element_bits == 1 ? 0 : -hi,
                                element_bits == 1 ? 1 : hi, 11),
                   element_bits, bits_per_cell);
    const std::vector<i64> x = randomInputs(rows, input_bits, 12);
    Cycle at = 0;
    constexpr std::size_t kOps = 20;
    return cellNs(
        [&] {
            for (std::size_t i = 0; i < kOps; ++i)
                at = tile.execMvm(x, input_bits, at).done;
        },
        kOps);
}

} // namespace

double
cellNs(const std::function<void()> &batch, std::size_t ops)
{
    batch();
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        meter::Interval iv;
        iv.start = cpuSeconds();
        batch();
        iv.end = cpuSeconds();
        samples.push_back(meter::normalizedCpu(iv) * 1e9 /
                          static_cast<double>(ops));
    }
    return median(samples);
}

void
runLayerCells(const std::string &workDir, Result &r)
{
    const hct::HctConfig tile = resnetTile();

    // reram + analog: one 128x64 array at 2 bits per cell.
    {
        const MatrixI w = randomMatrix(64, 64, -3, 3, 1);
        analog::Crossbar xb(tile.ace.arrayRows, tile.ace.arrayCols, 2);
        r.metrics["reram.program_ns"] =
            cellNs([&] { xb.programSigned(w); }, 1);
        std::vector<double> levels(64);
        std::vector<int> bits(64);
        Rng rng(2);
        for (std::size_t i = 0; i < 64; ++i) {
            bits[i] = rng.bernoulli(0.5);
            levels[i] = static_cast<double>(rng.uniformInt(i64{0}, i64{3}));
        }
        constexpr std::size_t kOps = 200;
        std::vector<double> scratch, out;
        r.metrics["analog.xbar_solve_ns"] = cellNs(
            [&] {
                for (std::size_t i = 0; i < kOps; ++i)
                    out = xb.mvm(levels);
            },
            kOps);
        r.metrics["analog.xbar_bit_mvm_ns"] = cellNs(
            [&] {
                for (std::size_t i = 0; i < kOps; ++i)
                    xb.mvmBitInputInto(bits, scratch, out);
            },
            kOps);
    }

    // analog: the ACE's bit-serial MVM on the conv shape.
    {
        CostTally tally;
        analog::Ace ace(tile.ace, &tally, 3);
        ace.setMatrix(randomMatrix(kConvRows, kConvCols, -127, 127, 4), 8,
                      2);
        const std::vector<i64> x = randomInputs(kConvRows, 8, 5);
        Cycle at = 0;
        constexpr std::size_t kOps = 20;
        r.metrics["analog.ace_mvm_ns"] = cellNs(
            [&] {
                for (std::size_t i = 0; i < kOps; ++i)
                    at = ace.execMvm(x, 8, at).back().readyAt;
            },
            kOps);
    }

    // hct: the whole hybrid MVM (ACE + DCE reduction) on that shape.
    r.metrics["hct.mvm_ns"] = hctMvmNs(tile, kConvRows, kConvCols, 8, 2, 8);

    // digital: the ADC->DCE staging transpose and one Add macro.
    {
        CostTally tally;
        digital::Pipeline pipe(tile.dce.pipeline, &tally);
        std::vector<u64> values(64);
        for (std::size_t i = 0; i < values.size(); ++i)
            values[i] = (i * 2654435761u) & 0xffffff;
        constexpr std::size_t kOps = 500;
        r.metrics["digital.set_elements_ns"] = cellNs(
            [&] {
                for (std::size_t i = 0; i < kOps; ++i)
                    pipe.setElements(i % 2, values.data(), 64, 24);
            },
            kOps);
        Cycle at = 0;
        r.metrics["digital.macro_ns"] = cellNs(
            [&] {
                for (std::size_t i = 0; i < kOps; ++i)
                    at = pipe.execMacro(digital::MacroKind::Add, 2, 0, 1,
                                        24, at);
            },
            kOps);
    }

    // runtime: one Session submit + wait through the scheduler.
    {
        runtime::ChipConfig cfg;
        cfg.hct = tile;
        cfg.numHcts = 2;
        runtime::Chip chip(cfg);
        runtime::Runtime rt(chip);
        runtime::Session session = rt.createSession();
        const runtime::MatrixHandle h = session.setMatrixBits(
            randomMatrix(kConvRows, kConvCols, -127, 127, 6), 8, 2);
        const std::vector<i64> x = randomInputs(kConvRows, 8, 7);
        constexpr std::size_t kOps = 20;
        r.metrics["runtime.submit_wait_ns"] = cellNs(
            [&] {
                for (std::size_t i = 0; i < kOps; ++i)
                    session.wait(session.submit(h, x, 8));
            },
            kOps);
    }

    // journal: append (chain + encode), segment write, segment read.
    {
        constexpr std::size_t kOps = 20000;
        std::vector<journal::JournalEvent> events;
        for (std::size_t i = 0; i < kOps; ++i)
            events.push_back(completeEvent(i));
        NullSink null_sink;
        r.metrics["journal.append_ns"] = cellNs(
            [&] {
                journal::Journal jr;
                jr.attachSink(&null_sink, /*retainEvents*/ false);
                for (const journal::JournalEvent &e : events)
                    jr.append(e);
            },
            kOps);

        Capture capture;
        {
            journal::Journal jr;
            jr.attachSink(&capture, /*retainEvents*/ false);
            for (const journal::JournalEvent &e : events)
                jr.append(e);
        }
        const fs::path root =
            fs::path(workDir) / "cells-journal";
        fs::remove_all(root);
        int round = 0;
        std::string last;
        r.metrics["journal.segment_write_ns"] = cellNs(
            [&] {
                last = (root / std::to_string(round++)).string();
                journal::SegmentWriter writer(last);
                for (const Capture::Rec &rec : capture.recs)
                    writer.onRecord(rec.event, rec.index, rec.checksum,
                                    rec.encoded);
                writer.finish();
            },
            kOps);
        r.metrics["journal.segment_read_ns"] = cellNs(
            [&] {
                journal::SegmentReader reader(last);
                journal::JournalEvent e;
                while (reader.next(e)) {
                }
            },
            kOps);
        fs::remove_all(root);
    }
}

} // namespace perfbench
