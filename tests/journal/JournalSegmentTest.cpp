/**
 * @file
 * Tests for the segmented on-disk journal (journal/Segment.h): the
 * FNV checksum chain must be continuous across segment boundaries
 * (the last record of the last segment carries the same
 * chainChecksum() a monolithic journal of the history would),
 * corruption must localize to a named segment, compaction must
 * preserve replay bit-identity, and a streamed segmented recording
 * must replay byte-identically to its live run — stats, checksums,
 * and chain.
 */

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <sys/resource.h>

#include "journal/Journal.h"
#include "journal/Replayer.h"
#include "journal/Segment.h"
#include "serve/TrafficGen.h"

namespace darth
{
namespace journal
{
namespace
{

using serve::TenantSpec;
using serve::WorkloadKind;

/** A fresh per-test directory under gtest's temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        ("journal_segment_test_" + name);
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** A small mixed scenario: micro tenants plus one staged inference
 *  tenant on a 2-chip pool, enough events to span several tiny
 *  segments. */
ServeRunSetup
smallSetup()
{
    ServeRunSetup setup;
    setup.uniformPool = false;
    setup.slots = {{SlotKind::Uniform, 8, 1.0},
                   {SlotKind::Uniform, 8, 2.0}};
    setup.placement = serve::PlacementPolicy::LeastLoaded;
    setup.trafficSeed = 4242;
    setup.horizon = 4000;
    setup.admission.queueDepth = 2;
    setup.admission.qos = serve::QosPolicy::WeightedFair;
    setup.admission.overflow = serve::OverflowPolicy::Block;

    setup.tenants.resize(3);
    setup.tenants[0].name = "micro_a";
    setup.tenants[0].kind = WorkloadKind::Micro;
    setup.tenants[0].weight = 2.0;
    setup.tenants[0].ratePerKns = 3.0;
    setup.tenants[1].name = "micro_b";
    setup.tenants[1].kind = WorkloadKind::Micro;
    setup.tenants[1].ratePerKns = 2.0;
    setup.tenants[2].name = "cnn_infer";
    setup.tenants[2].kind = WorkloadKind::CnnInfer;
    setup.tenants[2].ratePerKns = 0.2;
    return setup;
}

/** Stream-record smallSetup() into `dir` with tiny segments (so the
 *  run is guaranteed to rotate) and return the live report. */
serve::ServeReport
recordSegmented(const std::string &dir, std::size_t segment_bytes,
                std::size_t *segments_out = nullptr,
                u64 *chain_out = nullptr)
{
    const ServeRunSetup setup = smallSetup();
    serve::TraceStream source(setup.trafficSeed, setup.tenants,
                              setup.horizon);
    Journal jr;
    SegmentWriter writer(dir, segment_bytes);
    jr.attachSink(&writer, /*retainEvents*/ false);
    const serve::ServeReport report =
        recordServeRunStream(setup, source, jr);
    writer.finish();
    if (segments_out != nullptr)
        *segments_out = writer.segments();
    if (chain_out != nullptr)
        *chain_out = jr.chainChecksum();
    return report;
}

TEST(JournalSegment, ChainContinuousAcrossSegmentBoundaries)
{
    // The same streamed run, recorded monolithically (retained, no
    // sink) and into tiny on-disk segments: the segment chain must
    // land on the monolithic chainChecksum, record for record.
    const ServeRunSetup setup = smallSetup();
    serve::TraceStream mono_source(setup.trafficSeed, setup.tenants,
                                   setup.horizon);
    Journal mono;
    recordServeRunStream(setup, mono_source, mono);
    ASSERT_GT(mono.size(), 0u);

    const std::string dir = scratchDir("chain");
    std::size_t segments = 0;
    u64 chain = 0;
    recordSegmented(dir, 512, &segments, &chain);
    ASSERT_GE(segments, 2u)
        << "scenario too small to cross a segment boundary";
    EXPECT_EQ(chain, mono.chainChecksum());

    // The reader re-verifies every header and record checksum on
    // the way through and must agree on the chain and count.
    SegmentReader reader(dir);
    JournalEvent e;
    while (reader.next(e)) {
    }
    EXPECT_GE(reader.segmentsRead(), 2u);
    EXPECT_EQ(reader.recordIndex(), mono.size());
    EXPECT_EQ(reader.chainChecksum(), mono.chainChecksum());

    // Materialized, the segment directory is the monolithic journal.
    const Journal reread = readSegmentedJournal(dir);
    EXPECT_TRUE(reread == mono);
}

TEST(JournalSegment, MidSegmentCorruptionNamesTheSegment)
{
    const std::string dir = scratchDir("corrupt");
    std::size_t segments = 0;
    recordSegmented(dir, 512, &segments);
    ASSERT_GE(segments, 2u);

    // Flip one byte in the middle of segment 1's records.
    const std::string victim = segmentFileName(dir, 1);
    std::fstream f(victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 80);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    f.seekp(size / 2);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
    f.close();

    try {
        readSegmentedJournal(dir);
        FAIL() << "corruption in segment 1 went undetected";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("segment 1"),
                  std::string::npos)
            << "error does not localize the segment: " << err.what();
    }
}

/** Peak resident set of this process so far, in KiB. */
long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(JournalSegment, CorruptLengthFieldAllocatesOnlyWhatArrives)
{
    for (const u32 len : {0xFFFFFFF0u, 0x3FFFFFF0u}) {
        const std::string dir =
            scratchDir("length_" + std::to_string(len));
        {
            SegmentWriter writer(dir);
            Journal jr;
            jr.attachSink(&writer, /*retainEvents=*/false);
            for (u64 i = 0; i < 4; ++i) {
                JournalEvent e;
                e.kind = EventKind::Arrival;
                e.cycle = 10 * i;
                e.a = i;
                e.values = {static_cast<i64>(i), 7};
                jr.append(std::move(e));
            }
            writer.finish();
        }
        // The first record's u32 length field follows the 40-byte
        // segment header (magic, version, reserved, index, base,
        // carry).
        std::fstream f(segmentFileName(dir, 0),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open());
        char bytes[4];
        for (int k = 0; k < 4; ++k)
            bytes[k] = static_cast<char>((len >> (8 * k)) & 0xff);
        f.seekp(40);
        f.write(bytes, sizeof(bytes));
        f.close();

        const long before = peakRssKb();
        EXPECT_THROW(readSegmentedJournal(dir), std::runtime_error)
            << "length " << len;
        EXPECT_LT(peakRssKb() - before, 64 * 1024)
            << "length " << len << " grew peak RSS past 64 MiB";
    }
}

TEST(JournalSegment, WriterRefusesPreexistingSegments)
{
    const std::string dir = scratchDir("refuse");
    recordSegmented(dir, 1u << 20);
    EXPECT_THROW(SegmentWriter second(dir), std::runtime_error);
}

TEST(JournalSegment, SegmentedReplayIsBitIdenticalToLiveRun)
{
    const std::string dir = scratchDir("replay");
    std::size_t segments = 0;
    u64 chain = 0;
    const serve::ServeReport live =
        recordSegmented(dir, 512, &segments, &chain);
    ASSERT_GT(live.completed, 0u);

    const SegmentReplayResult res = replaySegments(dir);
    EXPECT_TRUE(res.identical) << res.detail;
    EXPECT_EQ(res.recordedChain, chain);
    EXPECT_EQ(res.replayedChain, chain);
    // Replay reproduces the run, not just the records: checksum and
    // counters are the live run's.
    EXPECT_EQ(res.report.outputChecksum, live.outputChecksum);
    EXPECT_EQ(res.report.completed, live.completed);
    EXPECT_EQ(res.report.rejected, live.rejected);
    EXPECT_EQ(res.report.makespanNs, live.makespanNs);
}

TEST(JournalSegment, CompactionPreservesReplayBitIdentity)
{
    const std::string src = scratchDir("compact_src");
    const std::string dst = scratchDir("compact_dst");
    const serve::ServeReport live = recordSegmented(src, 512);

    const CompactResult comp = compactSegments(src, dst, 512);
    ASSERT_GT(comp.inputRecords, 0u);
    // Per-request event groups collapse into single summaries.
    EXPECT_LT(comp.outputRecords, comp.inputRecords);

    // The compacted recording still replays bit-identically: the
    // replayed live stream, compacted on the fly, must reproduce the
    // compacted chain byte for byte.
    const SegmentReplayResult res = replaySegments(dst);
    EXPECT_TRUE(res.identical) << res.detail;
    EXPECT_EQ(res.recordedChain, comp.chainChecksum);
    EXPECT_EQ(res.report.outputChecksum, live.outputChecksum);
    EXPECT_EQ(res.report.completed, live.completed);

    // And the compacted journal replays identically through the
    // in-memory entry point too (the RequestSummary records carry
    // each request's arrival + input).
    const Replayer replayer(readSegmentedJournal(dst));
    EXPECT_EQ(replayer.trace().size(),
              live.completed + live.rejected);
    const Replayer::Result mem = replayer.replay();
    EXPECT_TRUE(mem.identical) << mem.detail;
    EXPECT_TRUE(mem.detail.empty()) << mem.detail;
    EXPECT_EQ(mem.journal.chainChecksum(), comp.chainChecksum);
    EXPECT_EQ(mem.report.outputChecksum, live.outputChecksum);
}

TEST(JournalSegment, StreamedRecordingMatchesVectorRecording)
{
    // The streamed record path must emit the event sequence the
    // vector path emits — same records, same order, same chain —
    // except for TraceBegin, whose count field is the streamed
    // sentinel (the count is unknown when the header is written).
    const ServeRunSetup setup = smallSetup();
    const ServeRunRecord vec = recordServeRun(setup);

    serve::VectorSource source(vec.trace);
    Journal streamed;
    const serve::ServeReport report =
        recordServeRunStream(setup, source, streamed);

    EXPECT_EQ(report.outputChecksum, vec.report.outputChecksum);
    EXPECT_EQ(report.completed, vec.report.completed);
    ASSERT_EQ(streamed.size(), vec.journal.size());
    std::size_t trace_begins = 0;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        const JournalEvent &s = streamed.event(i);
        const JournalEvent &v = vec.journal.event(i);
        if (s.kind == EventKind::TraceBegin) {
            ++trace_begins;
            EXPECT_EQ(s.a, kStreamedTraceCount);
            EXPECT_EQ(v.a, vec.trace.size());
            EXPECT_EQ(s.cycle, v.cycle);
            continue;
        }
        EXPECT_TRUE(s == v) << "record " << i << " ("
                            << eventKindName(s.kind) << " vs "
                            << eventKindName(v.kind) << ") diverged";
    }
    EXPECT_EQ(trace_begins, 1u);
}

TEST(JournalSegment, StreamRecordRequiresEmptyJournal)
{
    const ServeRunSetup setup = smallSetup();
    serve::TraceStream source(setup.trafficSeed, setup.tenants,
                              setup.horizon);
    Journal jr;
    jr.append(JournalEvent{});
    EXPECT_THROW(recordServeRunStream(setup, source, jr),
                 std::invalid_argument);
}

} // namespace
} // namespace journal
} // namespace darth
