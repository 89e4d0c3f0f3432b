#include "journal/Segment.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace darth
{
namespace journal
{

namespace
{

/** Segment file magic ("DARTHSGJ"). */
constexpr char kSegmentMagic[8] = {'D', 'A', 'R', 'T', 'H',
                                   'S', 'G', 'J'};

} // namespace

std::string
segmentFileName(const std::string &dir, std::size_t index)
{
    std::string digits = std::to_string(index);
    while (digits.size() < 6)
        digits.insert(digits.begin(), '0');
    return dir + "/seg-" + digits + ".jseg";
}

SegmentWriter::SegmentWriter(std::string dir,
                             std::size_t maxSegmentBytes)
    : dir_(std::move(dir)), maxSegmentBytes_(maxSegmentBytes)
{
    if (maxSegmentBytes_ == 0)
        throw std::invalid_argument(
            "journal: segment size must be positive");
    std::filesystem::create_directories(dir_);
    if (std::filesystem::exists(segmentFileName(dir_, 0)))
        throw std::runtime_error(
            "journal: segment directory " + dir_ +
            " already holds segments (refusing to mix histories)");
    chain_ = journalChainBasis();
}

SegmentWriter::~SegmentWriter()
{
    try {
        finish();
    } catch (...) {
        // Destructors must not throw; call finish() explicitly to
        // observe flush failures.
    }
}

void
SegmentWriter::openSegment(std::size_t index, std::size_t baseRecord,
                           u64 carry)
{
    const std::string path = segmentFileName(dir_, index);
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw std::runtime_error("journal: cannot open " + path +
                                 " for writing");
    std::vector<unsigned char> header;
    for (char ch : kSegmentMagic)
        header.push_back(static_cast<unsigned char>(ch));
    appendLeU32(header, kSegmentVersion);
    appendLeU32(header, 0); // reserved
    appendLeU64(header, index);
    appendLeU64(header, baseRecord);
    appendLeU64(header, carry);
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    if (!out_)
        throw std::runtime_error("journal: write to " + path +
                                 " failed");
    open_ = true;
    ++segmentsOpened_;
    currentBytes_ = 0;
}

void
SegmentWriter::onRecord(const JournalEvent &event, std::size_t index,
                        u64 checksum,
                        const std::vector<unsigned char> &encoded)
{
    (void)event;
    if (!open_)
        openSegment(segmentsOpened_, index, chain_);
    const std::size_t written = writeRecord(out_, encoded, checksum);
    if (!out_)
        throw std::runtime_error(
            "journal: write to segment " +
            std::to_string(segmentsOpened_ - 1) + " in " + dir_ +
            " failed");
    chain_ = checksum;
    ++recordsWritten_;
    currentBytes_ += written;
    if (currentBytes_ >= maxSegmentBytes_) {
        out_.flush();
        if (!out_)
            throw std::runtime_error(
                "journal: flush of segment " +
                std::to_string(segmentsOpened_ - 1) + " in " + dir_ +
                " failed");
        out_.close();
        open_ = false;
    }
}

void
SegmentWriter::finish()
{
    if (!open_)
        return;
    out_.flush();
    if (!out_)
        throw std::runtime_error(
            "journal: flush of segment " +
            std::to_string(segmentsOpened_ - 1) + " in " + dir_ +
            " failed");
    out_.close();
    open_ = false;
}

SegmentReader::SegmentReader(std::string dir) : dir_(std::move(dir))
{
    chain_ = journalChainBasis();
    if (!openSegment(0))
        throw std::runtime_error("journal: no segment 0 in " + dir_ +
                                 " (" + segmentFileName(dir_, 0) +
                                 " missing)");
}

bool
SegmentReader::openSegment(std::size_t index)
{
    const std::string path = segmentFileName(dir_, index);
    in_.close();
    in_.clear();
    in_.open(path, std::ios::binary);
    if (!in_)
        return false;
    const std::string what =
        "segment " + std::to_string(index) + " header";
    char magic[8];
    if (!in_.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kSegmentMagic, sizeof(kSegmentMagic)) != 0)
        throw std::runtime_error(
            "journal: segment " + std::to_string(index) + " in " +
            dir_ + " has bad magic (not a journal segment)");
    const u32 version = readLeU32(in_, what);
    if (version != kSegmentVersion)
        throw std::runtime_error(
            "journal: segment " + std::to_string(index) +
            " has unsupported segment version " +
            std::to_string(version));
    if (readLeU32(in_, what) != 0)
        throw std::runtime_error(
            "journal: segment " + std::to_string(index) +
            " reserved header field must be zero");
    const u64 headerIndex = readLeU64(in_, what);
    if (headerIndex != index)
        throw std::runtime_error(
            "journal: segment " + std::to_string(index) +
            " header claims index " + std::to_string(headerIndex));
    const u64 base = readLeU64(in_, what);
    if (base != recordIndex_)
        throw std::runtime_error(
            "journal: segment " + std::to_string(index) +
            " base record index " + std::to_string(base) +
            " does not continue the stream at record " +
            std::to_string(recordIndex_));
    const u64 carry = readLeU64(in_, what);
    if (carry != chain_)
        throw std::runtime_error(
            "journal: segment " + std::to_string(index) +
            " carry checksum does not continue the chain (a "
            "segment is missing or altered)");
    open_ = true;
    segmentIndex_ = index + 1;
    return true;
}

bool
SegmentReader::next(JournalEvent &out)
{
    while (open_) {
        const std::string where =
            "segment " + std::to_string(segmentIndex_ - 1) +
            " record " + std::to_string(recordIndex_);
        if (readRecord(in_, chain_, where, out)) {
            ++recordIndex_;
            return true;
        }
        // Clean end of this segment; continue into the next file if
        // one exists.
        open_ = false;
        openSegment(segmentIndex_);
    }
    return false;
}

Journal
readSegmentedJournal(const std::string &dir)
{
    SegmentReader reader(dir);
    Journal out;
    JournalEvent e;
    while (reader.next(e))
        out.append(std::move(e));
    return out;
}

void
Compactor::push(const JournalEvent &e)
{
    switch (e.kind) {
    case EventKind::Arrival: {
        Group &g = groups_[e.a];
        g.tenant = e.b;
        g.chip = e.c;
        g.arrivalNs = e.cycle;
        g.input = e.values;
        if (e.a + 1 > maxRequest_)
            maxRequest_ = e.a + 1;
        return;
    }
    case EventKind::Admit:
    case EventKind::StageSubmit:
    case EventKind::StageComplete: {
        Group &g = groups_[e.a];
        g.chip = e.c;
        return;
    }
    case EventKind::Backpressure: {
        Group &g = groups_[e.a];
        g.chip = e.c;
        if (e.d == 1) { // rejected: the request's final event
            g.closed = true;
            g.completed = false;
            g.doneNs = e.cycle;
            flushClosed();
        }
        return;
    }
    case EventKind::Complete: {
        Group &g = groups_[e.a];
        g.closed = true;
        g.completed = true;
        g.chip = e.c;
        g.doneNs = e.cycle;
        g.outputFnv = e.d;
        if (e.values.size() >= 2) {
            g.startNs = static_cast<u64>(e.values[0]);
            g.mvms = static_cast<u64>(e.values[1]);
        }
        flushClosed();
        return;
    }
    default:
        out_.append(e);
        ++outputRecords_;
        return;
    }
}

void
Compactor::flushClosed()
{
    auto it = groups_.find(nextEmit_);
    while (it != groups_.end() && it->second.closed) {
        const Group &g = it->second;
        JournalEvent s;
        s.kind = EventKind::RequestSummary;
        s.cycle = g.doneNs;
        s.a = nextEmit_;
        s.b = g.tenant;
        s.c = g.chip;
        s.d = g.outputFnv;
        s.values.reserve(4 + g.input.size());
        s.values.push_back(static_cast<i64>(g.arrivalNs));
        s.values.push_back(static_cast<i64>(g.startNs));
        s.values.push_back(static_cast<i64>(g.mvms));
        s.values.push_back(g.completed ? 1 : 0);
        s.values.insert(s.values.end(), g.input.begin(),
                        g.input.end());
        out_.append(std::move(s));
        ++outputRecords_;
        groups_.erase(it);
        ++nextEmit_;
        it = groups_.find(nextEmit_);
    }
}

void
Compactor::finish()
{
    for (const auto &[req, g] : groups_)
        if (!g.closed)
            throw std::runtime_error(
                "journal: compaction saw no completion for request " +
                std::to_string(req) +
                " (truncated or non-final history)");
    // All closed: any gap before a closed group means the journal
    // skipped indices (impossible for a live recording); emit the
    // rest in index order.
    while (!groups_.empty()) {
        nextEmit_ = groups_.begin()->first;
        flushClosed();
    }
}

CompactResult
compactSegments(const std::string &srcDir, const std::string &dstDir,
                std::size_t maxSegmentBytes)
{
    SegmentReader reader(srcDir);
    SegmentWriter writer(dstDir, maxSegmentBytes);
    Journal out;
    out.attachSink(&writer, /*retainEvents=*/false);
    Compactor compactor(out);
    JournalEvent e;
    while (reader.next(e))
        compactor.push(e);
    compactor.finish();
    writer.finish();
    CompactResult result;
    result.inputRecords = reader.recordIndex();
    result.outputRecords = out.size();
    result.outputSegments = writer.segments();
    result.chainChecksum = out.chainChecksum();
    return result;
}

} // namespace journal
} // namespace darth
