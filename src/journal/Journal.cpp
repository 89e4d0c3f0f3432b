#include "journal/Journal.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/Fnv.h"

namespace darth
{
namespace journal
{

namespace
{

/** Binary file magic ("DARTHJNL"). */
constexpr char kMagic[8] = {'D', 'A', 'R', 'T', 'H', 'J', 'N', 'L'};

/** Guards against allocating absurd buffers while parsing a file
 *  whose length fields are corrupt (the checksum would flag the
 *  record anyway, but only after the allocation). */
constexpr u64 kMaxNoteBytes = u64{1} << 20;
constexpr u64 kMaxValueWords = u64{1} << 28;

/** Record bodies are read in chunks of this many bytes, so a
 *  corrupt length field costs what actually arrives, not what it
 *  claims. */
constexpr std::size_t kRecordReadChunk = std::size_t{1} << 16;

std::string
hexU64(u64 v)
{
    static const char hex[] = "0123456789abcdef";
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out.push_back(hex[(v >> shift) & 0xf]);
    return out;
}

} // namespace

void
appendLeU32(std::vector<unsigned char> &buf, u32 v)
{
    for (int shift = 0; shift < 32; shift += 8)
        buf.push_back(static_cast<unsigned char>((v >> shift) & 0xff));
}

void
appendLeU64(std::vector<unsigned char> &buf, u64 v)
{
    for (int shift = 0; shift < 64; shift += 8)
        buf.push_back(static_cast<unsigned char>((v >> shift) & 0xff));
}

u32
readLeU32(std::istream &in, const std::string &what)
{
    unsigned char bytes[4];
    if (!in.read(reinterpret_cast<char *>(bytes), sizeof(bytes)))
        throw std::runtime_error("journal: truncated while reading " +
                                 what);
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(bytes[i]) << (8 * i);
    return v;
}

u64
readLeU64(std::istream &in, const std::string &what)
{
    unsigned char bytes[8];
    if (!in.read(reinterpret_cast<char *>(bytes), sizeof(bytes)))
        throw std::runtime_error("journal: truncated while reading " +
                                 what);
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(bytes[i]) << (8 * i);
    return v;
}

/**
 * Canonical little-endian encoding of one record — the bytes the
 * chained checksum covers and writeBinary emits. Field order:
 * kind, cycle, a..d, note length + bytes, value count + words.
 */
std::vector<unsigned char>
encodeEventBytes(const JournalEvent &e)
{
    std::vector<unsigned char> buf;
    buf.reserve(56 + e.note.size() + 8 * e.values.size());
    appendLeU32(buf, static_cast<u32>(e.kind));
    appendLeU64(buf, e.cycle);
    appendLeU64(buf, e.a);
    appendLeU64(buf, e.b);
    appendLeU64(buf, e.c);
    appendLeU64(buf, e.d);
    appendLeU32(buf, static_cast<u32>(e.note.size()));
    for (char ch : e.note)
        buf.push_back(static_cast<unsigned char>(ch));
    appendLeU32(buf, static_cast<u32>(e.values.size()));
    for (i64 v : e.values)
        appendLeU64(buf, static_cast<u64>(v));
    return buf;
}

JournalEvent
decodeEventBytes(const std::vector<unsigned char> &rec,
                 const std::string &what)
{
    JournalEvent e;
    std::size_t pos = 0;
    auto takeU32 = [&rec, &pos, &what]() -> u32 {
        if (pos + 4 > rec.size())
            throw std::runtime_error("journal: malformed " + what);
        u32 v = 0;
        for (int k = 0; k < 4; ++k)
            v |= static_cast<u32>(rec[pos + k]) << (8 * k);
        pos += 4;
        return v;
    };
    auto takeU64 = [&rec, &pos, &what]() -> u64 {
        if (pos + 8 > rec.size())
            throw std::runtime_error("journal: malformed " + what);
        u64 v = 0;
        for (int k = 0; k < 8; ++k)
            v |= static_cast<u64>(rec[pos + k]) << (8 * k);
        pos += 8;
        return v;
    };
    const u32 kindRaw = takeU32();
    if (kindRaw > static_cast<u32>(EventKind::RequestSummary))
        throw std::runtime_error("journal: " + what +
                                 " has unknown event kind " +
                                 std::to_string(kindRaw));
    e.kind = static_cast<EventKind>(kindRaw);
    e.cycle = takeU64();
    e.a = takeU64();
    e.b = takeU64();
    e.c = takeU64();
    e.d = takeU64();
    const u32 noteLen = takeU32();
    if (noteLen > kMaxNoteBytes || pos + noteLen > rec.size())
        throw std::runtime_error("journal: malformed " + what);
    e.note.assign(reinterpret_cast<const char *>(rec.data()) + pos,
                  noteLen);
    pos += noteLen;
    const u32 valueCount = takeU32();
    if (valueCount > kMaxValueWords || valueCount > (rec.size() - pos) / 8)
        throw std::runtime_error("journal: malformed " + what);
    e.values.reserve(valueCount);
    for (u32 v = 0; v < valueCount; ++v)
        e.values.push_back(static_cast<i64>(takeU64()));
    if (pos != rec.size())
        throw std::runtime_error("journal: " + what +
                                 " has trailing bytes");
    return e;
}

std::size_t
writeRecord(std::ostream &out, const std::vector<unsigned char> &encoded,
            u64 checksum)
{
    std::vector<unsigned char> buf;
    buf.reserve(12 + encoded.size());
    appendLeU32(buf, static_cast<u32>(encoded.size()));
    buf.insert(buf.end(), encoded.begin(), encoded.end());
    appendLeU64(buf, checksum);
    out.write(reinterpret_cast<const char *>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    return buf.size();
}

bool
readRecord(std::istream &in, u64 &chain, const std::string &where,
           JournalEvent &out)
{
    unsigned char lenBytes[4];
    in.read(reinterpret_cast<char *>(lenBytes), sizeof(lenBytes));
    if (in.gcount() == 0 && in.eof())
        return false;
    if (in.gcount() != sizeof(lenBytes))
        throw std::runtime_error("journal: truncated " + where);
    u32 recLen = 0;
    for (int i = 0; i < 4; ++i)
        recLen |= static_cast<u32>(lenBytes[i]) << (8 * i);
    std::vector<unsigned char> rec;
    while (rec.size() < recLen) {
        const std::size_t have = rec.size();
        const std::size_t want =
            std::min<std::size_t>(kRecordReadChunk, recLen - have);
        rec.resize(have + want);
        if (!in.read(reinterpret_cast<char *>(rec.data() + have),
                     static_cast<std::streamsize>(want)))
            throw std::runtime_error("journal: truncated " + where);
    }
    const u64 stored = readLeU64(in, where + " checksum");
    const u64 computed = fnv1aBytes(rec.data(), rec.size(), chain);
    if (computed != stored)
        throw std::runtime_error(
            "journal: corrupt " + where + " (checksum mismatch, stored " +
            hexU64(stored) + " computed " + hexU64(computed) + ")");
    out = decodeEventBytes(rec, where);
    chain = stored;
    return true;
}

/**
 * Checksum seed for record 0: FNV over the fixed header prefix
 * (magic + format version). A constant of the format, so append()
 * can chain without any file existing yet.
 */
u64
journalChainBasis()
{
    std::vector<unsigned char> buf;
    for (char ch : kMagic)
        buf.push_back(static_cast<unsigned char>(ch));
    appendLeU32(buf, Journal::kFormatVersion);
    return fnv1aBytes(buf.data(), buf.size());
}

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
    case EventKind::RunBegin:
        return "run_begin";
    case EventKind::PoolChip:
        return "pool_chip";
    case EventKind::AdmissionSetup:
        return "admission_setup";
    case EventKind::TenantSetup:
        return "tenant_setup";
    case EventKind::TraceBegin:
        return "trace_begin";
    case EventKind::Arrival:
        return "arrival";
    case EventKind::Placement:
        return "placement";
    case EventKind::Admit:
        return "admit";
    case EventKind::StageSubmit:
        return "stage_submit";
    case EventKind::StageComplete:
        return "stage_complete";
    case EventKind::Backpressure:
        return "backpressure";
    case EventKind::Complete:
        return "complete";
    case EventKind::ChipSummary:
        return "chip_summary";
    case EventKind::RunEnd:
        return "run_end";
    case EventKind::FleetSetup:
        return "fleet_setup";
    case EventKind::TenantArrive:
        return "tenant_arrive";
    case EventKind::TenantDepart:
        return "tenant_depart";
    case EventKind::MigrationBegin:
        return "migration_begin";
    case EventKind::MigrationEnd:
        return "migration_end";
    case EventKind::ChipUp:
        return "chip_up";
    case EventKind::ChipDown:
        return "chip_down";
    case EventKind::RequestSummary:
        return "request_summary";
    }
    return "unknown";
}

std::size_t
Journal::append(JournalEvent event)
{
    if (event.note.size() > kMaxNoteBytes)
        throw std::runtime_error("journal: event note too long");
    if (event.values.size() > kMaxValueWords)
        throw std::runtime_error("journal: event payload too long");
    const std::vector<unsigned char> encoded = encodeEventBytes(event);
    const u64 prev = count_ == 0 ? journalChainBasis() : chainTail_;
    const u64 checksum =
        fnv1aBytes(encoded.data(), encoded.size(), prev);
    chainTail_ = checksum;
    const std::size_t index = count_++;
    if (sink_ != nullptr)
        sink_->onRecord(event, index, checksum, encoded);
    if (retain_) {
        checksums_.push_back(checksum);
        events_.push_back(std::move(event));
    }
    return index;
}

void
Journal::attachSink(JournalSink *sink, bool retainEvents)
{
    if (count_ != 0 && retainEvents != retain_)
        throw std::logic_error(
            "journal: event retention can change only on an empty "
            "journal");
    sink_ = sink;
    retain_ = retainEvents;
}

const std::vector<JournalEvent> &
Journal::events() const
{
    if (!retain_)
        throw std::logic_error(
            "journal: events() requires event retention (this "
            "journal streams to a sink without retaining records)");
    return events_;
}

const JournalEvent &
Journal::event(std::size_t i) const
{
    if (!retain_)
        throw std::logic_error(
            "journal: event(i) requires event retention (this "
            "journal streams to a sink without retaining records)");
    if (i >= events_.size())
        throw std::out_of_range("journal: event index out of range");
    return events_[i];
}

u64
Journal::recordChecksum(std::size_t i) const
{
    if (!retain_)
        throw std::logic_error(
            "journal: recordChecksum requires event retention");
    if (i >= checksums_.size())
        throw std::out_of_range("journal: event index out of range");
    return checksums_[i];
}

u64
Journal::chainChecksum() const
{
    return count_ == 0 ? journalChainBasis() : chainTail_;
}

void
Journal::clear()
{
    events_.clear();
    checksums_.clear();
    count_ = 0;
    chainTail_ = 0;
}

bool
Journal::operator==(const Journal &other) const
{
    if (chainChecksum() != other.chainChecksum() ||
        count_ != other.count_)
        return false;
    if (retain_ && other.retain_)
        return events_ == other.events_;
    return true;
}

void
Journal::writeBinary(std::ostream &out) const
{
    if (!retain_)
        throw std::logic_error(
            "journal: writeBinary requires event retention (use a "
            "SegmentWriter sink for streaming durable output)");
    std::vector<unsigned char> buf;
    for (char ch : kMagic)
        buf.push_back(static_cast<unsigned char>(ch));
    appendLeU32(buf, kFormatVersion);
    appendLeU32(buf, 0); // reserved
    appendLeU64(buf, events_.size());
    out.write(reinterpret_cast<const char *>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    for (std::size_t i = 0; i < events_.size(); ++i)
        writeRecord(out, encodeEventBytes(events_[i]), checksums_[i]);
}

Journal
Journal::readBinary(std::istream &in)
{
    char magic[8];
    if (!in.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("journal: bad magic (not a journal)");
    const u32 version = readLeU32(in, "format version");
    if (version != kFormatVersion)
        throw std::runtime_error(
            "journal: unsupported format version " +
            std::to_string(version));
    if (readLeU32(in, "reserved header field") != 0)
        throw std::runtime_error(
            "journal: reserved header field must be zero");
    const u64 count = readLeU64(in, "record count");

    Journal out;
    u64 chain = journalChainBasis();
    JournalEvent e;
    for (u64 i = 0; i < count; ++i) {
        const std::string where = "record " + std::to_string(i);
        if (!readRecord(in, chain, where, e))
            throw std::runtime_error("journal: truncated " + where);
        // append() re-derives the same chain from the same bytes, so
        // the in-memory chain equals the verified on-disk chain.
        out.append(std::move(e));
    }
    if (in.peek() != std::istream::traits_type::eof())
        throw std::runtime_error(
            "journal: trailing bytes after the " +
            std::to_string(count) + " announced records");
    return out;
}

void
Journal::writeBinaryFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("journal: cannot open " + path +
                                 " for writing");
    writeBinary(out);
    out.flush();
    if (!out)
        throw std::runtime_error("journal: write to " + path +
                                 " failed");
}

Journal
Journal::readBinaryFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("journal: cannot open " + path);
    return readBinary(in);
}

} // namespace journal
} // namespace darth
