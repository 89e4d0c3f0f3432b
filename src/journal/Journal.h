/**
 * @file
 * Append-only structured event journal for serve runs (ROADMAP
 * item 3: durable ops).
 *
 * A Journal is an ordered sequence of JournalEvents — one record per
 * thing the serving cluster did or decided: request arrival,
 * admission (with the WFQ charge), placement decision (with the
 * CostAware score that won), stage submission/completion,
 * backpressure action, request completion, per-chip scheduler
 * summaries, and the run header that makes the log self-describing
 * (pool composition, admission config, tenant table, traffic seed).
 * The serving layer emits events through ChipPool::setJournal /
 * AdmissionController::setJournal; journal/Replayer.h turns a
 * finished journal back into a bit-identical re-run.
 *
 * Integrity is chained per record: every appended record carries an
 * FNV-1a checksum over its canonical binary encoding seeded with the
 * previous record's checksum (the first record chains off the file
 * header), so a flipped byte anywhere breaks every later record and
 * readBinary() reports the first bad record instead of returning
 * silently wrong history. chainChecksum() — the last record's
 * checksum — is therefore a digest of the entire run.
 *
 * Every durable format stores records in one framing — u32 length,
 * canonical little-endian record bytes, u64 chained checksum —
 * written by writeRecord() and read back by readRecord(). The
 * monolithic format (writeBinary / readBinary: fixed header
 * "DARTHJNL" + format version + record count, then the framed
 * records) keeps a whole history in one file, and its record count
 * is what catches a file cut at a record boundary;
 * write(read(write(j))) is byte-identical to write(j). The segmented
 * format (journal/Segment.h) streams the same framed records into
 * rotating files.
 *
 * The journal itself is serve-agnostic: events carry a kind, a
 * simulated-cycle stamp, four 64-bit arguments, an optional short
 * note, and an optional i64 payload vector. What each field means
 * per kind is documented at EventKind and owned by the emitters.
 */

#ifndef DARTH_JOURNAL_JOURNAL_H
#define DARTH_JOURNAL_JOURNAL_H

#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/Types.h"

namespace darth
{
namespace journal
{

/**
 * What one journal record describes. Argument conventions (a..d,
 * note, values) per kind — doubles travel as bit patterns via
 * doubleBits():
 *
 *  Header records (written once, before any traffic):
 *   RunBegin        a=setup schema version, b=traffic seed,
 *                   c=placement policy, d=pool noise seed;
 *                   values={backlogWindowCycles, slot count,
 *                   uniform flag, trace horizon}.
 *   PoolChip        one per pool slot: a=slot, b=slot factory kind
 *                   (journal/Replayer.h SlotKind), c=the factory's
 *                   tile-count input, d=clockGHz bits, note=spec
 *                   name; values=derived silicon fields (hcts, dce
 *                   pipelines, ace arrays/rows/cols, adc kind) so a
 *                   factory whose derivation drifted since recording
 *                   fails replay loudly.
 *   AdmissionSetup  a=queueDepth, b=qos, c=overflow, d=granularity;
 *                   values={collectOutputs, per-chip depths...}.
 *   TenantSetup     one per tenant: a=index, b=workload kind,
 *                   c=modelKey, d=weight bits, note=name;
 *                   values={rate bits, burst on, burst off, SLO
 *                   latency target, SLO availability bits,
 *                   arriveNs, departNs}.
 *   FleetSetup      present when the run had a FleetController:
 *                   a=migration flag, b=autoscale flag, c=minActive,
 *                   d=checkIntervalNs; values={backlogHighNs,
 *                   backlogLowNs, migrateHighNs}.
 *   TraceBegin      a=request count of the recorded trace.
 *
 *  Run records (emitted by ChipPool / AdmissionController). The
 *  cycle stamp of every run record is a *wall-clock nanosecond*
 *  instant — the serving layer's shared time base across frequency
 *  bins; per-chip cycle counts convert exactly through the pool's
 *  integer-picosecond periods:
 *   Arrival         cycle=arrival ns, a=request index, b=tenant,
 *                   d=FNV of the input (word-wise), values=input.
 *   Placement       a=ModelRef, b=model key, c=chip, d=winning
 *                   CostAware score bits (0 unless CostAware),
 *                   note="mvm"/"cnn_infer"/"llm_infer",
 *                   values={1 if an affinity-shared reuse, else 0}.
 *   Admit           cycle=admission ns, a=request index,
 *                   b=tenant, c=chip, d=stage index (kNoStage for a
 *                   whole-unit admission), values={WFQ charge in
 *                   wall picoseconds, nominal whole-unit service
 *                   in wall picoseconds}.
 *   StageSubmit     cycle=admission ns, a=request index,
 *                   b=stage, c=chip, d=stage count of the run.
 *   StageComplete   cycle=stage completion ns, a=request index,
 *                   b=stage, c=chip.
 *   Backpressure    cycle=arrival ns, a=request index, b=tenant,
 *                   c=chip, d=action (0 blocked, 1 rejected).
 *   Complete        cycle=completion ns, a=request index, b=tenant,
 *                   c=chip, d=FNV of the output values (word-wise),
 *                   values={start ns, mvm count}.
 *   ChipSummary     one per chip at end of run: cycle=chip
 *                   makespan ns, a=chip, b=issued, c=pipelineHits,
 *                   d=dependencyStalls (scheduler-counter deltas
 *                   for this run), values={completed, mvms,
 *                   interleavedStages}.
 *   RunEnd          cycle=run makespan ns, a=completed, b=rejected,
 *                   c=output checksum.
 *
 *  Fleet lifecycle records (fleet-mode runs only; stamps are wall
 *  ns like every run record):
 *   TenantArrive    cycle=arrival moment, a=tenant, b=ModelRef of
 *                   the fresh placement, c=its chip.
 *   TenantDepart    cycle=reclaim instant (>= the departure
 *                   moment; begun work drains first), a=tenant,
 *                   b=ModelRef, c=chip, d=departure moment ns.
 *   MigrationBegin  cycle=decision tick, a=lead tenant, b=old
 *                   ModelRef, c=destination chip, d=new ModelRef,
 *                   values={source chip}.
 *   MigrationEnd    cycle=old placement's reclaim instant (its
 *                   begun work drained), a=lead tenant, b=old
 *                   ModelRef, c=source chip, d=new ModelRef.
 *   ChipUp          cycle=activation instant, a=chip, b=1 when an
 *                   arriving tenant forced the reactivation (0 for
 *                   an autoscaler scale-up).
 *   ChipDown        cycle=instant the slot's last placement was
 *                   released (or the scale-down tick when already
 *                   empty), a=chip.
 *
 *  Compaction records (journal/Segment.h Compactor):
 *   RequestSummary  one record replacing a finished request's whole
 *                   event group (Arrival, Admit, StageSubmit,
 *                   StageComplete, Backpressure, Complete):
 *                   cycle=completion ns (arrival ns when rejected),
 *                   a=request index, b=tenant, c=chip, d=FNV of the
 *                   output values (0 when rejected);
 *                   values={arrival ns, start ns, mvm count,
 *                   1 completed / 0 rejected, input words...}. The
 *                   input words keep a compacted journal
 *                   self-describing: Replayer rebuilds the trace
 *                   from summaries exactly as from Arrival records.
 */
enum class EventKind : u32
{
    RunBegin = 0,
    PoolChip,
    AdmissionSetup,
    TenantSetup,
    TraceBegin,
    Arrival,
    Placement,
    Admit,
    StageSubmit,
    StageComplete,
    Backpressure,
    Complete,
    ChipSummary,
    RunEnd,
    FleetSetup,
    TenantArrive,
    TenantDepart,
    MigrationBegin,
    MigrationEnd,
    ChipUp,
    ChipDown,
    RequestSummary,
};

/** Short lowercase kind name (replay mismatch and error reports). */
const char *eventKindName(EventKind kind);

struct JournalEvent;

/** Canonical little-endian encoding of one record — the bytes the
 *  chained checksum covers and every durable format stores. */
std::vector<unsigned char> encodeEventBytes(const JournalEvent &e);

/** Decode canonical record bytes (the inverse of encodeEventBytes);
 *  throws std::runtime_error naming `what` on malformed input. */
JournalEvent decodeEventBytes(const std::vector<unsigned char> &rec,
                              const std::string &what);

/** Little-endian field codec shared by the monolithic and segmented
 *  formats; the readers throw std::runtime_error naming `what` on a
 *  short read. */
void appendLeU32(std::vector<unsigned char> &buf, u32 v);
void appendLeU64(std::vector<unsigned char> &buf, u64 v);
u32 readLeU32(std::istream &in, const std::string &what);
u64 readLeU64(std::istream &in, const std::string &what);

/** Write one framed record (u32 length, canonical bytes, u64 chained
 *  checksum) — the one record writer of every binary format. Returns
 *  the bytes written; the caller checks the stream's state. */
std::size_t writeRecord(std::ostream &out,
                        const std::vector<unsigned char> &encoded,
                        u64 checksum);

/**
 * Read one framed record (the writeRecord framing) — the one record
 * reader of every binary format. Verifies the record continues
 * `chain`, advances it, and decodes into `out`. Returns false on a
 * clean end of stream before the length field; a short read,
 * checksum mismatch, or malformed bytes throws std::runtime_error
 * naming `where`. The body is read in 64 KiB chunks, so a corrupt
 * length field allocates only about what actually arrives, never
 * the up-to-4 GiB it claims.
 */
bool readRecord(std::istream &in, u64 &chain, const std::string &where,
                JournalEvent &out);

/** Checksum seed of record 0: FNV-1a over the fixed format prefix
 *  (magic + version) — the chain basis shared by the monolithic
 *  binary format and the segmented one (journal/Segment.h). */
u64 journalChainBasis();

/** Admit's stage argument for whole-unit admissions. */
constexpr u64 kNoStage = ~u64{0};

/** Bit-pattern transport of doubles through u64 event arguments. */
inline u64
doubleBits(double v)
{
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

inline double
bitsToDouble(u64 bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/** One journal record (see EventKind for field conventions). */
struct JournalEvent
{
    EventKind kind = EventKind::RunBegin;
    /** Time stamp: wall-clock nanoseconds for run records (0 for
     *  header records). The field keeps its historical name; the
     *  serving layer moved from per-chip cycles to wall ns when
     *  mixed-clock pools became legal. */
    Cycle cycle = 0;
    u64 a = 0;
    u64 b = 0;
    u64 c = 0;
    u64 d = 0;
    /** Short label (tenant/spec name, placement kind). */
    std::string note;
    /** Kind-specific payload (inputs, config words). */
    std::vector<i64> values;

    bool
    operator==(const JournalEvent &other) const
    {
        return kind == other.kind && cycle == other.cycle &&
               a == other.a && b == other.b && c == other.c &&
               d == other.d && note == other.note &&
               values == other.values;
    }
    bool operator!=(const JournalEvent &other) const
    {
        return !(*this == other);
    }
};

/**
 * Observer of appended records: the streaming (flush-on-append)
 * export path. A sink sees every record exactly once, in append
 * order, with its chained checksum and canonical encoded bytes —
 * everything the durable formats store — so exports no longer need
 * the full in-memory event vector. Segment.h's rotating
 * SegmentWriter is the durable sink.
 */
class JournalSink
{
  public:
    virtual ~JournalSink() = default;
    /** One appended record: decoded form, zero-based index, chained
     *  checksum, and canonical little-endian encoding. */
    virtual void onRecord(const JournalEvent &event, std::size_t index,
                          u64 checksum,
                          const std::vector<unsigned char> &encoded) = 0;
};

/** The append-only event log. */
class Journal
{
  public:
    /** Binary container format version (the file header). */
    static constexpr u32 kFormatVersion = 1;

    /** Append one event; stamps its chained checksum, forwards it to
     *  the attached sink (if any), and returns its index. */
    std::size_t append(JournalEvent event);

    /**
     * Stream appended records into `sink` (nullptr detaches). With
     * `retainEvents` false the journal stops holding decoded
     * records in memory — it becomes a pure chain accumulator
     * (size() / chainChecksum() stay exact; events() / event(i) /
     * recordChecksum(i) / writeBinary throw std::logic_error). A
     * million-request run records through a non-retaining journal +
     * SegmentWriter at flat memory. Retention can change only on an
     * empty journal (std::logic_error otherwise); the sink can be
     * swapped or detached at any time.
     */
    void attachSink(JournalSink *sink, bool retainEvents = true);

    /** True when decoded records are held in memory (the default). */
    bool retainsEvents() const { return retain_; }

    /** Decoded records (std::logic_error when retention is off). */
    const std::vector<JournalEvent> &events() const;
    const JournalEvent &event(std::size_t i) const;
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Chained checksum of record i (FNV-1a over its canonical
     *  encoding, seeded with record i-1's checksum). */
    u64 recordChecksum(std::size_t i) const;

    /**
     * Digest of the whole journal: the last record's chained
     * checksum (the header basis when empty). Two journals with
     * equal chains hold byte-identical histories.
     */
    u64 chainChecksum() const;

    void clear();

    /**
     * History equality: chain checksum and record count always;
     * decoded payloads too when both sides retain them (equal
     * chains already imply byte-identical histories).
     */
    bool operator==(const Journal &other) const;
    bool operator!=(const Journal &other) const
    {
        return !(*this == other);
    }

    /** Serialize to the compact binary format. */
    void writeBinary(std::ostream &out) const;

    /**
     * Parse a binary journal, verifying the header and every
     * record's chained checksum. Throws std::runtime_error naming
     * the first corrupt record (or the malformed header, or bytes
     * after the announced record count) — a truncated, extended or
     * bit-flipped file never yields a silently wrong history.
     */
    static Journal readBinary(std::istream &in);

    /** writeBinary to a file (throws std::runtime_error on I/O
     *  failure). */
    void writeBinaryFile(const std::string &path) const;

    /** readBinary from a file (throws std::runtime_error). */
    static Journal readBinaryFile(const std::string &path);

  private:
    /** Decoded records (empty when retention is off). */
    std::vector<JournalEvent> events_;
    /** Chained checksum per record (parallel to events_). */
    std::vector<u64> checksums_;
    /** Appended-record count (valid regardless of retention). */
    std::size_t count_ = 0;
    /** Last record's chained checksum (valid when count_ > 0). */
    u64 chainTail_ = 0;
    bool retain_ = true;
    JournalSink *sink_ = nullptr;
};

} // namespace journal
} // namespace darth

#endif // DARTH_JOURNAL_JOURNAL_H
