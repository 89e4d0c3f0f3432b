#include "journal/Replayer.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "journal/Segment.h"
#include "serve/ChipConfig.h"

namespace darth
{
namespace journal
{

namespace
{

/** The ChipSpec a slot's factory inputs build (heterogeneous path). */
serve::ChipSpec
slotSpec(const PoolSlotSetup &slot)
{
    switch (slot.kind) {
      case SlotKind::Default: {
        serve::ChipSpec spec;
        if (slot.hcts != 0)
            spec.chip.numHcts = slot.hcts;
        spec.clockGHz = slot.clockGHz;
        return spec;
      }
      case SlotKind::Uniform:
        return serve::uniformChipSpec(slot.hcts, slot.clockGHz);
      case SlotKind::Sar:
        return serve::heteroChipSpec(analog::AdcKind::Sar, slot.hcts,
                                     slot.clockGHz);
      case SlotKind::Ramp:
        return serve::heteroChipSpec(analog::AdcKind::Ramp, slot.hcts,
                                     slot.clockGHz);
    }
    throw std::invalid_argument("ServeRunSetup: unknown slot kind");
}

/** Emit the self-describing header: RunBegin, one PoolChip per
 *  slot, AdmissionSetup, one TenantSetup per tenant, FleetSetup when
 *  fleet-driven. */
void
emitHeaderRecords(const ServeRunSetup &setup,
                  const serve::ChipPool &pool, Journal &jr)
{
    {
        JournalEvent e;
        e.kind = EventKind::RunBegin;
        e.a = ServeRunSetup::kSetupVersion;
        e.b = setup.trafficSeed;
        e.c = static_cast<u64>(setup.placement);
        e.d = setup.poolSeed;
        e.values = {static_cast<i64>(setup.backlogWindowNs),
                    static_cast<i64>(setup.slots.size()),
                    setup.uniformPool ? i64{1} : i64{0},
                    static_cast<i64>(setup.horizon)};
        jr.append(std::move(e));
    }

    for (std::size_t i = 0; i < setup.slots.size(); ++i) {
        const PoolSlotSetup &slot = setup.slots[i];
        const serve::ChipSpec &spec = pool.spec(i);
        const runtime::ChipConfig &cc = spec.chip;
        JournalEvent e;
        e.kind = EventKind::PoolChip;
        e.a = i;
        e.b = static_cast<u64>(slot.kind);
        e.c = slot.hcts;
        e.d = doubleBits(slot.clockGHz);
        e.note = spec.name;
        // Derived silicon, for verification only: replay rebuilds
        // the chip from (kind, hcts, clock) above, and a factory
        // whose derivation drifted since recording mismatches here.
        e.values = {static_cast<i64>(cc.numHcts),
                    static_cast<i64>(cc.modeledHcts),
                    static_cast<i64>(cc.hct.dce.numPipelines),
                    static_cast<i64>(cc.hct.dce.pipeline.depth),
                    static_cast<i64>(cc.hct.dce.pipeline.width),
                    static_cast<i64>(cc.hct.dce.pipeline.numRegs),
                    static_cast<i64>(cc.hct.ace.numArrays),
                    static_cast<i64>(cc.hct.ace.arrayRows),
                    static_cast<i64>(cc.hct.ace.arrayCols),
                    static_cast<i64>(
                        static_cast<u32>(cc.hct.ace.adc.kind)),
                    static_cast<i64>(cc.hct.ace.numAdcs),
                    cc.hct.ace.rampAutoTerminate ? i64{1} : i64{0}};
        jr.append(std::move(e));
    }

    {
        const serve::AdmissionConfig &ac = setup.admission;
        JournalEvent e;
        e.kind = EventKind::AdmissionSetup;
        e.a = ac.queueDepth;
        e.b = static_cast<u64>(ac.qos);
        e.c = static_cast<u64>(ac.overflow);
        e.d = static_cast<u64>(ac.granularity);
        e.values.push_back(ac.collectOutputs ? i64{1} : i64{0});
        for (std::size_t depth : ac.chipQueueDepth)
            e.values.push_back(static_cast<i64>(depth));
        jr.append(std::move(e));
    }

    for (std::size_t t = 0; t < setup.tenants.size(); ++t) {
        const serve::TenantSpec &spec = setup.tenants[t];
        JournalEvent e;
        e.kind = EventKind::TenantSetup;
        e.a = t;
        e.b = static_cast<u64>(spec.kind);
        e.c = spec.modelKey;
        e.d = doubleBits(spec.weight);
        e.note = spec.name;
        e.values = {
            static_cast<i64>(doubleBits(spec.ratePerKns)),
            static_cast<i64>(spec.burst.onNs),
            static_cast<i64>(spec.burst.offNs),
            static_cast<i64>(spec.slo.latencyTargetNs),
            static_cast<i64>(doubleBits(spec.slo.targetAvailability)),
            static_cast<i64>(spec.arriveNs),
            static_cast<i64>(spec.departNs)};
        jr.append(std::move(e));
    }

    if (setup.fleet) {
        const serve::FleetConfig &fc = setup.fleetCfg;
        JournalEvent e;
        e.kind = EventKind::FleetSetup;
        e.a = fc.migration ? 1 : 0;
        e.b = fc.autoscale ? 1 : 0;
        e.c = fc.minActive;
        e.d = fc.checkIntervalNs;
        e.values = {static_cast<i64>(fc.backlogHighNs),
                    static_cast<i64>(fc.backlogLowNs),
                    static_cast<i64>(fc.migrateHighNs)};
        jr.append(std::move(e));
    }
}

/**
 * Drive setup's scenario once with `jr` attached, in the canonical
 * record order every recording and replay produces: header records
 * (emitHeaderRecords), then the Placement records buildTenants
 * emits, TraceBegin announcing `traceBeginCount` requests (the trace
 * length, or kStreamedTraceCount for a streamed run — replay passes
 * the recorded announcement through so the replayed record stays
 * byte-identical), and the run itself: `runOn(controller)`, i.e.
 * AdmissionController::run or runStream. The controller runs with
 * `admission`, which differs from setup.admission (the recorded
 * config) only in collectOutputs, a report-only field.
 */
template <typename RunOn>
serve::ServeReport
driveRun(const ServeRunSetup &setup,
         const serve::AdmissionConfig &admission, Journal &jr,
         u64 traceBeginCount, RunOn &&runOn)
{
    serve::ChipPool pool(setup.poolConfig());
    emitHeaderRecords(setup, pool, jr);

    pool.setJournal(&jr);
    serve::TrafficGen gen(setup.trafficSeed);
    // Both construction paths emit their eager Placement records
    // here, before TraceBegin (fleet tenants with arriveNs > 0
    // place lazily during the run, after it).
    std::unique_ptr<serve::FleetController> fleet;
    std::unique_ptr<serve::AdmissionController> ctrl;
    if (setup.fleet) {
        fleet = std::make_unique<serve::FleetController>(
            pool, gen, setup.tenants, setup.fleetCfg);
        ctrl = std::make_unique<serve::AdmissionController>(
            pool, *fleet, admission);
    } else {
        ctrl = std::make_unique<serve::AdmissionController>(
            pool, serve::buildTenants(pool, gen, setup.tenants),
            admission);
    }

    {
        JournalEvent e;
        e.kind = EventKind::TraceBegin;
        e.a = traceBeginCount;
        jr.append(std::move(e));
    }

    ctrl->setJournal(&jr);
    serve::ServeReport report = runOn(*ctrl);
    ctrl->setJournal(nullptr);
    pool.setJournal(nullptr);
    return report;
}

/**
 * Parse the self-describing header records `ev`, RunBegin through
 * TraceBegin (Placement records in between are re-derived on replay,
 * not inputs, and are skipped). Returns TraceBegin's announced
 * request count — possibly kStreamedTraceCount.
 */
u64
parseHeaderRecords(const std::vector<JournalEvent> &ev,
                   ServeRunSetup &setup)
{
    std::size_t i = 0;
    auto need = [&](EventKind kind) -> const JournalEvent & {
        if (i >= ev.size())
            throw std::runtime_error(
                std::string("Replayer: journal ended before its ") +
                eventKindName(kind) + " record");
        const JournalEvent &e = ev[i];
        if (e.kind != kind)
            throw std::runtime_error(
                std::string("Replayer: expected ") +
                eventKindName(kind) + " at record " +
                std::to_string(i) + ", found " +
                eventKindName(e.kind));
        ++i;
        return e;
    };

    const JournalEvent &begin = need(EventKind::RunBegin);
    if (begin.a != ServeRunSetup::kSetupVersion)
        throw std::runtime_error(
            "Replayer: unsupported setup version " +
            std::to_string(begin.a) + " (this build replays version " +
            std::to_string(ServeRunSetup::kSetupVersion) + ")");
    if (begin.values.size() < 4 ||
        begin.c > static_cast<u64>(serve::PlacementPolicy::CostAware))
        throw std::runtime_error(
            "Replayer: malformed run_begin record");
    setup.trafficSeed = begin.b;
    setup.placement = static_cast<serve::PlacementPolicy>(begin.c);
    setup.poolSeed = begin.d;
    setup.backlogWindowNs = static_cast<WallNs>(begin.values[0]);
    const std::size_t slot_count =
        static_cast<std::size_t>(begin.values[1]);
    setup.uniformPool = begin.values[2] != 0;
    setup.horizon = static_cast<WallNs>(begin.values[3]);
    if (slot_count == 0)
        throw std::runtime_error(
            "Replayer: run_begin announces an empty pool");

    // Sized by the PoolChip records actually read, never by the
    // announced count, so a hostile count fails as a missing record.
    setup.slots.clear();
    for (std::size_t s = 0; s < slot_count; ++s) {
        const JournalEvent &e = need(EventKind::PoolChip);
        if (e.a != s)
            throw std::runtime_error(
                "Replayer: pool_chip records out of slot order");
        if (e.b > static_cast<u64>(SlotKind::Ramp))
            throw std::runtime_error(
                "Replayer: pool_chip record names unknown slot kind " +
                std::to_string(e.b));
        PoolSlotSetup slot;
        slot.kind = static_cast<SlotKind>(e.b);
        slot.hcts = static_cast<std::size_t>(e.c);
        slot.clockGHz = bitsToDouble(e.d);
        setup.slots.push_back(slot);
    }

    const JournalEvent &adm = need(EventKind::AdmissionSetup);
    if (adm.b > static_cast<u64>(serve::QosPolicy::WeightedFair) ||
        adm.c > static_cast<u64>(serve::OverflowPolicy::Reject) ||
        adm.d > static_cast<u64>(serve::Granularity::Stage) ||
        adm.values.empty())
        throw std::runtime_error(
            "Replayer: malformed admission_setup record");
    setup.admission.queueDepth = static_cast<std::size_t>(adm.a);
    setup.admission.qos = static_cast<serve::QosPolicy>(adm.b);
    setup.admission.overflow =
        static_cast<serve::OverflowPolicy>(adm.c);
    setup.admission.granularity =
        static_cast<serve::Granularity>(adm.d);
    setup.admission.collectOutputs = adm.values[0] != 0;
    setup.admission.chipQueueDepth.clear();
    for (std::size_t v = 1; v < adm.values.size(); ++v)
        setup.admission.chipQueueDepth.push_back(
            static_cast<std::size_t>(adm.values[v]));

    setup.tenants.clear();
    while (i < ev.size() && ev[i].kind == EventKind::TenantSetup) {
        const JournalEvent &e = ev[i];
        ++i;
        if (e.a != setup.tenants.size())
            throw std::runtime_error(
                "Replayer: tenant_setup records out of index order");
        if (e.b > static_cast<u64>(serve::WorkloadKind::GfWide) ||
            e.values.size() < 7)
            throw std::runtime_error(
                "Replayer: malformed tenant_setup record " +
                std::to_string(i - 1));
        serve::TenantSpec spec;
        spec.name = e.note;
        spec.kind = static_cast<serve::WorkloadKind>(e.b);
        spec.weight = bitsToDouble(e.d);
        spec.ratePerKns =
            bitsToDouble(static_cast<u64>(e.values[0]));
        spec.modelKey = e.c;
        spec.burst.onNs = static_cast<WallNs>(e.values[1]);
        spec.burst.offNs = static_cast<WallNs>(e.values[2]);
        spec.slo.latencyTargetNs = static_cast<WallNs>(e.values[3]);
        spec.slo.targetAvailability =
            bitsToDouble(static_cast<u64>(e.values[4]));
        spec.arriveNs = static_cast<WallNs>(e.values[5]);
        spec.departNs = static_cast<WallNs>(e.values[6]);
        setup.tenants.push_back(std::move(spec));
    }
    if (setup.tenants.empty())
        throw std::runtime_error(
            "Replayer: journal has no tenant_setup records");

    if (i < ev.size() && ev[i].kind == EventKind::FleetSetup) {
        const JournalEvent &e = ev[i];
        ++i;
        if (e.values.size() < 3)
            throw std::runtime_error(
                "Replayer: malformed fleet_setup record");
        setup.fleet = true;
        setup.fleetCfg.migration = e.a != 0;
        setup.fleetCfg.autoscale = e.b != 0;
        setup.fleetCfg.minActive = static_cast<std::size_t>(e.c);
        setup.fleetCfg.checkIntervalNs = e.d;
        setup.fleetCfg.backlogHighNs =
            static_cast<WallNs>(e.values[0]);
        setup.fleetCfg.backlogLowNs =
            static_cast<WallNs>(e.values[1]);
        setup.fleetCfg.migrateHighNs =
            static_cast<WallNs>(e.values[2]);
    }

    // The Placement records buildTenants emitted sit between the
    // tenant table and trace_begin; they are re-derived on replay,
    // not inputs, so skip to the trace.
    while (i < ev.size() && ev[i].kind == EventKind::Placement)
        ++i;

    return need(EventKind::TraceBegin).a;
}

std::string
formatEvent(const JournalEvent &e)
{
    std::string s = eventKindName(e.kind);
    s += "{cycle=" + std::to_string(e.cycle);
    s += " a=" + std::to_string(e.a);
    s += " b=" + std::to_string(e.b);
    s += " c=" + std::to_string(e.c);
    s += " d=" + std::to_string(e.d);
    if (!e.note.empty())
        s += " note=" + e.note;
    s += " values[" + std::to_string(e.values.size()) + "]}";
    return s;
}

/** Cursor over a retained journal's records: the in-memory
 *  counterpart of SegmentReader::next. */
class EventCursor
{
  public:
    explicit EventCursor(const Journal &jr) : events_(jr.events()) {}

    bool
    next(JournalEvent &out)
    {
        if (i_ >= events_.size())
            return false;
        out = events_[i_++];
        return true;
    }

  private:
    const std::vector<JournalEvent> &events_;
    std::size_t i_ = 0;
};

/**
 * The one trace decoder. Construction reads a recording's header off
 * `cursor` (a SegmentReader or an EventCursor) through its
 * TraceBegin record and parses it; next() then yields one
 * ServeRequest per Arrival (live recording) or RequestSummary
 * (compacted recording) record, draining every other kind on the
 * way, so once it is exhausted the cursor has read — and a
 * SegmentReader verified — the whole recording. A trace whose length
 * differs from TraceBegin's announced count throws
 * std::runtime_error when it runs dry.
 */
template <typename Cursor>
class TraceDecoder : public serve::RequestSource
{
  public:
    explicit TraceDecoder(Cursor &cursor) : cursor_(cursor)
    {
        // The header is bounded (setup-sized), so it is buffered.
        std::vector<JournalEvent> header;
        JournalEvent e;
        while (cursor_.next(e)) {
            const bool trace_begin = e.kind == EventKind::TraceBegin;
            header.push_back(std::move(e));
            if (trace_begin)
                break;
        }
        announced_ = parseHeaderRecords(header, setup_);
    }

    bool
    next(serve::ServeRequest &out) override
    {
        JournalEvent e;
        while (cursor_.next(e)) {
            if (e.kind != EventKind::Arrival &&
                e.kind != EventKind::RequestSummary)
                continue;
            if (e.a != decoded_)
                throw std::runtime_error(
                    std::string("Replayer: ") + eventKindName(e.kind) +
                    " records out of trace order");
            out.tenant = static_cast<std::size_t>(e.b);
            if (e.kind == EventKind::Arrival) {
                out.arrival = e.cycle;
                out.input = std::move(e.values);
            } else {
                // A compacted recording carries one summary per
                // request instead of its event group; the summary's
                // values open with {arrival, start, mvms, completed}
                // and carry the input words after them.
                if (e.values.size() < 4)
                    throw std::runtime_error(
                        "Replayer: malformed request_summary record");
                compacted_ = true;
                out.arrival = static_cast<WallNs>(e.values[0]);
                out.input.assign(e.values.begin() + 4, e.values.end());
            }
            ++decoded_;
            return true;
        }
        if (announced_ != kStreamedTraceCount && decoded_ != announced_)
            throw std::runtime_error(
                "Replayer: trace_begin announces " +
                std::to_string(announced_) + " requests, journal carries " +
                std::to_string(decoded_));
        return false;
    }

    const ServeRunSetup &setup() const { return setup_; }
    /** TraceBegin's count (possibly kStreamedTraceCount). */
    u64 announced() const { return announced_; }
    /** True once a RequestSummary record was decoded. */
    bool compacted() const { return compacted_; }

  private:
    Cursor &cursor_;
    ServeRunSetup setup_;
    u64 announced_ = 0;
    u64 decoded_ = 0;
    bool compacted_ = false;
};

/** JournalSink forwarding every replayed record into a Compactor,
 *  so the compacted form of the replayed stream builds alongside
 *  the live form in the same pass. */
class CompactingTee : public JournalSink
{
  public:
    explicit CompactingTee(Compactor &compactor)
        : compactor_(compactor)
    {
    }

    void onRecord(const JournalEvent &event, std::size_t /*index*/,
                  u64 /*checksum*/,
                  const std::vector<unsigned char> & /*encoded*/)
        override
    {
        compactor_.push(event);
    }

  private:
    Compactor &compactor_;
};

/**
 * The one replay path behind Replayer and replaySegments: re-drive
 * the decoded setup through driveRun with the recorded TraceBegin
 * count, pulling the trace through `trace`, while the Compactor
 * builds the compacted form of the replayed stream in the same pass.
 * Returns the replayed report; `replayed` receives the replayed
 * stream in the recording's form — the live stream, or its
 * compaction when the recording is compacted. `retain` keeps the
 * replayed records in memory (for a per-event comparison); without
 * it both forms are chain accumulators and the replay runs at flat
 * memory.
 */
template <typename Cursor>
serve::ServeReport
redrive(TraceDecoder<Cursor> &trace, bool retain, Journal &replayed)
{
    Journal live;
    Journal compact;
    compact.attachSink(nullptr, retain);
    Compactor compactor(compact);
    CompactingTee tee(compactor);
    live.attachSink(&tee, retain);

    // The recording's Complete records already carry every output's
    // checksum, so replay never collects the output vectors (and
    // runStream refuses to).
    serve::AdmissionConfig admission = trace.setup().admission;
    admission.collectOutputs = false;

    serve::ServeReport report =
        driveRun(trace.setup(), admission, live, trace.announced(),
                 [&trace](serve::AdmissionController &ctrl) {
                     return ctrl.runStream(trace);
                 });
    compactor.finish();
    live.attachSink(nullptr, retain); // the tee dies with this frame
    replayed = std::move(trace.compacted() ? compact : live);
    return report;
}

} // namespace

serve::PoolConfig
ServeRunSetup::poolConfig() const
{
    if (slots.empty())
        throw std::invalid_argument(
            "ServeRunSetup: pool needs at least one slot");
    for (const PoolSlotSetup &slot : slots) {
        if (slot.clockGHz <= 0.0)
            throw std::invalid_argument(
                "ServeRunSetup: slot clock must be positive");
        if (slot.kind != SlotKind::Default && slot.hcts == 0)
            throw std::invalid_argument(
                "ServeRunSetup: slot tile count must be positive");
    }

    serve::PoolConfig cfg;
    cfg.placement = placement;
    cfg.seed = poolSeed;
    cfg.backlogWindowNs = backlogWindowNs;
    if (uniformPool) {
        const PoolSlotSetup &first = slots.front();
        for (const PoolSlotSetup &slot : slots)
            if (slot.kind != first.kind || slot.hcts != first.hcts ||
                slot.clockGHz != first.clockGHz)
                throw std::invalid_argument(
                    "ServeRunSetup: a uniform pool's slots must be "
                    "identical");
        // The uniform PoolConfig path replicates a bare
        // runtime::ChipConfig; ChipPool stamps those slots with the
        // default clock, so a uniform setup cannot carry another.
        if (first.clockGHz != model::kClockGHz)
            throw std::invalid_argument(
                "ServeRunSetup: a uniform pool runs at the default "
                "clock; use uniformPool=false for a custom one");
        cfg.chip = slotSpec(first).chip;
        cfg.numChips = slots.size();
    } else {
        cfg.chips.reserve(slots.size());
        for (const PoolSlotSetup &slot : slots)
            cfg.chips.push_back(slotSpec(slot));
    }
    return cfg;
}

ServeRunRecord
recordServeRun(const ServeRunSetup &setup)
{
    serve::TrafficGen gen(setup.trafficSeed);
    return recordServeRun(setup,
                          gen.trace(setup.tenants, setup.horizon));
}

ServeRunRecord
recordServeRun(const ServeRunSetup &setup,
               const std::vector<serve::ServeRequest> &trace)
{
    ServeRunRecord rec;
    rec.trace = trace;
    rec.report = driveRun(setup, setup.admission, rec.journal,
                          trace.size(),
                          [&trace](serve::AdmissionController &ctrl) {
                              return ctrl.run(trace);
                          });
    return rec;
}

serve::ServeReport
recordServeRunStream(const ServeRunSetup &setup,
                     serve::RequestSource &source, Journal &jr)
{
    if (!jr.empty())
        throw std::invalid_argument(
            "recordServeRunStream: journal must be empty");
    return driveRun(setup, setup.admission, jr, kStreamedTraceCount,
                    [&source](serve::AdmissionController &ctrl) {
                        return ctrl.runStream(source);
                    });
}

Replayer::Replayer(Journal recorded) : recorded_(std::move(recorded))
{
    EventCursor cursor(recorded_);
    TraceDecoder<EventCursor> decoder(cursor);
    setup_ = decoder.setup();
    serve::ServeRequest req;
    while (decoder.next(req))
        trace_.push_back(std::move(req));
}

Replayer::Result
Replayer::replay() const
{
    EventCursor cursor(recorded_);
    TraceDecoder<EventCursor> decoder(cursor);
    Result result;
    result.report = redrive(decoder, /*retain=*/true, result.journal);

    const std::vector<JournalEvent> &want = recorded_.events();
    const std::vector<JournalEvent> &got =
        result.journal.events();
    const std::size_t common = std::min(want.size(), got.size());
    for (std::size_t i = 0; i < common; ++i) {
        if (want[i] == got[i])
            continue;
        result.firstMismatch = i;
        result.detail = "event " + std::to_string(i) +
                        ": recorded " + formatEvent(want[i]) +
                        ", replayed " + formatEvent(got[i]);
        return result;
    }
    if (want.size() != got.size()) {
        result.firstMismatch = common;
        result.detail =
            "recorded journal has " + std::to_string(want.size()) +
            " events, replay produced " + std::to_string(got.size());
        return result;
    }
    result.identical = true;
    result.firstMismatch = want.size();
    return result;
}

SegmentReplayResult
replaySegments(const std::string &dir)
{
    SegmentReader reader(dir);
    TraceDecoder<SegmentReader> decoder(reader);
    Journal replayed;
    SegmentReplayResult result;
    result.report = redrive(decoder, /*retain=*/false, replayed);

    // The decoder drained the reader to end of stream, so its chain
    // now covers the whole recording.
    result.recordedChain = reader.chainChecksum();
    result.recordedRecords = reader.recordIndex();
    result.replayedChain = replayed.chainChecksum();
    const std::size_t replayed_records = replayed.size();
    result.identical =
        result.replayedChain == result.recordedChain &&
        replayed_records == result.recordedRecords;
    if (!result.identical)
        result.detail =
            "recorded " + std::to_string(result.recordedRecords) +
            " records (chain " +
            std::to_string(result.recordedChain) + "), replayed " +
            std::to_string(replayed_records) + " (chain " +
            std::to_string(result.replayedChain) + ", " +
            (decoder.compacted() ? "compacted" : "live") + " form)";
    return result;
}

} // namespace journal
} // namespace darth
